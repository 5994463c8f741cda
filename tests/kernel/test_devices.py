"""Unit tests for device models (dm-crypt, modem, KMS video, tty)."""

import pytest

from repro.kernel import Kernel
from repro.kernel.devices import (
    BlockDevice,
    DeviceRegistry,
    DmCryptDevice,
    Modem,
    PPPDevice,
    TTY,
    VideoDevice,
)
from repro.kernel.errno import Errno, SyscallError


class TestRegistry:
    def test_register_and_get(self):
        reg = DeviceRegistry()
        dev = reg.register(BlockDevice("sda"))
        assert reg.get("sda") is dev

    def test_duplicate_raises(self):
        reg = DeviceRegistry()
        reg.register(BlockDevice("sda"))
        with pytest.raises(SyscallError):
            reg.register(BlockDevice("sda"))

    def test_missing_raises_enodev(self):
        with pytest.raises(SyscallError) as err:
            DeviceRegistry().get("nvme0")
        assert err.value.errno_value == Errno.ENODEV


class TestBlockDevice:
    def test_eject_removable(self):
        cd = BlockDevice("cdrom", removable=True)
        cd.eject()
        assert cd.ejected

    def test_eject_fixed_disk_fails(self):
        with pytest.raises(SyscallError):
            BlockDevice("sda").eject()


class TestDmCrypt:
    def test_legacy_ioctl_discloses_key(self):
        dm = DmCryptDevice("dm-0", ["sda2", "sdb1"], key=b"supersecret")
        meta = dm.legacy_ioctl_table()
        assert meta.key == b"supersecret"
        assert meta.underlying_devices == ["sda2", "sdb1"]

    def test_sys_interface_discloses_only_devices(self):
        dm = DmCryptDevice("dm-0", ["sda2"], key=b"supersecret")
        public = dm.public_device_set()
        assert public == ["sda2"]
        assert b"supersecret" not in repr(public).encode()

    def test_legacy_ioctl_requires_cap_sys_admin_even_with_lsm(self):
        """The interface-design point: no policy can make the legacy
        ioctl safe, because it returns the key."""
        kernel = Kernel()
        dm = kernel.devices.register(DmCryptDevice("dm-0", ["sda2"], key=b"k"))
        alice = kernel.user_task(1000, 1000)
        with pytest.raises(SyscallError) as err:
            kernel.sys_ioctl(alice, dm, "DM_TABLE_STATUS")
        assert err.value.errno_value == Errno.EPERM
        root = kernel.root_task()
        assert kernel.sys_ioctl(root, dm, "DM_TABLE_STATUS").key == b"k"


class TestModem:
    def test_acquire_conflict(self):
        modem = Modem("ttyS0")
        modem.acquire(10)
        with pytest.raises(SyscallError) as err:
            modem.acquire(11)
        assert err.value.errno_value == Errno.EBUSY

    def test_release_then_reacquire(self):
        modem = Modem("ttyS0")
        modem.acquire(10)
        modem.release(10)
        modem.acquire(11)

    def test_crossover_cable(self):
        a, b = Modem("ttyS0"), Modem("ttyS1")
        a.connect_peer(b)
        assert a.peer is b and b.peer is a

    def test_ppp_units(self):
        ppp = PPPDevice()
        assert ppp.new_unit() == 0
        assert ppp.new_unit() == 1


class TestVideoKMS:
    def test_kms_switch_saves_and_restores_state(self):
        card = VideoDevice()
        card.set_mode("1920x1080", 75)
        card.kms_switch(2)           # to console 2 (default state)
        assert card.state.resolution == "1024x768"
        card.kms_switch(1)           # back to console 1
        assert card.state.resolution == "1920x1080"
        assert card.state.refresh_hz == 75
        # A round trip through a console that now has a saved state:
        # each console keeps its own mode.
        card.kms_switch(2)
        card.set_mode("1280x1024", 60)
        card.kms_switch(1)
        assert (card.state.resolution, card.state.refresh_hz) == ("1920x1080", 75)
        card.kms_switch(2)
        assert (card.state.resolution, card.state.refresh_hz) == ("1280x1024", 60)

    def test_non_kms_driver_raises_enosys(self):
        card = VideoDevice(kms=False)
        with pytest.raises(SyscallError) as err:
            card.kms_switch(2)
        assert err.value.errno_value == Errno.ENOSYS

    def test_kms_switch_via_ioctl_needs_no_privilege(self):
        kernel = Kernel()
        card = kernel.devices.register(VideoDevice())
        alice = kernel.user_task(1000, 1000)
        kernel.sys_ioctl(alice, card, "KMS_SWITCH", 2)
        assert card.current_console == 2

    def test_legacy_vidmode_ioctl_requires_root(self):
        kernel = Kernel()
        card = kernel.devices.register(VideoDevice())
        alice = kernel.user_task(1000, 1000)
        with pytest.raises(SyscallError):
            kernel.sys_ioctl(alice, card, "VIDMODE", ("800x600", 60))
        kernel.sys_ioctl(kernel.root_task(), card, "VIDMODE", ("800x600", 60))
        assert card.state.resolution == "800x600"


class TestTTY:
    def test_write_read(self):
        tty = TTY("tty1")
        tty.feed("password123")
        assert tty.read_line() == "password123"
        tty.write_line("Password:")
        assert tty.lines_out == ["Password:"]

    def test_read_empty_raises_eagain(self):
        with pytest.raises(SyscallError):
            TTY("tty1").read_line()

    def test_take_over_exclusive(self):
        tty = TTY("tty1")
        tty.take_over(5)
        with pytest.raises(SyscallError):
            tty.take_over(6)
        tty.release(5)
        tty.take_over(6)
