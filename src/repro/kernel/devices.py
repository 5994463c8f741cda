"""Device objects: block devices, dm-crypt targets, modems, video.

Each device models exactly the state machine the studied policies care
about:

* block devices carry a filesystem image so mount(2) has something to
  graft (CD-ROM, USB stick);
* dm-crypt devices carry both public metadata (the underlying device
  set) and a private key — the paper's example of an interface design
  that forces privilege (section 4, Table 4: the legacy ioctl disclosed
  both, the /sys replacement discloses only the device set);
* modems track an in-use flag (pppd may configure a modem only if it
  is not in use);
* the video device implements Kernel Mode Setting save/restore so the
  X server no longer needs root (section 4.5).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional

from repro.kernel.errno import Errno, SyscallError

_dev_ids = itertools.count(1)


class Device:
    """Base device."""

    def __init__(self, name: str):
        self.name = name
        self.dev_id = next(_dev_ids)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class BlockDevice(Device):
    """A block device that may carry a filesystem image."""

    def __init__(self, name: str, fstype: str = "ext4", label: str = "", removable: bool = False):
        super().__init__(name)
        self.fstype = fstype
        self.label = label
        self.removable = removable
        self.ejected = False

    def eject(self) -> None:
        if not self.removable:
            raise SyscallError(Errno.EINVAL, f"{self.name} is not removable")
        self.ejected = True


@dataclasses.dataclass
class DmCryptMetadata:
    """What the legacy DM ioctl returned: devices *and* the key."""

    underlying_devices: List[str]
    cipher: str
    key: bytes


class DmCryptDevice(BlockDevice):
    """An encrypted block device (dm-crypt target)."""

    def __init__(self, name: str, underlying: List[str], key: bytes, cipher: str = "aes-xts"):
        super().__init__(name, fstype="crypto_LUKS")
        self.metadata = DmCryptMetadata(list(underlying), cipher, key)

    def legacy_ioctl_table(self) -> DmCryptMetadata:
        """The privileged DM_TABLE_STATUS ioctl: discloses the key too.

        This is why dmcrypt-get-device needed CAP_SYS_ADMIN; the
        caller must be trusted with the key even if it only wants the
        device list.
        """
        return self.metadata

    def public_device_set(self) -> List[str]:
        """The /sys replacement: only the physical device set."""
        return list(self.metadata.underlying_devices)


class Modem(Device):
    """A serial modem for PPP links."""

    def __init__(self, name: str):
        super().__init__(name)
        self.in_use_by: Optional[int] = None
        self.options: Dict[str, str] = {}
        self.peer: Optional["Modem"] = None

    def connect_peer(self, other: "Modem") -> None:
        """Crossover serial cable between two machines (paper 4.1.2)."""
        self.peer = other
        other.peer = self

    def acquire(self, pid: int) -> None:
        if self.in_use_by is not None and self.in_use_by != pid:
            raise SyscallError(Errno.EBUSY, self.name)
        self.in_use_by = pid

    def release(self, pid: int) -> None:
        if self.in_use_by == pid:
            self.in_use_by = None

    def configure(self, option: str, value: str) -> None:
        self.options[option] = value


class PPPDevice(Device):
    """/dev/ppp — channel multiplexer for PPP units."""

    def __init__(self):
        super().__init__("ppp")
        self.units: Dict[int, Dict[str, str]] = {}
        self._unit_ids = itertools.count(0)

    def new_unit(self) -> int:
        unit = next(self._unit_ids)
        self.units[unit] = {}
        return unit


@dataclasses.dataclass
class VideoState:
    """The mode-setting state KMS saves and restores."""

    resolution: str = "1024x768"
    refresh_hz: int = 60
    active_framebuffer: int = 0


class VideoDevice(Device):
    """A KMS-capable video device (section 4.5).

    With KMS, the *kernel* context switches the card between
    consumers; an unprivileged X server only submits framebuffers.
    """

    def __init__(self, name: str = "card0", kms: bool = True):
        super().__init__(name)
        self.kms = kms
        self.state = VideoState()
        self._saved: Dict[int, VideoState] = {}
        self.current_console = 1

    def kms_switch(self, console: int) -> VideoState:
        """Kernel-side context switch (Ctrl-Alt-Fn). The live state
        belongs to the console being left, so it is kept as that
        console's saved state, not copied; a console seen for the first
        time starts from the default mode."""
        if not self.kms:
            raise SyscallError(Errno.ENOSYS, "driver lacks KMS")
        saved = self._saved
        saved[self.current_console] = self.state
        self.current_console = console
        state = saved.get(console)
        if state is None:
            state = VideoState()
        self.state = state
        return state

    def set_mode(self, resolution: str, refresh_hz: int) -> None:
        self.state.resolution = resolution
        self.state.refresh_hz = refresh_hz


class TTY(Device):
    """A terminal, enough to model the authentication service's
    terminal takeover and sudo's per-terminal timestamp."""

    def __init__(self, name: str):
        super().__init__(name)
        self.lines_out: List[str] = []
        self.input_queue: List[str] = []
        self.locked_by: Optional[int] = None

    def write_line(self, line: str) -> None:
        self.lines_out.append(line)

    def read_line(self) -> str:
        if not self.input_queue:
            raise SyscallError(Errno.EAGAIN, f"no input on {self.name}")
        return self.input_queue.pop(0)

    def feed(self, line: str) -> None:
        """Test/driver hook: queue a line of user input."""
        self.input_queue.append(line)

    def take_over(self, pid: int) -> None:
        """Exclusive claim by the trusted authentication service."""
        if self.locked_by is not None and self.locked_by != pid:
            raise SyscallError(Errno.EBUSY, self.name)
        self.locked_by = pid

    def release(self, pid: int) -> None:
        if self.locked_by == pid:
            self.locked_by = None


class DeviceRegistry:
    """All devices the simulated machine exposes."""

    def __init__(self):
        self._devices: Dict[str, Device] = {}

    def register(self, device: Device) -> Device:
        if device.name in self._devices:
            raise SyscallError(Errno.EEXIST, device.name)
        self._devices[device.name] = device
        return device

    def get(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError:
            raise SyscallError(Errno.ENODEV, name) from None

    def find(self, name: str) -> Optional[Device]:
        return self._devices.get(name)

    def all(self) -> List[Device]:
        return list(self._devices.values())
