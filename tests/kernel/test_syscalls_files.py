"""Unit tests for the file syscalls."""

import pytest

from repro.kernel import Kernel, modes
from repro.kernel.errno import Errno, SyscallError


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def root(kernel):
    return kernel.root_task()


@pytest.fixture
def alice(kernel):
    return kernel.user_task(1000, 1000)


class TestOpenReadWrite:
    def test_create_write_read_roundtrip(self, kernel, root):
        kernel.write_file(root, "/etc/motd", b"welcome\n")
        assert kernel.read_file(root, "/etc/motd") == b"welcome\n"

    def test_open_missing_raises_enoent(self, kernel, root):
        with pytest.raises(SyscallError) as err:
            kernel.sys_open(root, "/etc/missing")
        assert err.value.errno_value == Errno.ENOENT

    def test_unprivileged_cannot_write_etc(self, kernel, root, alice):
        kernel.write_file(root, "/etc/motd", b"x")
        with pytest.raises(SyscallError) as err:
            kernel.write_file(alice, "/etc/motd", b"pwned")
        assert err.value.errno_value == Errno.EACCES

    def test_unprivileged_cannot_create_in_etc(self, kernel, alice):
        with pytest.raises(SyscallError) as err:
            kernel.write_file(alice, "/etc/evil", b"x")
        assert err.value.errno_value == Errno.EACCES

    def test_user_can_create_in_tmp(self, kernel, alice):
        kernel.write_file(alice, "/tmp/scratch", b"ok")
        assert kernel.read_file(alice, "/tmp/scratch") == b"ok"
        assert kernel.sys_stat(alice, "/tmp/scratch").uid == 1000

    def test_append_flag(self, kernel, root):
        kernel.write_file(root, "/tmp/log", b"a")
        kernel.write_file(root, "/tmp/log", b"b", append=True)
        assert kernel.read_file(root, "/tmp/log") == b"ab"

    def test_o_trunc(self, kernel, root):
        kernel.write_file(root, "/tmp/f", b"longcontent")
        kernel.write_file(root, "/tmp/f", b"s")
        assert kernel.read_file(root, "/tmp/f") == b"s"

    def test_read_on_wronly_fd_raises_ebadf(self, kernel, root):
        kernel.write_file(root, "/tmp/f", b"x")
        fd = kernel.sys_open(root, "/tmp/f", modes.O_WRONLY)
        with pytest.raises(SyscallError) as err:
            kernel.sys_read(root, fd)
        assert err.value.errno_value == Errno.EBADF

    def test_write_on_rdonly_fd_raises_ebadf(self, kernel, root):
        kernel.write_file(root, "/tmp/f", b"x")
        fd = kernel.sys_open(root, "/tmp/f", modes.O_RDONLY)
        with pytest.raises(SyscallError):
            kernel.sys_write(root, fd, b"y")

    def test_partial_reads_advance_offset(self, kernel, root):
        kernel.write_file(root, "/tmp/f", b"abcdef")
        fd = kernel.sys_open(root, "/tmp/f")
        assert kernel.sys_read(root, fd, 2) == b"ab"
        assert kernel.sys_read(root, fd, 2) == b"cd"
        assert kernel.sys_read(root, fd) == b"ef"

    def test_close_invalidates_fd(self, kernel, root):
        kernel.write_file(root, "/tmp/f", b"x")
        fd = kernel.sys_open(root, "/tmp/f")
        kernel.sys_close(root, fd)
        with pytest.raises(SyscallError) as err:
            kernel.sys_read(root, fd)
        assert err.value.errno_value == Errno.EBADF


class TestMetadataSyscalls:
    def test_stat_reports_mode_and_owner(self, kernel, root):
        kernel.write_file(root, "/tmp/f", b"abc")
        st = kernel.sys_stat(root, "/tmp/f")
        assert st.size == 3
        assert st.uid == 0
        assert modes.is_reg(st.mode)

    def test_chmod_by_owner(self, kernel, alice):
        kernel.write_file(alice, "/tmp/mine", b"")
        kernel.sys_chmod(alice, "/tmp/mine", 0o600)
        assert kernel.sys_stat(alice, "/tmp/mine").mode & 0o7777 == 0o600

    def test_chmod_by_other_raises_eperm(self, kernel, root, alice):
        kernel.write_file(root, "/tmp/rootfile", b"")
        with pytest.raises(SyscallError) as err:
            kernel.sys_chmod(alice, "/tmp/rootfile", 0o777)
        assert err.value.errno_value == Errno.EPERM

    def test_chown_requires_cap_chown(self, kernel, root, alice):
        kernel.write_file(alice, "/tmp/mine", b"")
        with pytest.raises(SyscallError):
            kernel.sys_chown(alice, "/tmp/mine", 0)
        kernel.sys_chown(root, "/tmp/mine", 0)
        assert kernel.sys_stat(root, "/tmp/mine").uid == 0

    def test_chown_clears_setuid_bit(self, kernel, root):
        kernel.write_file(root, "/tmp/prog", b"#!")
        kernel.sys_chmod(root, "/tmp/prog", 0o4755)
        kernel.sys_chown(root, "/tmp/prog", 1000)
        assert not kernel.sys_stat(root, "/tmp/prog").mode & modes.S_ISUID

    def test_chown_keeps_setgid_on_a_directory(self, kernel, root):
        # chown_common kills the set-id bits only on non-directories:
        # /var/mail stays 2775 root:mail after its chown.
        kernel.sys_mkdir(root, "/tmp/spool", 0o2775)
        kernel.write_file(root, "/tmp/spool/tool", b"#!")
        kernel.sys_chmod(root, "/tmp/spool/tool", 0o6755)
        kernel.sys_chown(root, "/tmp/spool", 0, 8)
        kernel.sys_chown(root, "/tmp/spool/tool", 1000)
        spool = kernel.sys_stat(root, "/tmp/spool")
        assert (spool.mode & 0o7777, spool.gid) == (0o2775, 8)
        tool = kernel.sys_stat(root, "/tmp/spool/tool").mode
        assert not tool & (modes.S_ISUID | modes.S_ISGID)

    def test_access(self, kernel, root, alice):
        kernel.write_file(root, "/etc/secret", b"")
        kernel.sys_chmod(root, "/etc/secret", 0o600)
        assert kernel.sys_access(root, "/etc/secret", modes.R_OK)
        assert not kernel.sys_access(alice, "/etc/secret", modes.R_OK)

    def test_mkdir_and_readdir(self, kernel, root):
        kernel.sys_mkdir(root, "/tmp/d")
        kernel.write_file(root, "/tmp/d/one", b"")
        kernel.write_file(root, "/tmp/d/two", b"")
        assert kernel.sys_readdir(root, "/tmp/d") == ["one", "two"]

    def test_unlink(self, kernel, root):
        kernel.write_file(root, "/tmp/f", b"")
        kernel.sys_unlink(root, "/tmp/f")
        assert not kernel.vfs.exists("/tmp/f")

    def test_sticky_tmp_protects_other_users_files(self, kernel, root, alice):
        bob = kernel.user_task(1001, 1001)
        kernel.write_file(alice, "/tmp/alices", b"")
        with pytest.raises(SyscallError) as err:
            kernel.sys_unlink(bob, "/tmp/alices")
        assert err.value.errno_value == Errno.EACCES
        kernel.sys_unlink(alice, "/tmp/alices")

    def test_symlink_syscall(self, kernel, root):
        kernel.write_file(root, "/etc/target", b"t")
        kernel.sys_symlink(root, "/etc/target", "/tmp/link")
        assert kernel.read_file(root, "/tmp/link") == b"t"

    def test_chdir_and_relative_paths(self, kernel, root):
        kernel.sys_mkdir(root, "/tmp/work")
        kernel.sys_chdir(root, "/tmp/work")
        kernel.write_file(root, "file", b"rel")
        assert kernel.read_file(root, "/tmp/work/file") == b"rel"

    def test_chdir_to_file_raises_enotdir(self, kernel, root):
        kernel.write_file(root, "/tmp/f", b"")
        with pytest.raises(SyscallError) as err:
            kernel.sys_chdir(root, "/tmp/f")
        assert err.value.errno_value == Errno.ENOTDIR
