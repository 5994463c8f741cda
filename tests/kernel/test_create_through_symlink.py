"""open(O_CREAT) on a name that is a symlink, as Linux answers it.

``O_CREAT|O_EXCL`` never follows the final symlink, so any existing
name, a dangling link included, fails with EEXIST. A plain ``O_CREAT``
follows the link: through a dangling link it creates the link's
target, after the usual write check on the target's parent. No create
ever replaces the link itself, so a user cannot clobber another
user's link in sticky ``/tmp``, which unlink would refuse them.
(``fs.protected_symlinks`` is not modelled.)
"""

import pytest

from repro.core.system import System, SystemMode
from repro.kernel import modes
from repro.kernel.errno import Errno, SyscallError

CREATE = modes.O_WRONLY | modes.O_CREAT
EXCL = CREATE | modes.O_EXCL
MODES = [SystemMode.LINUX, SystemMode.PROTEGO]


def _world(mode):
    system = System(mode)
    return (system.kernel, system.session_for("alice"),
            system.session_for("bob"))


def _errno(fn):
    with pytest.raises(SyscallError) as err:
        fn()
    return err.value.errno_value


def _is_link(kernel, path, target):
    inode = kernel.vfs.lookup(path, follow_final_symlink=False)
    return inode.is_symlink() and inode.symlink_target == target


@pytest.mark.parametrize("mode", MODES)
def test_another_users_link_in_sticky_tmp_is_not_replaced(mode):
    kernel, alice, bob = _world(mode)
    kernel.sys_symlink(bob, "/home/bob/later", "/tmp/bobs-link")
    assert _errno(lambda: kernel.sys_unlink(alice, "/tmp/bobs-link")) \
        == Errno.EACCES
    # Followed to /home/bob/later, whose parent alice may not write.
    assert _errno(lambda: kernel.sys_open(alice, "/tmp/bobs-link",
                                          CREATE)) == Errno.EACCES
    assert _is_link(kernel, "/tmp/bobs-link", "/home/bob/later")
    assert not kernel.vfs.exists("/home/bob/later")


@pytest.mark.parametrize("mode", MODES)
def test_o_excl_fails_on_any_existing_name(mode):
    kernel, alice, _bob = _world(mode)
    kernel.sys_symlink(alice, "/home/alice/later", "/tmp/dangling")
    kernel.write_file(alice, "/tmp/file", b"x")
    kernel.sys_symlink(alice, "/tmp/file", "/tmp/to-file")
    for name in ("/tmp/dangling", "/tmp/to-file", "/tmp/file"):
        assert _errno(lambda: kernel.sys_open(alice, name, EXCL)) \
            == Errno.EEXIST, name
    assert _is_link(kernel, "/tmp/dangling", "/home/alice/later")
    assert not kernel.vfs.exists("/home/alice/later")


@pytest.mark.parametrize("mode", MODES)
def test_o_creat_through_a_dangling_link_creates_its_target(mode):
    kernel, alice, _bob = _world(mode)
    kernel.sys_symlink(alice, "/home/alice/made", "/tmp/alices-link")
    kernel.sys_symlink(alice, "rel-made", "/home/alice/rel")
    kernel.sys_symlink(alice, "/tmp/alices-link", "/tmp/chain")
    fd = kernel.sys_open(alice, "/tmp/chain", CREATE)
    kernel.sys_write(alice, fd, b"via link")
    kernel.sys_close(alice, fd)
    kernel.sys_close(alice, kernel.sys_open(alice, "/home/alice/rel", CREATE))
    made = kernel.vfs.resolve("/home/alice/made")
    assert made.is_regular() and made.uid == 1000
    assert kernel.read_file(alice, "/home/alice/made") == b"via link"
    assert kernel.vfs.resolve("/home/alice/rel-made").is_regular()
    assert _is_link(kernel, "/tmp/alices-link", "/home/alice/made")
    assert _is_link(kernel, "/tmp/chain", "/tmp/alices-link")
    assert _is_link(kernel, "/home/alice/rel", "rel-made")


@pytest.mark.parametrize("mode", MODES)
def test_o_creat_through_a_link_to_a_file_opens_the_file(mode):
    kernel, alice, _bob = _world(mode)
    kernel.write_file(alice, "/home/alice/data", b"old")
    kernel.sys_symlink(alice, "/home/alice/data", "/tmp/to-data")
    fd = kernel.sys_open(alice, "/tmp/to-data", CREATE | modes.O_TRUNC)
    kernel.sys_write(alice, fd, b"new")
    kernel.sys_close(alice, fd)
    assert kernel.read_file(alice, "/home/alice/data") == b"new"
    assert _is_link(kernel, "/tmp/to-data", "/home/alice/data")


@pytest.mark.parametrize("mode", MODES)
def test_o_creat_on_a_link_loop_is_eloop(mode):
    kernel, alice, _bob = _world(mode)
    kernel.sys_symlink(alice, "/tmp/loop-b", "/tmp/loop-a")
    kernel.sys_symlink(alice, "/tmp/loop-a", "/tmp/loop-b")
    assert _errno(lambda: kernel.sys_open(alice, "/tmp/loop-a", CREATE)) \
        == Errno.ELOOP
    assert _is_link(kernel, "/tmp/loop-a", "/tmp/loop-b")
