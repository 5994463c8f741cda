"""Sticky directories and rename(2) edge cases, as Linux answers them.

In a sticky directory (``/tmp`` is 01777) only the owner of an entry,
the owner of the directory or a ``CAP_FOWNER`` holder may remove the
entry, and rename removes entries too: the source name always, the
destination name when it exists. One check guards unlink, rmdir and
both sides of rename, and refuses with EACCES as unlink always did.

``rename(p, q)`` where both names are the same file succeeds and
changes nothing (POSIX), and a directory cannot move beneath itself
(EINVAL), however the destination is spelled. A rename replaces an
existing destination only with a node of the same kind: a file cannot
replace a directory (EISDIR), nor a directory a file (ENOTDIR).
"""

import pytest

from repro.core.system import System, SystemMode
from repro.kernel.errno import Errno, SyscallError

MODES = [SystemMode.LINUX, SystemMode.PROTEGO]


def _world(mode):
    system = System(mode)
    return (system.kernel, system.root_session(),
            system.session_for("alice"), system.session_for("bob"))


def _errno(fn):
    with pytest.raises(SyscallError) as err:
        fn()
    return err.value.errno_value


def _ino(kernel, path):
    return kernel.vfs.lookup(path, follow_final_symlink=False).ino


@pytest.mark.parametrize("mode", MODES)
def test_sticky_dir_protects_the_rename_source(mode):
    kernel, _root, alice, bob = _world(mode)
    kernel.write_file(bob, "/tmp/bobfile", b"bob's")
    assert _errno(lambda: kernel.sys_rename(
        alice, "/tmp/bobfile", "/tmp/alicefile")) == Errno.EACCES
    assert kernel.read_file(bob, "/tmp/bobfile") == b"bob's"
    assert not kernel.vfs.exists("/tmp/alicefile")


@pytest.mark.parametrize("mode", MODES)
def test_sticky_dir_protects_the_rename_destination(mode):
    kernel, _root, alice, bob = _world(mode)
    kernel.write_file(bob, "/tmp/bobfile2", b"bob's")
    kernel.write_file(alice, "/tmp/alicefile", b"alice's")
    assert _errno(lambda: kernel.sys_rename(
        alice, "/tmp/alicefile", "/tmp/bobfile2")) == Errno.EACCES
    assert kernel.read_file(bob, "/tmp/bobfile2") == b"bob's"
    assert kernel.read_file(alice, "/tmp/alicefile") == b"alice's"


@pytest.mark.parametrize("mode", MODES)
def test_sticky_dir_protects_rmdir(mode):
    kernel, _root, alice, bob = _world(mode)
    kernel.sys_mkdir(bob, "/tmp/bobdir", 0o777)
    assert _errno(lambda: kernel.sys_rmdir(alice, "/tmp/bobdir")) \
        == Errno.EACCES
    assert kernel.vfs.resolve("/tmp/bobdir").is_dir()
    kernel.sys_rmdir(bob, "/tmp/bobdir")
    assert not kernel.vfs.exists("/tmp/bobdir")


@pytest.mark.parametrize("mode", MODES)
def test_owners_and_root_still_rename_in_sticky_dirs(mode):
    kernel, root, alice, bob = _world(mode)
    kernel.write_file(alice, "/tmp/mine", b"a")
    kernel.sys_rename(alice, "/tmp/mine", "/tmp/still-mine")
    kernel.write_file(alice, "/tmp/old", b"b")
    kernel.sys_rename(alice, "/tmp/old", "/tmp/still-mine")
    assert kernel.read_file(alice, "/tmp/still-mine") == b"b"
    kernel.write_file(bob, "/tmp/bobs", b"c")
    # The directory's owner (root) passes the sticky check, as does
    # any CAP_FOWNER holder.
    kernel.sys_rename(root, "/tmp/bobs", "/tmp/still-mine")
    assert kernel.read_file(root, "/tmp/still-mine") == b"c"


@pytest.mark.parametrize("mode", MODES)
def test_rename_onto_itself_changes_nothing(mode):
    kernel, root, _alice, _bob = _world(mode)
    kernel.write_file(root, "/tmp/same", b"kept")
    ino = _ino(kernel, "/tmp/same")
    kernel.sys_rename(root, "/tmp/same", "/tmp/same")
    assert kernel.read_file(root, "/tmp/same") == b"kept"
    assert _ino(kernel, "/tmp/same") == ino
    kernel.sys_mkdir(root, "/tmp/samedir")
    kernel.sys_rename(root, "/tmp/samedir", "/tmp/samedir")
    assert kernel.vfs.resolve("/tmp/samedir").is_dir()


@pytest.mark.parametrize("mode", MODES)
def test_rename_between_hard_links_of_one_file_changes_nothing(mode):
    kernel, root, _alice, _bob = _world(mode)
    kernel.write_file(root, "/tmp/h1", b"one file")
    kernel.sys_link(root, "/tmp/h1", "/tmp/h2")
    kernel.sys_rename(root, "/tmp/h1", "/tmp/h2")
    assert _ino(kernel, "/tmp/h1") == _ino(kernel, "/tmp/h2")
    assert kernel.vfs.resolve("/tmp/h1").nlink == 2


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dest", ["/tmp/a/b", "/tmp/a/b/c", "/tmp/to-a/b/c"])
def test_a_directory_cannot_move_beneath_itself(mode, dest):
    kernel, root, _alice, _bob = _world(mode)
    kernel.sys_mkdir(root, "/tmp/a")
    kernel.sys_mkdir(root, "/tmp/a/b")
    kernel.sys_symlink(root, "/tmp/a", "/tmp/to-a")
    assert _errno(lambda: kernel.sys_rename(root, "/tmp/a", dest)) \
        == Errno.EINVAL
    assert kernel.vfs.resolve("/tmp/a/b").is_dir()
    assert sorted(kernel.sys_readdir(root, "/tmp/a")) == ["b"]


@pytest.mark.parametrize("mode", MODES)
def test_a_directory_may_move_beside_itself(mode):
    kernel, root, _alice, _bob = _world(mode)
    kernel.sys_mkdir(root, "/tmp/a")
    kernel.sys_mkdir(root, "/tmp/ab")
    kernel.sys_rename(root, "/tmp/a", "/tmp/ab/a")
    assert kernel.vfs.resolve("/tmp/ab/a").is_dir()
    assert not kernel.vfs.exists("/tmp/a")


@pytest.mark.parametrize("mode", MODES)
def test_a_directory_cannot_replace_a_file(mode):
    kernel, root, _alice, _bob = _world(mode)
    kernel.sys_mkdir(root, "/tmp/dir")
    kernel.write_file(root, "/tmp/file", b"kept")
    assert _errno(lambda: kernel.sys_rename(root, "/tmp/dir", "/tmp/file")) \
        == Errno.ENOTDIR
    assert kernel.vfs.resolve("/tmp/dir").is_dir()
    assert kernel.read_file(root, "/tmp/file") == b"kept"


@pytest.mark.parametrize("mode", MODES)
def test_a_file_cannot_replace_a_directory(mode):
    kernel, root, _alice, _bob = _world(mode)
    kernel.sys_mkdir(root, "/tmp/dir")
    kernel.write_file(root, "/tmp/file", b"kept")
    assert _errno(lambda: kernel.sys_rename(root, "/tmp/file", "/tmp/dir")) \
        == Errno.EISDIR
    assert kernel.vfs.resolve("/tmp/dir").is_dir()
    assert kernel.read_file(root, "/tmp/file") == b"kept"
