"""Namespace calls walk every path argument under the caller's
credentials before saying anything about the name.

Linux needs search (execute) permission on every directory a path
crosses, so a user who cannot search ``/p`` can neither change nor
learn anything about ``/p/q/*``, even when ``/p/q`` itself is 0777.
Creates, unlinks, renames, links, chmod, chown, chdir, rmdir and an
``O_CREAT|O_EXCL`` open must all answer EACCES there, and where the
caller may search, ENOENT and ENOTDIR still come before EACCES.
"""

import pytest

from repro.core.system import System, SystemMode
from repro.kernel import modes
from repro.kernel.errno import SyscallError

CREATE = modes.O_WRONLY | modes.O_CREAT


def _errno(fn):
    try:
        fn()
    except SyscallError as exc:
        return exc.errno_value.name
    return "ok"


def _world(mode):
    system = System(mode)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    kernel.sys_mkdir(root, "/p", 0o700)
    kernel.sys_mkdir(root, "/p/q")
    kernel.sys_chmod(root, "/p/q", 0o777)
    kernel.write_file(root, "/p/q/existing", b"x")
    kernel.sys_chmod(root, "/p/q/existing", 0o666)
    kernel.write_file(root, "/p/q/af", b"x")
    kernel.sys_chown(root, "/p/q/af", alice.cred.ruid, alice.cred.rgid)
    return kernel, root, alice


@pytest.mark.parametrize("mode", [SystemMode.LINUX, SystemMode.PROTEGO])
def test_an_unsearchable_ancestor_hides_every_name_below_it(mode):
    kernel, root, alice = _world(mode)
    calls = {
        "stat": lambda: kernel.sys_stat(alice, "/p/q/existing"),
        "create": lambda: kernel.sys_open(alice, "/p/q/new", CREATE),
        "mkdir": lambda: kernel.sys_mkdir(alice, "/p/q/d"),
        "unlink": lambda: kernel.sys_unlink(alice, "/p/q/existing"),
        "symlink": lambda: kernel.sys_symlink(alice, "/etc/passwd",
                                              "/p/q/ln"),
        "chmod": lambda: kernel.sys_chmod(alice, "/p/q/af", 0o600),
        "chown": lambda: kernel.sys_chown(alice, "/p/q/af", -1,
                                          alice.cred.rgid),
        "link": lambda: kernel.sys_link(alice, "/p/q/af", "/tmp/af-link"),
        "rename": lambda: kernel.sys_rename(alice, "/p/q/af", "/tmp/af2"),
        "create-excl": lambda: kernel.sys_open(
            alice, "/p/q/existing", CREATE | modes.O_EXCL),
        "chdir": lambda: kernel.sys_chdir(alice, "/p/q/missing"),
        "rmdir": lambda: kernel.sys_rmdir(alice, "/p/q/missing"),
    }
    outcomes = {name: _errno(call) for name, call in calls.items()}
    assert outcomes == dict.fromkeys(calls, "EACCES")
    assert sorted(kernel.sys_readdir(root, "/p/q")) == ["af", "existing"]
    assert not kernel.vfs.exists("/tmp/af-link")
    assert not kernel.vfs.exists("/tmp/af2")


@pytest.mark.parametrize("mode", [SystemMode.LINUX, SystemMode.PROTEGO])
def test_missing_and_non_directory_parents_come_before_eacces(mode):
    kernel, root, alice = _world(mode)
    kernel.write_file(root, "/tmp/plain", b"x")
    kernel.sys_chmod(root, "/tmp/plain", 0o644)
    kernel.sys_mkdir(root, "/tmp/ro", 0o755)
    outcomes = {
        "mkdir-missing": _errno(lambda: kernel.sys_mkdir(alice, "/tmp/no/d")),
        "mkdir-file": _errno(lambda: kernel.sys_mkdir(alice, "/tmp/plain/d")),
        "create-file": _errno(
            lambda: kernel.sys_open(alice, "/tmp/plain/f", CREATE)),
        "mkdir-readonly": _errno(lambda: kernel.sys_mkdir(alice, "/tmp/ro/d")),
        "chdir-file": _errno(lambda: kernel.sys_chdir(alice, "/tmp/plain")),
        "create-excl": _errno(lambda: kernel.sys_open(
            alice, "/tmp/plain", CREATE | modes.O_EXCL)),
    }
    assert outcomes == {
        "mkdir-missing": "ENOENT",
        "mkdir-file": "ENOTDIR",
        "create-file": "ENOTDIR",
        "mkdir-readonly": "EACCES",
        "chdir-file": "ENOTDIR",
        "create-excl": "EEXIST",
    }
