"""A namespace write made through a symlink reaches the resolved name.

A walk that crosses a symlink leaves no dentry and fuses nothing, so
the dentry cache and the fused table hold what they know about an
object under its symlink-free name, and the decision cache holds the
questions asked under that name there too. A write made through a
symlinked spelling (``/w/ln/f`` with ``/w/ln -> /w/d``) must
therefore also invalidate the name it resolves to (``/w/d/f``), or an
answer cached under that name outlives the write. Each case below
warms alice's view of the resolved name, has root write through the
link, and then compares her next answer with the uncached walk's, the
oracle: the fused table, the decision cache and the dentry cache all
off.

Still open (ROADMAP item 1): a question asked through a symlinked
spelling is held by the decision cache under that spelling, which a
write under the resolved name does not reach; hard-link aliases; bind
mounts.
"""

import pytest

from repro.core.system import System, SystemMode
from repro.kernel import modes
from repro.kernel.errno import Errno, SyscallError

MODES = [SystemMode.LINUX, SystemMode.PROTEGO]


def _stat(kernel, task, path):
    try:
        return ("ok", kernel.sys_stat(task, path))
    except SyscallError as exc:
        return ("err", exc.errno_value, exc.context)


def _read(kernel, task, path):
    try:
        return ("ok", kernel.read_file(task, path))
    except SyscallError as exc:
        return ("err", exc.errno_value, exc.context)


def _uncached(kernel, ask, task, path):
    """*ask* with every cache off: the layered walk, the oracle."""
    fastpath, dcache, server = (kernel.fastpath, kernel.vfs.dcache,
                                kernel.security_server)
    fastpath.enabled = dcache.enabled = server.cache_enabled = False
    try:
        return ask(kernel, task, path)
    finally:
        fastpath.enabled = dcache.enabled = server.cache_enabled = True


def _dir_link(kernel, root):
    """``/w/d`` (0755) holding ``/w/d/f`` (0644), and ``/w/ln -> /w/d``."""
    kernel.sys_mkdir(root, "/w", 0o755)
    kernel.sys_mkdir(root, "/w/d", 0o755)
    kernel.write_file(root, "/w/d/f", b"data")
    kernel.sys_chmod(root, "/w/d/f", 0o644)
    kernel.sys_symlink(root, "/w/d", "/w/ln")


def _file_link(kernel, root):
    """``/w/f`` (0644) and ``/w/ln -> /w/f``."""
    kernel.sys_mkdir(root, "/w", 0o755)
    kernel.write_file(root, "/w/f", b"data")
    kernel.sys_chmod(root, "/w/f", 0o644)
    kernel.sys_symlink(root, "/w/f", "/w/ln")


def _owned_file_link(kernel, root):
    """``/w/f`` (0600, alice's) and ``/w/ln -> /w/f``."""
    _file_link(kernel, root)
    kernel.sys_chmod(root, "/w/f", 0o600)
    kernel.sys_chown(root, "/w/f", 1000, 1000)


def _shadows_link(kernel, root):
    """``/w/f`` (0644, a group-file line) and ``/w/sl -> /etc/shadows``."""
    kernel.sys_mkdir(root, "/w", 0o755)
    kernel.write_file(root, "/w/f", b"zed:x:1:\n")
    kernel.sys_chmod(root, "/w/f", 0o644)
    kernel.sys_symlink(root, "/etc/shadows", "/w/sl")


def _create(kernel, root):
    fd = kernel.sys_open(root, "/w/ln/new", modes.O_WRONLY | modes.O_CREAT)
    kernel.sys_close(root, fd)


#: name -> (setup, root's write, alice's question, the resolved name,
#: what the oracle answers after the write, modes it applies to)
CASES = {
    "unlink": (_dir_link, lambda k, r: k.sys_unlink(r, "/w/ln/f"),
               _stat, "/w/d/f", ("err", Errno.ENOENT), MODES),
    "rename": (_dir_link, lambda k, r: k.sys_rename(r, "/w/ln/f", "/w/ln/g"),
               _read, "/w/d/f", ("err", Errno.ENOENT), MODES),
    "create": (_dir_link, _create, _stat, "/w/d/new", ("ok",), MODES),
    # The rename moves the link its destination is spelled through.
    "rename-moves-the-link": (
        _dir_link, lambda k, r: k.sys_rename(r, "/w/ln", "/w/ln/x"),
        _stat, "/w/d/x", ("ok",), MODES),
    # The rename replaces the link its source is spelled through.
    "rename-replaces-the-link": (
        _dir_link, lambda k, r: k.sys_rename(r, "/w/ln/f", "/w/ln"),
        _read, "/w/d/f", ("err", Errno.ENOENT), MODES),
    "chmod": (_file_link, lambda k, r: k.sys_chmod(r, "/w/ln", 0o600),
              _read, "/w/f", ("err", Errno.EACCES), MODES),
    "chown": (_owned_file_link, lambda k, r: k.sys_chown(r, "/w/ln", 0, 0),
              _read, "/w/f", ("err", Errno.EACCES), MODES),
    "link-into-shadows": (
        _shadows_link, lambda k, r: k.sys_link(r, "/w/f", "/w/sl/zed"),
        _read, "/w/f", ("err", Errno.EACCES, "protego:file_open"),
        [SystemMode.PROTEGO]),
}


@pytest.mark.parametrize("mode, case", [
    (mode, case) for case, spec in CASES.items() for mode in spec[5]])
def test_a_write_through_a_symlink_reaches_the_resolved_name(mode, case):
    setup, write, ask, path, expected, _modes = CASES[case]
    system = System(mode)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    setup(kernel, root)
    before = ask(kernel, alice, path)
    for _ in range(2):
        assert ask(kernel, alice, path) == before
    write(kernel, root)
    for _ in range(2):
        oracle = _uncached(kernel, ask, alice, path)
        assert oracle[:len(expected)] == expected
        assert ask(kernel, alice, path) == oracle
