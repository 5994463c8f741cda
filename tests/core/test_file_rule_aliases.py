"""Protego's file rules follow the object, not the name.

The binary ACL on the ssh host key and the reauthentication rule on
the ``/etc/shadows`` fragments are decided on the opened inode. A
symlink or a hard link that an unprivileged user makes to a protected
file therefore reaches the same rule as the file's configured name, and
no decision about such an alias is cached or fused. A decision cached
for an alias while the protected path named nothing does not outlive
the mount, umount or rename that makes it name the file again, and a
decision cached for a file's name does not outlive the link or rename
that makes the file an entry of ``/etc/shadows``. On stock Linux the
same aliases are refused by DAC.
"""

import posixpath

import pytest

from repro.core import System, SystemMode
from repro.core.recency import stamp_authentication
from repro.kernel.errno import Errno, SyscallError

HOST_KEY = "/etc/ssh/ssh_host_key"
ALICE_SHADOW = "/etc/shadows/alice"
ALIAS = "/home/alice/alias"


def _alias(kernel, task, how, target):
    if how == "symlink":
        kernel.sys_symlink(task, target, ALIAS)
    else:
        kernel.sys_link(task, target, ALIAS)


@pytest.mark.parametrize("how", ["symlink", "hard link"])
@pytest.mark.parametrize("target", [HOST_KEY, ALICE_SHADOW])
def test_an_alias_reaches_the_protected_object_rule(how, target):
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    alice = system.session_for("alice")
    with pytest.raises(SyscallError) as direct:
        kernel.read_file(alice, target)
    _alias(kernel, alice, how, target)
    with pytest.raises(SyscallError) as aliased:
        kernel.read_file(alice, ALIAS)
    assert aliased.value.errno_value == Errno.EACCES
    assert aliased.value.context == direct.value.context == "protego:file_open"


@pytest.mark.parametrize("how", ["symlink", "hard link"])
@pytest.mark.parametrize("target", [HOST_KEY, "/etc/shadow"])
def test_stock_linux_refuses_the_same_aliases(how, target):
    system = System(SystemMode.LINUX)
    kernel = system.kernel
    alice = system.session_for("alice")
    _alias(kernel, alice, how, target)
    with pytest.raises(SyscallError) as aliased:
        kernel.read_file(alice, ALIAS)
    assert aliased.value.errno_value == Errno.EACCES
    assert aliased.value.context.startswith("dac:file_open")


@pytest.mark.parametrize("how", ["symlink", "hard link"])
def test_the_host_key_acl_admits_its_binary_through_an_alias(how):
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    alice = system.session_for("alice")
    _alias(kernel, alice, how, HOST_KEY)
    alice.exe_path = "/usr/lib/openssh/ssh-keysign"
    assert kernel.read_file(alice, ALIAS).startswith(b"HOSTKEY")


@pytest.mark.parametrize("how", ["symlink", "hard link"])
def test_an_alias_open_of_a_shadow_fragment_is_never_cached(how):
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    alice = system.session_for("alice")
    _alias(kernel, alice, how, ALICE_SHADOW)
    stamp_authentication(alice, kernel.now())
    for _ in range(3):
        assert kernel.read_file(alice, ALIAS).startswith(b"alice:")
    assert ALIAS not in {key[1] for key in kernel.fastpath.table}
    # Once the authentication is stale, the alias is refused again: no
    # cached or fused ALLOW outlives the recency window.
    kernel.clock += system.protego._auth_window_ticks() + 1
    with pytest.raises(SyscallError) as err:
        kernel.read_file(alice, ALIAS)
    assert err.value.errno_value == Errno.EACCES


@pytest.mark.parametrize("how", ["symlink", "hard link"])
def test_a_denied_alias_open_prompts_again(how):
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    alice = system.session_for("alice")
    _alias(kernel, alice, how, ALICE_SHADOW)
    with pytest.raises(SyscallError):
        kernel.read_file(alice, ALIAS)
    # No cached or fused DENY: the next open asks for the password.
    alice.tty.feed("alice-password")
    assert kernel.read_file(alice, ALIAS).startswith(b"alice:")


def test_the_cacheability_veto_covers_every_name_of_the_object():
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    protego = system.protego
    alice = system.session_for("alice")
    kernel.sys_link(alice, HOST_KEY, ALIAS)
    inode = kernel.vfs.resolve(HOST_KEY)
    assert kernel.vfs.resolve(ALIAS) is inode
    for name in (HOST_KEY, ALIAS):
        assert not protego.decision_cacheable("file_open", alice, name,
                                              inode, 0)
    fstab = kernel.vfs.resolve("/etc/fstab")
    assert protego.decision_cacheable("file_open", alice, "/etc/fstab",
                                      fstab, 0)


def test_protecting_a_file_drops_decisions_cached_under_its_aliases():
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    kernel.sys_mkdir(root, "/opt")
    kernel.write_file(root, "/opt/appkey", b"APPKEY")
    kernel.sys_chmod(root, "/opt/appkey", 0o644)
    kernel.sys_link(alice, "/opt/appkey", ALIAS)
    for _ in range(3):
        assert kernel.read_file(alice, ALIAS) == b"APPKEY"
    system.protego.protect_binary("/opt/appkey", ("/usr/bin/app",))
    with pytest.raises(SyscallError) as err:
        kernel.read_file(alice, ALIAS)
    assert err.value.errno_value == Errno.EACCES


def _outcome(kernel, task, path):
    try:
        return ("ok", kernel.read_file(task, path))
    except SyscallError as exc:
        return ("err", exc.errno_value, exc.context)


def _uncached_outcome(kernel, task, path):
    """The same read with the fused table, the decision cache and the
    dentry cache off: the layered walk, the oracle."""
    fastpath, dcache, server = (kernel.fastpath, kernel.vfs.dcache,
                                kernel.security_server)
    fastpath.enabled = dcache.enabled = server.cache_enabled = False
    try:
        return _outcome(kernel, task, path)
    finally:
        fastpath.enabled = dcache.enabled = server.cache_enabled = True


@pytest.mark.parametrize("change", ["mount", "rename"])
@pytest.mark.parametrize("target", [HOST_KEY, ALICE_SHADOW])
def test_no_cached_alias_verdict_outlives_a_change_of_the_protected_path(
        change, target):
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    directory = posixpath.dirname(target)
    kernel.sys_link(alice, target, ALIAS)
    denied = ("err", Errno.EACCES, "protego:file_open")
    assert _outcome(kernel, alice, ALIAS) == denied
    if change == "mount":
        kernel.sys_mount(root, "tmpfs", directory, "tmpfs")
    else:
        kernel.sys_rename(root, directory, directory + ".old")
    # The protected path names nothing now, and the file's DAC mode
    # admits alice: her opens succeed, warm or not.
    for _ in range(3):
        outcome = _outcome(kernel, alice, ALIAS)
        assert outcome[0] == "ok"
        assert outcome == _uncached_outcome(kernel, alice, ALIAS)
    if change == "mount":
        kernel.sys_umount(root, directory)
    else:
        kernel.sys_rename(root, directory + ".old", directory)
    # The path names the object again: no decision cached while it did
    # not may answer for the alias.
    for _ in range(2):
        assert _outcome(kernel, alice, ALIAS) == denied
        assert _uncached_outcome(kernel, alice, ALIAS) == denied


def test_a_runtime_protected_path_is_guarded_too():
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    kernel.sys_mkdir(root, "/opt")
    kernel.write_file(root, "/opt/appkey", b"APPKEY")
    kernel.sys_chmod(root, "/opt/appkey", 0o644)
    system.protego.protect_binary("/opt/appkey", ("/usr/bin/app",))
    kernel.sys_link(alice, "/opt/appkey", ALIAS)
    denied = ("err", Errno.EACCES, "protego:file_open")
    assert _outcome(kernel, alice, ALIAS) == denied
    kernel.sys_rename(root, "/opt", "/opt.old")
    for _ in range(3):
        assert _outcome(kernel, alice, ALIAS) == ("ok", b"APPKEY")
    kernel.sys_rename(root, "/opt.old", "/opt")
    assert _outcome(kernel, alice, ALIAS) == denied
    assert _uncached_outcome(kernel, alice, ALIAS) == denied


def _linked_into_shadows(kernel, root):
    kernel.sys_link(root, "/w/f", "/etc/shadows/zed")


def _renamed_into_shadows(kernel, root):
    kernel.sys_rename(root, "/w/f", "/etc/shadows/zed")


@pytest.mark.parametrize("name, change", [
    ("/w/f", _linked_into_shadows),
    ("/w/ln", _linked_into_shadows),
    ("/w/h", _renamed_into_shadows),
], ids=["link", "symlink alias", "rename"])
def test_a_file_moved_into_the_shadows_is_not_served_under_its_other_names(
        name, change):
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    kernel.sys_mkdir(root, "/w", 0o755)
    kernel.write_file(root, "/w/f", b"zed:x:1:\n")
    kernel.sys_chmod(root, "/w/f", 0o644)
    kernel.sys_symlink(root, "/w/f", "/w/ln")
    kernel.sys_link(root, "/w/f", "/w/h")
    for _ in range(3):
        assert _outcome(kernel, alice, name) == ("ok", b"zed:x:1:\n")
    change(kernel, root)
    # The file is a shadow entry now, under every name it has.
    denied = ("err", Errno.EACCES, "protego:file_open")
    for _ in range(2):
        assert _uncached_outcome(kernel, alice, name) == denied
        assert _outcome(kernel, alice, name) == denied
