"""The boot image: every machine's root filesystem is laid directly.

``System`` provisioning and ``install_program`` create each node with
its final mode, owner and bytes through ``Kernel.lay`` instead of
replaying write/chown/chmod/rename through the syscall layer. These
tests pin that the booted tree is the one the syscall replay used to
build, that booting issues no syscall, and that a node laid into a
live system is visible past every cache.

``boot_tree_golden.txt`` is the listing the syscall-replay provisioning
produced, captured before the image replaced it. The one intended
difference is ``/var/mail``: chown no longer strips S_ISGID from a
directory, so it keeps the ``2775`` it is provisioned with.

``boot_commit_golden.json`` is each config's ``/proc/protego/commit``
as it read when ``build_system`` still wrote the recipe's polkit, dbus
and sudoers drop-in files through the syscall layer after boot and
polled the daemon again. Laying them in the image must commit the
same policy in the start-up sync alone.
"""

import hashlib
import json
import pathlib

import pytest

from repro.auth.passwords import verify_password
from repro.core import System, SystemMode
from repro.core.build import build_system
from repro.kernel import modes
from repro.kernel.errno import Errno, SyscallError
from repro.scenarios.generator import generate_scenario
from repro.userspace.misc import TrueProgram
from repro.userspace.program import install_program

GOLDEN = pathlib.Path(__file__).with_name("boot_tree_golden.txt")
COMMIT_GOLDEN = pathlib.Path(__file__).with_name("boot_commit_golden.json")

#: name -> (seed, scenario id) of a generated spec; None = the
#: canonical defaults. (0, 0) has the vault group password and its
#: GROUPJOIN sudoers drop-in, (0, 7) adds two AppArmor profiles, every
#: spec provisions the fleet tenant directories.
CONFIGS = {
    "default": None,
    "s0-0": (0, 0),
    "s0-7": (0, 7),
    "s0-9": (0, 9),
    "s7-3": (7, 3),
}

#: Files whose second colon field is a salted hash (fresh salt per
#: process): masked in the listing, verified against the password.
_SALTED_FILES = ("/etc/shadow", "/etc/group")
_SALTED_DIRS = ("/etc/shadows/", "/etc/groups/")

_TYPES = {modes.S_IFDIR: "d", modes.S_IFREG: "f", modes.S_IFLNK: "l",
          modes.S_IFBLK: "b", modes.S_IFCHR: "c"}

#: The documented difference from the syscall-replay tree.
_VAR_MAIL_BEFORE = "/var/mail d 775 0 8 -"
_VAR_MAIL_NOW = "/var/mail d 2775 0 8 -"


def _salted(path):
    return path in _SALTED_FILES or path.startswith(_SALTED_DIRS)


def boot_tree(system):
    """``(rows, hashes)``: one ``"path type perm uid gid sha"`` row per
    rootfs node (sha = first 16 hex digits of the bytes' sha256, ``-``
    for non-regular files), and the masked ``(path, account, hash)``
    triples."""
    rows, hashes = [], []

    def walk(inode, path):
        sha = "-"
        if inode.is_regular():
            data = bytes(inode.data)
            if _salted(path):
                lines = []
                for line in data.decode().splitlines():
                    fields = line.split(":")
                    if len(fields) > 1 and fields[1].startswith("$"):
                        hashes.append((path, fields[0], fields[1]))
                        fields[1] = "<salted>"
                    lines.append(":".join(fields) + "\n")
                data = "".join(lines).encode()
            sha = hashlib.sha256(data).hexdigest()[:16]
        kind = _TYPES[inode.mode & modes.S_IFMT]
        rows.append(f"{path or '/'} {kind} {inode.mode & 0o7777:o} "
                    f"{inode.uid} {inode.gid} {sha}")
        if inode.entries is not None:
            for name in sorted(inode.entries):
                walk(inode.entries[name], f"{path}/{name}")

    walk(system.kernel.vfs.rootfs.root, "")
    return rows, hashes


def _build(name, mode):
    seed_id = CONFIGS[name]
    config = None if seed_id is None else generate_scenario(*seed_id)
    return build_system(config, mode), config


def _golden():
    sections, current = {}, None
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("# "):
            current = sections.setdefault(line[2:], [])
        elif line:
            current.append(line)
    return sections


@pytest.mark.parametrize("mode", [SystemMode.LINUX, SystemMode.PROTEGO],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_booted_tree_matches_the_syscall_replay(name, mode):
    system, config = _build(name, mode)
    rows, hashes = boot_tree(system)
    expected = [_VAR_MAIL_NOW if row == _VAR_MAIL_BEFORE else row
                for row in _golden()[f"{name} {mode.value}"]]
    assert _VAR_MAIL_NOW in expected
    assert rows == expected
    # The masked fields: every account and group password verifies.
    group_passwords = dict(config.group_passwords) if config else {}
    assert hashes
    for path, account, salted in hashes:
        if path.startswith(("/etc/group", "/etc/groups/")):
            password = group_passwords[account]
        else:
            password = system.password_of(account)
        assert verify_password(password, salted), (path, account)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_booted_policy_matches_the_post_boot_overlay(name):
    system, _config = _build(name, SystemMode.PROTEGO)
    commit = system.kernel.read_file(system.root_session(),
                                     "/proc/protego/commit").decode()
    assert commit == json.loads(COMMIT_GOLDEN.read_text())[name]


@pytest.mark.parametrize("mode,kwargs", [
    (SystemMode.LINUX, {}),
    (SystemMode.PROTEGO, {"start_daemon": False}),
], ids=["linux", "protego-no-daemon"])
def test_boot_issues_no_syscalls(mode, kwargs):
    system = System(mode, **kwargs)
    assert system.kernel.clock == 0
    audit = system.kernel.security_server.audit
    assert len(audit) == 0 and audit.seq == 0
    # The image is complete without them.
    assert system.kernel.vfs.resolve("/etc/shadow").mode & 0o777 == 0o640
    assert system.kernel.vfs.exists("/bin/mount")


@pytest.mark.parametrize("mode", [SystemMode.LINUX, SystemMode.PROTEGO],
                         ids=lambda m: m.value)
def test_install_into_a_live_system_after_a_cached_negative_lookup(mode):
    system = System(mode)
    kernel = system.kernel
    alice = system.session_for("alice")
    for path in ("/usr/local/bin/hello", "/opt/tools/hello"):
        for _ in range(2):  # the second miss is served from the caches
            with pytest.raises(SyscallError) as err:
                kernel.sys_stat(alice, path)
            assert err.value.errno_value is Errno.ENOENT
        install_program(kernel, TrueProgram(), path=path)
        assert kernel.sys_stat(alice, path).mode & 0o777 == 0o755
        child, status = kernel.spawn(alice, path, [path])
        assert status == 0
