"""A golden transcript of the decisions the decision cache cannot serve.

setuid, setgid, mount, umount, ioctl, exec validation and create-time
opens are never cached, so the security server computes every one of
them afresh, and a capability check under any of them is an AVC probe
of its own. This test runs one fixed script in both modes that crosses
each of those hooks and pins three things against
``uncached_hooks_golden.txt``: each step's outcome, every row of the
reference monitor's audit ring (``/proc/protego/audit``) and every
kernel audit event. A change to how decisions are built, counted or
audited shows up here as a diff, even when no verdict changes.

Inode numbers come from a process-global counter, so ``ino N`` is
scrubbed from the rows before comparing.
"""

import pathlib
import re

import pytest

from repro.core import System, SystemMode
from repro.kernel import modes
from repro.kernel.errno import SyscallError
from repro.kernel.net.socket import AddressFamily, SocketType

GOLDEN = pathlib.Path(__file__).with_name("uncached_hooks_golden.txt")

_INO = re.compile(r"\bino \d+")

CREATE = modes.O_WRONLY | modes.O_CREAT


def _outcome(fn):
    try:
        result = fn()
    except SyscallError as exc:
        return f"{exc.errno_value.name} {exc.context}"
    if isinstance(result, tuple):
        # (status, stdout) from a program run, or (task, status) from
        # spawn: keep the exit status and the resulting credentials.
        first, second = result
        if hasattr(first, "cred"):
            return (f"exit {second} uid={first.cred.ruid} "
                    f"euid={first.cred.euid} "
                    f"caps={len(first.cred.cap_effective)}")
        return f"exit {first}"
    return "ok"


def transcript(mode):
    """The script's outcomes and audit trail in *mode*, as lines."""
    system = System(mode)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    grouped = system.session_for("alice")
    printers = min(grouped.cred.groups)
    shell = system.spawn_session("alice")
    card = kernel.devices.get("card0")
    kernel.write_file(root, "/tmp/suid-true", b"#!suid")
    kernel.sys_chmod(root, "/tmp/suid-true", 0o4755)

    def bind(task, port):
        sock = kernel.sys_socket(task, AddressFamily.AF_INET,
                                 SocketType.STREAM)
        kernel.sys_bind(task, sock, "0.0.0.0", port)

    steps = (
        ("setuid to own uid", lambda: kernel.sys_setuid(alice, 1000)),
        ("setgid to own gid", lambda: kernel.sys_setgid(alice, 1000)),
        ("setgid to a supplementary group",
         lambda: kernel.sys_setgid(grouped, printers)),
        ("setuid to root", lambda: kernel.sys_setuid(alice, 0)),
        ("sudo -u bob lpr",
         lambda: shell.sudo("/usr/bin/lpr", "job", target="bob")),
        ("root mounts tmpfs",
         lambda: kernel.sys_mount(root, "tmpfs", "/mnt", "tmpfs")),
        ("root unmounts tmpfs", lambda: kernel.sys_umount(root, "/mnt")),
        ("user mounts the cdrom",
         lambda: shell.mount("/dev/cdrom", "/cdrom")),
        ("user unmounts the cdrom", lambda: shell.umount("/cdrom")),
        ("user mounts tmpfs",
         lambda: kernel.sys_mount(alice, "tmpfs", "/mnt", "tmpfs")),
        ("KMS_SWITCH ioctl",
         lambda: kernel.sys_ioctl(alice, card, "KMS_SWITCH", 2)),
        ("root binds port 600", lambda: bind(root, 600)),
        ("user binds port 601", lambda: bind(alice, 601)),
        ("exec /bin/true", lambda: kernel.spawn(alice, "/bin/true")),
        ("exec a setuid-root binary",
         lambda: kernel.spawn(alice, "/tmp/suid-true")),
        ("create", lambda: kernel.sys_open(alice, "/tmp/alice-new", CREATE)),
        ("unlink", lambda: kernel.sys_unlink(alice, "/tmp/alice-new")),
        ("open /etc/shadow", lambda: kernel.sys_open(alice, "/etc/shadow")),
    )
    lines = [f"## {mode.value}", "# outcomes"]
    lines += [f"{name}: {_outcome(step)}" for name, step in steps]
    lines.append("# audit ring")
    lines += system.kernel.security_server.render_audit().splitlines()
    lines.append("# audit events")
    lines += [f"{r.clock} {r.event} pid={r.pid} uid={r.uid} euid={r.euid} "
              f"{r.detail}" for r in kernel.audit_events()]
    return [_INO.sub("ino N", line) for line in lines]


def _golden(mode):
    text = GOLDEN.read_text().splitlines()
    start = text.index(f"## {mode.value}")
    end = next((i for i in range(start + 1, len(text))
                if text[i].startswith("## ")), len(text))
    return text[start:end]


@pytest.mark.parametrize("mode", [SystemMode.LINUX, SystemMode.PROTEGO])
def test_uncached_hooks_match_the_golden_transcript(mode):
    assert transcript(mode) == _golden(mode)
