"""Decisions the decision cache never holds, and transitions that change
nothing.

The security server answers every policy question through one call,
``SecurityServer.check``, and holds only the answers its decision cache
may keep. These tests pin that from the outside:

* every question a syscall asks is one ``check`` call with the
  syscall's own hook, cached or not (perfbench's tracer wraps
  ``check`` alone and counts on it);
* each never-cached syscall asks exactly one uncacheable question:
  ``kernel.avc.uncacheable`` moves by one, no decision-cache or fused
  entry names its hook, and the audit ring gets one ``cached=0`` row
  for it;
* a setuid, setgid or setgroups that changes nothing keeps the task's
  credentials object, and with it the subject id, while a real
  transition still yields a new snapshot and a new id;
* the LSM chain never writes into a setuid decision a module returned;
* setuid, setgid and setgroups refuse an invalid id with EINVAL before
  any policy is asked, as Linux's ``uid_valid``/``gid_valid`` do;
* setgroups refuses a list longer than ``NGROUPS_MAX`` with EINVAL,
  after the privilege check and before it reads a gid;
* an allowed setgid writes a kernel audit event on the capability and
  the identity-fallback paths, worded as setuid's.
"""

import dataclasses

import pytest

from repro.core import System, SystemMode
from repro.kernel import modes
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.lsm import HookResult, LSMChain, SecurityModule, SetuidDecision
from repro.kernel.net.socket import AddressFamily, SocketType
from repro.kernel.syscalls import NGROUPS_MAX

MODES = [SystemMode.LINUX, SystemMode.PROTEGO]


def _mounted(kernel, root, alice):
    kernel.sys_mount(root, "tmpfs", "/mnt", "tmpfs")


def _forked(kernel, root, alice):
    return kernel.sys_fork(alice)


#: name -> (hook, setup(kernel, root, alice) -> extra or None,
#: op(kernel, root, alice, extra)). An op may be refused: the question
#: is asked either way.
QUESTIONS = {
    "setuid": ("task_fix_setuid", None,
               lambda k, root, alice, _: k.sys_setuid(alice, 1000)),
    "setgid": ("task_fix_setgid", None,
               lambda k, root, alice, _: k.sys_setgid(alice, 1000)),
    "mount": ("sb_mount", None,
              lambda k, root, alice, _: k.sys_mount(root, "tmpfs", "/mnt",
                                                    "tmpfs")),
    "umount": ("sb_umount", _mounted,
               lambda k, root, alice, _: k.sys_umount(root, "/mnt")),
    "ioctl": ("dev_ioctl", None,
              lambda k, root, alice, _: k.sys_ioctl(
                  alice, k.devices.get("card0"), "KMS_SWITCH", 2)),
    "execve": ("bprm_check", _forked,
               lambda k, root, alice, child: k.sys_execve(
                   child, "/bin/true", run=False)),
    "route_add": ("route_add", None,
                  lambda k, root, alice, _: k.sys_route_add(
                      alice, "10.9.0.0/30", "ppp0")),
    "create": ("file_open", None,
               lambda k, root, alice, _: k.sys_open(
                   alice, "/tmp/alice-new", modes.O_WRONLY | modes.O_CREAT)),
}


def _held(kernel):
    """(hook, object) of every decision-cache and fused entry."""
    avc = {(key[0], key[1]) for key in kernel.security_server._cache}
    fused = {entry.audit_suffix[:2]
             for entry in kernel.fastpath.table.values()
             if entry.audit_suffix is not None}
    return avc | fused


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(QUESTIONS))
def test_a_never_cached_question_is_asked_once_and_never_held(mode, name):
    hook, setup, op = QUESTIONS[name]
    system = System(mode)
    kernel = system.kernel
    server = kernel.security_server
    root, alice = system.root_session(), system.session_for("alice")
    extra = setup(kernel, root, alice) if setup is not None else None
    before = kernel.metrics.snapshot()["kernel.avc.uncacheable"]
    held = _held(kernel)
    seq = server.audit.seq
    try:
        op(kernel, root, alice, extra)
    except SyscallError:
        pass
    assert kernel.metrics.snapshot()["kernel.avc.uncacheable"] == before + 1
    assert hook not in {hook for hook, _ in _held(kernel) - held}
    rows = [entry for entry in server.audit.entries()
            if entry.seq > seq and entry.hook == hook]
    assert len(rows) == 1 and not rows[0].cached


def _socket(kernel, root, alice):
    return kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)


def _layered_open(kernel, root, alice, _):
    kernel.fastpath.enabled = False
    kernel.sys_open(alice, "/etc/fstab")


#: The never-cached questions plus the cacheable ones a syscall asks.
CHECKED = {
    **QUESTIONS,
    "access": ("inode_permission", None,
               lambda k, root, alice, _: k.sys_access(
                   alice, "/etc/fstab", modes.R_OK)),
    "open": ("file_open", None, _layered_open),
    "bind": ("socket_bind", _socket,
             lambda k, root, alice, sock: k.sys_bind(
                 alice, sock, "0.0.0.0", 80)),
    "raw socket": ("socket_create", None,
                   lambda k, root, alice, _: k.sys_socket(
                       alice, AddressFamily.AF_INET, SocketType.RAW)),
}

#: Questions a syscall may ask besides its own: the capability its
#: default policy falls back on, and the path walk of an exec or the
#: parent-directory check of a create.
_SUB_QUESTIONS = {"capable", "inode_permission"}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CHECKED))
def test_every_question_a_syscall_asks_goes_through_check(mode, name,
                                                          monkeypatch):
    hook, setup, op = CHECKED[name]
    system = System(mode)
    kernel = system.kernel
    server = kernel.security_server
    root, alice = system.root_session(), system.session_for("alice")
    extra = setup(kernel, root, alice) if setup is not None else None
    hooks = []
    check = server.check
    monkeypatch.setattr(server, "check", lambda hook, *args, **kwargs: (
        hooks.append(hook) or check(hook, *args, **kwargs)))
    try:
        op(kernel, root, alice, extra)
    except SyscallError:
        pass
    assert hooks.count(hook) == 1
    assert set(hooks) <= {hook} | _SUB_QUESTIONS


# ----------------------------------------------------------------------
# No-op transitions keep the snapshot
# ----------------------------------------------------------------------
def _sid(kernel, task):
    kernel.sys_stat(task, "/etc")
    return task.sid


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("who, change", [
    ("root", lambda k, t: k.sys_setuid(t, 0)),
    ("root", lambda k, t: k.sys_setgid(t, 0)),
    ("root", lambda k, t: k.sys_setgroups(t, sorted(t.cred.groups))),
    ("alice", lambda k, t: k.sys_setuid(t, t.cred.ruid)),
    ("alice", lambda k, t: k.sys_setgid(t, t.cred.rgid)),
])
def test_a_no_op_transition_keeps_the_credentials_and_the_sid(mode, who,
                                                              change):
    system = System(mode)
    kernel = system.kernel
    task = system.root_session() if who == "root" else system.session_for(who)
    sid = _sid(kernel, task)
    cred = task.cred
    change(kernel, task)
    assert task.cred is cred
    assert _sid(kernel, task) == sid


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("change", [
    lambda k, t: k.sys_setuid(t, 1000),
    lambda k, t: k.sys_setgid(t, 1000),
    lambda k, t: k.sys_setgroups(t, [27]),
])
def test_a_real_transition_yields_a_new_snapshot_and_sid(mode, change):
    system = System(mode)
    kernel = system.kernel
    root = system.root_session()
    sid = _sid(kernel, root)
    cred = root.cred
    change(kernel, root)
    assert root.cred is not cred and root.cred != cred
    assert _sid(kernel, root) != sid


def test_a_capability_drop_on_a_task_without_any_keeps_the_snapshot():
    system = System(SystemMode.PROTEGO)
    alice = system.session_for("alice")
    assert alice.cred.drop_all_caps() is alice.cred
    root = system.root_session()
    dropped = root.cred.drop_all_caps()
    assert dropped is not root.cred and dropped.cap_effective.is_empty()
    # An equal but distinct snapshot is still kept by value.
    twin = dataclasses.replace(alice.cred)
    assert twin.with_uids(euid=twin.euid) is twin


# ----------------------------------------------------------------------
# The chain reports the deciding module beside the decision
# ----------------------------------------------------------------------
class _Allow(SecurityModule):
    name = "allower"

    def task_fix_setuid(self, task, target_uid):
        return SetuidDecision.allow()


class _Defer(SecurityModule):
    name = "deferrer"

    def __init__(self):
        self.returned = []

    def task_fix_setuid(self, task, target_uid):
        decision = SetuidDecision.defer(("parked", target_uid))
        self.returned.append(decision)
        return decision


class _Deny(SecurityModule):
    name = "denier"

    def task_fix_setuid(self, task, target_uid):
        return SetuidDecision.deny()


def test_call_setuid_never_modifies_a_module_result():
    allow, deny, passthrough = (SetuidDecision.allow(), SetuidDecision.deny(),
                                SetuidDecision.passthrough())
    assert SetuidDecision.allow() is allow
    assert (allow, deny, passthrough) == (
        (HookResult.ALLOW, None), (HookResult.DENY, None),
        (HookResult.PASS, None))
    deferrer = _Defer()
    chain = LSMChain([_Allow(), deferrer])
    decision, module = chain.call_setuid("task_fix_setuid", None, 5)
    assert module == "deferrer"
    assert decision is deferrer.returned[0]
    assert decision == (HookResult.ALLOW, ("parked", 5))
    decision, module = LSMChain([_Deny(), _Allow()]).call_setuid(
        "task_fix_setuid", None, 5)
    assert (decision, module) == (deny, "denier")
    assert LSMChain([]).call_setuid("task_fix_setuid", None, 5) == (
        passthrough, None)
    # Nothing can write into a shared answer.
    for field in SetuidDecision._fields:
        with pytest.raises(AttributeError):
            setattr(allow, field, None)


# ----------------------------------------------------------------------
# Invalid ids: EINVAL before any policy is asked
# ----------------------------------------------------------------------
INVALID_IDS = [-1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("who", ["root", "alice"])
@pytest.mark.parametrize("call", ["setuid", "setgid"])
@pytest.mark.parametrize("bad", INVALID_IDS)
def test_setuid_and_setgid_refuse_an_invalid_id(mode, who, call, bad):
    system = System(mode)
    kernel = system.kernel
    task = system.root_session() if who == "root" else system.session_for(who)
    cred = task.cred
    seq = kernel.security_server.audit.seq
    with pytest.raises(SyscallError) as err:
        getattr(kernel, f"sys_{call}")(task, bad)
    assert err.value.errno_value == Errno.EINVAL
    assert task.cred is cred
    assert kernel.security_server.audit.seq == seq


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", INVALID_IDS)
def test_setgroups_checks_privilege_then_the_ids(mode, bad):
    system = System(mode)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    cred = root.cred
    with pytest.raises(SyscallError) as err:
        kernel.sys_setgroups(root, [27, bad])
    assert err.value.errno_value == Errno.EINVAL
    assert root.cred is cred
    with pytest.raises(SyscallError) as err:
        kernel.sys_setgroups(alice, [bad])
    assert err.value.errno_value == Errno.EPERM


@pytest.mark.parametrize("mode", MODES)
def test_setgroups_refuses_more_than_ngroups_max(mode):
    system = System(mode)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    cred = root.cred
    # The list is counted as passed: duplicates count too.
    for too_many in (list(range(NGROUPS_MAX + 1)), [27] * (NGROUPS_MAX + 1)):
        with pytest.raises(SyscallError) as err:
            kernel.sys_setgroups(root, too_many)
        assert err.value.errno_value == Errno.EINVAL
        assert root.cred is cred
    with pytest.raises(SyscallError) as err:
        kernel.sys_setgroups(alice, list(range(NGROUPS_MAX + 1)))
    assert err.value.errno_value == Errno.EPERM
    kernel.sys_setgroups(root, list(range(NGROUPS_MAX)))
    assert root.cred.groups == frozenset(range(NGROUPS_MAX))


@pytest.mark.parametrize("mode", MODES)
def test_the_largest_valid_id_is_accepted(mode):
    system = System(mode)
    root = system.root_session()
    system.kernel.sys_setgid(root, 2**32 - 2)
    system.kernel.sys_setuid(root, 2**32 - 2)
    assert (root.cred.ruid, root.cred.rgid) == (2**32 - 2, 2**32 - 2)


# ----------------------------------------------------------------------
# Allowed transitions are audited
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("who, call, event", [
    ("root", "setgid", ("setgid", "-> 1000")),
    ("alice", "setgid", ("setgid", "egid -> 1000")),
    ("root", "setuid", ("setuid", "-> 1000")),
], ids=["capability setgid", "identity setgid", "capability setuid"])
def test_an_allowed_setuid_or_setgid_writes_an_audit_event(mode, who, call,
                                                           event):
    system = System(mode)
    kernel = system.kernel
    task = system.root_session() if who == "root" else system.session_for(who)
    events = len(kernel.audit_events())
    getattr(kernel, f"sys_{call}")(task, 1000)
    assert [(r.event, r.detail) for r in kernel.audit_events()[events:]] \
        == [event]
