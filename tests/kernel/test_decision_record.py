"""What a decision carries, the one row every cache hit writes, and the
LSM chain's bound dispatch.

* Every decision the security server returns carries its derived facts
  as fields: ``allowed`` is ``verdict is Verdict.ALLOW``, ``from_lsm``
  is ``lsm_module is not None``, and a decision a cache may hold
  carries ``audit_suffix``, its audit row from ``hook`` on with
  ``cached`` set.
* A decision-cache hit and a fused-table hit replay that suffix, so
  one question answered by a miss, a decision-cache hit and a fused
  hit writes three rows that differ only in ``seq``, ``clock`` and
  ``cached``.
* The LSM chain binds each module's hooks when the module registers:
  modules registered after boot run after AppArmor and Protego, in
  registration order, and the cacheability veto and the notifications
  reach them too. (That a DENY stops the walk is
  ``test_decision_cache.py``'s short-circuit test; the event log's
  fields are pinned by ``uncached_hooks_golden.txt``.)
"""

import dataclasses

import pytest

from repro.core import System, SystemMode
from repro.kernel import modes
from repro.kernel.errno import SyscallError
from repro.kernel.lsm import HookResult, SecurityModule
from repro.kernel.security import Verdict
from tests.kernel.test_uncached_decisions import CHECKED

MODES = [SystemMode.LINUX, SystemMode.PROTEGO]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CHECKED))
def test_a_decision_carries_its_derived_fields(mode, name, monkeypatch):
    hook, setup, op = CHECKED[name]
    system = System(mode)
    kernel = system.kernel
    server = kernel.security_server
    root, alice = system.root_session(), system.session_for("alice")
    extra = setup(kernel, root, alice) if setup is not None else None
    seen = []
    check = server.check

    def spy(hook, *args, **kwargs):
        decision = check(hook, *args, **kwargs)
        seen.append((decision, server.audit.entries(last=1)[0]))
        return decision

    # An instance attribute: the server's own capability sub-questions
    # (self.check) come through the spy too.
    monkeypatch.setattr(server, "check", spy)
    try:
        op(kernel, root, alice, extra)
    except SyscallError:
        pass
    assert hook in {decision.hook for decision, _row in seen}
    for decision, row in seen:
        assert decision.allowed == (decision.verdict is Verdict.ALLOW)
        assert decision.from_lsm == (decision.lsm_module is not None)
        # The row this check wrote: a miss's (cached=0) or a hit's.
        assert (row.hook, row.obj, row.verdict, row.layer, row.errno,
                row.context) == (
            decision.hook, decision.obj, decision.verdict.value,
            decision.layer,
            decision.errno.name if decision.errno is not None else "",
            decision.context)
        if decision.fastpath_ok:
            assert decision.audit_suffix is not None
        if decision.audit_suffix is not None:
            assert decision.audit_suffix == (
                row.hook, row.obj, row.mask, row.verdict, row.layer, True,
                row.errno, row.context)


@pytest.mark.parametrize("mode", MODES)
def test_a_miss_a_decision_cache_hit_and_a_fused_hit_write_one_row(mode):
    system = System(mode)
    kernel = system.kernel
    audit = kernel.security_server.audit
    alice = system.session_for("alice")
    kernel.fastpath.enabled = False
    seq = audit.seq
    kernel.sys_access(alice, "/etc/fstab", modes.R_OK)   # miss
    kernel.sys_access(alice, "/etc/fstab", modes.R_OK)   # decision cache
    kernel.fastpath.enabled = True
    kernel.sys_access(alice, "/etc/fstab", modes.R_OK)   # fuses the hit
    fused_hits = kernel.fastpath.stats.hits
    kernel.sys_access(alice, "/etc/fstab", modes.R_OK)   # fused table
    assert kernel.fastpath.stats.hits == fused_hits + 1
    rows = [entry for entry in audit.entries() if entry.seq > seq]
    assert len(rows) == 4
    miss, avc_hit, _fusing_hit, fused_hit = rows
    assert [row.cached for row in (miss, avc_hit, fused_hit)] \
        == [False, True, True]
    assert [row.clock for row in rows] == sorted(set(row.clock for row in rows))
    assert {dataclasses.replace(row, seq=0, clock=0, cached=False)
            for row in (miss, avc_hit, fused_hit)} == {
        dataclasses.replace(miss, seq=0, clock=0)}
    assert miss.hook == "inode_permission" and miss.obj == "/etc/fstab"


class _Spy(SecurityModule):
    """Records every file_open, veto and task_alloc it is asked."""

    def __init__(self, name, log, veto=False):
        self.name = name
        self.log = log
        self.veto = veto

    def file_open(self, task, path, inode, flags):
        self.log.append((self.name, "file_open", path))
        return HookResult.PASS

    def decision_cacheable(self, hook, task, *args):
        self.log.append((self.name, "decision_cacheable", hook))
        return not self.veto

    def task_alloc(self, task):
        self.log.append((self.name, "task_alloc", task.pid))


def _spied(veto=False):
    """A booted Protego machine with two spies registered after boot,
    alice's session, and the spies' (emptied) log."""
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    # Opens go through the layered walk, where the chain is asked.
    kernel.fastpath.enabled = False
    log = []
    kernel.register_module(_Spy("first", log, veto=veto))
    kernel.register_module(_Spy("second", log))
    alice = system.session_for("alice")
    del log[:]
    return kernel, alice, log


def test_modules_registered_after_boot_run_last_in_order():
    kernel, alice, log = _spied()
    assert [module.name for module in kernel.lsm.modules] == [
        "apparmor", "protego", "first", "second"]
    kernel.read_file(alice, "/etc/fstab")
    assert [entry for entry in log if entry[1] == "file_open"] == [
        ("first", "file_open", "/etc/fstab"),
        ("second", "file_open", "/etc/fstab")]
    # Protego runs before them: its refusal of the ssh host key to
    # any binary but sshd (the file's DAC mode admits alice) stops the
    # walk before either spy is asked.
    del log[:]
    with pytest.raises(SyscallError) as err:
        kernel.read_file(alice, "/etc/ssh/ssh_host_key")
    assert err.value.context.startswith("protego:file_open")
    assert not [entry for entry in log if entry[1] == "file_open"]


@pytest.mark.parametrize("veto", [False, True])
def test_the_veto_and_the_notifications_reach_late_modules(veto):
    kernel, alice, log = _spied(veto=veto)
    server = kernel.security_server
    kernel.read_file(alice, "/etc/fstab")
    vetoes = [entry[0] for entry in log if entry[1] == "decision_cacheable"]
    # The first veto ends the asking, as a DENY ends the walk.
    assert vetoes == (["first"] if veto else ["first", "second"])
    hits = server.stats.hits
    kernel.read_file(alice, "/etc/fstab")
    assert server.stats.hits == hits + (0 if veto else 1)
    child = kernel.sys_fork(alice)
    assert [entry for entry in log if entry[1] == "task_alloc"] == [
        ("first", "task_alloc", child.pid),
        ("second", "task_alloc", child.pid)]
