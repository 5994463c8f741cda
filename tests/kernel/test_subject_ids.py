"""Subject ids: one interned id per (credentials, executable) context.

The fused table and the decision cache key on the SID that
``GenerationHub.subject`` interns from the *value* of a task's
credentials and executable. These tests pin the identity rules:

* equal contexts share a SID, so a second login's first open of a path
  the first login opened is already a hit;
* a different credential value or executable gets a different SID;
* assigning ``task.cred`` or ``task.exe_path`` directly is noticed on
  the next probe, with no bump anywhere;
* a forked child shares its parent's SID until it execs.
"""

import dataclasses

import pytest

from repro.core.system import System, SystemMode
from repro.kernel import Kernel
from repro.kernel.cred import Credentials


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def root(kernel):
    return kernel.root_task()


def _probe(kernel, task, path="/etc"):
    """One fused stat; returns the SID the probe keyed on."""
    kernel.sys_stat(task, path)
    return task.sid


def test_two_logins_share_a_sid_and_a_warm_cache():
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    password = system.password_of("alice")
    first = system.login("alice", password)
    second = system.login("alice", password)
    assert first.cred == second.cred and first.cred is not second.cred
    fd = kernel.sys_open(first, "/etc/passwd")
    kernel.sys_close(first, fd)
    stats = kernel.fastpath.stats
    hits, misses = stats.hits, stats.misses
    fd = kernel.sys_open(second, "/etc/passwd")
    kernel.sys_close(second, fd)
    assert (stats.hits, stats.misses) == (hits + 1, misses)
    assert second.sid == first.sid


def test_a_different_executable_or_credential_gets_another_sid(kernel):
    alice = kernel.user_task(1000, 1000)
    alice.exe_path = "/bin/sh"
    twin = kernel.user_task(1000, 1000)
    twin.exe_path = "/bin/sh"
    other_exe = kernel.user_task(1000, 1000)
    other_exe.exe_path = "/bin/cat"
    other_cred = kernel.user_task(1000, 1000, groups=[27])
    other_cred.exe_path = "/bin/sh"
    sids = [_probe(kernel, task)
            for task in (alice, twin, other_exe, other_cred)]
    assert sids[0] == sids[1]
    assert len(set(sids)) == 3


def test_direct_assignment_is_noticed_on_the_next_probe(kernel, root):
    task = kernel.user_task(1000, 1000)
    task.exe_path = "/bin/sh"
    first = _probe(kernel, task)
    task.exe_path = "/usr/bin/app"
    second = _probe(kernel, task)
    assert second != first
    task.cred = dataclasses.replace(task.cred, groups=frozenset({27}))
    third = _probe(kernel, task)
    assert third not in (first, second)
    # Assigning back an equal value returns to the first context.
    task.exe_path = "/bin/sh"
    task.cred = Credentials.for_user(1000, 1000)
    assert _probe(kernel, task) == first


def test_forked_child_shares_the_sid_until_it_execs(kernel, root):
    kernel.write_file(root, "/bin/tool", b"")
    kernel.sys_chmod(root, "/bin/tool", 0o755)
    parent = kernel.user_task(1000, 1000)
    parent.exe_path = "/bin/sh"
    parent_sid = _probe(kernel, parent)
    child = kernel.sys_fork(parent)
    assert _probe(kernel, child) == parent_sid
    kernel.sys_execve(child, "/bin/tool")
    assert child.exe_path == "/bin/tool"
    assert _probe(kernel, child) != parent_sid
    assert _probe(kernel, parent) == parent_sid


def test_sids_are_minted_only_for_new_contexts(kernel, root):
    hub = kernel.generations
    tasks = [kernel.user_task(1000, 1000) for _ in range(5)]
    minted = hub.cred
    sids = {_probe(kernel, task) for task in tasks}
    assert len(sids) == 1
    assert hub.cred == minted + 1
    root_sid = _probe(kernel, root)
    assert hub.cred == minted + 2
    cred_before = root.cred
    root.cred = dataclasses.replace(cred_before)  # a new object, equal value
    assert root.cred is not cred_before
    assert _probe(kernel, root) == root_sid
    assert hub.cred == minted + 2
