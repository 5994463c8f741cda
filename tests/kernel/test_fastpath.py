"""The fused fast path: verdict table, generation hub, entry gate.

Covers the single-probe plane this refactor added on top of the
layered caches:

* warm stat/open/access served whole from the fused table — the
  dcache and decision cache are never consulted on a hit;
* one flush rule: policy reloads empty the table through the hub's
  flush fan-out, credential commits orphan by keying (a new subject
  id) without evicting other subjects;
* attribute, namespace and mount-table mutations arrive as prefix
  invalidations through the hub's path fan-out (chmod,
  create-over-negative, a mount at its mountpoint), and every cache
  counts the entries they drop;
* O_CREAT opens bypass the table entirely;
* fused denials replay the layered errno, context, and audit row;
* both new fault sites fail closed (a fault slows, never widens);
* the SFIP-style entry gate rejects out-of-mask syscalls with EPERM
  before argument processing, and a confinement survives credential
  commits and fork until it is lifted;
* /proc/protego/metrics renders the whole plane's counters, root-only.
"""

import pytest

from repro.core.procfiles import METRICS_PROC_PATH
from repro.core.system import System, SystemMode
from repro.kernel import Kernel, modes
from repro.kernel.cred import Credentials
from repro.kernel.entry import ALL_MASK, SYSCALLS, mask_for, mask_names
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fault import SITE_ENTRY_MASK, SITE_FASTPATH_INSERT
from repro.kernel.generations import GenerationHub
from repro.kernel.lsm import HookResult, SecurityModule
from repro.kernel.task import Task
from repro.kernel.vfs import Filesystem


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def root(kernel):
    return kernel.root_task()


@pytest.fixture
def alice(kernel):
    return kernel.user_task(1000, 1000)


def _deep_file(kernel, root, depth=4):
    path = "/d0"
    kernel.sys_mkdir(root, path)
    for i in range(1, depth):
        path = f"{path}/d{i}"
        kernel.sys_mkdir(root, path)
    path = f"{path}/file"
    kernel.write_file(root, path, b"payload\n")
    return path


# ======================================================================
# Fused hits
# ======================================================================
class TestFusedHits:
    def test_warm_stat_is_one_fused_probe(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)  # cold: layered walk + insert
        fp, dcache = kernel.fastpath.stats, kernel.vfs.dcache.stats
        server = kernel.security_server.stats
        dcache_before = dcache.hits + dcache.misses
        server_before = server.lookups
        hits_before = fp.hits
        for _ in range(3):
            kernel.sys_stat(root, path)
        assert fp.hits == hits_before + 3
        # The layers below never saw the warm stats.
        assert dcache.hits + dcache.misses == dcache_before
        assert server.lookups == server_before

    def test_warm_open_served_fused(self, kernel, root):
        path = _deep_file(kernel, root)
        fd = kernel.sys_open(root, path)
        kernel.sys_close(root, fd)
        hits_before = kernel.fastpath.stats.hits
        fd = kernel.sys_open(root, path)
        assert kernel.fastpath.stats.hits == hits_before + 1
        assert kernel.sys_read(root, fd, 64) == b"payload\n"[:64]
        kernel.sys_close(root, fd)

    def test_warm_access_served_fused(self, kernel, root):
        path = _deep_file(kernel, root)
        assert kernel.sys_access(root, path, modes.R_OK)
        hits_before = kernel.fastpath.stats.hits
        assert kernel.sys_access(root, path, modes.R_OK)
        assert kernel.fastpath.stats.hits == hits_before + 1

    def test_distinct_masks_get_distinct_entries(self, kernel, root):
        path = _deep_file(kernel, root)
        assert kernel.sys_access(root, path, modes.R_OK)
        entries = len(kernel.fastpath)
        assert kernel.sys_access(root, path, modes.W_OK)
        assert len(kernel.fastpath) == entries + 1

    def test_disabled_table_is_bypassed(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.fastpath.enabled = False
        kernel.sys_stat(root, path)
        kernel.sys_stat(root, path)
        assert kernel.fastpath.stats.hits + kernel.fastpath.stats.misses == 0
        assert len(kernel.fastpath) == 0


# ======================================================================
# Staleness: policy bumps flush, paths (and mountpoints) by prefix
# ======================================================================
def _fused_under(fastpath, mountpoint):
    """How many fused verdicts name *mountpoint* or a path beneath it."""
    return sum(1 for key in fastpath.table
               if key[1] == mountpoint or key[1].startswith(mountpoint + "/"))


class TestGenerationStaleness:
    def test_mount_drops_only_the_entries_under_its_mountpoint(
            self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.sys_mkdir(root, "/mnt2")
        kernel.write_file(root, "/mnt2/under", b"under")
        kernel.sys_mkdir(root, "/mnt2x")
        for name in (path, "/mnt2", "/mnt2/under", "/mnt2x"):
            kernel.sys_stat(root, name)
        fp = kernel.fastpath
        stale_before = fp.stats.stale_evictions

        def drops_only_the_subtree(change):
            doomed = _fused_under(fp, "/mnt2")
            entries, dropped = len(fp), fp.stats.invalidations
            change()
            # Exactly the mountpoint's subtree goes, counted as
            # invalidations; nothing is stale, and a sibling that only
            # shares the string prefix stays fused.
            assert doomed > 0 and _fused_under(fp, "/mnt2") == 0
            assert len(fp) == entries - doomed
            assert fp.stats.invalidations == dropped + doomed
            assert fp.stats.stale_evictions == stale_before
            hits = fp.stats.hits
            kernel.sys_stat(root, path)
            kernel.sys_stat(root, "/mnt2x")
            assert fp.stats.hits == hits + 2

        drops_only_the_subtree(
            lambda: kernel.sys_mount(root, "tmpfs", "/mnt2", "tmpfs"))
        with pytest.raises(SyscallError) as err:
            kernel.sys_stat(root, "/mnt2/under")
        assert err.value.errno_value == Errno.ENOENT
        kernel.sys_stat(root, "/mnt2")
        drops_only_the_subtree(lambda: kernel.sys_umount(root, "/mnt2"))
        assert kernel.sys_stat(root, "/mnt2/under").size == len(b"under")

    def test_policy_flush_orphans_every_fused_entry(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)
        fp = kernel.fastpath
        entries, stale_before = len(fp), fp.stats.stale_evictions
        assert entries > 0
        kernel.security_server.flush()
        assert len(fp) == 0
        assert fp.stats.stale_evictions == stale_before + entries
        misses_before = fp.stats.misses
        kernel.sys_stat(root, path)
        assert fp.stats.misses == misses_before + 1

    def test_chmod_invalidates_by_prefix(self, kernel, root, alice):
        kernel.sys_mkdir(root, "/pub", mode=0o755)
        kernel.write_file(root, "/pub/readme", b"x")
        kernel.sys_chmod(root, "/pub/readme", 0o644)
        assert kernel.sys_access(alice, "/pub/readme", modes.R_OK)
        assert kernel.sys_access(alice, "/pub/readme", modes.R_OK)  # fused
        kernel.sys_chmod(root, "/pub", 0o700)  # parent: prefix covers child
        assert not kernel.sys_access(alice, "/pub/readme", modes.R_OK)

    def test_setuid_orphans_by_sid_not_generation(self, kernel, root):
        path = _deep_file(kernel, root)
        task = kernel.root_task("setuid-shell")  # holds CAP_SETUID
        kernel.sys_stat(task, path)
        kernel.sys_stat(root, path)
        hub = kernel.generations
        generations = (hub.mount, hub.policy)
        entries = len(kernel.fastpath)
        kernel.sys_setuid(task, 1000)
        # No mount or policy bump, so no flush: other subjects' fused
        # entries survive the credential commit.
        assert (hub.mount, hub.policy) == generations
        assert len(kernel.fastpath) == entries
        hits_before = kernel.fastpath.stats.hits
        kernel.sys_stat(root, path)
        assert kernel.fastpath.stats.hits == hits_before + 1
        # The committing task's own entries are orphaned by keying.
        misses_before = kernel.fastpath.stats.misses
        kernel.sys_stat(task, path)
        assert kernel.fastpath.stats.misses == misses_before + 1

    def test_invalidations_count_the_entries_each_cache_drops(self, kernel,
                                                              root, alice):
        kernel.sys_mkdir(root, "/d", mode=0o755)
        for name in ("a", "b", "c"):
            kernel.write_file(root, f"/d/{name}", b"x")
            kernel.sys_chmod(root, f"/d/{name}", 0o644)
        for task in (root, alice):
            for name in ("a", "b", "c"):
                kernel.sys_stat(task, f"/d/{name}")
                assert kernel.sys_access(task, f"/d/{name}", modes.R_OK)
        caches = {"fused": (kernel.fastpath, kernel.fastpath.table),
                  "dcache": (kernel.vfs.dcache, kernel.vfs.dcache._entries),
                  "avc": (kernel.security_server,
                          kernel.security_server._cache)}
        under_d = {name: sum(1 for key in table
                             if key[1] == "/d" or key[1].startswith("/d/"))
                   for name, (_, table) in caches.items()}
        before = {name: owner.stats.invalidations
                  for name, (owner, _) in caches.items()}
        kernel.sys_chmod(root, "/d", 0o700)
        moved = {name: owner.stats.invalidations - before[name]
                 for name, (owner, _) in caches.items()}
        # Each counter moves by the entries its cache dropped, not by
        # the number of invalidation calls.
        assert moved == under_d
        assert min(moved.values()) > 1
        # A credential commit drops nothing, so it counts nothing.
        avc_before = kernel.security_server.stats.invalidations
        kernel.sys_setuid(kernel.root_task("su"), 1000)
        assert kernel.security_server.stats.invalidations == avc_before


# ======================================================================
# Cacheability edges
# ======================================================================
class TestCacheabilityEdges:
    def test_o_creat_bypasses_the_table(self, kernel, root):
        kernel.sys_mkdir(root, "/tmp2")
        stats = kernel.fastpath.stats
        lookups_before = stats.hits + stats.misses
        fd = kernel.sys_open(root, "/tmp2/new", modes.O_WRONLY | modes.O_CREAT)
        kernel.sys_close(root, fd)
        assert stats.hits + stats.misses == lookups_before
        assert len(kernel.fastpath) == 0

    def test_negative_stat_fuses_and_create_unfuses(self, kernel, root):
        kernel.sys_mkdir(root, "/spool")
        for _ in range(2):
            with pytest.raises(SyscallError) as excinfo:
                kernel.sys_stat(root, "/spool/job")
            assert excinfo.value.errno_value == Errno.ENOENT
        assert kernel.fastpath.stats.hits >= 1  # the ENOENT was fused
        kernel.write_file(root, "/spool/job", b"q")  # prefix invalidation
        assert kernel.sys_stat(root, "/spool/job").size == 1

    def test_fused_denial_replays_errno_and_context(self, kernel, root, alice):
        # An LSM denial on a world-readable file: DAC passes, so the
        # walk leaves a dentry behind and the denial may fuse.
        class Denier(SecurityModule):
            name = "denier"

            def file_open(self, task, path, inode, flags):
                if path == "/vault":
                    return HookResult.DENY
                return HookResult.PASS

        kernel.write_file(root, "/vault", b"x")
        kernel.sys_chmod(root, "/vault", 0o644)
        kernel.register_module(Denier())
        with pytest.raises(SyscallError) as first:
            kernel.sys_open(alice, "/vault")
        hits_before = kernel.fastpath.stats.hits
        with pytest.raises(SyscallError) as second:
            kernel.sys_open(alice, "/vault")
        assert kernel.fastpath.stats.hits == hits_before + 1
        assert second.value.errno_value == first.value.errno_value
        assert second.value.context == first.value.context
        assert second.value.context.startswith("denier:file_open")

    def test_dac_denial_falls_back_to_the_layered_path(self, kernel, root,
                                                       alice):
        # A DAC denial leaves no dentry (the walk raised mid-check), so
        # there is no prefix-invalidation certificate: never fused.
        kernel.write_file(root, "/secret", b"x")
        kernel.sys_chmod(root, "/secret", 0o600)
        entries_before = len(kernel.fastpath)
        for _ in range(2):
            with pytest.raises(SyscallError) as excinfo:
                kernel.sys_open(alice, "/secret")
            assert excinfo.value.errno_value == Errno.EACCES
        assert len(kernel.fastpath) == entries_before

    def test_fused_hit_still_writes_the_audit_row(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        ring = kernel.security_server.audit
        assert kernel.sys_access(alice, "/etc/fstab", modes.R_OK)
        seq_before = ring._seq
        assert kernel.sys_access(alice, "/etc/fstab", modes.R_OK)  # fused
        assert ring._seq == seq_before + 1


# ======================================================================
# Fault sites: fail closed
# ======================================================================
class TestFastpathFaults:
    def test_insert_fault_is_a_counted_noop(self, kernel, root):
        path = _deep_file(kernel, root)
        expected = kernel.sys_stat(root, path)
        kernel.fastpath.flush()  # force the armed stats through put()
        with kernel.faults.inject(SITE_FASTPATH_INSERT):
            for _ in range(3):
                assert kernel.sys_stat(root, path) == expected
            assert kernel.fastpath.stats.alloc_failures > 0
            assert len(kernel.fastpath) == 0
        # Disarmed: the next stat fuses again.
        kernel.sys_stat(root, path)
        assert len(kernel.fastpath) == 1

    def test_entry_mask_fault_recomputes_but_never_caches(self, kernel, root):
        path = _deep_file(kernel, root)
        with kernel.faults.inject(SITE_ENTRY_MASK):
            root.entry_mask = None
            for _ in range(3):
                kernel.sys_stat(root, path)  # correct answer, mask uncached
            assert kernel.entry_gate.stats.uncached_recomputes >= 3
            assert root.entry_mask is None
        kernel.sys_stat(root, path)
        assert root.entry_mask == ALL_MASK


# ======================================================================
# The syscall-entry gate
# ======================================================================
class TestEntryGate:
    def test_restricted_task_rejected_before_arguments(self, kernel, root):
        gate = kernel.entry_gate
        gate.restrict(root, ["stat", "close", "exit"])
        kernel.write_file  # the helper itself is not gated
        with pytest.raises(SyscallError) as excinfo:
            kernel.sys_open(root, "/no/such/path/matters")
        # EPERM from the gate, not ENOENT from the walk: rejection
        # happened before any argument processing.
        assert excinfo.value.errno_value == Errno.EPERM
        assert gate.stats.rejections == 1
        gate.unrestrict(root)

    def test_warm_entries_hit_the_cached_mask(self, kernel, root):
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)
        gate = kernel.entry_gate
        hits_before = gate.stats.mask_hits
        recomputes_before = gate.stats.mask_recomputes
        for _ in range(5):
            kernel.sys_stat(root, path)
        assert gate.stats.mask_hits == hits_before + 5
        assert gate.stats.mask_recomputes == recomputes_before

    def test_restrict_and_unrestrict_revalidate_a_cached_mask(self, kernel,
                                                              root):
        path = _deep_file(kernel, root)
        kernel.sys_stat(root, path)  # warm: served from the cached mask
        assert root.entry_mask == ALL_MASK
        gate = kernel.entry_gate
        recomputes_before = gate.stats.mask_recomputes
        gate.restrict(root, ["stat", "close", "exit"])
        assert root.entry_mask is None
        kernel.sys_stat(root, path)  # recomputes the confined mask
        assert gate.stats.mask_recomputes == recomputes_before + 1
        assert root.entry_mask == mask_for(["stat", "close", "exit"])
        with pytest.raises(SyscallError) as excinfo:
            kernel.sys_open(root, path)
        assert excinfo.value.errno_value == Errno.EPERM
        gate.unrestrict(root)
        assert root.entry_mask is None
        fd = kernel.sys_open(root, path)
        assert gate.stats.mask_recomputes == recomputes_before + 2
        assert root.entry_mask == ALL_MASK
        kernel.sys_close(root, fd)

    def test_restriction_survives_setuid_and_execve(self, kernel, root):
        # Confinement is per task, not per identity: credential
        # commits keep the cached mask; only unrestrict lifts it.
        kernel.write_file(root, "/bin/tool", b"")
        kernel.sys_chmod(root, "/bin/tool", 0o755)
        task = kernel.root_task("confined")
        gate = kernel.entry_gate
        gate.restrict(task, ["getpid", "setuid", "execve"])
        kernel.sys_getpid(task)  # computes and caches the confined mask
        recomputes_before = gate.stats.mask_recomputes
        kernel.sys_setuid(task, 1000)
        kernel.sys_execve(task, "/bin/tool")
        assert task.cred.euid == 1000 and task.exe_path == "/bin/tool"
        assert gate.stats.mask_recomputes == recomputes_before
        with pytest.raises(SyscallError) as excinfo:
            kernel.sys_stat(task, "/bin/tool")
        assert excinfo.value.errno_value == Errno.EPERM
        gate.unrestrict(task)
        assert kernel.sys_stat(task, "/bin/tool").ino > 0

    def test_forked_child_inherits_the_confinement(self, kernel, root):
        gate = kernel.entry_gate
        task = kernel.root_task("confined")
        gate.restrict(task, ["fork", "getpid", "exit", "stat"])
        with pytest.raises(SyscallError) as excinfo:
            kernel.sys_open(task, "/etc/passwd")
        assert excinfo.value.errno_value == Errno.EPERM
        child = kernel.sys_fork(task)
        assert child.entry_allowed == task.entry_allowed
        with pytest.raises(SyscallError) as excinfo:
            kernel.sys_open(child, "/etc/passwd")
        assert excinfo.value.errno_value == Errno.EPERM
        assert kernel.sys_getpid(child) == child.pid
        # Lifting the parent's confinement leaves the child's in place.
        gate.unrestrict(task)
        with pytest.raises(SyscallError):
            kernel.sys_open(child, "/etc/passwd")

    def test_mask_helpers_round_trip(self):
        mask = mask_for(["open", "close", "route_del"])
        assert mask_names(mask) == ("open", "close", "route_del")
        assert mask_names(ALL_MASK) == SYSCALLS
        with pytest.raises(KeyError):
            mask_for(["open", "no_such_syscall"])


# ======================================================================
# The generation hub
# ======================================================================
class TestGenerationHub:
    def test_policy_bump_flushes_every_subscriber_and_mount_bump_none(
            self):
        hub = GenerationHub()
        flushed = []
        hub.subscribe_flush(lambda: flushed.append("a"))
        hub.subscribe_flush(lambda: flushed.append("b"))
        # A mount is announced by path; its bump only counts.
        assert hub.bump_mount() == 1
        assert flushed == []
        assert hub.bump_policy() == 1
        assert flushed == ["a", "b"]

    def test_one_sid_per_context_and_no_flush(self):
        hub = GenerationHub()
        flushed = []
        hub.subscribe_flush(lambda: flushed.append(True))
        contexts = [(Credentials.for_user(1000, 1000), "/bin/sh"),
                    (Credentials.for_user(1000, 1000), "/bin/sh"),
                    (Credentials.for_user(1000, 1000), "/bin/cat"),
                    (Credentials.for_user(1001, 1001), "/bin/sh"),
                    (Credentials.for_user(1000, 1000), "/bin/sh")]
        sids = []
        for cred, exe in contexts:
            task = Task(1, cred)
            task.exe_path = exe
            sids.append(hub.subject(task))
        # Equal values share a SID whichever objects carry them.
        assert sids[0] == sids[1] == sids[4]
        assert len(set(sids)) == 3
        assert hub.cred == 3  # one allocation per context
        assert (hub.mount, hub.policy) == (0, 0)
        assert flushed == []

    def test_path_fanout_reaches_every_subscriber(self):
        hub = GenerationHub()
        seen = []
        hub.subscribe_paths(seen.append)
        hub.subscribe_paths(lambda p: seen.append(p.upper()))
        hub.invalidate_path("/etc")
        assert seen == ["/etc", "/ETC"]

    def test_one_hub_spans_dcache_server_and_table(self, kernel):
        hub = kernel.generations
        assert kernel.vfs.generations is hub
        assert kernel.vfs.dcache.generations is hub
        assert kernel.security_server.generations is hub
        assert kernel.fastpath.generations is hub
        # A VFS mount-table change bumps the hub's mount generation.
        before = hub.mount
        kernel.vfs.attach("/mnt", Filesystem("tmpfs"))
        assert hub.mount == before + 1


# ======================================================================
# Verdict forms
# ======================================================================
class TestVerdictForms:
    def test_lookup_verdict_reports_errno_without_raising(self, kernel, root):
        inode, errno, _context, cacheable = \
            kernel.vfs.lookup_verdict("/nope", root.cred)
        assert inode is None and errno == Errno.ENOENT
        assert cacheable


# ======================================================================
# The fast-path plane in /proc/protego/metrics
# ======================================================================
class TestFastpathProcFile:
    def test_renders_table_hub_and_gate_counters(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        root = system.root_session()
        kernel.sys_stat(root, "/etc/fstab")
        kernel.sys_stat(root, "/etc/fstab")
        text = kernel.read_file(root, METRICS_PROC_PATH).decode()
        rendered = dict(line.split(" ") for line in text.splitlines())
        for name in ("kernel.fastpath.entries", "kernel.fastpath.hits",
                     "kernel.fastpath.misses", "kernel.fastpath.insertions",
                     "kernel.fastpath.stale_evictions",
                     "kernel.generations.mount", "kernel.generations.policy",
                     "kernel.entry.mask_hits", "kernel.entry.mask_recomputes",
                     "kernel.entry.rejections"):
            assert name in rendered
        # The second stat was a fused hit; reading the file bumps no
        # generation.
        assert int(rendered["kernel.fastpath.hits"]) >= 1
        hub = kernel.generations
        assert int(rendered["kernel.generations.mount"]) == hub.mount
        assert int(rendered["kernel.generations.policy"]) == hub.policy

    def test_root_only(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        with pytest.raises(SyscallError) as excinfo:
            kernel.read_file(alice, METRICS_PROC_PATH)
        assert excinfo.value.errno_value == Errno.EACCES
