"""The fault-injection subsystem: site semantics, the /proc control
surface, and each consumer's fail-closed/fail-stale degradation."""

import random

import pytest

from repro.core import System, SystemMode
from repro.core.procfiles import COMMIT_PROC_PATH, STATUS_PROC_PATH
from repro.kernel import modes
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fault import (
    CATALOG,
    SITE_AUDIT_APPEND,
    SITE_AVC_ALLOC,
    SITE_DCACHE_ALLOC,
    SITE_NET_DROP,
    SITE_NET_DUP,
    SITE_NET_REORDER,
    SITE_PROC_WRITE,
    SITE_SYSCALL_ENTRY,
    FaultInjector,
    FaultSite,
)
from repro.kernel.net.packets import ICMPType, Packet, Protocol


def echo_packet(payload=b"x"):
    return Packet(Protocol.ICMP, "192.168.1.10", "8.8.8.8",
                  icmp_type=ICMPType.ECHO_REQUEST, payload=payload)


class TestFaultSite:
    def test_disarmed_never_fails(self):
        site = FaultSite("t")
        assert not site.armed
        site.armed = True  # calling should_fail requires arming
        site.disarm()
        assert not site.armed

    def test_deterministic_schedule_for_same_seed(self):
        a = FaultSite("t", seed=7).configure(probability=0.5)
        b = FaultSite("t", seed=7).configure(probability=0.5)
        schedule_a = [a.should_fail() for _ in range(200)]
        schedule_b = [b.should_fail() for _ in range(200)]
        assert schedule_a == schedule_b
        assert any(schedule_a) and not all(schedule_a)

    def test_different_seed_different_schedule(self):
        a = FaultSite("t", seed=1).configure(probability=0.5)
        b = FaultSite("t", seed=2).configure(probability=0.5)
        assert ([a.should_fail() for _ in range(200)]
                != [b.should_fail() for _ in range(200)])

    def test_times_budget_self_disarms(self):
        site = FaultSite("t").configure(times=3)
        results = [site.should_fail() for _ in range(10)]
        assert results.count(True) == 3
        assert results[:3] == [True, True, True]
        assert not site.armed
        assert site.injected == 3

    def test_space_budget_grace_period(self):
        site = FaultSite("t").configure(space=5)
        results = [site.should_fail() for _ in range(8)]
        assert results == [False] * 5 + [True] * 3

    def test_only_filter_restricts_by_key(self):
        site = FaultSite("t").configure(only=["stat"])
        assert not site.should_fail("open")
        assert site.should_fail("stat")

    def test_pick_errno_draws_from_configured_pool(self):
        site = FaultSite("t").configure(errnos=[Errno.EIO])
        assert site.pick_errno() is Errno.EIO
        with pytest.raises(SyscallError) as excinfo:
            site.fail("ctx")
        assert excinfo.value.errno_value is Errno.EIO
        assert "fault:t" in excinfo.value.context

    def test_reset_restores_defaults_and_counters(self):
        site = FaultSite("t").configure(probability=0.1, times=2, space=9)
        site.should_fail()
        site.reset()
        assert not site.armed
        assert (site.probability, site.times, site.space) == (1.0, -1, 0)
        assert (site.calls, site.injected) == (0, 0)

    def test_schedule_is_the_string_seeded_stream(self):
        # The RNG is built on first use; the stream it draws is the one
        # a generator seeded from (seed, name) at construction drew.
        site = FaultSite("t", seed=5)
        site.configure(probability=0.5, errnos=(Errno.EINTR, Errno.ENOMEM))
        reference = random.Random("5:t")
        for _ in range(50):
            fails = reference.random() < 0.5
            assert site.should_fail() is fails
            if fails:
                assert site.pick_errno() is reference.choice(
                    (Errno.EINTR, Errno.ENOMEM))

    def test_snapshot_of_an_unused_site_replays_from_the_seed(self):
        site = FaultSite("t", seed=5).configure(probability=0.5)
        saved = site.snapshot()  # armed, not yet seeded
        first = [site.should_fail() for _ in range(30)]
        site.restore(saved)
        assert [site.should_fail() for _ in range(30)] == first

    def test_a_booted_kernel_seeds_no_site(self):
        sites = System(SystemMode.PROTEGO).kernel.faults.sites()
        assert set(CATALOG) <= {site.name for site in sites}
        assert all(site._rng is None for site in sites)


class TestFaultInjector:
    def test_catalog_preregistered(self):
        injector = FaultInjector()
        assert {s.name for s in injector.sites()} == set(CATALOG)

    def test_inject_context_manager_restores_state(self):
        injector = FaultInjector(seed=3)
        site = injector.site(SITE_DCACHE_ALLOC)
        with injector.inject(SITE_DCACHE_ALLOC, times=1) as armed:
            assert armed is site and site.armed
            assert site.should_fail()
        assert not site.armed
        assert not injector.any_armed

    def test_reset_reseeds_every_site(self):
        injector = FaultInjector(seed=1)
        injector.configure(SITE_AVC_ALLOC, probability=0.5)
        first = [injector.site(SITE_AVC_ALLOC).should_fail() for _ in range(50)]
        injector.reset(seed=1)
        injector.configure(SITE_AVC_ALLOC, probability=0.5)
        assert [injector.site(SITE_AVC_ALLOC).should_fail()
                for _ in range(50)] == first

    def test_injected_total_tallies_every_site_and_survives_reset(self):
        injector = FaultInjector(seed=5)
        avc, dcache = (injector.site(SITE_AVC_ALLOC),
                       injector.site(SITE_DCACHE_ALLOC))
        late = injector.site("late.site")  # registered after boot
        assert injector.injected_total() == 0
        injector.configure(SITE_AVC_ALLOC, probability=0.5)
        injector.configure(SITE_DCACHE_ALLOC, times=3)
        injector.configure("late.site")
        for _ in range(20):
            for site in (avc, dcache, late):
                if site.armed:
                    site.should_fail()
            if late.injected == 4:
                late.disarm()
        total = sum(site.injected for site in injector.sites())
        assert total == avc.injected + 3 + 4
        assert injector.injected_total() == total
        avc.reset()
        injector.control_write(SITE_DCACHE_ALLOC, "reset")
        assert avc.injected == dcache.injected == 0
        assert injector.injected_total() == total
        injector.configure(SITE_AVC_ALLOC, times=1)
        assert avc.should_fail()
        assert injector.injected_total() == total + 1

    def test_control_write_grammar(self):
        injector = FaultInjector()
        injector.control_write(SITE_SYSCALL_ENTRY,
                               "probability=0.25 times=4 space=2 seed=9 "
                               "only=stat,open errnos=EINTR")
        site = injector.site(SITE_SYSCALL_ENTRY)
        assert site.armed and site.probability == 0.25
        assert (site.times, site.space, site.seed) == (4, 2, 9)
        assert site.only == frozenset({"stat", "open"})
        assert site.errnos == (Errno.EINTR,)
        injector.control_write(SITE_SYSCALL_ENTRY, "disarm")
        assert not site.armed
        injector.control_write(SITE_SYSCALL_ENTRY, "reset")
        assert site.times == -1

    def test_control_write_rejects_bad_tokens(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.control_write(SITE_SYSCALL_ENTRY, "nonsense")
        with pytest.raises(ValueError):
            injector.control_write(SITE_SYSCALL_ENTRY, "wat=1")
        with pytest.raises(ValueError):
            injector.control_write(SITE_SYSCALL_ENTRY, "errnos=EFAKE")


class TestProcControlSurface:
    def test_root_configures_and_reads_a_site(self):
        system = System(SystemMode.PROTEGO)
        kernel, root = system.kernel, system.root_session()
        path = f"/proc/protego/fault/{SITE_DCACHE_ALLOC}"
        kernel.write_file(root, path, b"probability=0.5 times=2 seed=11",
                          create=False)
        site = kernel.faults.site(SITE_DCACHE_ALLOC)
        assert site.armed and site.probability == 0.5 and site.times == 2
        text = kernel.read_file(root, path).decode()
        assert "armed=1" in text and "seed=11" in text
        kernel.write_file(root, path, b"disarm", create=False)
        assert not site.armed

    def test_summary_lists_every_site(self):
        system = System(SystemMode.PROTEGO)
        text = system.kernel.read_file(system.root_session(),
                                       "/proc/protego/fault/control").decode()
        for name in CATALOG:
            assert name in text

    def test_control_disarms_whole_registry(self):
        system = System(SystemMode.PROTEGO)
        kernel, root = system.kernel, system.root_session()
        kernel.faults.configure(SITE_DCACHE_ALLOC)
        kernel.faults.configure(SITE_AVC_ALLOC)
        kernel.write_file(root, "/proc/protego/fault/control", b"disarm",
                          create=False)
        assert not kernel.faults.any_armed

    def test_bad_payload_is_einval(self):
        system = System(SystemMode.PROTEGO)
        kernel, root = system.kernel, system.root_session()
        with pytest.raises(SyscallError) as excinfo:
            kernel.write_file(root, f"/proc/protego/fault/{SITE_AVC_ALLOC}",
                              b"gibberish", create=False)
        assert excinfo.value.errno_value is Errno.EINVAL

    def test_fault_files_are_root_only(self):
        system = System(SystemMode.PROTEGO)
        alice = system.session_for("alice")
        with pytest.raises(SyscallError) as excinfo:
            system.kernel.read_file(alice,
                                    f"/proc/protego/fault/{SITE_NET_DROP}")
        assert excinfo.value.errno_value in (Errno.EACCES, Errno.EPERM)


class TestDcacheDegradation:
    def test_walks_stay_correct_and_uncached(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        # This test counts dcache insert attempts; the fused fast path
        # would otherwise serve the warm stats without walking.
        kernel.fastpath.enabled = False
        alice = system.session_for("alice")
        expected = kernel.sys_stat(alice, "/etc/fstab")
        kernel.vfs.dcache.flush()
        before = kernel.vfs.dcache.entry_count()
        with kernel.faults.inject(SITE_DCACHE_ALLOC):
            for _ in range(5):
                assert kernel.sys_stat(alice, "/etc/fstab") == expected
        assert kernel.vfs.dcache.entry_count() == before
        assert kernel.vfs.dcache.stats.alloc_failures > 0
        # Disarmed again: caching resumes.
        kernel.sys_stat(alice, "/etc/fstab")
        assert kernel.vfs.dcache.entry_count() > before

    def test_alloc_failures_rendered_in_proc(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        with kernel.faults.inject(SITE_DCACHE_ALLOC):
            kernel.sys_stat(system.session_for("alice"), "/etc/fstab")
        text = kernel.read_file(system.root_session(),
                                "/proc/protego/metrics").decode()
        rendered = dict(line.split(" ") for line in text.splitlines())
        assert int(rendered["kernel.dcache.alloc_failures"]) > 0


class TestDecisionCacheDegradation:
    def test_decisions_recomputed_not_cached(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        # This test observes decision-cache refill; the fused fast path
        # would serve the repeat accesses without consulting the server.
        kernel.fastpath.enabled = False
        alice = system.session_for("alice")
        server = kernel.security_server
        server.flush()
        with kernel.faults.inject(SITE_AVC_ALLOC):
            assert kernel.sys_access(alice, "/etc/fstab", modes.R_OK)
            assert not kernel.sys_access(alice, "/etc/shadows/bob", modes.R_OK)
            assert server.cache_len() == 0
        assert server.stats.alloc_failures > 0
        # Same answers once disarmed (and now cached).
        assert kernel.sys_access(alice, "/etc/fstab", modes.R_OK)
        assert not kernel.sys_access(alice, "/etc/shadows/bob", modes.R_OK)
        assert server.cache_len() > 0


class TestAuditDegradation:
    def test_lost_appends_counted_and_seq_gap_visible(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        ring = kernel.security_server.audit
        alice = system.session_for("alice")
        seq_before, lost_before = ring._seq, ring.lost
        with kernel.faults.inject(SITE_AUDIT_APPEND):
            for _ in range(4):
                kernel.sys_access(alice, "/etc/fstab", modes.R_OK)
        lost_now = ring.lost - lost_before
        assert lost_now > 0
        seqs = [e.seq for e in ring.entries()]
        assert seqs == sorted(seqs)
        # seq advanced even for the refused appends (the gap is the
        # reader's evidence of loss), and no lost seq is in the ring.
        assert ring._seq >= seq_before + lost_now
        assert max(seqs) <= ring._seq - lost_now

    def test_denials_are_rescued(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        with kernel.faults.inject(SITE_AUDIT_APPEND):
            assert not kernel.sys_access(alice, "/etc/shadows/bob", modes.W_OK)
        ring = kernel.security_server.audit
        assert ring.rescued_denials > 0
        denies = [e for e in ring.entries() if e.verdict == "deny"
                  and e.obj == "/etc/shadows/bob"]
        assert denies, "the denial must survive an injected append failure"


class TestSyscallEntryFaults:
    def test_only_filter_scopes_injection(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        with kernel.faults.inject(SITE_SYSCALL_ENTRY, only=["stat"],
                                  errnos=[Errno.EINTR]):
            with pytest.raises(SyscallError) as excinfo:
                kernel.sys_stat(alice, "/etc/fstab")
            assert excinfo.value.errno_value is Errno.EINTR
            # Non-selected syscalls proceed normally.
            fd = kernel.sys_open(alice, "/etc/fstab", modes.O_RDONLY)
            kernel.sys_close(alice, fd)
        assert kernel.sys_stat(alice, "/etc/fstab")


class TestProcWriteFaults:
    def test_policy_push_fails_stale_never_half_applied(self):
        system = System(SystemMode.PROTEGO)
        kernel, root = system.kernel, system.root_session()
        before = kernel.read_file(root, COMMIT_PROC_PATH)
        # A new fstab line that would change the mount policy.
        fstab = kernel.read_file(root, "/etc/fstab").decode()
        fstab += "/dev/usb1 /media/usb1 vfat user,noauto,rw 0 0\n"
        with kernel.faults.inject(SITE_PROC_WRITE, only=[COMMIT_PROC_PATH]):
            kernel.write_file(root, "/etc/fstab", fstab.encode())
            system.sync()
            assert kernel.read_file(root, COMMIT_PROC_PATH) == before
            assert system.status_board.policy("mounts").stale
            status_text = kernel.read_file(root, STATUS_PROC_PATH).decode()
            assert "mounts epoch=" in status_text and "stale=1" in status_text
        # Disarmed: the daemon's stale-retry lands the push.
        system.sync()
        assert not system.status_board.policy("mounts").stale
        assert b"/media/usb1" in kernel.read_file(root, COMMIT_PROC_PATH)


class TestNetFaults:
    def test_drop_is_silent_loss_after_the_policy_verdict(self):
        system = System(SystemMode.PROTEGO)
        net = system.kernel.net
        with system.kernel.faults.inject(SITE_NET_DROP, times=1):
            assert net.send(echo_packet()) == []
        assert net.send(echo_packet()) != []

    def test_dup_delivers_twice(self):
        system = System(SystemMode.PROTEGO)
        net = system.kernel.net
        host = net.remote_hosts["8.8.8.8"]
        host.received.clear()
        with system.kernel.faults.inject(SITE_NET_DUP, times=1):
            net.send(echo_packet(b"dup"))
        assert len([p for p in host.received if p.payload == b"dup"]) == 2

    def test_reorder_defers_behind_next_send(self):
        system = System(SystemMode.PROTEGO)
        net = system.kernel.net
        host = net.remote_hosts["8.8.8.8"]
        host.received.clear()
        with system.kernel.faults.inject(SITE_NET_REORDER, times=1):
            assert net.send(echo_packet(b"first")) == []   # deferred
            net.send(echo_packet(b"second"))               # flushes it
        assert [p.payload for p in host.received] == [b"second", b"first"]

    def test_flush_deferred_strands_no_traffic(self):
        system = System(SystemMode.PROTEGO)
        net = system.kernel.net
        host = net.remote_hosts["8.8.8.8"]
        host.received.clear()
        with system.kernel.faults.inject(SITE_NET_REORDER):
            net.send(echo_packet(b"held"))
        assert list(host.received) == []
        net.flush_deferred()
        assert [p.payload for p in host.received] == [b"held"]
