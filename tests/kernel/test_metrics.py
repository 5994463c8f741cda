"""The kernel's counters registry and ``/proc/protego/metrics``.

Every layer's counters are registered once at boot and read on demand:
the entry gate, the fused table, the dentry cache, the decision cache
(AVC), the audit ring, netfilter and the generation hub, plus one
``entries`` gauge per cache. The file prints one sorted ``name value``
line per metric. The expected names are spelled out here rather than
derived from the stats classes, so a counter that silently drops out
of the registry fails this test.
"""

import dataclasses

import pytest

from repro.core import System, SystemMode
from repro.core.procfiles import METRICS_PROC_PATH
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.metrics import MetricsRegistry

EXPECTED = {
    "kernel.entry.mask_hits", "kernel.entry.mask_recomputes",
    "kernel.entry.rejections", "kernel.entry.uncached_recomputes",
    "kernel.fastpath.hits", "kernel.fastpath.misses",
    "kernel.fastpath.stale_evictions", "kernel.fastpath.insertions",
    "kernel.fastpath.invalidations", "kernel.fastpath.flushes",
    "kernel.fastpath.alloc_failures", "kernel.fastpath.entries",
    "kernel.dcache.lookups", "kernel.dcache.hits", "kernel.dcache.misses",
    "kernel.dcache.negative_hits", "kernel.dcache.walks",
    "kernel.dcache.perm_hits", "kernel.dcache.perm_misses",
    "kernel.dcache.invalidations", "kernel.dcache.flushes",
    "kernel.dcache.alloc_failures", "kernel.dcache.entries",
    "kernel.avc.lookups", "kernel.avc.hits", "kernel.avc.misses",
    "kernel.avc.uncacheable", "kernel.avc.invalidations",
    "kernel.avc.flushes", "kernel.avc.alloc_failures", "kernel.avc.entries",
    "kernel.audit.seq", "kernel.audit.dropped", "kernel.audit.lost",
    "kernel.audit.rescued_denials",
    "kernel.netfilter.evaluated", "kernel.netfilter.dropped",
    "kernel.netfilter.accepted", "kernel.netfilter.flow_hits",
    "kernel.netfilter.flow_misses", "kernel.netfilter.flow_invalidations",
    "kernel.netfilter.entries",
    "kernel.generations.mount", "kernel.generations.policy",
    "kernel.generations.cred",
}


def _read(kernel, task):
    text = kernel.read_file(task, METRICS_PROC_PATH).decode()
    return [line.split(" ") for line in text.splitlines()]


@pytest.mark.parametrize("mode", [SystemMode.LINUX, SystemMode.PROTEGO])
class TestProcFile:
    def test_root_only_0600_in_both_modes(self, mode):
        system = System(mode)
        kernel = system.kernel
        assert kernel.sys_stat(system.root_session(),
                               METRICS_PROC_PATH).mode & 0o7777 == 0o600
        with pytest.raises(SyscallError) as err:
            kernel.read_file(system.session_for("alice"), METRICS_PROC_PATH)
        assert err.value.errno_value == Errno.EACCES

    def test_one_sorted_line_per_counter_of_every_source(self, mode):
        system = System(mode)
        rows = _read(system.kernel, system.root_session())
        names = [name for name, _value in rows]
        assert names == sorted(names)
        assert len(names) == len(set(names))
        assert set(names) == EXPECTED
        assert all(value.isdigit() for _name, value in rows)

    def test_the_per_layer_stat_files_are_gone(self, mode):
        system = System(mode)
        root = system.root_session()
        for path in ("/proc/protego/dcache", "/proc/protego/fastpath"):
            with pytest.raises(SyscallError) as err:
                system.kernel.sys_stat(root, path)
            assert err.value.errno_value == Errno.ENOENT

    def test_values_are_the_layers_own_counters(self, mode):
        system = System(mode)
        kernel = system.kernel
        rendered = dict(_read(kernel, system.root_session()))
        server = kernel.security_server
        # Counters the read itself does not move.
        assert int(rendered["kernel.avc.flushes"]) == server.stats.flushes
        assert int(rendered["kernel.generations.policy"]) \
            == kernel.generations.policy
        assert int(rendered["kernel.netfilter.flow_invalidations"]) \
            == kernel.net.netfilter.stats["flow_invalidations"]


class TestCounting:
    def test_a_repeated_warm_stat_is_one_fused_hit(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        kernel.sys_stat(alice, "/etc/fstab")
        kernel.sys_stat(alice, "/etc/fstab")
        before = kernel.metrics.snapshot()
        kernel.sys_stat(alice, "/etc/fstab")
        delta = kernel.metrics.delta(before)
        assert delta["kernel.fastpath.hits"] == 1
        assert delta["kernel.fastpath.misses"] == 0
        assert delta["kernel.dcache.lookups"] == 0
        assert delta["kernel.avc.lookups"] == 0

    def test_a_chmod_invalidates_all_three_path_caches(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        root = system.root_session()
        alice = system.session_for("alice")
        kernel.write_file(root, "/tmp/shared", b"x")
        kernel.sys_chmod(root, "/tmp/shared", 0o644)
        for _ in range(2):
            kernel.sys_close(alice, kernel.sys_open(alice, "/tmp/shared"))
        before = kernel.metrics.snapshot()
        kernel.sys_chmod(root, "/tmp/shared", 0o600)
        delta = kernel.metrics.delta(before)
        for cache in ("fastpath", "dcache", "avc"):
            assert delta[f"kernel.{cache}.invalidations"] >= 1, cache


class TestRegistry:
    def test_sources_are_read_live_by_field(self):
        @dataclasses.dataclass
        class Stats:
            hits: int = 0
            misses: int = 0

        class Slotted:
            __slots__ = ("seq",)

            def __init__(self):
                self.seq = 0

        stats, slotted, table = Stats(), Slotted(), {"drops": 0}
        registry = MetricsRegistry()
        registry.register("a", stats)
        registry.register("b", slotted)
        registry.register("c", table, entries=lambda: len(table))
        base = registry.snapshot()
        assert base == {"kernel.a.hits": 0, "kernel.a.misses": 0,
                        "kernel.b.seq": 0, "kernel.c.drops": 0,
                        "kernel.c.entries": 1}
        stats.hits += 2
        slotted.seq += 1
        table["drops"] += 3
        assert registry.delta(base) == {
            "kernel.a.hits": 2, "kernel.a.misses": 0, "kernel.b.seq": 1,
            "kernel.c.drops": 3, "kernel.c.entries": 0}
        assert registry.delta({}) == registry.snapshot()
        assert registry.render().splitlines() == [
            "kernel.a.hits 2", "kernel.a.misses 0", "kernel.b.seq 1",
            "kernel.c.drops 3", "kernel.c.entries 1"]

    def test_names_are_unique(self):
        registry = MetricsRegistry()
        registry.register("a", {"x": 0})
        with pytest.raises(ValueError):
            registry.register("a", {"y": 0}, ("x",))
