"""Two kernels in one process must not share mutable state.

The fleet engine's whole premise is that shards scale because they are
independent: no module-level mutable state in ``repro.kernel`` may leak
one shard's churn into another's generations, caches, audit ring, or
fault counters. This test hammers shard A with every invalidation
driver the sessions use — chmod, mount/umount, a password rotation
with its daemon resync and policy commit, create/unlink churn — and
asserts shard B's kernel-side observables are bit-identical before and
after.
"""

from repro.core.system import SystemMode
from repro.fleet import build_shards

TENANTS = ["t00", "t01"]


def _observables(kernel):
    """Everything shard-local that cross-shard leakage could perturb:
    every registry counter (generations, cache counters and sizes,
    audit-ring pressure), the audit rows and the fault counters."""
    return {
        "metrics": kernel.metrics.snapshot(),
        "audit_render": kernel.security_server.audit.render(),
        "faults": tuple((site.name, site.calls, site.injected)
                        for site in kernel.faults.sites()),
    }


def _warm(shard):
    """Give the shard's caches entries a leak would invalidate."""
    system = shard.system
    task = system.login("alice", "alice-password")
    kernel = shard.kernel
    kernel.sys_mkdir(task, "/tmp/fleet/t00/iso", 0o755)
    kernel.write_file(task, "/tmp/fleet/t00/iso/f.dat", b"warm")
    for _ in range(5):
        kernel.sys_stat(task, "/tmp/fleet/t00/iso/f.dat")
    return task


def _churn(shard):
    """Every invalidation driver the fleet sessions exercise."""
    system = shard.system
    kernel = shard.kernel
    root = system.root_session()
    admin = system.login("admin1", "admin1-password")

    # File churn + DAC mutation.
    kernel.sys_mkdir(admin, "/tmp/fleet/t01/churn", 0o755)
    for i in range(20):
        path = f"/tmp/fleet/t01/churn/f{i}.dat"
        kernel.write_file(admin, path, b"x" * 64)
        kernel.sys_chmod(root, path, 0o600)
        kernel.sys_stat(admin, path)
        kernel.sys_unlink(admin, path)

    # Mount generation bump (user mount + umount).
    status, _ = system.run(admin, "/bin/mount",
                           ["mount", "/dev/cdrom", "/cdrom"])
    if status == 0:
        system.run(admin, "/bin/umount", ["umount", "/cdrom"])

    # Credential churn + daemon resync + transactional policy commit.
    system.run(admin, "/usr/bin/passwd", ["passwd"],
               feed=["admin1-password"] * 3)
    system.sync()


def test_heavy_churn_on_one_shard_leaves_the_other_untouched():
    shard_a, shard_b = build_shards(SystemMode.PROTEGO, 2, tenants=TENANTS)

    # Warm B so it owns cache entries that a leaked invalidation,
    # generation bump, or shared index would destroy.
    task_b = _warm(shard_b)
    before = _observables(shard_b.kernel)

    _churn(shard_a)

    after = _observables(shard_b.kernel)
    assert after == before

    # And B's warm entries still *hit*: a stat that survived A's churn
    # must be served from B's caches, not recomputed.
    fp_hits = shard_b.kernel.fastpath.stats.hits
    shard_b.kernel.sys_stat(task_b, "/tmp/fleet/t00/iso/f.dat")
    assert shard_b.kernel.fastpath.stats.hits == fp_hits + 1


def test_churn_is_visible_on_the_mutated_shard():
    """The control: the same churn must move A's own observables —
    otherwise the isolation assertion above is vacuous."""
    shard_a, shard_b = build_shards(SystemMode.PROTEGO, 2, tenants=TENANTS)
    before = _observables(shard_a.kernel)["metrics"]
    _churn(shard_a)
    after = _observables(shard_a.kernel)["metrics"]
    assert after["kernel.audit.seq"] > before["kernel.audit.seq"]
    assert after["kernel.generations.mount"] \
        > before["kernel.generations.mount"]
    dcache = ("kernel.dcache.lookups", "kernel.dcache.hits",
              "kernel.dcache.invalidations")
    assert [after[name] for name in dcache] \
        != [before[name] for name in dcache]


def test_report_invalidations_sum_every_path_keyed_cache():
    """ShardReport.invalidations is entries dropped, summed over the
    fused table, the dcache path map and the decision cache."""
    (shard,) = build_shards(SystemMode.PROTEGO, 1, tenants=TENANTS)
    kernel = shard.kernel
    caches = (kernel.fastpath.stats, kernel.vfs.dcache.stats,
              kernel.security_server.stats)
    shard.begin_run()
    before = [stats.invalidations for stats in caches]
    _churn(shard)
    dropped = [stats.invalidations - base
               for stats, base in zip(caches, before)]
    assert all(dropped)
    assert shard.report().invalidations == sum(dropped)
