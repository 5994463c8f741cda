"""One shard: a full System plus the fleet's view of it.

A shard owns one kernel and serves one tenant group's sessions. The
engine talks to shards for three things:

* **construction** — :func:`build_shards` provisions K systems (one
  per shard) with fleet-friendly hostnames and the shared
  ``/tmp/fleet`` namespace pre-created;
* **bookkeeping** — per-shard counters the scheduler bumps inline and
  the engine folds into fleet totals in batches, plus the lazy
  ``needs_sync`` flag a credential-mutating session raises so daemon
  polls happen per batch, not per op;
* **observability** — one delta of the kernel's counters registry
  since the run began (:meth:`Shard.report`), surfaced while the run
  is live at ``/proc/protego/fleet`` on the shard's own procfs.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence

from repro.core.build import make_tenant_dirs
from repro.core.system import System, SystemMode
from repro.fleet.stats import ShardReport
from repro.kernel.fault import SITE_SESSION_ABORT, SITE_SHARD_SYNC

FLEET_PROC_PATH = "protego/fleet"


def _hit_rate(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


class Shard:
    """One kernel instance in the fleet, with run-relative counters."""

    def __init__(self, index: int, system: System):
        self.index = index
        self.system = system
        self.kernel = system.kernel
        # Scheduler-maintained counters (reset per run).
        self.sessions = 0
        self.completed = 0
        self.failed = 0
        self.ops = 0
        self.syncs = 0
        #: Sessions torn down by an escaped SyscallError/PermissionError
        #: (or an injected session.abort), by errno name.
        self.aborted = 0
        self.abort_errnos: Dict[str, int] = {}
        #: Graceful-degradation scoreboard (chaos runs only): ops that
        #: absorbed an injected fault and still yielded vs. steps a
        #: fault turned into a session teardown.
        self.degraded_ops = 0
        self.hard_failures = 0
        #: Syncs an armed shard.sync site postponed (needs_sync stays
        #: raised, so the next bookkeeping batch retries).
        self.sync_postponed = 0
        #: True when any fault site was armed at run start — gates the
        #: per-step injected_total() diffing so fault-free fleets pay
        #: one attribute load.
        self.chaos = False
        #: Raised by credential-mutating sessions; the engine's batched
        #: bookkeeping turns it into one daemon poll per batch.
        self.needs_sync = False
        self.abort_site = self.kernel.faults.site(SITE_SESSION_ABORT)
        self.sync_site = self.kernel.faults.site(SITE_SHARD_SYNC)
        self._baseline: Dict[str, int] = {}
        self._fleet_render = None
        self._register_proc()

    # ------------------------------------------------------------------
    def _register_proc(self) -> None:
        """Surface this shard's fleet view on its own procfs. The file
        is registered once per kernel; the engine retargets
        ``_fleet_render`` at run start, so the latest run wins."""
        try:
            self.kernel.procfs.register(
                FLEET_PROC_PATH,
                read_fn=lambda: self.render().encode(),
                mode=0o444,
            )
        except Exception:
            # Already registered (a previous engine on this system).
            pass

    def attach_fleet_render(self, render_fn) -> None:
        self._fleet_render = render_fn

    def render(self) -> str:
        """The /proc/protego/fleet payload: the fleet-wide header the
        engine supplies plus this shard's live report."""
        header = self._fleet_render() if self._fleet_render is not None \
            else "fleet: no engine attached\n"
        return header + self.report().render() + "\n"

    # ------------------------------------------------------------------
    # Snapshots and deltas
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        self.sessions = self.completed = self.failed = 0
        self.ops = self.syncs = 0
        self.aborted = 0
        self.abort_errnos = {}
        self.degraded_ops = self.hard_failures = self.sync_postponed = 0
        self.chaos = self.kernel.faults.any_armed
        self.needs_sync = False
        self._baseline = self.kernel.metrics.snapshot()

    def count_abort(self, errno_name: str) -> None:
        self.aborted += 1
        self.abort_errnos[errno_name] = \
            self.abort_errnos.get(errno_name, 0) + 1

    def report(self) -> ShardReport:
        d = self.kernel.metrics.delta(self._baseline)
        fp_hits = d["kernel.fastpath.hits"]
        flow_hits = d["kernel.netfilter.flow_hits"]
        return ShardReport(
            index=self.index,
            hostname=self.kernel.hostname,
            sessions=self.sessions,
            completed=self.completed,
            failed=self.failed,
            ops=self.ops,
            syncs=self.syncs,
            fastpath_hit_rate=_hit_rate(
                fp_hits, fp_hits + d["kernel.fastpath.misses"]),
            dcache_hit_rate=_hit_rate(d["kernel.dcache.hits"],
                                      d["kernel.dcache.lookups"]),
            decision_hit_rate=_hit_rate(d["kernel.avc.hits"],
                                        d["kernel.avc.lookups"]),
            flow_hit_rate=_hit_rate(
                flow_hits, flow_hits + d["kernel.netfilter.flow_misses"]),
            fastpath_stale_evictions=d["kernel.fastpath.stale_evictions"],
            invalidations=(d["kernel.fastpath.invalidations"]
                           + d["kernel.dcache.invalidations"]
                           + d["kernel.avc.invalidations"]),
            audit_appended=d["kernel.audit.seq"],
            audit_dropped=d["kernel.audit.dropped"],
            audit_lost=d["kernel.audit.lost"],
            audit_rescued=d["kernel.audit.rescued_denials"],
            aborted=self.aborted,
            abort_errnos=dict(self.abort_errnos),
            sync_postponed=self.sync_postponed,
            degraded_ops=self.degraded_ops,
            hard_failures=self.hard_failures,
            audit_crc=zlib.crc32(
                self.kernel.security_server.audit.render().encode()),
        )

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """One batched daemon wakeup (no-op on LINUX mode).

        An armed ``shard.sync`` fault postpones: ``needs_sync`` stays
        raised, so the next bookkeeping batch (or the final drain)
        retries — a counted degradation, never a lost sync.
        """
        if self.sync_site.armed and \
                self.sync_site.should_fail(f"shard{self.index}"):
            self.sync_postponed += 1
            return
        self.system.sync()
        self.syncs += 1
        self.needs_sync = False


def build_shards(mode: SystemMode, count: int,
                 tenants: Optional[List[str]] = None,
                 fastpath: bool = True,
                 system_factory=None,
                 indices: Optional[Sequence[int]] = None) -> List[Shard]:
    """Provision *count* systems as fleet shards.

    Construction leans on process-wide memos: password hashes
    (:mod:`repro.core.system`) and parsed credential databases
    (:mod:`repro.core.authdb`) are computed once per process and
    reused. Each shard's daemon still reads, builds and commits its
    own policies in its one start-up sync.

    *indices* restricts construction to a subset of the fleet's shard
    ids (a parallel worker builds only its slice); every shard is
    built exactly as it would be at its position in the full fleet —
    same hostname, same namespace dirs — so a worker-built shard is
    byte-identical to the in-parent one.
    """
    shards = []
    for index in (range(count) if indices is None else indices):
        if system_factory is not None:
            # Scenario-generated fleets: the caller provisions the
            # System (generated users/configs) and we do the fleet
            # plumbing (namespace dirs, fastpath knob, Shard wrap).
            system = system_factory(index)
        else:
            system = System(mode, hostname=f"{mode.value}-shard{index}")
        make_tenant_dirs(system, tenants or [])
        if not fastpath:
            system.kernel.fastpath.enabled = False
        shards.append(Shard(index, system))
    return shards
