"""Fleet-wide observability: latency ledgers and the FleetStats report.

Latency percentiles are computed over exact per-session figures (one
number per session is cheap at any fleet size) and over a bounded,
deterministically-decimated reservoir per operation kind (a million
per-op samples is not cheap). The decimation is stride doubling: once
a reservoir is full, every other retained sample is dropped and only
every 2^k-th new sample is kept — no RNG, so two runs with the same
seed keep identical reservoirs.

Both ledgers and whole reports are *mergeable*: the per-shard schedule
mode (and the process-parallel engine built on it — DESIGN.md §15)
produces one single-shard :class:`FleetStats` part per shard, and
:meth:`FleetStats.merge` folds the parts in shard-id order. Every
merge is order-defined (shard-id order is the canonical fold order)
and associative — reservoirs concatenate untouched and the cap
decimation is deferred to the next ``record()`` — so any grouping of
the parts yields the same report, which is what lets N worker
processes each merge their own slice.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def combine_schedule_digests(
        digests: Iterable[Optional[int]]) -> Optional[int]:
    """Fold per-shard schedule CRCs into one fleet digest.

    The fold is over the shard-id-ordered sequence (the caller's
    responsibility — :meth:`FleetStats.merge` sorts its reports), and
    ``None`` when no shard recorded a schedule. Folding formatted
    values rather than XOR-ing keeps the combination order-sensitive:
    swapping two shards' schedules changes the fleet digest.
    """
    digests = list(digests)
    if all(digest is None for digest in digests):
        return None
    crc = 0
    for digest in digests:
        crc = zlib.crc32(f"{digest};".encode(), crc)
    return crc


def throughput(completed: int, elapsed: float, wall: bool) -> float:
    """Sessions per wall second (*elapsed* in ns) or per million ticks
    (*elapsed* in ticks)."""
    if not elapsed:
        return 0.0
    return completed / (elapsed / (1e9 if wall else 1e6))


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (not assumed sorted)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return ordered[rank]


class LatencyLedger:
    """A bounded per-op-kind latency sample set.

    Keeps exact count/total/max; retains at most *cap* samples for
    percentiles, decimating deterministically (stride doubling) when
    full.
    """

    __slots__ = ("cap", "count", "total", "max", "_samples", "_stride",
                 "_phase")

    def __init__(self, cap: int = 8192):
        self.cap = cap
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._samples: List[float] = []
        self._stride = 1
        self._phase = 0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._samples.append(value)
            if len(self._samples) >= self.cap:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(self) -> Tuple[float, float, float]:
        return (percentile(self._samples, 0.50),
                percentile(self._samples, 0.95),
                percentile(self._samples, 0.99))

    # -- merging -------------------------------------------------------
    def merge(self, other: "LatencyLedger") -> "LatencyLedger":
        """Fold *other* into this ledger (in place; returns self).

        Exact aggregates add; reservoirs concatenate in fold order,
        *untouched* — no realignment, no decimation. That is what
        makes the fold associative: decimating a concatenation would
        shift slice offsets with the left operand's length, so any
        regrouping would retain different samples; plain concatenation
        regroups freely. The merged stride is the coarser of the two
        (it only governs future appends) and the cap decimation is
        deferred — a merged reservoir may exceed ``cap`` until enough
        ``record()`` appends shrink it — so a fold sequence produces
        one reservoir whatever its grouping. Retained samples keep
        their source ledger's density (a long-running shard's samples
        are sparser than a short one's); nearest-rank percentiles over
        the union are an estimate either way, and the serial per-shard
        engine and the parallel merge compute them from the identical
        union.
        """
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max
        self._samples = self._samples + other._samples
        self._stride = max(self._stride, other._stride)
        self._phase = 0
        return self

    @classmethod
    def merged(cls, ledgers: Sequence["LatencyLedger"]) -> "LatencyLedger":
        """A fresh ledger folding *ledgers* left-to-right."""
        out = cls(cap=ledgers[0].cap if ledgers else 8192)
        for ledger in ledgers:
            out.merge(ledger)
        return out


@dataclasses.dataclass
class ShardReport:
    """One shard's contribution to a fleet run: throughput counters
    plus the cache/audit deltas between engine start and finish."""

    index: int
    hostname: str
    sessions: int = 0
    completed: int = 0
    failed: int = 0
    ops: int = 0
    syncs: int = 0
    fastpath_hit_rate: float = 0.0
    dcache_hit_rate: float = 0.0
    decision_hit_rate: float = 0.0
    flow_hit_rate: float = 0.0
    fastpath_stale_evictions: int = 0
    invalidations: int = 0
    #: Audit-ring pressure over the run: rows appended, rows rotated
    #: out of the full ring, rows refused by injected alloc failures,
    #: DENY rows forced in past a failure.
    audit_appended: int = 0
    audit_dropped: int = 0
    audit_lost: int = 0
    audit_rescued: int = 0
    #: Session teardowns from escaped SyscallError/PermissionError (or
    #: injected session.abort), broken down by errno name.
    aborted: int = 0
    abort_errnos: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Syncs postponed by an armed shard.sync fault site.
    sync_postponed: int = 0
    #: Graceful-degradation scoreboard (chaos runs): ops that absorbed
    #: an injected fault and still completed vs. steps a fault killed.
    degraded_ops: int = 0
    hard_failures: int = 0
    #: CRC32 of the shard's rendered audit ring at report time — the
    #: per-shard fingerprint the determinism projection compares, and
    #: what a worker ships back instead of the ring itself.
    audit_crc: int = 0
    #: Per-shard (sid, op) schedule CRC — set only by the per-shard
    #: schedule mode (``None`` under the global oracle schedule, whose
    #: digest is fleet-wide).
    schedule_crc: Optional[int] = None

    def render(self) -> str:
        errnos = ",".join(f"{name}={count}" for name, count
                          in sorted(self.abort_errnos.items())) or "-"
        return (
            f"shard {self.index} ({self.hostname}): sessions={self.sessions} "
            f"completed={self.completed} failed={self.failed} ops={self.ops} "
            f"syncs={self.syncs}\n"
            f"  hit rates: fastpath={self.fastpath_hit_rate:.3f} "
            f"dcache={self.dcache_hit_rate:.3f} "
            f"decision={self.decision_hit_rate:.3f} "
            f"flow={self.flow_hit_rate:.3f}\n"
            f"  invalidations={self.invalidations} "
            f"stale_evictions={self.fastpath_stale_evictions} "
            f"audit: appended={self.audit_appended} "
            f"dropped={self.audit_dropped} lost={self.audit_lost} "
            f"rescued={self.audit_rescued}\n"
            f"  aborted={self.aborted} ({errnos}) "
            f"sync_postponed={self.sync_postponed} "
            f"degraded={self.degraded_ops} "
            f"hard_failures={self.hard_failures} "
            f"audit_crc={self.audit_crc:08x}"
        )


@dataclasses.dataclass
class FleetStats:
    """The whole run, one object: configuration echo, throughput,
    latency percentiles, per-shard cache behaviour."""

    mode: str
    sessions: int
    shards: int
    seed: int
    fastpath: bool
    clock: str              # "tick" or "wall"
    #: Schedule mode echo: "global" (the serial oracle round-robin over
    #: every live session) or "per-shard" (the partitionable schedule
    #: serial and parallel engines share).
    schedule: str = "global"
    completed: int = 0
    failed: int = 0
    ops: int = 0
    elapsed: float = 0.0    # ticks (tick clock) or ns (wall clock)
    #: Sessions per wall second (wall clock) or per million ticks
    #: (tick clock) — same field, unit named by :attr:`clock`.
    sessions_per_sec: float = 0.0
    session_p50: float = 0.0
    session_p95: float = 0.0
    session_p99: float = 0.0
    session_mean: float = 0.0
    session_max: float = 0.0
    op_latency: Dict[str, Tuple[float, float, float]] = \
        dataclasses.field(default_factory=dict)
    op_counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    shard_reports: List[ShardReport] = dataclasses.field(default_factory=list)
    #: Rolling CRC over the (sid, op) schedule, when the engine was
    #: asked to record it — the determinism tests' fingerprint. Under
    #: the per-shard schedule this is the shard-id-ordered combination
    #: of the per-shard ``schedule_crc`` values.
    schedule_digest: Optional[int] = None
    #: The live ledgers behind the percentile fields — attached by the
    #: engine so reports stay mergeable; excluded from equality and
    #: the determinism projection (reservoirs are wall-latency data).
    session_ledger: Optional[LatencyLedger] = \
        dataclasses.field(default=None, repr=False, compare=False)
    op_ledgers: Optional[Dict[str, LatencyLedger]] = \
        dataclasses.field(default=None, repr=False, compare=False)

    @property
    def latency_unit(self) -> str:
        return "ns" if self.clock == "wall" else "ticks"

    @property
    def aborted(self) -> int:
        return sum(r.aborted for r in self.shard_reports)

    @property
    def degraded_ops(self) -> int:
        return sum(r.degraded_ops for r in self.shard_reports)

    @property
    def hard_failures(self) -> int:
        return sum(r.hard_failures for r in self.shard_reports)

    @property
    def sync_postponed(self) -> int:
        return sum(r.sync_postponed for r in self.shard_reports)

    def comparable(self) -> dict:
        """The deterministic projection: every field two same-seed runs
        must agree on, wall-time fields excluded. Keys with unordered
        sources (op counts) are emitted sorted so the projection is
        bit-identical — ``repr()`` included — however it was built
        (one global schedule, a serial per-shard fold, or N worker
        processes merged)."""
        return {
            "mode": self.mode, "sessions": self.sessions,
            "shards": self.shards, "seed": self.seed,
            "schedule": self.schedule,
            "completed": self.completed, "failed": self.failed,
            "ops": self.ops,
            "op_counts": {op: self.op_counts[op]
                          for op in sorted(self.op_counts)},
            "schedule_digest": self.schedule_digest,
            "per_shard": [
                (r.index, r.sessions, r.completed, r.failed, r.ops,
                 r.syncs, r.audit_appended, r.aborted,
                 tuple(sorted(r.abort_errnos.items())),
                 r.sync_postponed, r.degraded_ops, r.hard_failures,
                 r.audit_crc, r.schedule_crc)
                for r in self.shard_reports
            ],
        }

    @classmethod
    def merge(cls, parts: Sequence["FleetStats"]) -> "FleetStats":
        """Fold single-shard-group *parts* into one fleet report.

        The canonical fold order is shard-id order — parts are sorted
        by their first shard index, so the merge is a pure function of
        the part *set* — and the fold is associative (already-merged
        sub-groups merge again without changing anything: counters
        add, reports concatenate, the schedule digest is recomputed
        from the per-shard CRCs every time). This is the single code
        path behind both the serial per-shard engine and the parent
        side of the process-parallel engine, which is what makes their
        ``comparable()`` projections bit-identical.
        """
        if not parts:
            raise ValueError("nothing to merge")
        parts = sorted(parts, key=lambda p: p.shard_reports[0].index
                       if p.shard_reports else -1)
        first = parts[0]
        reports = sorted((report for part in parts
                          for report in part.shard_reports),
                         key=lambda r: r.index)
        op_counts: Dict[str, int] = {}
        for part in parts:
            for op, count in part.op_counts.items():
                op_counts[op] = op_counts.get(op, 0) + count
        op_counts = {op: op_counts[op] for op in sorted(op_counts)}

        session_ledger = None
        op_ledgers = None
        if all(part.session_ledger is not None for part in parts):
            session_ledger = LatencyLedger.merged(
                [part.session_ledger for part in parts])
        if all(part.op_ledgers is not None for part in parts):
            op_ledgers = {
                op: LatencyLedger.merged(
                    [part.op_ledgers[op] for part in parts
                     if op in part.op_ledgers])
                for op in sorted(op_counts)}

        completed = sum(part.completed for part in parts)
        elapsed = float(sum(part.elapsed for part in parts))
        if session_ledger is not None:
            p50, p95, p99 = session_ledger.percentiles()
            mean, peak = session_ledger.mean, session_ledger.max
        else:
            p50 = p95 = p99 = mean = peak = 0.0
        return cls(
            mode=first.mode,
            sessions=sum(part.sessions for part in parts),
            shards=len(reports),
            seed=first.seed,
            fastpath=first.fastpath,
            clock=first.clock,
            schedule=first.schedule,
            completed=completed,
            failed=sum(part.failed for part in parts),
            ops=sum(part.ops for part in parts),
            elapsed=elapsed,
            sessions_per_sec=throughput(completed, elapsed,
                                        first.clock == "wall"),
            session_p50=p50, session_p95=p95, session_p99=p99,
            session_mean=mean, session_max=peak,
            op_latency={op: ledger.percentiles()
                        for op, ledger in op_ledgers.items()}
            if op_ledgers is not None else {},
            op_counts=op_counts,
            shard_reports=reports,
            schedule_digest=combine_schedule_digests(
                [report.schedule_crc for report in reports]),
            session_ledger=session_ledger,
            op_ledgers=op_ledgers,
        )

    def render(self) -> str:
        unit = self.latency_unit
        lines = [
            f"fleet: mode={self.mode} sessions={self.sessions} "
            f"shards={self.shards} seed={self.seed} "
            f"fastpath={int(self.fastpath)} clock={self.clock}",
            f"completed={self.completed} failed={self.failed} "
            f"ops={self.ops} elapsed={self.elapsed:.0f}{unit} "
            f"throughput={self.sessions_per_sec:.1f} "
            + ("sessions/s" if self.clock == "wall"
               else "sessions/Mtick"),
            f"session latency ({unit}): p50={self.session_p50:.0f} "
            f"p95={self.session_p95:.0f} p99={self.session_p99:.0f} "
            f"mean={self.session_mean:.0f} max={self.session_max:.0f}",
            f"aborted={self.aborted} sync_postponed={self.sync_postponed} "
            f"degraded={self.degraded_ops} "
            f"hard_failures={self.hard_failures}",
        ]
        for kind in sorted(self.op_counts):
            count = self.op_counts[kind]
            if kind in self.op_latency:
                p50, p95, p99 = self.op_latency[kind]
                lines.append(f"op {kind:10s} n={count:<8d} "
                             f"p50={p50:.0f} p95={p95:.0f} p99={p99:.0f}")
            else:
                lines.append(f"op {kind:10s} n={count}")
        for report in self.shard_reports:
            lines.append(report.render())
        return "\n".join(lines) + "\n"
