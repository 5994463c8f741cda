"""The fleet engine: a cooperative scheduler over sharded kernels.

``FleetEngine`` multiplexes N thousand scripted user sessions over a
pool of shards. Concurrency is generator-based — each session is a
generator that yields at every syscall boundary (see
:mod:`repro.fleet.sessions`) and the scheduler resumes exactly one
session per step — so the interleaving is a pure function of
``(seed, config)`` and two runs agree bit-for-bit on every counter.

Assignment is by tenant group: each session belongs to one of
``config.tenants`` tenant groups and tenant group ``i`` lives on shard
``i % shards``.

Scheduling is round-robin: the scheduler cycles through live sessions
in admission order (finished sessions swap-removed). Schedule modes:

* ``global`` — the original oracle: one round-robin over *every* live
  session in the fleet, whatever shard it lives on. Maximally
  interleaved, inherently sequential.
* ``per-shard`` — the partitionable schedule: each shard's sessions
  are scheduled independently by :func:`run_shard_group`, and the
  per-shard results are folded with :meth:`FleetStats.merge` in
  shard-id order. Because shards share nothing (pinned by the
  isolation tests), the fold is the same whether the groups ran
  back-to-back in this process or concurrently in worker processes —
  which is exactly how :mod:`repro.parallel.fleet` turns the mode into
  wall-clock speedup.

Cross-shard bookkeeping is batched: credential-mutating sessions only
raise their shard's ``needs_sync`` flag, and every
:data:`BOOKKEEPING_INTERVAL` steps the engine drains the flags with one
supervised daemon poll per dirty shard (its own shard only, in
per-shard mode — there is no cross-shard state to drain).
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.system import SystemMode
from repro.fleet.clock import TickClock
from repro.fleet.sessions import (
    DEFAULT_MIX,
    SCRIPTS,
    SessionContext,
    pick_script,
    user_for,
)
from repro.fleet.shard import Shard, build_shards
from repro.fleet.stats import (
    FleetStats,
    LatencyLedger,
    ShardReport,
    throughput,
)
from repro.kernel.errno import SyscallError

GLOBAL = "global"
PER_SHARD = "per-shard"

#: Scheduler steps between cross-shard bookkeeping sweeps.
BOOKKEEPING_INTERVAL = 1024


def _derive_seed(*parts: object) -> int:
    """A stable child seed — CRC32 over *length-prefixed* parts.

    The old ``":".join(...)`` framing let distinct part tuples collide
    (``("a:b", "c")`` framed identically to ``("a", "b:c")``), so two
    different derivation sites could accidentally share an RNG stream.
    Length-prefixing each part makes the framing injective; no pinned
    test depends on the old digests, so there is no compat shim.
    """
    crc = 0
    for part in parts:
        data = str(part).encode()
        crc = zlib.crc32(f"{len(data)}:".encode(), crc)
        crc = zlib.crc32(data, crc)
    return crc


@dataclasses.dataclass
class FleetConfig:
    """One fleet run, fully specified."""

    sessions: int = 100
    shards: int = 1
    mode: SystemMode = SystemMode.PROTEGO
    seed: int = 0
    #: Tenant groups; each group is pinned to one shard.
    tenants: int = 64
    fastpath: bool = True
    #: Relative script weights (defaults to the canonical day mix).
    mix: Optional[Dict[str, int]] = None
    #: Fold a CRC over the (sid, op) schedule into the report — the
    #: determinism tests' fingerprint. Off by default (costs a string
    #: format per step).
    record_schedule: bool = False
    #: Explicit (username, password) roster for generated-scenario
    #: fleets; None = the canonical SESSION_USERS/ADMIN_USER accounts.
    roster: Optional[Tuple[Tuple[str, str], ...]] = None
    #: (username, password) admin-script sessions run as when a roster
    #: is set; None with a roster = admin sessions draw from it too.
    admin: Optional[Tuple[str, str]] = None
    #: Schedule mode: GLOBAL (the serial oracle) or PER_SHARD (the
    #: partitionable schedule the parallel engine shares).
    schedule: str = GLOBAL


class _Session:
    """Scheduler-side state for one live session."""

    __slots__ = ("sid", "script", "gen", "shard", "started")

    def __init__(self, sid: int, script: str, gen, shard: Shard):
        self.sid = sid
        self.script = script
        self.gen = gen
        self.shard = shard
        self.started: Optional[int] = None


class Tally:
    """Live fleet-wide counters (feeds the /proc/protego/fleet header
    while a run is in flight)."""

    __slots__ = ("live", "completed", "failed", "steps")

    def __init__(self) -> None:
        self.reset(0)

    def reset(self, live: int) -> None:
        self.live = live
        self.completed = 0
        self.failed = 0
        self.steps = 0


def admit_sessions(config: FleetConfig, shards_by_index: Dict[int, Shard],
                   tenant_names: List[str],
                   shard_count: int) -> List[_Session]:
    """Build session generators for every sid whose shard is present.

    Deterministic and partition-stable: each session's RNG, script,
    tenant, and shard depend only on ``(config, sid)``, so a worker
    holding a subset of the shards admits exactly the sessions the
    full fleet would place there — in the same sid order.
    """
    sessions = []
    for sid in range(config.sessions):
        rng = random.Random(_derive_seed("session", config.seed, sid))
        script = pick_script(rng, config.mix or DEFAULT_MIX)
        tenant_index = sid % config.tenants
        shard = shards_by_index.get(tenant_index % shard_count)
        if shard is None:
            continue
        if config.roster:
            if script == "admin" and config.admin is not None:
                username, password = config.admin
            else:
                username, password = config.roster[sid % len(config.roster)]
        else:
            username = user_for(script, sid, config.mode)
            password = f"{username}-password"
        ctx = SessionContext(
            shard.system, sid, tenant_names[tenant_index],
            username, password, rng, shard=shard)
        gen = SCRIPTS[script](ctx)
        sessions.append(_Session(sid, script, gen, shard))
        shard.sessions += 1
    return sessions


@dataclasses.dataclass
class GroupResult:
    """What one scheduled session group produced (shard counters land
    on the shards themselves; this is the scheduler-side remainder)."""

    completed: int
    failed: int
    steps: int
    session_ledger: LatencyLedger
    op_ledgers: Dict[str, LatencyLedger]
    op_counts: Dict[str, int]
    digest: Optional[int]


def run_session_group(live: List[_Session], clock: TickClock,
                      bookkeep: Callable[[], None],
                      record_schedule: bool,
                      tally: Optional[Tally] = None) -> GroupResult:
    """The round-robin scheduler loop, over one group of sessions.

    This is the single step loop behind every mode: the global engine
    passes the whole fleet as one group with a drain-all bookkeeper;
    the per-shard mode (serial or in a worker process) passes one
    shard's sessions with a sync-this-shard bookkeeper. One op per
    step; the interleaving is a pure function of (group, fault state).
    """
    session_ledger = LatencyLedger()
    op_ledgers: Dict[str, LatencyLedger] = {}
    op_counts: Dict[str, int] = {}
    digest = 0 if record_schedule else None
    completed = failed_count = steps = 0
    cursor = 0

    while live:
        if cursor >= len(live):
            cursor = 0
        session = live[cursor]
        if session.started is None:
            session.started = clock.now()
        shard = session.shard
        kernel_before = shard.kernel.now()
        wall_before = clock.now()
        finished = failed = False
        op = None
        err_name = None
        faults = shard.kernel.faults
        injected_before = faults.injected_total() if shard.chaos else 0
        abort_site = shard.abort_site
        if abort_site.armed and abort_site.should_fail(session.script):
            # Injected scheduler-level abort: the session is torn
            # down mid-flight with a schedule-drawn errno.
            finished = failed = True
            err_name = abort_site.pick_errno().name
            session.gen.close()
        else:
            try:
                op = next(session.gen)
            except StopIteration:
                finished = True
            except SyscallError as exc:
                finished = failed = True
                err_name = exc.errno_value.name
            except PermissionError:
                finished = failed = True
                err_name = "EPERM"
        now = clock.advance()
        if shard.chaos and faults.injected_total() > injected_before:
            # Degradation scoreboard: a fault fired during this
            # step — either the op absorbed it (degraded but
            # correct) or it killed the session (hard failure).
            if failed:
                shard.hard_failures += 1
            else:
                shard.degraded_ops += 1
        if op is not None:
            steps += 1
            shard.ops += 1
            if tally is not None:
                tally.steps += 1
            op_counts[op] = op_counts.get(op, 0) + 1
            # Per-op latency: wall nanoseconds under a harness
            # clock, simulated kernel ticks under the tick clock —
            # both deterministic in what they claim to measure.
            cost = (now - wall_before) if clock.wall \
                else (shard.kernel.now() - kernel_before)
            op_ledgers.setdefault(op, LatencyLedger()).record(cost)
            if digest is not None:
                digest = zlib.crc32(
                    f"{session.sid}:{op};".encode(), digest)
        if finished:
            if failed:
                failed_count += 1
                shard.failed += 1
                shard.count_abort(err_name or "EPERM")
                if digest is not None:
                    digest = zlib.crc32(
                        f"{session.sid}:FAIL:{err_name};".encode(),
                        digest)
            else:
                completed += 1
                shard.completed += 1
            if tally is not None:
                if failed:
                    tally.failed += 1
                else:
                    tally.completed += 1
            session_ledger.record(now - session.started)
            live[cursor] = live[-1]
            live.pop()
            if tally is not None:
                tally.live = len(live)
        else:
            cursor += 1
        if steps % BOOKKEEPING_INTERVAL == 0:
            bookkeep()

    return GroupResult(completed, failed_count, steps, session_ledger,
                       op_ledgers, op_counts, digest)


def _fleet_stats(config: FleetConfig, clock: TickClock, elapsed: int,
                 result: GroupResult, sessions: int,
                 reports: List[ShardReport]) -> FleetStats:
    """The report for one scheduled group: the whole fleet under the
    global schedule, or one shard's part under the per-shard one."""
    p50, p95, p99 = result.session_ledger.percentiles()
    return FleetStats(
        mode=config.mode.value,
        sessions=sessions,
        shards=len(reports),
        seed=config.seed,
        fastpath=config.fastpath,
        clock="wall" if clock.wall else "tick",
        schedule=config.schedule,
        completed=result.completed,
        failed=result.failed,
        ops=result.steps,
        elapsed=float(elapsed),
        sessions_per_sec=throughput(result.completed, elapsed, clock.wall),
        session_p50=p50, session_p95=p95, session_p99=p99,
        session_mean=result.session_ledger.mean,
        session_max=result.session_ledger.max,
        op_latency={kind: ledger.percentiles()
                    for kind, ledger in result.op_ledgers.items()},
        op_counts=result.op_counts,
        shard_reports=reports,
        schedule_digest=result.digest,
        session_ledger=result.session_ledger,
        op_ledgers=result.op_ledgers,
    )


def run_shard_group(shard: Shard, sessions: Sequence[_Session],
                    config: FleetConfig,
                    clock: Optional[TickClock] = None,
                    tally: Optional[Tally] = None) -> FleetStats:
    """Run one shard's session group under the per-shard schedule and
    return its single-shard :class:`FleetStats` part.

    The group's interleaving — and therefore its schedule CRC and the
    shard's audit ring — is a pure function of the config, independent
    of which process runs it or what other shards are doing. Both the
    serial per-shard engine and the parallel workers call exactly this
    function; :meth:`FleetStats.merge` folds the parts either way.
    """
    clock = clock if clock is not None else TickClock()

    def bookkeep() -> None:
        if shard.needs_sync:
            shard.sync()

    start = clock.now()
    result = run_session_group(list(sessions), clock, bookkeep,
                               config.record_schedule, tally)
    bookkeep()
    elapsed = clock.now() - start
    report = shard.report()
    report.schedule_crc = result.digest
    return _fleet_stats(config, clock, elapsed, result, report.sessions,
                        [report])


class FleetEngine:
    """Builds the shard pool, admits sessions, runs the schedule."""

    def __init__(self, config: FleetConfig,
                 clock: Optional[TickClock] = None,
                 shards: Optional[List[Shard]] = None):
        if config.schedule not in (GLOBAL, PER_SHARD):
            raise ValueError(f"unknown schedule {config.schedule!r}")
        self.config = config
        self.clock = clock or TickClock()
        self.tenant_names = [f"t{i:02d}" for i in range(config.tenants)]
        self.shards = shards if shards is not None else build_shards(
            config.mode, config.shards, tenants=self.tenant_names,
            fastpath=config.fastpath)
        self.tally = Tally()
        for shard in self.shards:
            shard.attach_fleet_render(self._render_live)

    # ------------------------------------------------------------------
    def _admit(self) -> List[_Session]:
        """Build every session's generator (deterministically — each
        session's RNG and script choice depend only on (seed, sid))."""
        by_index = {shard.index: shard for shard in self.shards}
        return admit_sessions(self.config, by_index, self.tenant_names,
                              len(self.shards))

    # ------------------------------------------------------------------
    def run(self) -> FleetStats:
        if self.config.schedule == PER_SHARD:
            return FleetStats.merge(self.run_parts())
        return self._run_global()

    def _run_global(self) -> FleetStats:
        config = self.config
        clock = self.clock
        for shard in self.shards:
            shard.begin_run()
        live = self._admit()
        self.tally.reset(len(live))

        run_start = clock.now()
        result = run_session_group(live, clock, self._bookkeep,
                                   config.record_schedule, self.tally)
        self._bookkeep()
        elapsed = clock.now() - run_start
        return _fleet_stats(config, clock, elapsed, result, config.sessions,
                            [shard.report() for shard in self.shards])

    def run_parts(self) -> List[FleetStats]:
        """The serial per-shard run, as its mergeable parts: each
        shard's group scheduled independently, in shard-id order.

        Exposed (rather than folded straight into :meth:`run`) so the
        merge tests can regroup the parts, and so the parallel engine
        has an in-process oracle producing the identical part list."""
        if self.config.schedule != PER_SHARD:
            raise ValueError("run_parts requires the per-shard schedule")
        for shard in self.shards:
            shard.begin_run()
        sessions = self._admit()
        self.tally.reset(len(sessions))
        groups: Dict[int, List[_Session]] = {}
        for session in sessions:
            groups.setdefault(session.shard.index, []).append(session)
        return [run_shard_group(shard, groups.get(shard.index, []),
                                self.config, clock=self.clock,
                                tally=self.tally)
                for shard in sorted(self.shards, key=lambda s: s.index)]

    def _bookkeep(self) -> None:
        for shard in self.shards:
            if shard.needs_sync:
                shard.sync()

    # ------------------------------------------------------------------
    def _render_live(self) -> str:
        """The fleet-wide header each shard's /proc/protego/fleet
        prepends to its own report."""
        config = self.config
        tally = self.tally
        aborted = sum(s.aborted for s in self.shards)
        degraded = sum(s.degraded_ops for s in self.shards)
        hard = sum(s.hard_failures for s in self.shards)
        return (f"fleet: mode={config.mode.value} "
                f"sessions={config.sessions} shards={len(self.shards)} "
                f"schedule={config.schedule} "
                f"seed={config.seed} live={tally.live} "
                f"completed={tally.completed} failed={tally.failed} "
                f"steps={tally.steps}\n"
                f"chaos: aborted={aborted} degraded={degraded} "
                f"hard_failures={hard}\n")


def run_fleet(config: FleetConfig,
              clock: Optional[TickClock] = None) -> FleetStats:
    """Convenience one-shot: build a fleet, run it, return the report."""
    return FleetEngine(config, clock=clock).run()
