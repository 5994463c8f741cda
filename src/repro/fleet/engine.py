"""The fleet engine: a cooperative scheduler over sharded kernels.

``FleetEngine`` multiplexes N thousand scripted user sessions over a
pool of shards. Concurrency is generator-based — each session is a
generator that yields at every syscall boundary (see
:mod:`repro.fleet.sessions`) and the scheduler resumes exactly one
session per step — so the interleaving is a pure function of
``(seed, config)`` and two runs agree bit-for-bit on every counter.

Assignment is by tenant group: each session belongs to one of
``config.tenants`` tenant groups and tenant group ``i`` lives on shard
``i % config.shards``.

There is one schedule. Each shard runs its own session group with
:func:`run_shard_group`, a round-robin over the group's live sessions
in admission order (finished sessions swap-removed), and the engine
runs the groups one after another in shard-id order. The fleet report
is the :meth:`FleetStats.merge` of the per-shard parts. Shards share
nothing: each one models a separate Protego machine enforcing its own
policy, the paper's unit of deployment, so interleaving two machines'
sessions in one loop would add no behaviour a real fleet has. Because
every group depends only on its own shard, the serial fold is also
the reference for :mod:`repro.parallel.fleet`, which runs the same
:func:`run_shards` over slices of the fleet in worker processes and
merges to the identical report.

Bookkeeping is batched: credential-mutating sessions only raise their
shard's ``needs_sync`` flag, and every :data:`BOOKKEEPING_INTERVAL`
steps of its group the shard drains it with one supervised daemon
poll.
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.fleet.stats import FleetStats, LatencyLedger, throughput
from repro.kernel.errno import SyscallError

#: Scheduler steps of a shard's group between its bookkeeping syncs.
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

    @property
    def tenant_names(self) -> List[str]:
        return [f"t{i:02d}" for i in range(self.tenants)]


class _Session:
    """Scheduler-side state for one live session."""

    __slots__ = ("sid", "script", "gen", "started")

    def __init__(self, sid: int, script: str, gen):
        self.sid = sid
        self.script = script
        self.gen = gen
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


def admit_sessions(config: FleetConfig,
                   shards: Sequence[Shard]) -> Dict[int, List[_Session]]:
    """Build the session generators that live on *shards*, grouped by
    shard index (every given shard gets a group, maybe empty).

    Deterministic and partition-stable: each session's RNG, script,
    tenant, and shard depend only on ``(config, sid)``, so a worker
    holding a subset of the shards admits exactly the sessions the
    full fleet would place there — in the same sid order.
    """
    by_index = {shard.index: shard for shard in shards}
    groups: Dict[int, List[_Session]] = {index: [] for index in by_index}
    tenant_names = config.tenant_names
    for sid in range(config.sessions):
        rng = random.Random(_derive_seed("session", config.seed, sid))
        script = pick_script(rng, config.mix or DEFAULT_MIX)
        tenant_index = sid % config.tenants
        shard = by_index.get(tenant_index % config.shards)
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
        groups[shard.index].append(
            _Session(sid, script, SCRIPTS[script](ctx)))
        shard.sessions += 1
    return groups


def run_shard_group(shard: Shard, sessions: Sequence[_Session],
                    config: FleetConfig, clock: TickClock,
                    tally: Tally) -> FleetStats:
    """Run one shard's session group and return its single-shard
    :class:`FleetStats` part.

    A round-robin over the group's live sessions, one op per step.
    The interleaving — and therefore the schedule CRC and the shard's
    audit ring — is a pure function of the config, independent of
    which process runs it or what other shards are doing.
    """
    kernel = shard.kernel
    faults = kernel.faults
    abort_site = shard.abort_site
    chaos = shard.chaos
    live = list(sessions)
    session_ledger = LatencyLedger()
    op_ledgers: Dict[str, LatencyLedger] = {}
    digest = 0 if config.record_schedule else None
    cursor = 0
    # Bound once: the loop below runs once per scheduled op.
    now, advance, wall = clock.now, clock.advance, clock.wall
    kernel_before = 0
    start = now()

    while live:
        if cursor >= len(live):
            cursor = 0
        session = live[cursor]
        if session.started is None:
            session.started = now()
        if not wall:
            kernel_before = kernel.clock
        wall_before = now()
        finished = failed = False
        op = None
        err_name = None
        injected_before = faults.injected_total() if chaos else 0
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
        after = advance()
        if chaos and faults.injected_total() > injected_before:
            # Degradation scoreboard: a fault fired during this
            # step — either the op absorbed it (degraded but
            # correct) or it killed the session (hard failure).
            if failed:
                shard.hard_failures += 1
            else:
                shard.degraded_ops += 1
        if op is not None:
            shard.ops += 1
            tally.steps += 1
            # Per-op latency: wall nanoseconds under a harness
            # clock, simulated kernel ticks under the tick clock —
            # both deterministic in what they claim to measure.
            cost = (after - wall_before) if wall \
                else (kernel.clock - kernel_before)
            ledger = op_ledgers.get(op)
            if ledger is None:
                ledger = op_ledgers[op] = LatencyLedger()
            ledger.record(cost)
            if digest is not None:
                digest = zlib.crc32(
                    f"{session.sid}:{op};".encode(), digest)
        if finished:
            if failed:
                shard.failed += 1
                tally.failed += 1
                shard.count_abort(err_name or "EPERM")
                if digest is not None:
                    digest = zlib.crc32(
                        f"{session.sid}:FAIL:{err_name};".encode(),
                        digest)
            else:
                shard.completed += 1
                tally.completed += 1
            tally.live -= 1
            session_ledger.record(after - session.started)
            live[cursor] = live[-1]
            live.pop()
        else:
            cursor += 1
        if shard.ops % BOOKKEEPING_INTERVAL == 0 and shard.needs_sync:
            shard.sync()

    if shard.needs_sync:
        shard.sync()
    elapsed = now() - start
    report = shard.report()
    report.schedule_crc = digest
    p50, p95, p99 = session_ledger.percentiles()
    return FleetStats(
        mode=config.mode.value,
        sessions=report.sessions,
        shards=1,
        seed=config.seed,
        fastpath=config.fastpath,
        clock="wall" if wall else "tick",
        completed=report.completed,
        failed=report.failed,
        ops=report.ops,
        elapsed=float(elapsed),
        sessions_per_sec=throughput(report.completed, elapsed, wall),
        session_p50=p50, session_p95=p95, session_p99=p99,
        session_mean=session_ledger.mean,
        session_max=session_ledger.max,
        op_latency={kind: ledger.percentiles()
                    for kind, ledger in op_ledgers.items()},
        # Each op's ledger was made at its first step, so this is the
        # first-seen order a per-step tally would have kept.
        op_counts={kind: ledger.count
                   for kind, ledger in op_ledgers.items()},
        shard_reports=[report],
        schedule_digest=digest,
        session_ledger=session_ledger,
        op_ledgers=op_ledgers,
    )


def run_shards(config: FleetConfig, shards: Sequence[Shard],
               clock: TickClock, tally: Tally) -> List[FleetStats]:
    """Admit the sessions that live on *shards* and run each shard's
    group in shard-id order; returns the mergeable per-shard parts.

    The whole fleet (:meth:`FleetEngine.run_parts`) and a parallel
    worker's slice of it both run through here.
    """
    for shard in shards:
        shard.begin_run()
    groups = admit_sessions(config, shards)
    tally.reset(sum(len(group) for group in groups.values()))
    return [run_shard_group(shard, groups[shard.index], config, clock, tally)
            for shard in sorted(shards, key=lambda s: s.index)]


class FleetEngine:
    """Builds the shard pool, admits sessions, runs the schedule."""

    def __init__(self, config: FleetConfig,
                 clock: Optional[TickClock] = None,
                 shards: Optional[List[Shard]] = None):
        if shards is None:
            shards = build_shards(config.mode, config.shards,
                                  tenants=config.tenant_names,
                                  fastpath=config.fastpath)
        indices = sorted(shard.index for shard in shards)
        if indices != list(range(config.shards)):
            raise ValueError(f"shard indices {indices} do not match "
                             f"config.shards={config.shards}")
        self.config = config
        self.clock = clock or TickClock()
        self.shards = shards
        self.tally = Tally()
        for shard in self.shards:
            shard.attach_fleet_render(self._render_live)

    def run(self) -> FleetStats:
        return FleetStats.merge(self.run_parts())

    def run_parts(self) -> List[FleetStats]:
        """The run as its mergeable per-shard parts (the merge tests
        regroup them)."""
        return run_shards(self.config, self.shards, self.clock, self.tally)

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
                f"seed={config.seed} live={tally.live} "
                f"completed={tally.completed} failed={tally.failed} "
                f"steps={tally.steps}\n"
                f"chaos: aborted={aborted} degraded={degraded} "
                f"hard_failures={hard}\n")


def run_fleet(config: FleetConfig,
              clock: Optional[TickClock] = None) -> FleetStats:
    """Convenience one-shot: build a fleet, run it, return the report."""
    return FleetEngine(config, clock=clock).run()
