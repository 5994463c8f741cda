"""Deterministic fault injection for the kernel substrate.

Modeled on Linux's ``CONFIG_FAULT_INJECTION`` (``failslab``,
``fail_make_request``): named *sites* are threaded through the hot
layers — syscall entry, dcache insertion, decision-cache insertion,
audit-ring append, packet delivery, and /proc policy writes — and each
site decides, deterministically, whether this activation fails.

Design constraints, in order:

1. **Free when disarmed.** Every site exposes an ``armed`` boolean and
   hot paths guard with ``if site.armed:`` — one attribute load, the
   moral equivalent of a static branch key. The probability/budget
   machinery runs only on armed sites.
2. **Deterministic and seedable.** Each site owns a private
   ``random.Random`` seeded from ``(global seed, site name)`` via the
   string-seeding path (stable across processes and Python versions,
   unlike ``hash()``). Same seed + same call sequence = same schedule
   of injected failures. The generator is built on the first decision
   after construction, :meth:`FaultSite.configure` or
   :meth:`FaultSite.reset`, so a kernel's never-armed sites cost no
   seeding at boot.
3. **Never a wrong answer.** Sites mark *degradation* points: a failed
   cache insertion falls back to uncached computation, a failed audit
   append is a counted drop, a failed policy write leaves last-good
   policy in place. The consumer decides the fallback; the injector
   only says "fail here".

Sites are controlled per-site through ``/proc/protego/fault/<site>``
(root-only; see :mod:`repro.core.procfiles`) or programmatically via
:meth:`FaultInjector.configure` / the :meth:`FaultInjector.inject`
context manager for tests.
"""

from __future__ import annotations

import contextlib
import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.kernel.errno import Errno, SyscallError

#: The site catalog. Kernel boot creates each of these eagerly so the
#: /proc control files and sweep harnesses can enumerate them.
SITE_SYSCALL_ENTRY = "syscall.entry"
SITE_DCACHE_ALLOC = "dcache.alloc"
SITE_AVC_ALLOC = "avc.alloc"
SITE_AUDIT_APPEND = "audit.append"
SITE_NET_DROP = "net.drop"
SITE_NET_DUP = "net.dup"
SITE_NET_REORDER = "net.reorder"
SITE_PROC_WRITE = "proc.write"
SITE_DAEMON_CRASH = "daemon.crash"
SITE_FASTPATH_INSERT = "fastpath.insert"
SITE_ENTRY_MASK = "entry.mask"
#: Fleet-level sites (repro.fleet): a postponed cross-shard policy
#: sync, and a scheduler-injected session abort — both let the chaos
#: sweep target the fleet scheduler itself, not just the kernel under
#: it.
SITE_SHARD_SYNC = "shard.sync"
SITE_SESSION_ABORT = "session.abort"

CATALOG = (
    SITE_SYSCALL_ENTRY,
    SITE_DCACHE_ALLOC,
    SITE_AVC_ALLOC,
    SITE_AUDIT_APPEND,
    SITE_NET_DROP,
    SITE_NET_DUP,
    SITE_NET_REORDER,
    SITE_PROC_WRITE,
    SITE_DAEMON_CRASH,
    SITE_FASTPATH_INSERT,
    SITE_ENTRY_MASK,
    SITE_SHARD_SYNC,
    SITE_SESSION_ABORT,
)

#: Errnos a syscall-entry fault may surface (the POSIX-plausible set
#: for "the kernel ran out of something / was interrupted").
DEFAULT_SYSCALL_ERRNOS = (Errno.EINTR, Errno.ENOMEM)


class FaultSite:
    """One named injection point.

    Semantics follow Linux's fault-injection attributes:

    * ``probability`` — chance (0.0–1.0) an activation fails.
    * ``times`` — fail at most this many times, then self-disarm
      (``-1`` = unlimited).
    * ``space`` — a grace budget: this many activations succeed
      before injection starts (Linux's byte budget, in calls).
    * ``only`` — restrict injection to activations whose *key* (a
      syscall name, a /proc path) is in this set.
    * ``errnos`` — the errno pool :meth:`pick_errno` draws from.
    """

    __slots__ = ("name", "armed", "probability", "times", "space",
                 "only", "errnos", "seed", "calls", "injected", "_rng",
                 "_tally")

    def __init__(self, name: str, seed: int = 0,
                 tally: Optional[List[int]] = None):
        self.name = name
        self.armed = False
        self.probability = 1.0
        self.times = -1
        self.space = 0
        self.only: Optional[frozenset] = None
        self.errnos: Tuple[Errno, ...] = DEFAULT_SYSCALL_ERRNOS
        self.seed = seed
        self.calls = 0
        self.injected = 0
        #: None until the first decision needs it (see :meth:`_random`).
        self._rng: Optional[random.Random] = None
        #: One-slot injection counter shared by every site of one
        #: injector (see :meth:`FaultInjector.injected_total`); a
        #: standalone site counts alone. Never reset.
        self._tally = tally if tally is not None else [0]

    # ------------------------------------------------------------------
    def configure(
        self,
        probability: float = 1.0,
        times: int = -1,
        space: int = 0,
        seed: Optional[int] = None,
        only: Optional[Iterable[str]] = None,
        errnos: Optional[Iterable[Errno]] = None,
    ) -> "FaultSite":
        """Arm the site. Reseeds the site RNG (on its next use) so the
        schedule from here on is a pure function of the configuration."""
        self.probability = probability
        self.times = times
        self.space = space
        self.only = frozenset(only) if only is not None else None
        if errnos is not None:
            self.errnos = tuple(errnos)
        if seed is not None:
            self.seed = seed
        self._rng = None
        self.armed = True
        return self

    def disarm(self) -> None:
        self.armed = False

    def reset(self) -> None:
        """Disarm and restore defaults + counters."""
        self.armed = False
        self.probability = 1.0
        self.times = -1
        self.space = 0
        self.only = None
        self.errnos = DEFAULT_SYSCALL_ERRNOS
        self.calls = 0
        self.injected = 0
        self._rng = None

    def _random(self) -> random.Random:
        """The site RNG, seeded from ``(seed, name)`` on first use."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(f"{self.seed}:{self.name}")
        return rng

    def snapshot(self) -> Tuple:
        rng_state = self._rng.getstate() if self._rng is not None else None
        return (self.armed, self.probability, self.times, self.space,
                self.only, self.errnos, self.seed, rng_state)

    def restore(self, state: Tuple) -> None:
        (self.armed, self.probability, self.times, self.space,
         self.only, self.errnos, self.seed, rng_state) = state
        self._rng = None
        if rng_state is not None:
            self._random().setstate(rng_state)

    # ------------------------------------------------------------------
    # The decision (called only when ``armed`` is true)
    # ------------------------------------------------------------------
    def should_fail(self, key: Optional[str] = None) -> bool:
        self.calls += 1
        if self.only is not None and key is not None and key not in self.only:
            return False
        if self.space > 0:
            self.space -= 1
            return False
        if self.times == 0:
            return False
        if self.probability < 1.0 and self._random().random() >= self.probability:
            return False
        if self.times > 0:
            self.times -= 1
            if self.times == 0:
                self.armed = False
        self.injected += 1
        self._tally[0] += 1
        return True

    def pick_errno(self) -> Errno:
        if len(self.errnos) == 1:
            return self.errnos[0]
        return self._random().choice(self.errnos)

    def fail(self, context: str = "") -> None:
        """Raise the injected failure as a syscall error."""
        raise SyscallError(self.pick_errno(),
                           f"fault:{self.name}" + (f" {context}" if context else ""))

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The /proc/protego/fault/<site> payload."""
        only = ",".join(sorted(self.only)) if self.only else "-"
        errnos = ",".join(e.name for e in self.errnos)
        return (
            f"armed={int(self.armed)} probability={self.probability:g} "
            f"times={self.times} space={self.space} seed={self.seed}\n"
            f"only={only} errnos={errnos}\n"
            f"calls={self.calls} injected={self.injected}\n"
        )

    def __repr__(self) -> str:
        return (f"FaultSite({self.name!r}, armed={self.armed}, "
                f"p={self.probability:g}, times={self.times})")


class FaultInjector:
    """The per-kernel registry of fault sites."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._sites: Dict[str, FaultSite] = {}
        self._tally = [0]
        for name in CATALOG:
            self._sites[name] = FaultSite(name, seed, self._tally)

    # ------------------------------------------------------------------
    def site(self, name: str) -> FaultSite:
        """The site registered under *name*, created on first use."""
        site = self._sites.get(name)
        if site is None:
            site = self._sites[name] = FaultSite(name, self.seed, self._tally)
        return site

    def sites(self) -> List[FaultSite]:
        return list(self._sites.values())

    def configure(self, name: str, **kwargs) -> FaultSite:
        return self.site(name).configure(**kwargs)

    def disarm_all(self) -> None:
        for site in self._sites.values():
            site.disarm()

    def reset(self, seed: Optional[int] = None) -> None:
        """Disarm every site and reseed deterministically."""
        if seed is not None:
            self.seed = seed
        for site in self._sites.values():
            site.seed = self.seed
            site.reset()

    @property
    def any_armed(self) -> bool:
        return any(site.armed for site in self._sites.values())

    def injected_total(self) -> int:
        """Injections since the injector was built, across every site
        — the degradation scoreboard diffs this around a step to
        attribute a fault to an op. O(1): the sites bump one shared
        counter, which a site reset does not roll back."""
        return self._tally[0]

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def inject(self, name: str, **kwargs):
        """Arm *name* for the duration of a ``with`` block, restoring
        the site's previous configuration (and RNG state) after."""
        site = self.site(name)
        saved = site.snapshot()
        site.configure(**kwargs)
        try:
            yield site
        finally:
            site.restore(saved)

    # ------------------------------------------------------------------
    # The /proc control grammar: "key=value ..." tokens, one write per
    # reconfiguration; "reset" restores defaults; "disarm" disarms.
    # ------------------------------------------------------------------
    def control_write(self, name: str, payload: str) -> None:
        site = self.site(name)
        text = payload.strip()
        if text == "reset":
            site.reset()
            return
        if text == "disarm":
            site.disarm()
            return
        kwargs = {}
        for token in text.split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"fault control: bad token {token!r}")
            if key == "probability":
                kwargs[key] = float(value)
            elif key in ("times", "space", "seed"):
                kwargs[key] = int(value)
            elif key == "only":
                kwargs[key] = value.split(",") if value != "-" else None
            elif key == "errnos":
                try:
                    kwargs[key] = tuple(Errno[n] for n in value.split(","))
                except KeyError as exc:
                    raise ValueError(f"fault control: unknown errno {exc}") from exc
            else:
                raise ValueError(f"fault control: unknown key {key!r}")
        site.configure(**kwargs)

    def render_summary(self) -> str:
        """The /proc/protego/fault/control payload: one line per site."""
        lines = [f"seed={self.seed}"]
        for name in sorted(self._sites):
            site = self._sites[name]
            lines.append(
                f"{name} armed={int(site.armed)} p={site.probability:g} "
                f"times={site.times} calls={site.calls} "
                f"injected={site.injected}")
        return "\n".join(lines) + "\n"
