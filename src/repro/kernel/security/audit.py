"""The reference monitor's audit trail.

Every decision the :class:`~repro.kernel.security.server.SecurityServer`
renders — cached or freshly computed — appends one bounded-ring entry
recording subject, object, hook, verdict, and the deciding layer.
The ring is exposed to userspace through ``/proc/protego/audit``
(one line per record, newest last), so an administrator can replay
recent policy decisions without any kernel debugging interface.

A freshly computed decision is recorded whole (:meth:`AuditRing.record`).
A cache hit, whether the decision cache or the fused fast-path table
served it, replays the row tail its decision was built with
(``Decision.audit_suffix``) behind a fresh ``(clock, pid, uid, euid)``
prefix (:meth:`AuditRing.record_fused`), so a miss and every later
hit of one question write rows that differ only in ``seq``, ``clock``
and ``cached``.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, List, Optional

from repro.kernel.fault import SITE_AUDIT_APPEND, FaultSite


@dataclasses.dataclass(frozen=True)
class AuditEntry:
    """One decision, as recorded in the ring."""

    seq: int
    clock: int
    pid: int
    uid: int
    euid: int
    hook: str
    obj: str
    mask: int
    verdict: str
    layer: str
    cached: bool
    errno: str = ""
    context: str = ""


#: One /proc/protego/audit line, from a stored row's first eleven
#: fields (seq through cached); a non-empty errno is appended.
_ROW_FORMAT = ("seq=%s clock=%s pid=%s uid=%s euid=%s hook=%s obj=%s "
               "mask=%s verdict=%s layer=%s cached=%d")


class AuditRing:
    """A bounded in-kernel ring of decision records.

    Rows are stored as plain tuples and only materialised into
    :class:`AuditEntry` objects when :meth:`entries` reads them back —
    recording sits on the decision-cache hit path, so it must cost no
    more than a tuple and a deque append (the AVC audits out-of-line
    for the same reason). :meth:`render` formats the tuples directly.
    """

    #: Index of the verdict field in a seq-less row (see
    #: :class:`AuditEntry` declaration order).
    _VERDICT_INDEX = 7

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._ring: Deque[tuple] = collections.deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0  # entries rotated out of the full ring
        self.lost = 0     # appends refused by an injected alloc failure
        self.rescued_denials = 0  # DENY rows forced in past a failure
        #: Simulated append/allocation failure: a refused append is a
        #: counted drop (``lost``) — except for DENY rows, which ride
        #: an emergency reserve so a denial never vanishes without a
        #: trace. Rebound to the kernel's shared injector at boot.
        self.fault_site = FaultSite(SITE_AUDIT_APPEND)

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def seq(self) -> int:
        """Total rows ever sequenced (including refused appends) —
        the monotone pressure counter fleet observability diffs."""
        return self._seq

    def record(self, row: tuple) -> None:
        """Append one decision *row*: the :class:`AuditEntry` fields in
        declaration order, minus the leading ``seq``.

        ``seq`` advances even for rows an injected failure refuses, so
        a reader can detect the gap; the refusal itself is counted in
        ``lost`` and surfaced by :meth:`render`.
        """
        self._seq += 1
        if self.fault_site.armed and self.fault_site.should_fail():
            if row[self._VERDICT_INDEX] != "deny":
                self.lost += 1
                return
            # Fail-closed rule: a DENY must leave a trace. Spend the
            # emergency reserve (the ring slot the eviction frees).
            self.rescued_denials += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append((self._seq,) + row)

    def record_fused(self, clock: int, pid: int, ruid: int, euid: int,
                     suffix: tuple) -> None:
        """:meth:`record` for a cache hit, decision cache or fused
        table: the fresh prefix arrives as scalars so the row is
        assembled in one concat, not two — this runs on every warm
        fused open(2) and every decision-cache hit. *suffix* is the
        hit decision's ``audit_suffix``. Same fail-closed rules; the
        verdict sits at ``suffix[3]``."""
        self._seq += 1
        if self.fault_site.armed and self.fault_site.should_fail():
            if suffix[3] != "deny":
                self.lost += 1
                return
            self.rescued_denials += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append((self._seq, clock, pid, ruid, euid) + suffix)

    def _rows(self, last: Optional[int]) -> List[tuple]:
        """The most recent *last* stored rows (all when ``None``),
        oldest first."""
        rows = list(self._ring)
        if last is not None and last >= 0:
            rows = rows[-last:] if last else []
        return rows

    def entries(self, last: Optional[int] = None) -> List[AuditEntry]:
        """The most recent *last* entries (all when ``None``), oldest
        first."""
        return [AuditEntry(*row) for row in self._rows(last)]

    def render(self, last: Optional[int] = None) -> str:
        """The /proc representation: a header accounting for every
        record that is *not* below (rotation and injected loss), then
        one line per surviving decision."""
        lines = [f"# capacity={self.capacity} dropped={self.dropped} "
                 f"lost={self.lost} rescued_denials={self.rescued_denials}"]
        # Formatted straight from the stored tuples: a digest of the
        # full ring renders 4096 rows, and building an AuditEntry per
        # row cost more than the formatting.
        for row in self._rows(last):
            line = _ROW_FORMAT % row[:11]
            if row[11]:
                line += " errno=" + row[11]
            lines.append(line)
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        self._ring.clear()
