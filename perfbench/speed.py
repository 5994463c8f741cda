"""How fast the host runs this process right now, and times scaled by it.

On a shared host the same process runs at one of two speeds, about a
factor of two apart, and switches between them several times a second
(see README.md, "Noise"). A fixed reference loop slows with it. The
workloads sample the reference between slices of their work, excluding
the sample from every time they measure, and divide each slice's times
by the slowdown sampled around it. What remains is what the program
costs at the reference speed; raw times stay in each record.

The reference imports nothing from the program, so no change to the
program moves its time.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Median ns of one reference call on the host in README.md when the
#: host runs it at the faster of its two speeds.
REFERENCE_NS = 57_000.0
#: Calls per sample: about 1 ms, short against the host's speed changes.
SAMPLE_CALLS = 20


class _Probe:
    __slots__ = ("uid", "gid")

    def __init__(self, uid: int, gid: int) -> None:
        self.uid = uid
        self.gid = gid

    def check(self, mask: int) -> int:
        return self.uid + mask if mask & 1 else self.gid


_TABLE = {f"/home/user{i}": i for i in range(64)}
_PATHS = list(_TABLE)
_PROBE = _Probe(1000, 100)


def _reference_call() -> int:
    """A fixed slice of interpreter work: integer arithmetic, then dict,
    attribute and method traffic over a small table. The mix was chosen
    so that the host's slow speed stretches it by about as much as it
    stretches the workloads (README.md, "Noise"); reference loops that
    allocate heavily stretch further."""
    total = 0
    for i in range(400):
        total += i * 3 ^ (i >> 2)
    for _ in range(3):
        for path in _PATHS:
            total += _TABLE[path] + _PROBE.check(total & 7)
        for path in _PATHS:
            total += len(path)
    return total


class Speed:
    """The slowdowns sampled in one process, in order."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: ns spent sampling, for callers that subtract it
        self.spent_ns = 0

    def sample(self) -> float:
        """Time one sample; return and keep its slowdown: the median
        reference call over :data:`REFERENCE_NS` (1.0 at full speed)."""
        clock = time.perf_counter_ns
        began = clock()
        calls = []
        for _ in range(SAMPLE_CALLS):
            start = clock()
            _reference_call()
            calls.append(clock() - start)
        slowdown = statistics.median(calls) / REFERENCE_NS
        self.samples.append(slowdown)
        self.spent_ns += clock() - began
        return slowdown

    def mean(self) -> float:
        return statistics.fmean(self.samples)

