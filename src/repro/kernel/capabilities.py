"""POSIX/Linux file system capabilities.

Linux divides root privilege into roughly 36 coarse capabilities
(the paper, section 3.2). The simulator models all of them; the ones
the studied setuid binaries actually need are exercised throughout the
test suite (CAP_SYS_ADMIN, CAP_NET_RAW, CAP_NET_BIND_SERVICE,
CAP_SETUID, CAP_SETGID, CAP_NET_ADMIN, CAP_CHOWN, CAP_DAC_OVERRIDE,
CAP_DAC_READ_SEARCH, CAP_FOWNER, CAP_SYS_RAWIO).

A :class:`CapabilitySet` is immutable: every operation returns a new
set. The full and the empty set are therefore built once and shared,
which spares every root credential the 36 enum coercions a fresh
full set costs.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator


class Capability(enum.IntEnum):
    """The Linux capability vocabulary (Linux 3.6 era, 36 entries)."""

    CAP_CHOWN = 0
    CAP_DAC_OVERRIDE = 1
    CAP_DAC_READ_SEARCH = 2
    CAP_FOWNER = 3
    CAP_FSETID = 4
    CAP_KILL = 5
    CAP_SETGID = 6
    CAP_SETUID = 7
    CAP_SETPCAP = 8
    CAP_LINUX_IMMUTABLE = 9
    CAP_NET_BIND_SERVICE = 10
    CAP_NET_BROADCAST = 11
    CAP_NET_ADMIN = 12
    CAP_NET_RAW = 13
    CAP_IPC_LOCK = 14
    CAP_IPC_OWNER = 15
    CAP_SYS_MODULE = 16
    CAP_SYS_RAWIO = 17
    CAP_SYS_CHROOT = 18
    CAP_SYS_PTRACE = 19
    CAP_SYS_PACCT = 20
    CAP_SYS_ADMIN = 21
    CAP_SYS_BOOT = 22
    CAP_SYS_NICE = 23
    CAP_SYS_RESOURCE = 24
    CAP_SYS_TIME = 25
    CAP_SYS_TTY_CONFIG = 26
    CAP_MKNOD = 27
    CAP_LEASE = 28
    CAP_AUDIT_WRITE = 29
    CAP_AUDIT_CONTROL = 30
    CAP_SETFCAP = 31
    CAP_MAC_OVERRIDE = 32
    CAP_MAC_ADMIN = 33
    CAP_SYSLOG = 34
    CAP_WAKE_ALARM = 35


#: Capabilities the paper calls out as needed to change a password (3.2).
PASSWORD_CHANGE_CAPS = frozenset(
    {
        Capability.CAP_SYS_ADMIN,
        Capability.CAP_CHOWN,
        Capability.CAP_DAC_OVERRIDE,
        Capability.CAP_SETUID,
        Capability.CAP_DAC_READ_SEARCH,
        Capability.CAP_FOWNER,
    }
)

#: Capabilities the paper says the X server needs to set the video mode.
VIDEO_MODE_CAPS = frozenset(
    {
        Capability.CAP_CHOWN,
        Capability.CAP_DAC_OVERRIDE,
        Capability.CAP_SYS_RAWIO,
        Capability.CAP_SYS_ADMIN,
    }
)


class CapabilitySet:
    """An immutable set of capabilities with full/empty convenience forms.

    Models one of the per-task capability sets (permitted, effective,
    inheritable). Root tasks conventionally start with a full set.
    Every operation returns a new set, so :meth:`full` and
    :meth:`empty` can hand out one shared instance each.
    """

    __slots__ = ("_caps",)

    def __init__(self, caps: Iterable[Capability] = ()):
        self._caps = frozenset(Capability(c) for c in caps)

    @classmethod
    def full(cls) -> "CapabilitySet":
        """All 36 capabilities — what Linux gives a root process."""
        return _FULL

    @classmethod
    def empty(cls) -> "CapabilitySet":
        return _EMPTY

    def has(self, cap: Capability) -> bool:
        if cap.__class__ is not Capability:
            cap = Capability(cap)
        return cap in self._caps

    def add(self, cap: Capability) -> "CapabilitySet":
        return CapabilitySet(self._caps | {Capability(cap)})

    def drop(self, cap: Capability) -> "CapabilitySet":
        return CapabilitySet(self._caps - {Capability(cap)})

    def union(self, other: "CapabilitySet") -> "CapabilitySet":
        return CapabilitySet(self._caps | other._caps)

    def intersection(self, other: "CapabilitySet") -> "CapabilitySet":
        return CapabilitySet(self._caps & other._caps)

    def is_empty(self) -> bool:
        return not self._caps

    def __contains__(self, cap: Capability) -> bool:
        return self.has(cap)

    def __iter__(self) -> Iterator[Capability]:
        return iter(sorted(self._caps))

    def __len__(self) -> int:
        return len(self._caps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CapabilitySet):
            return NotImplemented
        return self._caps == other._caps

    def __hash__(self) -> int:
        return hash(self._caps)

    def __repr__(self) -> str:
        names = ",".join(c.name for c in self)
        return f"CapabilitySet({names or 'empty'})"


_FULL = CapabilitySet(Capability)
_EMPTY = CapabilitySet()
