"""Process credentials: uids, gids, supplementary groups, capabilities.

Mirrors the Linux ``struct cred`` fields the paper's policies consult:
real/effective/saved uid and gid, the filesystem uid used by DAC
checks, supplementary groups, and the permitted/effective/inheritable
capability sets.

Snapshots are frozen, so one value can be shared wherever it occurs:
:meth:`Credentials.for_root` returns the same root snapshot on every
call, as :meth:`CapabilitySet.full` and ``empty`` do for their sets.
A transition (``with_uids`` and friends) copies the snapshot's field
dict into a new object instead of running the frozen ``__init__``,
which assigns each of the twelve fields through
``object.__setattr__``. A transition that changes no field returns
the snapshot itself: a setuid or setgid to an id the task already
holds, a capability drop with none held, a ``setgroups`` to the same
set. The task then keeps its credentials object, and with it the
subject id cached for that object.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Iterable

from repro.kernel.capabilities import Capability, CapabilitySet

ROOT_UID = 0
ROOT_GID = 0


@dataclasses.dataclass(frozen=True)
class Credentials:
    """An immutable credential snapshot.

    Credential changes produce a new object (as Linux does with RCU'd
    creds), which keeps historical snapshots safe to hold in audit
    logs and in the exploit simulations.
    """

    ruid: int = ROOT_UID
    euid: int = ROOT_UID
    suid: int = ROOT_UID
    fsuid: int = ROOT_UID
    rgid: int = ROOT_GID
    egid: int = ROOT_GID
    sgid: int = ROOT_GID
    fsgid: int = ROOT_GID
    groups: FrozenSet[int] = frozenset()
    cap_permitted: CapabilitySet = dataclasses.field(default_factory=CapabilitySet.empty)
    cap_effective: CapabilitySet = dataclasses.field(default_factory=CapabilitySet.empty)
    cap_inheritable: CapabilitySet = dataclasses.field(default_factory=CapabilitySet.empty)

    def __hash__(self) -> int:
        # Credentials key the subject-id table and the dentry
        # permission cache, so they are hashed whenever a task's
        # credentials change and on every permission-map probe; the
        # snapshot is immutable, so compute the field-tuple hash once
        # and pin it (dataclasses keeps an explicit __hash__).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.ruid, self.euid, self.suid, self.fsuid,
                           self.rgid, self.egid, self.sgid, self.fsgid,
                           self.groups, self.cap_permitted,
                           self.cap_effective, self.cap_inheritable))
            object.__setattr__(self, "_hash", cached)
        return cached

    @classmethod
    def for_root(cls) -> "Credentials":
        """Root with the full capability sets, as stock Linux grants.
        One shared snapshot: every root login, shell and setuid-root
        exec starts from it."""
        return _ROOT

    @classmethod
    def for_user(cls, uid: int, gid: int, groups: Iterable[int] = ()) -> "Credentials":
        """An ordinary unprivileged user."""
        return cls(
            ruid=uid, euid=uid, suid=uid, fsuid=uid,
            rgid=gid, egid=gid, sgid=gid, fsgid=gid,
            groups=frozenset(groups),
        )

    def has_cap(self, cap: Capability) -> bool:
        """Does this credential hold *cap* in its effective set?"""
        return self.cap_effective.has(cap)

    def is_root(self) -> bool:
        return self.euid == ROOT_UID

    def in_group(self, gid: int) -> bool:
        return gid == self.egid or gid == self.fsgid or gid in self.groups

    def _replace(self, **changes) -> "Credentials":
        """This snapshot with *changes* applied: ``self`` when every
        change equals the current value, else a new object. The field
        dict is copied instead of re-running the frozen ``__init__``
        (what ``dataclasses.replace`` does); the pinned hash belongs
        to the old value and is not copied."""
        current = self.__dict__
        for name, value in changes.items():
            if current[name] != value:
                break
        else:
            return self
        new = object.__new__(Credentials)
        fields = new.__dict__
        fields.update(current)
        fields.pop("_hash", None)
        fields.update(changes)
        return new

    def with_uids(self, ruid: int = None, euid: int = None, suid: int = None) -> "Credentials":
        """Return a copy with the given uids replaced (None = keep)."""
        new_euid = self.euid if euid is None else euid
        return self._replace(
            ruid=self.ruid if ruid is None else ruid,
            euid=new_euid,
            suid=self.suid if suid is None else suid,
            fsuid=new_euid,
        )

    def with_gids(self, rgid: int = None, egid: int = None, sgid: int = None) -> "Credentials":
        new_egid = self.egid if egid is None else egid
        return self._replace(
            rgid=self.rgid if rgid is None else rgid,
            egid=new_egid,
            sgid=self.sgid if sgid is None else sgid,
            fsgid=new_egid,
        )

    def with_groups(self, groups: Iterable[int]) -> "Credentials":
        return self._replace(groups=frozenset(groups))

    def with_caps(
        self,
        permitted: CapabilitySet = None,
        effective: CapabilitySet = None,
        inheritable: CapabilitySet = None,
    ) -> "Credentials":
        return self._replace(
            cap_permitted=self.cap_permitted if permitted is None else permitted,
            cap_effective=self.cap_effective if effective is None else effective,
            cap_inheritable=self.cap_inheritable if inheritable is None else inheritable,
        )

    def drop_all_caps(self) -> "Credentials":
        empty = CapabilitySet.empty()
        return self._replace(cap_permitted=empty, cap_effective=empty,
                             cap_inheritable=empty)

    def describe(self) -> str:
        """Short human-readable summary used in audit logs and examples."""
        caps = len(self.cap_effective)
        return (
            f"uid={self.ruid} euid={self.euid} gid={self.rgid} "
            f"egid={self.egid} caps={caps}"
        )


_ROOT = Credentials(cap_permitted=CapabilitySet.full(),
                    cap_effective=CapabilitySet.full())
