"""Syscall-entry gating: SFIP-style permitted-syscall bitmasks.

This module absorbs the dispatch preamble that used to live inline in
every ``sys_*`` body (:mod:`repro.kernel.syscalls`): advance the
clock, give the ``syscall.entry`` fault site its shot, and check a
**precomputed per-task permitted-syscall bitmask** before any argument
processing, in the spirit of SFIP ("SFIP: Coarse-Grained
Syscall-Flow-Integrity Protection"): the set of syscalls a task may
issue is a pure function of slow-changing state (its confinement), so
membership can be one AND against a cached integer instead of a policy
walk.

A task's mask narrows from :data:`ALL_MASK` only through
:meth:`EntryGate.restrict`, a per-task confinement set (seccomp's
strict mode, Protego's unprivileged helpers). The computed mask is
cached on the task (``task.entry_mask``); :meth:`EntryGate.restrict`
and :meth:`EntryGate.unrestrict` clear it, which is the only thing
that forces a recompute. Credential changes (setuid, execve) leave it
alone: confinement is per task, not per identity.

A rejected syscall raises ``EPERM`` before the kernel looks at a
single argument. The ``entry.mask`` fault site fails **closed**: under
an injected fault the gate still computes the correct mask — it only
refuses to cache it, so a fault can slow a task down but never widen
what it may call.

Counters: :class:`EntryGateStats` (``kernel.entry.*`` in the kernel's
registry); an entry bumps ``mask_hits`` or ``mask_recomputes``.
"""

from __future__ import annotations

from typing import Dict, Iterable

#: Every syscall the dispatcher exports, in dispatch-table order. The
#: bit positions are ABI: a persisted or /proc-rendered mask is only
#: meaningful against this exact ordering.
SYSCALLS = (
    "open", "read", "write", "close", "stat", "access",
    "mkdir", "unlink", "symlink", "chmod", "chown", "link",
    "rename", "rmdir", "readdir", "chdir", "getpid", "signal",
    "kill", "fault", "pipe", "mount", "umount", "setuid",
    "setgid", "setgroups", "fork", "execve", "exit", "wait",
    "setcap", "unshare", "socket", "bind", "listen", "connect",
    "accept", "sendto", "recvfrom", "ioctl", "route_add", "route_del",
)

SYSCALL_BITS: Dict[str, int] = {name: 1 << i for i, name in enumerate(SYSCALLS)}

#: The unconfined mask: every syscall permitted.
ALL_MASK = (1 << len(SYSCALLS)) - 1

#: Syscalls whose entry additionally activates the ``syscall.entry``
#: fault site. Kept to the historical set so existing fault-sweep
#: schedules keep their meaning.
FAULTABLE_SYSCALLS = frozenset({
    "open", "read", "write", "stat", "mount", "umount",
    "setuid", "setgid", "execve", "socket", "bind", "sendto",
})


def mask_for(names: Iterable[str]) -> int:
    """Fold syscall *names* into a bitmask (KeyError on unknown names,
    surfaced eagerly so a typo in a policy can't silently allow-all)."""
    mask = 0
    for name in names:
        mask |= SYSCALL_BITS[name]
    return mask


def mask_names(mask: int) -> tuple:
    """The syscall names a mask permits, in ABI order."""
    return tuple(name for name in SYSCALLS if mask & SYSCALL_BITS[name])


class EntryGateStats:
    __slots__ = ("mask_hits", "mask_recomputes", "rejections",
                 "uncached_recomputes")

    def __init__(self) -> None:
        self.mask_hits = 0
        self.mask_recomputes = 0
        self.rejections = 0
        self.uncached_recomputes = 0


class EntryGate:
    """The per-kernel syscall-entry bitmask checker. The check itself
    is inlined into ``SyscallMixin._enter`` and the hot syscalls; the
    gate owns the counters, the fault site and the confinement API."""

    def __init__(self, fault_site=None):
        self.stats = EntryGateStats()
        self.fault_site = fault_site

    def recompute(self, task) -> int:
        """Compute *task*'s mask after :meth:`restrict` or
        :meth:`unrestrict` cleared it, and cache it on the task unless
        the fault site fires."""
        self.stats.mask_recomputes += 1
        allowed = task.entry_allowed
        mask = ALL_MASK if allowed is None else mask_for(allowed)
        site = self.fault_site
        if site is not None and site.armed and site.should_fail(task.exe_path):
            # Fail closed: serve the correct mask but refuse to cache
            # it — degraded to a recompute per entry, never a wider mask.
            self.stats.uncached_recomputes += 1
            return mask
        task.entry_mask = mask
        return mask

    # ------------------------------------------------------------------
    # Confinement
    # ------------------------------------------------------------------
    def restrict(self, task, names: Iterable[str]) -> int:
        """Confine *task* to *names* (seccomp-strict style). Returns the
        resulting raw mask."""
        allowed = frozenset(names)
        mask = mask_for(allowed)  # validate eagerly
        task.entry_allowed = allowed
        task.entry_mask = None
        return mask

    def unrestrict(self, task) -> None:
        task.entry_allowed = None
        task.entry_mask = None
