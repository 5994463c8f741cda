"""The fused fast-path verdict table.

PRs 1–5 made each layer of the reference monitor individually fast:
the dentry cache memoizes path walks, the decision cache memoizes LSM
verdicts, the AppArmor DFA memoizes rule matching. A warm ``open()``
still pays all three probes, each with its own key build and its own
invalidation scheme. This table is the SELinux-AVC idea taken to its
conclusion: cache the **final** outcome of a whole access — the
errno-or-allow plus the resolved inode — under one key, probed with
one dict ``get``.

Key: ``(op|mask, path, sid)``.

* ``op|mask`` — the operation tag (stat/open/perm) with the DAC mask
  or open flags folded into it, so one path can hold distinct verdicts
  per access mode.
* ``path`` — the normalized absolute path, kept at index 1 so the
  table's :class:`~repro.kernel.pathindex.PathCache` reverse-indexes
  it and a prefix invalidation drops exactly the affected verdicts.
* ``sid`` — the subject id that
  :meth:`~repro.kernel.generations.GenerationHub.subject` interns for
  the value of ``(task.cred, task.exe_path)``; the decision cache keys
  on the same integer. Tasks in one context share a SID, so a second
  session's first open can be a hit. A probe reuses the SID cached on
  the task while the task's credentials and executable are the very
  objects it was minted for (two identity compares) and re-interns
  otherwise. Hashing the interned int per probe replaces re-hashing
  the credential snapshot, and ``exe_path`` matters because Protego's
  binary ACLs make the verdict depend on *which program* is asking,
  not just whose uid.

Staleness never reaches the probe. A policy reload empties the table
through the hub's flush fan-out (the dropped entries count as
``stale_evictions``); attribute changes, namespace mutations and
mount-table changes arrive as **prefix invalidations** through the
hub's path fan-out, exactly like the dcache's and the decision cache's
(the dropped entries count as ``invalidations``). A mount at *M* drops
only the verdicts for *M* and the names beneath it: a verdict is fused
only behind a cached walk, which crossed no symlink, so no other name
can resolve differently after it.

What may be fused is decided by the *insert* side (the syscall layer):
only verdicts whose walk left a dentry behind (the dcache's own
cacheability certificate — no symlink was crossed, so prefix
invalidation covers the entry) and whose LSM decision reported
``fastpath_ok`` (no complain-mode profile, no recency-dependent
Protego rule, no walk-shaped errno). Everything else falls through to
the layered walk, which remains the oracle.

The insert is a fault-injection point (``fastpath.insert``): under an
injected fault the insert becomes a counted no-op — the syscall
already holds the layered verdict, so degradation is a slower answer,
never a different one.

Counters: :class:`FastPathStats` (``kernel.fastpath.*`` in the
kernel's registry); a probe bumps ``hits`` or ``misses``, never both.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.kernel.pathindex import PathCache

#: Operation tags. The low 3 bits carry the DAC mask (R_OK|W_OK|X_OK
#: ≤ 7) for permission checks; open() folds its flag word in higher
#: bits instead.
OP_STAT = 0x10
OP_OPEN = 0x20
OP_PERM = 0x40

#: Table capacity; eviction is FIFO.
MAX_ENTRIES = 8192


class FastVerdict:
    """One fused verdict: allow (with the resolved inode) or deny
    (with errno + attribution context), plus the audit row suffix
    recorded when the verdict is served from the table."""

    __slots__ = ("inode", "errno", "context", "audit_suffix")

    def __init__(self, inode, errno, context: str,
                 audit_suffix: Optional[Tuple]):
        self.inode = inode
        self.errno = errno
        self.context = context
        self.audit_suffix = audit_suffix


class FastPathStats:
    __slots__ = ("hits", "misses", "stale_evictions",
                 "insertions", "invalidations", "flushes", "alloc_failures")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stale_evictions = 0
        self.insertions = 0
        self.invalidations = 0
        self.flushes = 0
        self.alloc_failures = 0


class FastPathTable:
    """The per-kernel fused verdict table."""

    def __init__(self, generations, fault_site=None):
        self.generations = generations
        self.fault_site = fault_site
        self.enabled = True
        self.stats = FastPathStats()
        #: The verdict map. The hot syscalls (open, stat) probe it
        #: directly: their warm path is this one dict ``get``.
        self.table = PathCache(MAX_ENTRIES)
        generations.subscribe_paths(self.invalidate_prefix)
        generations.subscribe_flush(self._drop_stale)

    def __len__(self) -> int:
        return len(self.table)

    # ------------------------------------------------------------------
    # The hot path: one dict get (a FIFO table never reorders on hit).
    # ------------------------------------------------------------------
    def get(self, key: Tuple) -> Optional[FastVerdict]:
        entry = self.table.get(key)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def put(self, key: Tuple, inode, errno, context: str,
            audit_suffix: Optional[Tuple]) -> None:
        site = self.fault_site
        if site is not None and site.armed and site.should_fail(key[1]):
            # Fail closed: the caller already holds the layered verdict;
            # we just decline to remember it.
            self.stats.alloc_failures += 1
            return
        self.table.put(key, FastVerdict(inode, errno, context, audit_suffix))
        self.stats.insertions += 1

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_prefix(self, path: str) -> None:
        """Drop every verdict for *path* or anything beneath it (the
        hub's path fan-out lands here)."""
        self.stats.invalidations += self.table.invalidate_prefix(path)

    def _drop_stale(self) -> None:
        """A policy bump (the hub's flush fan-out lands here): every
        verdict may have changed."""
        self.stats.stale_evictions += len(self.table)
        self.table.clear()

    def flush(self) -> None:
        self.table.clear()
        self.stats.flushes += 1
