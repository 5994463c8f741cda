"""A Linux-style dentry cache for the simulated VFS.

The simulator's Table 5 gap (stat +12.6%, mount/umnt +30% where the
paper reports ~0-1%) is walk cost, not policy cost: every path-taking
syscall re-walked each component, and most walked *twice* — once to
resolve and once to check search permission. This module memoizes the
walk the way Linux's dcache does. The path map is a
:class:`~repro.kernel.pathindex.PathCache` keyed ``(follow, path)``
(bounded, FIFO), with two invalidation routes:

* **path prefix** — `invalidate_prefix(path)` on namespace mutations
  (create/unlink/rename/rmdir/symlink/link), attribute changes
  (chmod/chown) and mount-table changes (mount/umount, announced as
  the mountpoint by the VFS) drops the path's entries and every
  descendant's. The cache subscribes it to the generation hub's path
  fan-out, so each mutation has a single invalidation call site. A
  mount needs no more: every mount grafts a fresh filesystem root, and
  a cached walk crossed no symlink, so a mount at *M* changes only the
  walks of *M* and the names beneath it.
* **inode generation** — permission entries are keyed on each
  inode's generation, which chmod and chown bump, so an attribute
  change orphans them without touching the credential-independent
  path map.

Permission maps are keyed on the caller's ``Credentials`` alone: they
are frozen and hash by value, and DAC ignores which binary asks, so
every task holding equal credentials shares one map and a setuid
simply selects another. A cached walk stores the final inode *and*
the chain of directories traversed, so a hit revalidates search
permission per directory from the permission cache — `(inode
generation, X_OK)` under the caller's credentials — instead of
re-walking. Negative entries memoize ENOENT (and only ENOENT: repeated
stats, opens and daemon polls of absent names) with the error context
of the walk that found the name missing, and are cleared by the
prefix invalidation any create performs. Creates themselves walk
nothing when the parent's walk is cached: they read its dentry
(``VFS.probe``), and mkdir caches the new directory's walk
(``VFS.instantiate``). Walks that
cross a symlink are never cached: their result depends on paths other
than the key, which prefix invalidation could not see.

Counters mirror ``/sys/kernel/debug``-style dcache stats and are read
by the kernel's counters registry as ``kernel.dcache.*``.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.kernel.errno import Errno
from repro.kernel.fault import SITE_DCACHE_ALLOC, FaultSite
from repro.kernel.generations import GenerationHub
from repro.kernel.inode import Inode
from repro.kernel.pathindex import PathCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cred import Credentials

#: Sentinel distinguishing "no cached permission entry" from a cached
#: ALLOW (stored as None).
PERM_MISS = object()

#: Path-map capacity (FIFO) and the number of credentials whose
#: permission maps are kept (LRU).
MAX_ENTRIES = 4096
MAX_CREDS = 256


@dataclasses.dataclass
class DcacheStats:
    """Dentry-cache counters (``kernel.dcache.*`` in the registry)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    #: Full component-by-component walks performed (cold lookups and
    #: symlink traversals). The acceptance bar for the single-walk
    #: refactor: one walk per cold path-taking syscall, zero per hit.
    walks: int = 0
    perm_hits: int = 0
    perm_misses: int = 0
    #: Path-map entries dropped by prefix invalidations (mutations and
    #: mount-table changes alike).
    invalidations: int = 0
    flushes: int = 0
    #: Insertions refused by an injected allocation failure — the walk
    #: result was still correct, it just stayed uncached.
    alloc_failures: int = 0


class Dentry:
    """One cached walk: the final inode (or a negative errno and the
    error context the walk raised it with) plus the directories
    traversed, for per-hit permission revalidation."""

    __slots__ = ("inode", "dirs", "errno", "context")

    def __init__(self, inode: Optional[Inode], dirs: Tuple[Inode, ...],
                 errno: Optional[Errno] = None, context: str = ""):
        self.inode = inode
        self.dirs = dirs
        self.errno = errno
        #: A negative hit raises with this context, so an error reads
        #: the same whether or not its walk was cached.
        self.context = context

    @property
    def negative(self) -> bool:
        return self.errno is not None

    def signature(self) -> Tuple:
        """The generation vector of every inode this walk touched.
        A hit whose credentials already validated this exact vector
        (memoized under ``(entry, mask)`` in the caller's permission
        map) skips the per-directory revalidation loop entirely; any
        chmod/chown along the chain changes the vector."""
        final = self.inode
        return (tuple(d.generation for d in self.dirs),
                final.generation if final is not None else -1)

    def __repr__(self) -> str:
        if self.negative:
            return f"Dentry(negative {self.errno.name}, {len(self.dirs)} dirs)"
        return f"Dentry(ino={self.inode.ino}, {len(self.dirs)} dirs)"


class DentryCache:
    """Memoized path walks plus a per-directory permission cache."""

    def __init__(self, generations: Optional[GenerationHub] = None):
        self.enabled = True
        #: The shared generation authority: its path fan-out delivers
        #: prefix invalidations, mount-table changes included.
        self.generations = generations if generations is not None \
            else GenerationHub()
        self._entries = PathCache(MAX_ENTRIES)
        self.generations.subscribe_paths(self.invalidate_prefix)
        #: cred -> {(ino, generation, mask) -> errno|None}
        self._perms: "collections.OrderedDict[Credentials, Dict]" = \
            collections.OrderedDict()
        #: One-slot (cred, map) memo for the last caller: the identity
        #: check skips the keyed probe, whose equal-value hits from
        #: other tasks pay a full credential comparison per lookup.
        self._last_perms: Optional[Tuple] = None
        self.stats = DcacheStats()
        #: Simulated dentry-allocation failure: an armed site makes
        #: :meth:`put` a counted no-op, so the cache degrades to
        #: uncached walks — never to a wrong answer. Rebound to the
        #: kernel's shared injector at boot.
        self.fault_site = FaultSite(SITE_DCACHE_ALLOC)

    # ------------------------------------------------------------------
    # Path map
    # ------------------------------------------------------------------
    def get(self, path: str, follow: bool) -> Optional[Dentry]:
        return self._entries.get((follow, path))

    def put(self, path: str, follow: bool, entry: Dentry) -> None:
        if self.fault_site.armed and self.fault_site.should_fail(path):
            self.stats.alloc_failures += 1
            return
        self._entries.put((follow, path), entry)

    # ------------------------------------------------------------------
    # Permission cache
    # ------------------------------------------------------------------
    def perms_for(self, cred: "Credentials") -> Dict:
        """The permission map for one credential value; created on
        first use, LRU-bounded across credentials. Every task holding
        these credentials shares the map for as long as any lives, so
        a map that outgrows the path map's capacity is emptied rather
        than left to keep every walk and inode it ever validated."""
        last = self._last_perms
        if last is not None and last[0] is cred:
            perms = last[1]
        else:
            perms = self._perms.get(cred)
            if perms is None:
                if self.fault_site.armed and self.fault_site.should_fail():
                    # Simulated allocation failure: hand back a throwaway
                    # map — this walk's checks run uncached but correct.
                    self.stats.alloc_failures += 1
                    return {}
                perms = self._perms[cred] = {}
                if len(self._perms) > MAX_CREDS:
                    self._perms.popitem(last=False)
            else:
                self._perms.move_to_end(cred)
            self._last_perms = (cred, perms)
        if len(perms) > MAX_ENTRIES:
            perms.clear()
        return perms

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_prefix(self, path: str) -> None:
        """Drop *path*'s entries and every descendant's (a rename of a
        directory moves its whole subtree; a chmod changes every walk
        through it; a mount covers it). Negative entries die here too —
        this is what a create calls."""
        self.stats.invalidations += self._entries.invalidate_prefix(path)

    def flush(self) -> None:
        self._entries.clear()
        self._perms.clear()
        self._last_perms = None
        self.stats.flushes += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        return len(self._entries)

    def cached_paths(self):
        """The path identities currently cached (tests poke this)."""
        return {key[1] for key in self._entries}
