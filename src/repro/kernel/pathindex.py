"""Bounded, path-indexed caches and the reverse index behind them.

Every path-keyed cache in the kernel (the decision cache, the dentry
cache, the fused fast-path table) is a :class:`PathCache`: a bounded
FIFO map whose keys carry their object path at index 1. All three
support *prefix invalidation*: "drop everything cached about ``/a/b``
or anything beneath it". The original implementations answered that
with a full key scan — O(cache size) per namespace mutation, which
the fleet engine's create/unlink churn turns into the single hottest
path in the whole simulator (three ~full-table scans per mutation at
~12k keys each).

:class:`PathIndex` makes invalidation proportional to the number of
entries actually dropped. It keeps two maps:

* ``path -> {cache keys}`` — the keys whose object is exactly *path*;
* ``parent path -> {child paths}`` — a lazily-built tree over every
  indexed path, including intermediate directories, so the
  descendants of an invalidation root are reachable by traversal
  rather than by scanning.

The tree self-prunes: :meth:`collect` consumes the entire subtree it
traverses (all its keys are being dropped anyway) and unlinks the
root from its parent, so churn on session-private paths cannot grow
the index without bound.

Objects that are not absolute paths (capability and socket objects
like ``cap:CAP_SYS_ADMIN``) have no parent and therefore only ever
match exactly — the same outcome the prefix scan gave them.

:class:`PathCache` keeps the table and its index in step: an entry
leaves both together, whether FIFO eviction, a prefix invalidation or
a clear drops it, so the index never names a key the table lacks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Set, Tuple


class PathIndex:
    """Reverse map from a path to the cache keys it appears in."""

    __slots__ = ("_keys", "_children")

    def __init__(self) -> None:
        self._keys: Dict[str, Set[Tuple]] = {}
        self._children: Dict[str, Set[str]] = {}

    @staticmethod
    def _parent(path: str) -> str:
        """The parent directory, or '' when *path* has none (the root,
        or a non-path object like ``cap:...``)."""
        if not path.startswith("/") or path == "/":
            return ""
        head = path.rsplit("/", 1)[0]
        return head or "/"

    def add(self, path: str, key: Tuple) -> None:
        group = self._keys.get(path)
        if group is None:
            group = self._keys[path] = set()
            # Link the path to its ancestors, creating intermediate
            # nodes as needed; stop at the first ancestor that already
            # knows this branch (amortizes to O(1) per add).
            child = path
            while True:
                parent = self._parent(child)
                if not parent:
                    break
                siblings = self._children.get(parent)
                if siblings is None:
                    self._children[parent] = {child}
                elif child in siblings:
                    break
                else:
                    siblings.add(child)
                child = parent
        group.add(key)

    def discard(self, path: str, key: Tuple) -> None:
        """Forget one key (cache eviction). The path's tree node stays
        until an invalidation traversal prunes it."""
        group = self._keys.get(path)
        if group is not None:
            group.discard(key)
            if not group:
                del self._keys[path]

    def collect(self, path: str) -> List[Tuple]:
        """Every key under *path* (inclusive), removed from the index.
        The traversed subtree is consumed wholesale — the caller is
        dropping all of it from the cache."""
        path = path.rstrip("/") or "/"
        out: List[Tuple] = []
        stack = [path]
        while stack:
            node = stack.pop()
            group = self._keys.pop(node, None)
            if group:
                out.extend(group)
            kids = self._children.pop(node, None)
            if kids:
                stack.extend(kids)
        parent = self._parent(path)
        if parent:
            siblings = self._children.get(parent)
            if siblings is not None:
                siblings.discard(path)
        return out

    def clear(self) -> None:
        self._keys.clear()
        self._children.clear()

    def __len__(self) -> int:
        return sum(len(group) for group in self._keys.values())


class PathCache(OrderedDict):
    """A bounded FIFO map from keys holding their path at index 1.

    Lookups are the plain (C-level) ``get``; a hit does not reorder,
    so the oldest insert is always the next eviction.
    """

    __slots__ = ("capacity", "index")

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity
        self.index = PathIndex()

    def put(self, key: Tuple, value: Any) -> None:
        """Insert (or overwrite) *key*. Past capacity the oldest entry
        leaves the table and the index together; overwriting a held
        key grows nothing, so it evicts nothing."""
        self[key] = value
        self.index.add(key[1], key)
        if len(self) > self.capacity:
            oldest, _ = self.popitem(last=False)
            self.index.discard(oldest[1], oldest)

    def invalidate_prefix(self, path: str) -> int:
        """Drop every entry for *path* or anything beneath it; return
        how many were dropped. An empty table has an empty index, so
        the walk is skipped."""
        if not self:
            return 0
        doomed = self.index.collect(path)
        for key in doomed:
            del self[key]
        return len(doomed)

    def clear(self) -> None:
        super().clear()
        self.index.clear()
