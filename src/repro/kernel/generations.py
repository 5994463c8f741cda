"""One generation authority for every access-relevant cache.

PRs 1–5 each grew an ad-hoc counter scheme: the dentry cache kept its
own ``mount_epoch``, the security server minted credential epochs from
a private ``itertools.count``, and policy reloads were only visible as
whole-cache flushes. The :class:`GenerationHub` folds them into named
domains — ``mount``, ``policy``, ``cred`` — and is the one place the
path-keyed caches learn that something they memoized went stale, and
the one place a subject id is minted.

Two routes, one per kind of change:

* **Flush.** A policy reload can change the answer for any path, so
  :meth:`GenerationHub.bump_policy` calls every flush subscriber (the
  fused verdict table), which empties itself, just as the decision
  cache empties itself on a reload. After boot a fleet day bumps the
  policy generation not at all, so clearing eagerly is cheap, and it
  leaves a fused hit nothing to compare.
* **Path prefix.** Attribute changes, namespace mutations and
  mount-table changes name the path they touched:
  :meth:`GenerationHub.invalidate_path` hands it to every path
  subscriber (the dentry cache, the decision cache, the fused table
  and Protego's object-check guard), so each mutation has a single
  invalidation call site. A mount or umount at *M* is announced as
  *M*: it changes what a name resolves to only if the name is *M* or
  lies beneath it. :meth:`GenerationHub.bump_mount` only counts the
  change; it empties nothing.

Credential commits invalidate nothing. Every key that depends on who
asks carries a **subject id** (SID) that :meth:`GenerationHub.subject`
interns from the *value* of ``(task.cred, task.exe_path)``, as SELinux
interns security contexts. A setuid or an exec hands the task a
different context, hence a different SID, so its old entries are
orphaned by keying (flushing would evict every other subject's entries
too), while two sessions of one user running one binary share a SID
and therefore share their cached verdicts.

The three domains are registry counters, ``kernel.generations.*``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cred import Credentials
    from repro.kernel.task import Task


class GenerationHub:
    """Named generation domains plus the two invalidation fan-outs.

    * :attr:`mount` — the mount-table generation; bumped by exactly 1
      per mount/umount. Protego's object-check memo compares it.
    * :attr:`policy` — the policy generation; bumped on every security
      server flush (profile (un)load, /proc policy write, module
      registration).
    * :attr:`cred` — the subject-id allocator: the number of distinct
      ``(credentials, executable)`` contexts :meth:`subject` has seen.
    """

    __slots__ = ("mount", "policy", "cred", "_sids", "_path_listeners",
                 "_flush_listeners")

    def __init__(self) -> None:
        self.mount = 0
        self.policy = 0
        self.cred = 0
        #: (Credentials, exe_path) -> SID. One entry per context ever
        #: seen, never cleared: a fleet shard sees about twenty.
        self._sids: Dict[Tuple["Credentials", str], int] = {}
        self._path_listeners: List[Callable[[str], object]] = []
        self._flush_listeners: List[Callable[[], object]] = []

    # ------------------------------------------------------------------
    # Domain bumps
    # ------------------------------------------------------------------
    def bump_mount(self) -> int:
        """The mount table changed. Only counted: the VFS announces the
        mountpoint through :meth:`invalidate_path`, which covers every
        cached answer the change can alter."""
        self.mount += 1
        return self.mount

    def bump_policy(self) -> int:
        """A policy layer reloaded: every fused verdict is suspect."""
        self.policy += 1
        for listener in self._flush_listeners:
            listener()
        return self.policy

    def next_cred_epoch(self) -> int:
        """Allocate the next subject id (called by :meth:`subject` only)."""
        self.cred += 1
        return self.cred

    def subject(self, task: "Task") -> int:
        """*task*'s subject id: the SID interned for the value of
        ``(task.cred, task.exe_path)``. ``Credentials`` are frozen and
        hash by value, so equal contexts share one SID however their
        objects were built.

        The SID is cached on the task with the two objects it was
        minted for. A caller reuses ``task.sid`` while both are still
        the task's own (``task.sid_cred is task.cred and task.sid_exe
        is task.exe_path``) and calls this otherwise, so a setuid, an
        exec or a direct assignment is noticed on the next probe."""
        cred = task.cred
        exe = task.exe_path
        key = (cred, exe)
        sid = self._sids.get(key)
        if sid is None:
            sid = self._sids[key] = self.next_cred_epoch()
        task.sid = sid
        task.sid_cred = cred
        task.sid_exe = exe
        return sid

    def subscribe_flush(self, listener: Callable[[], object]) -> None:
        """Register a cache that empties on every policy bump."""
        self._flush_listeners.append(listener)

    # ------------------------------------------------------------------
    # Path-prefix invalidation fan-out
    # ------------------------------------------------------------------
    def subscribe_paths(self, listener: Callable[[str], object]) -> None:
        """Register a path-keyed cache's ``invalidate_prefix``."""
        self._path_listeners.append(listener)

    def invalidate_path(self, path: str) -> None:
        """A namespace, attribute or mount-table change at *path*: tell
        every subscribed cache to drop the prefix."""
        for listener in self._path_listeners:
            listener(path)
