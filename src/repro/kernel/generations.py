"""One generation authority for every access-relevant cache.

PRs 1–5 each grew an ad-hoc counter scheme: the dentry cache kept its
own ``mount_epoch``, the security server minted credential epochs from
a private ``itertools.count``, and policy reloads were only visible as
whole-cache flushes. Three schemes is two too many once a single
fused verdict table (:mod:`repro.kernel.fastpath`) has to know whether
*any* of its dependencies moved.

The :class:`GenerationHub` folds them into named domains — ``mount``,
``policy``, ``cred`` — plus one **composed generation**: a single
monotonically-advancing integer bumped by any mount-table change or
policy reload. A fused verdict stamps the composed generation at
insert time; its staleness check is then one integer comparison,
however many subsystems could have invalidated it. Credential commits
deliberately do *not* advance the composed generation: the credential
epoch is part of every fused key, so a setuid orphans its entries by
keying rather than by stamping (bumping the world on every setuid
would evict every other subject's verdicts).

The hub is also the fan-out point for **path-prefix invalidation**:
subscribers (the dentry cache and the fused table) receive every
``invalidate_path`` a mutation syscall announces, so the syscall layer
keeps its single invalidation call site per mutation.
"""

from __future__ import annotations

from typing import Callable, List


class GenerationHub:
    """Named generation domains plus one composed stamp.

    * :attr:`mount` — the mount-table generation (the dcache's old
      ``mount_epoch``); bumped by exactly 1 per mount/umount.
    * :attr:`policy` — the policy generation; bumped on every security
      server flush (profile (un)load, /proc policy write, module
      registration).
    * :attr:`cred` — the credential-epoch allocator; every credential
      commit (and every task creation) draws a fresh epoch so a
      ``(cred_epoch, cred)`` pair names one immutable subject identity.
    * :attr:`generation` — the composed stamp: advanced by any mount
      or policy bump. One ``int`` compare answers "did anything a
      fused verdict depends on change?".
    """

    __slots__ = ("mount", "policy", "cred", "generation", "_path_listeners")

    def __init__(self) -> None:
        self.mount = 0
        self.policy = 0
        self.cred = 0
        self.generation = 0
        self._path_listeners: List[Callable[[str], object]] = []

    # ------------------------------------------------------------------
    # Domain bumps
    # ------------------------------------------------------------------
    def bump_mount(self) -> int:
        """The mount table changed: every cached walk and every fused
        verdict is suspect."""
        self.mount += 1
        self.generation += 1
        return self.mount

    def bump_policy(self) -> int:
        """A policy layer reloaded: every cached decision and every
        fused verdict is suspect."""
        self.policy += 1
        self.generation += 1
        return self.policy

    def next_cred_epoch(self) -> int:
        """Mint a fresh credential epoch (a credential commit or a new
        task). Epochs are globally unique, so a fused key carrying
        ``(cred_epoch, cred)`` can never alias two subjects."""
        self.cred += 1
        return self.cred

    # ------------------------------------------------------------------
    # Path-prefix invalidation fan-out
    # ------------------------------------------------------------------
    def subscribe_paths(self, listener: Callable[[str], object]) -> None:
        """Register a path-keyed cache's ``invalidate_prefix``."""
        self._path_listeners.append(listener)

    def invalidate_path(self, path: str) -> None:
        """A namespace or attribute mutation under *path*: tell every
        subscribed cache to drop the prefix."""
        for listener in self._path_listeners:
            listener(path)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """One line of generation state (embedded in /proc payloads)."""
        return (f"generation={self.generation} mount={self.mount} "
                f"policy={self.policy} cred={self.cred}")

    def __repr__(self) -> str:
        return f"GenerationHub({self.render()})"
