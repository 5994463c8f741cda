"""The security server: one reference monitor for every syscall.

Modelled on the SELinux AVC split: the *server* computes decisions by
composing the LSM chain with the stock capability and DAC policies,
and a keyed decision cache short-circuits repeated questions. The
cache is a :class:`~repro.kernel.pathindex.PathCache` (bounded, FIFO)
keyed ``(hook, object, sid, mask)``, with the object at index 1. The
**subject id** is the one :meth:`GenerationHub.subject` interns for
the value of the task's ``(credentials, executable)``, so every task in
one context shares the cached decisions, exactly as the fused table's
keys do. Invalidation is explicit:

* a setuid/setgid/setgroups or exec commit gives the task another
  context and hence another SID, orphaning its old decisions by
  keying (a transition that changes nothing keeps the credentials
  object, and with it the SID);
* **object entries** are dropped by path prefix on chmod, chown,
  unlink, rename, and mount-table changes, which the VFS announces as
  their mountpoint: the cache subscribes to the generation hub's path
  fan-out, like the dentry cache and the fused table;
* the cache is **flushed globally** when a security module's policy
  reloads — an AppArmor profile (un)load, a /proc/protego policy
  write, or a monitoring-daemon fstab/sudoers/bind sync.

Every decision — hit or miss — is appended to the bounded audit ring
surfaced at ``/proc/protego/audit``. A hit replays the row tail its
decision carries (``Decision.audit_suffix``) through
:meth:`AuditRing.record_fused`, the call and the tail a fused-table
hit replays too; a miss writes its row inline, stamped from the
kernel's ``clock`` attribute.

One entry point, :meth:`SecurityServer.check`, answers every question
from its arguments: the hook, the asking task, the object's identity,
the hook's own arguments, and the default policy (a DAC thunk, a
required capability, an identity fallback). A question is keyed and
held only if its hook is in :data:`CACHEABLE_HOOKS`; a path question
(``file_open``, ``inode_permission``) is held only when it comes with
its DAC thunk, whose value (the resolved inode) a later hit returns.
Every other question — setuid, setgid, mount, umount, ioctl, exec
validation, route add, create-time opens — is composed afresh and
counted as ``uncacheable``. Hit or miss, a decision is one tuple
record, built once with every derived field (``fastpath_ok``,
``allowed``, ``from_lsm``, ``audit_suffix``) already set, and one
audit row.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Tuple, TYPE_CHECKING

from repro.kernel.capabilities import Capability
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fault import SITE_AVC_ALLOC, FaultSite
from repro.kernel.generations import GenerationHub
from repro.kernel.lsm import HookResult, LSMChain
from repro.kernel.pathindex import PathCache
from repro.kernel.security.access import (
    OBJ,
    Decision,
    LAYER_CAPABILITY,
    LAYER_DAC,
    LAYER_DEFAULT,
    Verdict,
)
from repro.kernel.security.audit import AuditRing

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task

#: Hooks whose decisions are pure functions of (credentials, object,
#: loaded policy) and therefore safe to cache. Hooks with side effects
#: or per-call state (setuid deferral, bprm pending transitions,
#: mount-table bookkeeping, ioctl argument-dependent checks) are
#: always recomputed.
CACHEABLE_HOOKS = frozenset(
    {"capable", "inode_permission", "file_open", "socket_bind", "socket_create"}
)

#: The cacheable hooks that ask about a path. Their hits return the
#: DAC thunk's value (the resolved inode), so they are held only when
#: asked with one: a create-time open, whose DAC check already ran,
#: is not.
_PATH_HOOKS = frozenset({"file_open", "inode_permission"})

#: Denials that merely report non-existence are not access decisions;
#: caching them would mask a later create of the same name.
_UNCACHEABLE_ERRNOS = frozenset({Errno.ENOENT, Errno.ENOTDIR, Errno.ELOOP})

#: Errnos the fused fast path must never memoize. Narrower than the
#: decision cache's set: ENOENT *is* fusable — the fused table sits
#: behind the dentry cache's prefix invalidation, so a later create of
#: the name clears the entry, exactly the argument for negative
#: dentries. ENOTDIR/ELOOP stay out: they describe the shape of the
#: walk, not an access verdict.
_FASTPATH_UNCACHEABLE_ERRNOS = frozenset({Errno.ENOTDIR, Errno.ELOOP})

_SETUID_HOOKS = frozenset({"task_fix_setuid", "task_fix_setgid"})

#: The decision-cache object of each capability check, built once
#: instead of formatted on every probe.
_CAP_OBJ = {cap: f"cap:{cap.name}" for cap in Capability}

#: What :meth:`SecurityServer._compose` returns: a decision's
#: ``(verdict, layer, errno, context, lsm_module, pending)``.
_Outcome = Tuple[Verdict, str, Optional[Errno], str, Optional[str], Any]

#: Bare tuple construction for :class:`Decision`, as the syscall layer
#: builds its stat(2) results: the generated NamedTuple ``__new__`` is
#: a Python frame per decision, and the never-cached hooks build one on
#: every call.
_DECISION_NEW = tuple.__new__

#: The audit row's errno column: the errno's name, empty for none.
_ERRNO_NAMES = {None: "", **{errno: errno.name for errno in Errno}}

#: Decision-cache capacity (FIFO) and audit-ring capacity.
CACHE_SIZE = 2048
AUDIT_SIZE = 4096


@dataclasses.dataclass
class CacheStats:
    """Decision-cache counters (``kernel.avc.*``; mirrors
    /sys/fs/selinux/avc/cache_stats)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    uncacheable: int = 0
    #: Cached decisions dropped by path-prefix invalidations.
    invalidations: int = 0
    flushes: int = 0
    #: Insertions refused by an injected allocation failure: the
    #: decision was still computed and returned, it just went uncached
    #: (the fail-closed degradation — never a stale answer).
    alloc_failures: int = 0


class SecurityServer:
    """Computes, caches, and audits access decisions."""

    def __init__(
        self,
        lsm: LSMChain,
        kernel: "Kernel",
        generations: Optional[GenerationHub] = None,
    ):
        self.lsm = lsm
        #: Whose ``clock`` attribute stamps each audit row, read
        #: directly on every decision instead of through a callback.
        self.kernel = kernel
        self.cache_enabled = True
        self._cache = PathCache(CACHE_SIZE)
        #: Subject ids come from the shared generation hub, so the
        #: decision cache and the fused fast path key on the same SID.
        self.generations = generations if generations is not None \
            else GenerationHub()
        self.generations.subscribe_paths(self.invalidate_prefix)
        self.audit = AuditRing(AUDIT_SIZE)
        self.stats = CacheStats()
        #: Simulated AVC-node allocation failure: an armed site makes
        #: the cache insert a counted no-op, so decisions degrade to
        #: fresh computation. Rebound to the kernel's injector at boot.
        self.fault_site = FaultSite(SITE_AVC_ALLOC)

    # ------------------------------------------------------------------
    # The monitor
    # ------------------------------------------------------------------
    def check(self, hook: str, task: "Task", obj: str, args: tuple = (), *,
              mask: int = 0, dac: Optional[Callable[[], Any]] = None,
              capability: Optional[Capability] = None,
              fallback: Optional[Callable[[], bool]] = None,
              deny_errno: Errno = Errno.EPERM, context: str = "",
              layer: str = LAYER_DEFAULT) -> Decision:
        """Answer one policy question: a cache probe when the question
        may be held, else the DAC step and the full composition.

        *obj* is the object's stable identity (a path,
        ``port:25/tcp``, ``cap:CAP_SYS_ADMIN``) and, with the hook,
        the subject id and *mask*, the cache key. *args* are the LSM
        hook's arguments; the :data:`OBJ` sentinel among them is
        replaced by what *dac* returned. *dac* runs first and its
        :class:`SyscallError` is final. *capability* and *fallback*
        are the default policy consulted only when every module
        passes: capability first, then the identity fallback. *layer*
        is credited when nobody decides and there is no *dac*; a
        create-time open, whose DAC check (write on the parent) has
        already passed, names ``LAYER_DAC``."""
        stats = self.stats
        key = None
        if (self.cache_enabled and hook in CACHEABLE_HOOKS
                and (dac is not None or hook not in _PATH_HOOKS)):
            if task.sid_cred is task.cred and task.sid_exe is task.exe_path:
                sid = task.sid
            else:
                sid = self.generations.subject(task)
            key = (hook, obj, sid, mask)
            stats.lookups += 1
            hit = self._cache.get(key)
            if hit is not None:
                stats.hits += 1
                # The row a fused-table hit writes too: a fresh prefix
                # behind the tail the decision was built with.
                cred = task.cred
                self.audit.record_fused(self.kernel.clock, task.pid,
                                        cred.ruid, cred.euid,
                                        hit.audit_suffix)
                return hit
            stats.misses += 1
        else:
            stats.uncacheable += 1
        value = None
        outcome = None
        if dac is not None:
            layer = LAYER_DAC
            try:
                value = dac()
            except SyscallError as exc:
                outcome = self._deny(hook, LAYER_DAC, exc.errno_value,
                                     exc.context or context)
            args = tuple(value if arg is OBJ else arg for arg in args)
        if outcome is None:
            outcome = self._compose(hook, task, args, capability, fallback,
                                    deny_errno, context, layer)
        verdict, layer, errno, context, lsm_module, pending = outcome
        allowed = verdict is Verdict.ALLOW
        verdict_name = "allow" if allowed else "deny"
        errno_name = _ERRNO_NAMES[errno]
        # The module cacheability veto runs at insert time only: a
        # vetoed decision is never inserted, so no hit can ever serve
        # it, and hits stay a pure dict probe. It sees the hook's own
        # arguments. Modules whose veto set mutates at runtime must
        # invalidate on mutation (binary-ACL growth and profile loads
        # flush globally).
        cache_ok = key is not None and self.lsm.cache_ok(hook, task, *args)
        # The same veto governs the fused fast path: a decision no
        # module objects to memoizing may be fused upstream (the
        # syscall layer still requires a cached dentry). The flag and
        # the hit row's tail are part of the cached decision, so a hit
        # replays them.
        decision = _DECISION_NEW(Decision, (
            verdict, layer, hook, obj, errno, context, lsm_module, pending,
            value, cache_ok and errno not in _FASTPATH_UNCACHEABLE_ERRNOS,
            allowed, lsm_module is not None,
            (hook, obj, mask, verdict_name, layer, True, errno_name, context)
            if cache_ok else None))
        if cache_ok and errno not in _UNCACHEABLE_ERRNOS:
            if self.fault_site.armed and self.fault_site.should_fail(hook):
                stats.alloc_failures += 1
            else:
                self._cache.put(key, decision)
        # The miss row: AuditEntry field order minus seq.
        cred = task.cred
        self.audit.record((
            self.kernel.clock, task.pid, cred.ruid, cred.euid, hook, obj,
            mask, verdict_name, layer, False, errno_name, context))
        return decision

    def capable(self, task: "Task", cap: Capability, context: str = "") -> bool:
        """The kernel's single capability funnel, as a cached, audited
        decision (LSM ``capable`` hook may veto or grant)."""
        return self.check("capable", task, _CAP_OBJ[cap], (cap,),
                          capability=cap, context=context).allowed

    # ------------------------------------------------------------------
    # Composition: LSM chain -> capability -> identity fallback
    # ------------------------------------------------------------------
    def _compose(self, hook: str, task: "Task", args: tuple,
                 capability: Optional[Capability],
                 fallback: Optional[Callable[[], bool]], deny_errno: Errno,
                 context: str, layer: str) -> _Outcome:
        """Compose the layers after DAC for one question. Returns the
        decision's own fields other than ``hook``, ``obj`` and
        ``value``, which the caller adds with the derived ones when it
        builds the one :class:`Decision`. *layer* is credited when
        nobody decides."""
        pending = None
        if hook in _SETUID_HOOKS:
            setuid_decision, module = self.lsm.call_setuid(hook, task, args[0])
            result = setuid_decision.result
            pending = setuid_decision.pending
        else:
            result, module = self.lsm.call_detailed(hook, task, *args)
        if result is HookResult.DENY:
            return self._deny(hook, module or "lsm", deny_errno, context,
                              module)
        if result is HookResult.ALLOW:
            return (Verdict.ALLOW, module or "lsm", None, "", module, pending)

        # Default policy: capability, then the identity fallback.
        if capability is not None:
            if hook == "capable":
                held = task.cred.has_cap(capability)
            else:
                held = self.capable(task, capability, context=context)
            if held:
                return (Verdict.ALLOW, LAYER_CAPABILITY, None, "", None, None)
            if fallback is not None and fallback():
                return (Verdict.ALLOW, LAYER_DAC, None, "", None, None)
            return self._deny(hook, LAYER_CAPABILITY, Errno.EPERM, context)
        return (Verdict.ALLOW, layer, None, "", None, None)

    @staticmethod
    def _deny(hook: str, layer: str, errno: Errno, detail: str,
              lsm_module: Optional[str] = None) -> _Outcome:
        context = f"{layer}:{hook}"
        if detail:
            context = f"{context}: {detail}"
        return (Verdict.DENY, layer, errno, context, lsm_module, None)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_prefix(self, path: str) -> None:
        """Drop cached decisions about *path* and anything beneath it —
        a chmod on a directory changes the search permission of every
        descendant walk (the hub's path fan-out lands here)."""
        self.stats.invalidations += self._cache.invalidate_prefix(path)

    def flush(self, reason: str = "") -> None:
        """Global invalidation: a policy layer reloaded. The
        policy-generation bump empties the fused fast path too. The
        dentry cache stays warm: its walks and DAC results depend only
        on credentials and inode generations, never on LSM policy."""
        self._cache.clear()
        self.stats.flushes += 1
        self.generations.bump_policy()

    def cache_len(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # Notifications and audit
    # ------------------------------------------------------------------
    def notify(self, hook: str, *args: Any) -> None:
        """Side-effect-only hooks (task_alloc, bprm_committing_creds)."""
        self.lsm.notify(hook, *args)

    def render_audit(self, last: Optional[int] = None) -> str:
        return self.audit.render(last)
