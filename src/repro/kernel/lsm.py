"""Linux Security Module (LSM) hook framework.

Mirrors the architecture the paper builds on (section 3.2): the core
kernel calls out to registered security modules at well-defined hook
points; modules can deny an operation outright, explicitly allow an
operation that the default capability check would refuse, or pass.

The hook vocabulary below is the union of stock hooks AppArmor uses
and the hooks *Protego adds* for the 8 syscalls whose capability
checks were previously hard-coded (mount, umount, setuid, setgid,
socket, bind, ioctl, exec validation for setuid-on-exec).

Two refactor-era properties matter to callers:

* the chain keeps a **hook registry** — at registration time each
  module's overriding hooks are bound once, as per-hook
  ``(module name, bound hook)`` lists, so a call only visits
  interested modules and looks nothing up per module. A hook method
  replaced on a module's class after the module registered is
  therefore not seen: the chain keeps calling the method it bound
  (a tracer wrapping hook methods installs before any kernel boots);
* decision hooks **short-circuit on the first DENY** and report the
  deciding module's name, so the security server can attribute every
  denial (``apparmor:file_open``, ``protego:socket_bind``).

The setuid-family hooks answer with a :class:`SetuidDecision`. The
chain reports their deciding module beside the decision, as it does
for the decision hooks, and never writes into what a module returned,
so the passthrough, allow and deny answers are shared constants.
"""

from __future__ import annotations

import enum
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Tuple,
                    TYPE_CHECKING)

from repro.kernel.capabilities import Capability
from repro.kernel.errno import Errno, SyscallError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.inode import Inode
    from repro.kernel.task import Task


class HookResult(enum.Enum):
    """Tri-state decision from a security hook.

    PASS  — the module has no opinion; fall through to the next module
            and ultimately to the default (capability/DAC) policy.
    ALLOW — the module affirmatively authorizes the operation even if
            the default capability check would deny it. This is the
            mechanism by which Protego lets an unprivileged user mount
            a whitelisted CD-ROM.
    DENY  — reject, regardless of capabilities.
    """

    PASS = "pass"
    ALLOW = "allow"
    DENY = "deny"


class SetuidDecision(NamedTuple):
    """Decision for the setuid/setgid hooks.

    Protego may *defer* a uid transition until exec (the paper's
    setuid-on-exec, section 4.3); ``pending`` then carries the parked
    transition for the task's security blob. A tuple record: the
    passthrough, allow and deny decisions are shared constants, and
    :meth:`LSMChain.call_setuid` reports the deciding module beside
    the decision, never in it.
    """

    result: HookResult
    pending: Any = None

    @staticmethod
    def passthrough() -> "SetuidDecision":
        return _SETUID_PASS

    @staticmethod
    def allow() -> "SetuidDecision":
        return _SETUID_ALLOW

    @staticmethod
    def deny() -> "SetuidDecision":
        return _SETUID_DENY

    @classmethod
    def defer(cls, pending: Any) -> "SetuidDecision":
        return cls(HookResult.ALLOW, pending)


_SETUID_PASS = SetuidDecision(HookResult.PASS)
_SETUID_ALLOW = SetuidDecision(HookResult.ALLOW)
_SETUID_DENY = SetuidDecision(HookResult.DENY)


#: Decision hooks: called through :meth:`LSMChain.call_detailed`.
DECISION_HOOKS = (
    "bprm_check",
    "capable",
    "inode_permission",
    "file_open",
    "sb_mount",
    "sb_umount",
    "socket_create",
    "socket_bind",
    "dev_ioctl",
    "route_add",
)

#: Setuid-family hooks: tri-state plus a possible deferred transition.
SETUID_HOOKS = ("task_fix_setuid", "task_fix_setgid")

#: Side-effect-only notifications.
NOTIFY_HOOKS = ("task_alloc", "bprm_committing_creds")

#: The cacheability veto (consulted by the security server's cache).
CACHE_VETO_HOOK = "decision_cacheable"

_ALL_HOOKS = DECISION_HOOKS + SETUID_HOOKS + NOTIFY_HOOKS + (CACHE_VETO_HOOK,)


class SecurityModule:
    """Base security module: every hook defaults to PASS.

    Subclasses (AppArmor baseline, Protego) override only the hooks
    they police — exactly how LSMs are structured in Linux. The chain
    registry skips non-overridden hooks entirely.
    """

    name = "base"

    #: Set by :meth:`Kernel.register_module`; lets a module flush the
    #: decision cache when its policy reloads (profile load, /proc
    #: policy write).
    security_server = None

    def flush_decisions(self) -> None:
        """Invalidate every cached decision (policy changed)."""
        if self.security_server is not None:
            self.security_server.flush(reason=f"{self.name} policy reload")

    # ---- cache control -----------------------------------------------------
    def decision_cacheable(self, hook: str, task: "Task", *args: Any) -> bool:
        """May the server cache this hook's decision? Modules whose
        hooks have side effects (authentication prompts, complain-mode
        logging) veto caching for the affected objects."""
        return True

    # ---- process lifetime -------------------------------------------------
    def task_alloc(self, task: "Task") -> None:
        """A new task was created (fork); initialize security blob."""

    def bprm_check(self, task: "Task", path: str, inode: "Inode", argv: List[str]) -> HookResult:
        """exec(2) is about to run *path*. Protego validates pending
        setuid-on-exec transitions here."""
        return HookResult.PASS

    def bprm_committing_creds(self, task: "Task", path: str, inode: "Inode") -> None:
        """The exec is definitely happening; adjust blob state."""

    # ---- capability override ----------------------------------------------
    def capable(self, task: "Task", cap: Capability) -> HookResult:
        """Asked whenever the kernel would check a capability."""
        return HookResult.PASS

    # ---- files --------------------------------------------------------------
    def inode_permission(self, task: "Task", path: str, inode: "Inode", mask: int) -> HookResult:
        return HookResult.PASS

    def file_open(self, task: "Task", path: str, inode: "Inode", flags: int) -> HookResult:
        return HookResult.PASS

    # ---- mounts --------------------------------------------------------------
    def sb_mount(
        self, task: "Task", source: str, mountpoint: str, fstype: str,
        flags: int, options: str,
    ) -> HookResult:
        return HookResult.PASS

    def sb_umount(self, task: "Task", mountpoint: str) -> HookResult:
        return HookResult.PASS

    # ---- credentials -----------------------------------------------------------
    def task_fix_setuid(self, task: "Task", target_uid: int) -> SetuidDecision:
        return SetuidDecision.passthrough()

    def task_fix_setgid(self, task: "Task", target_gid: int) -> SetuidDecision:
        return SetuidDecision.passthrough()

    # ---- networking ---------------------------------------------------------
    def socket_create(self, task: "Task", family: str, sock_type: str, protocol: str) -> HookResult:
        return HookResult.PASS

    def socket_bind(self, task: "Task", socket: Any, port: int) -> HookResult:
        return HookResult.PASS

    # ---- ioctl ----------------------------------------------------------------
    def dev_ioctl(self, task: "Task", device: Any, cmd: str, arg: Any) -> HookResult:
        return HookResult.PASS

    # ---- routing ----------------------------------------------------------------
    def route_add(self, task: "Task", destination: str, device: str) -> HookResult:
        return HookResult.PASS


class LSMChain:
    """The kernel's ordered list of security modules.

    Semantics: for each hook, the first DENY wins and stops the walk;
    otherwise ALLOW from any module wins; otherwise PASS (default
    policy applies). This matches how Protego composes with its
    AppArmor base: AppArmor confines, Protego authorizes specific
    object accesses.
    """

    def __init__(self, modules: Optional[List[SecurityModule]] = None):
        self.modules: List[SecurityModule] = []
        #: hook -> ``(module name, bound hook)`` of every registered
        #: module that overrides it, in registration order.
        self._hooks: Dict[str, List[Tuple[str, Callable]]] = {
            hook: [] for hook in _ALL_HOOKS}
        for module in modules or []:
            self.register(module)

    def register(self, module: SecurityModule) -> None:
        """Append *module* to the chain, binding each hook it
        overrides once: later calls go straight to the bound method."""
        self.modules.append(module)
        for hook in _ALL_HOOKS:
            if self._overrides(module, hook):
                self._hooks[hook].append((module.name, getattr(module, hook)))

    @staticmethod
    def _overrides(module: SecurityModule, hook: str) -> bool:
        impl = getattr(type(module), hook, None)
        return impl is not None and impl is not getattr(SecurityModule, hook)

    def find(self, name: str) -> Optional[SecurityModule]:
        for module in self.modules:
            if module.name == name:
                return module
        return None

    def call_detailed(self, hook: str, *args: Any) -> Tuple[HookResult, Optional[str]]:
        """Run *hook*; return (combined result, deciding module name).

        Short-circuits on the first DENY — later modules never run,
        so a denial cannot trigger another module's side effects
        (authentication prompts, log writes)."""
        allow_module: Optional[str] = None
        for name, bound in self._hooks[hook]:
            result = bound(*args)
            if result is HookResult.DENY:
                return HookResult.DENY, name
            if result is HookResult.ALLOW and allow_module is None:
                allow_module = name
        if allow_module is not None:
            return HookResult.ALLOW, allow_module
        return HookResult.PASS, None

    def call(self, hook: str, *args: Any) -> HookResult:
        return self.call_detailed(hook, *args)[0]

    def call_setuid(self, hook: str, task: "Task",
                    target: int) -> Tuple[SetuidDecision, Optional[str]]:
        """Run a setuid-family *hook*; return (decision, deciding module
        name), as :meth:`call_detailed` does. The first DENY wins;
        otherwise the last ALLOW, whose ``pending`` transition (if
        any) the caller parks."""
        decision, decider = _SETUID_PASS, None
        for name, bound in self._hooks[hook]:
            this = bound(task, target)
            if this.result is HookResult.DENY:
                return this, name
            if this.result is HookResult.ALLOW:
                decision, decider = this, name
        return decision, decider

    def cache_ok(self, hook: str, task: "Task", *args: Any) -> bool:
        """May a decision for (*hook*, *args*) be cached? Any module
        may veto. The security server asks at insert time only — a
        veto keeps the decision out of the cache, so lookups never pay
        for this call — which means a module whose veto set changes at
        runtime must invalidate or flush when it does."""
        for _name, veto in self._hooks[CACHE_VETO_HOOK]:
            if not veto(hook, task, *args):
                return False
        return True

    def notify(self, hook: str, *args: Any) -> None:
        for _name, bound in self._hooks[hook]:
            bound(*args)


def deny_errno(module: str, hook: str, detail: str = "") -> SyscallError:
    """The canonical LSM denial: EPERM attributed to the module and
    hook that said no (``"protego:socket_bind"``)."""
    context = f"{module}:{hook}"
    if detail:
        context = f"{context}: {detail}"
    return SyscallError(Errno.EPERM, context)
