"""Structured access requests and decisions for the reference monitor.

Every policy question the syscall layer asks is answered with a
:class:`Decision`. A question the decision cache (the AVC) can hold is
phrased as an :class:`AccessRequest`, the AVC's question, and asked
through :meth:`SecurityServer.check`. The request names the subject
(the calling task), the object (a stable string identity: a path,
``port:25/tcp``, ``cap:CAP_SYS_ADMIN``, ...), the LSM hook to consult,
and the default policy that applies when no security module has an
opinion (a DAC thunk, a required capability, or an identity fallback).
The questions the cache never holds (setuid, setgid, mount, umount,
ioctl, exec validation, route add, create-time opens) build no
request: :meth:`SecurityServer.decide` takes the same fields as
arguments.

The decision records the verdict *and which layer decided it* — DAC,
a named LSM module (apparmor, protego), the capability system, or the
default-allow policy — so denials can say ``protego:socket_bind``
instead of a bare EPERM, and the audit trail can attribute every
syscall's outcome.

A :class:`Decision` is an immutable tuple record: the decision cache
hands the same object to every later asker, so nothing may change it
after the server builds it, and every uncached hook builds one per
call, where a frozen dataclass cost several times a tuple.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, NamedTuple, Optional, Tuple, TYPE_CHECKING

from repro.kernel.capabilities import Capability
from repro.kernel.errno import Errno, SyscallError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import Task


#: Sentinel placed in :attr:`AccessRequest.args`; the server replaces
#: it with the DAC layer's return value (e.g. the resolved inode)
#: before invoking the LSM hook.
OBJ = object()

#: Deciding-layer names for the non-LSM layers. LSM decisions use the
#: deciding module's own name ("apparmor", "protego").
LAYER_DAC = "dac"
LAYER_CAPABILITY = "capability"
LAYER_DEFAULT = "default"


class Verdict(enum.Enum):
    """The reference monitor's final, binary answer."""

    ALLOW = "allow"
    DENY = "deny"


@dataclasses.dataclass(frozen=True)
class AccessRequest:
    """One cacheable policy question (a hook in ``CACHEABLE_HOOKS``).

    ``dac`` runs *before* the LSM chain (matching the VFS order: a
    DAC failure is final, modules cannot override it); its return
    value — typically the resolved inode — is kept on the decision and
    substituted for the :data:`OBJ` sentinel in ``args``. ``capability``
    and ``fallback`` form the default policy consulted only when every
    module passes: capability first, then the identity fallback.
    """

    hook: str
    task: "Task"
    obj: str
    mask: int = 0
    args: Tuple[Any, ...] = ()
    dac: Optional[Callable[[], Any]] = None
    capability: Optional[Capability] = None
    fallback: Optional[Callable[[], bool]] = None
    deny_errno: Errno = Errno.EPERM
    context: str = ""


class Decision(NamedTuple):
    """The reference monitor's answer, with attribution.

    ``layer`` is the deciding layer: ``"dac"``, ``"capability"``,
    ``"default"``, or the name of the LSM module whose hook decided
    (``"apparmor"``, ``"protego"``). ``pending`` carries a parked
    setuid-on-exec transition; ``value`` carries the DAC layer's
    return value (the resolved inode) so cache hits skip the walk.

    A tuple record, so no field can be assigned once it is built:
    cached decisions are shared by every task in the subject's
    context.
    """

    verdict: Verdict
    layer: str
    hook: str
    obj: str
    errno: Optional[Errno] = None
    context: str = ""
    lsm_module: Optional[str] = None
    pending: Any = None
    value: Any = None
    #: True when the security server built this verdict as one that
    #: may be memoized in the fused fast-path table: the hook is
    #: cacheable, no module vetoed caching (complain mode,
    #: recency-dependent rules), and the errno is not walk-shaped
    #: (ENOTDIR/ELOOP). The syscall layer additionally requires a
    #: cached dentry before fusing.
    fastpath_ok: bool = False

    @property
    def allowed(self) -> bool:
        return self.verdict is Verdict.ALLOW

    @property
    def from_lsm(self) -> bool:
        """Did a security module (not DAC/capability) decide this?"""
        return self.lsm_module is not None

    def denial(self) -> SyscallError:
        """The error a denied syscall raises: errno plus a
        ``<layer>:<hook>`` context naming who said no."""
        return SyscallError(self.errno or Errno.EPERM, self.context)
