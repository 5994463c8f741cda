"""Decisions of the reference monitor.

Every policy question the syscall layer asks goes through
:meth:`SecurityServer.check` and is answered with a
:class:`Decision`. The question names the subject (the calling task),
the object (a stable string identity: a path, ``port:25/tcp``,
``cap:CAP_SYS_ADMIN``, ...), the LSM hook to consult, and the default
policy that applies when no security module has an opinion (a DAC
thunk, a required capability, or an identity fallback).

The decision records the verdict *and which layer decided it* — DAC,
a named LSM module (apparmor, protego), the capability system, or the
default-allow policy — so denials can say ``protego:socket_bind``
instead of a bare EPERM, and the audit trail can attribute every
syscall's outcome.

A :class:`Decision` is an immutable tuple record: the decision cache
hands the same object to every later asker, so nothing may change it
after the server builds it, and every uncached question builds one per
call, where a frozen dataclass cost several times a tuple. It carries
its derived facts as fields, computed once where the server builds
it: ``allowed``, ``from_lsm`` and, for a decision a cache may hold,
``audit_suffix``, the tail of the audit row every later hit replays.
The server builds it with ``tuple.__new__``, skipping the generated
``__new__``, and nothing else builds one.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple, Optional

from repro.kernel.errno import Errno, SyscallError


#: Sentinel placed in a question's hook arguments; the server replaces
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


class Decision(NamedTuple):
    """The reference monitor's answer, with attribution.

    ``layer`` is the deciding layer: ``"dac"``, ``"capability"``,
    ``"default"``, or the name of the LSM module whose hook decided
    (``"apparmor"``, ``"protego"``). ``pending`` carries a parked
    setuid-on-exec transition; ``value`` carries the DAC layer's
    return value (the resolved inode) so cache hits skip the walk.

    A tuple record, so no field can be assigned once it is built:
    cached decisions are shared by every task in the subject's
    context. The last three fields are derived from the others when
    the server builds the record, so a reader pays a field load, not
    a property call: the syscall layer reads ``allowed`` on every
    question and ``from_lsm`` on most of the paper's hooked ones.
    """

    verdict: Verdict
    layer: str
    hook: str
    obj: str
    errno: Optional[Errno]
    context: str
    lsm_module: Optional[str]
    pending: Any
    value: Any
    #: True when the security server built this verdict as one that
    #: may be memoized in the fused fast-path table: the hook is
    #: cacheable, no module vetoed caching (complain mode,
    #: recency-dependent rules), and the errno is not walk-shaped
    #: (ENOTDIR/ELOOP). The syscall layer additionally requires a
    #: cached dentry before fusing.
    fastpath_ok: bool
    #: ``verdict is Verdict.ALLOW``.
    allowed: bool
    #: Did a security module (not DAC/capability) decide this?
    #: ``lsm_module is not None``.
    from_lsm: bool
    #: For a decision a cache may hold (no module vetoed caching):
    #: the audit row's ``(hook, obj, mask, verdict, layer, cached,
    #: errno, context)`` tail with ``cached`` set, which a decision-
    #: cache hit and a fused-table hit replay behind a fresh
    #: ``(clock, pid, uid, euid)`` prefix. None otherwise.
    audit_suffix: Optional[tuple]

    def denial(self) -> SyscallError:
        """The error a denied syscall raises: errno plus a
        ``<layer>:<hook>`` context naming who said no."""
        return SyscallError(self.errno or Errno.EPERM, self.context)
