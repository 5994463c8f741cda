"""The kernel's reference monitor (SELinux-AVC-style security server).

Public surface:

* :class:`Decision` — an attributed answer (which layer decided: DAC,
  capability, apparmor, protego);
* :class:`SecurityServer` — the single composition point for
  DAC + LSM chain + capability checks, asked through one call,
  :meth:`SecurityServer.check`, with a decision cache keyed on
  subject ids and explicit invalidation (object flushes, global
  policy-reload flushes);
* :class:`AuditRing` / :class:`AuditEntry` — the bounded decision
  trail behind ``/proc/protego/audit``.
"""

from repro.kernel.security.access import (
    OBJ,
    Decision,
    LAYER_CAPABILITY,
    LAYER_DAC,
    LAYER_DEFAULT,
    Verdict,
)
from repro.kernel.security.audit import AuditEntry, AuditRing
from repro.kernel.security.server import CACHEABLE_HOOKS, CacheStats, SecurityServer

__all__ = [
    "OBJ",
    "AuditEntry",
    "AuditRing",
    "CACHEABLE_HOOKS",
    "CacheStats",
    "Decision",
    "LAYER_CAPABILITY",
    "LAYER_DAC",
    "LAYER_DEFAULT",
    "SecurityServer",
    "Verdict",
]
