"""Tasks (processes) in the simulated kernel.

The fields mirror the pieces of ``struct task_struct`` Protego relies
on: credentials, the per-task security blob LSMs may attach (Protego
stores the pending setuid-on-exec transition and the last
authentication time there), the controlling terminal, and exit status.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.kernel.cred import Credentials
from repro.kernel.entry import ALL_MASK
from repro.kernel.fdtable import FDTable


@dataclasses.dataclass
class PendingSetuid:
    """Protego's deferred uid transition (paper section 4.3).

    When a restricted setuid() is issued, the call *appears* to
    succeed but the credential change is parked here and applied only
    at the next exec, once the target binary is validated against the
    delegation policy.
    """

    target_uid: int
    target_gid: Optional[int] = None
    allowed_binaries: tuple = ()
    rule: Any = None
    # Rules that could authorize more binaries but still need an
    # authentication step; the exec hook runs it ("the authentication
    # service may also ask for the target user's password at this
    # point", section 4.3).
    locked_rules: tuple = ()
    # The already-unlocked rules the transition was parked under. The
    # exec hook validates against whole rules (not just the flattened
    # binary list) so per-rule ``!`` carve-outs keep their veto.
    usable_rules: tuple = ()


class Task:
    """One process."""

    def __init__(
        self,
        pid: int,
        cred: Credentials,
        parent: Optional["Task"] = None,
        comm: str = "init",
    ):
        self.pid = pid
        self.cred = cred
        self.parent = parent
        self.children: List["Task"] = []
        self.comm = comm
        self.cwd = "/"
        self.fdtable = FDTable()
        self.environ: Dict[str, str] = {}
        # Absolute path of the binary this task is executing; consulted
        # by object-based policies keyed on (binary, uid) such as the
        # Protego bind(2) port map.
        self.exe_path: str = ""
        # Credential epoch: bumped by the security server on every
        # credential commit (setuid/setgid/setgroups/exec), orphaning
        # cached access decisions made under the old credentials.
        # Kernel-created tasks draw a fresh epoch from the generation
        # hub at creation so no two subjects ever share an epoch.
        self.cred_epoch: int = 0
        # Syscall-entry gate state (repro.kernel.entry): the cached
        # permitted-syscall bitmask (None = recompute on next entry)
        # and the optional per-task confinement set.
        self.entry_mask: Optional[int] = ALL_MASK
        self.entry_allowed: Optional[frozenset] = None
        # Fused fast-path subject id (repro.kernel.fastpath): the
        # interned integer standing for (cred_epoch, cred, exe_path)
        # in fused keys, plus the identity triple it was minted for.
        # Hashing an int beats re-hashing a Credentials every probe.
        self.fp_sid: int = -1
        self.fp_sid_epoch: int = -1
        self.fp_sid_cred: Optional[Credentials] = None
        self.fp_sid_exe: Optional[str] = None
        # LSM security blob: module-name -> arbitrary state. Protego
        # keeps `last_auth_time` and `pending_setuid` here.
        self.security: Dict[str, Any] = {}
        # Namespace memberships (kind -> Namespace); empty = the init
        # namespaces. Shared with children across fork.
        self.namespaces: Dict[str, Any] = {}
        self.exit_status: Optional[int] = None
        self.tty: Optional[object] = None
        # Captured program output (the simulation's stdout/stderr).
        self.stdout: List[str] = []

    # ------------------------------------------------------------------
    def getsec(self, module: str, key: str, default: Any = None) -> Any:
        return self.security.get(module, {}).get(key, default)

    def setsec(self, module: str, key: str, value: Any) -> None:
        self.security.setdefault(module, {})[key] = value

    def clearsec(self, module: str, key: str) -> None:
        self.security.get(module, {}).pop(key, None)

    def __repr__(self) -> str:
        return f"Task(pid={self.pid}, comm={self.comm!r}, {self.cred.describe()})"
