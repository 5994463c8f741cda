"""Tasks (processes) in the simulated kernel.

The fields mirror the pieces of ``struct task_struct`` Protego relies
on: credentials, the per-task security blob LSMs may attach (Protego
stores the pending setuid-on-exec transition and the last
authentication time there), the controlling terminal, and exit status.
A task also caches its subject id, the integer the access caches key
on for its ``(cred, exe_path)`` context; nothing has to refresh it,
because a probe re-interns whenever either field is a new object.
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
        # Syscall-entry gate state (repro.kernel.entry): the cached
        # permitted-syscall bitmask (None = recompute on next entry)
        # and the optional per-task confinement set.
        self.entry_mask: Optional[int] = ALL_MASK
        self.entry_allowed: Optional[frozenset] = None
        # Subject id (GenerationHub.subject): the integer the fused
        # table and the decision cache key on, interned from the value
        # of (cred, exe_path), plus the two objects it was minted for.
        # A cache trusts `sid` only while both are still this task's.
        self.sid: int = -1
        self.sid_cred: Optional[Credentials] = None
        self.sid_exe: Optional[str] = None
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
