"""Kernel-side delegation policy (paper section 4.3).

The kernel form of the sudoers rules: names resolved to numeric ids,
queried on every setuid/setgid from a task without CAP_SETUID. Three
outcomes are possible:

* no rule -> fall back to stock Linux semantics (EPERM for lateral
  moves);
* a rule with unrestricted commands -> the transition applies
  immediately (su-style), after authentication recency is satisfied;
* a rule restricted to specific binaries -> the transition is
  *deferred*: setuid(2) reports success but parks the target uid in
  the task's security blob; the next exec validates the requested
  binary against the rule and only then commits the new credentials
  (the paper's setuid-on-exec).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.config.sudoers import ALL, SudoersPolicy

#: Environment variables that survive a restricted delegation exec
#: (the paper: "limiting inheritance of environment variables ... to
#: ensure integrity of the delegated command").
SAFE_ENV_WHITELIST = frozenset({"PATH", "TERM", "LANG", "DISPLAY", "HOME", "USER", "LOGNAME"})


@dataclasses.dataclass(frozen=True)
class DelegationRule:
    """One kernel delegation rule; ids already resolved."""

    invoker_uid: Optional[int] = None   # None = ALL users
    invoker_gid: Optional[int] = None   # set for %group rules
    target_uid: Optional[int] = None    # None = ALL targets
    commands: Tuple[str, ...] = (ALL,)
    nopasswd: bool = False
    check_target_password: bool = False
    group_join_gid: Optional[int] = None

    @property
    def positive_commands(self) -> Tuple[str, ...]:
        return tuple(c for c in self.commands if not c.startswith("!"))

    @property
    def negated_commands(self) -> Tuple[str, ...]:
        return tuple(c[1:].strip() for c in self.commands if c.startswith("!"))

    def unrestricted(self) -> bool:
        """True only for an unconditional ALL: a rule carrying any
        ``!`` carve-out must go through the deferred setuid-on-exec
        path so the exec hook can veto the negated binaries."""
        return ALL in self.commands and not any(
            c.startswith("!") for c in self.commands)

    def matches_invoker(self, uid: int, gids: Tuple[int, ...]) -> bool:
        if self.invoker_gid is not None:
            return self.invoker_gid in gids
        if self.invoker_uid is None:
            return True
        return self.invoker_uid == uid

    def allows_target(self, uid: int) -> bool:
        return self.target_uid is None or self.target_uid == uid

    def allows_command(self, path: str) -> bool:
        if path in self.negated_commands:
            return False
        positives = self.positive_commands
        return ALL in positives or path in positives

    def specificity(self) -> int:
        if self.invoker_uid is not None:
            return 2
        if self.invoker_gid is not None:
            return 1
        return 0


class DelegationPolicy:
    """All delegation rules plus the recency window."""

    def __init__(self, rules: Optional[List[DelegationRule]] = None,
                 auth_window_minutes: int = 5):
        self._rules: List[DelegationRule] = list(rules or [])
        self.auth_window_minutes = auth_window_minutes

    def replace_rules(self, rules: List[DelegationRule],
                      auth_window_minutes: Optional[int] = None) -> None:
        self._rules = list(rules)
        if auth_window_minutes is not None:
            self.auth_window_minutes = auth_window_minutes

    def add_rule(self, rule: DelegationRule) -> None:
        self._rules.append(rule)

    def rules(self) -> List[DelegationRule]:
        return list(self._rules)

    def find_uid_rules(self, invoker_uid: int, invoker_gids: Tuple[int, ...],
                       target_uid: int) -> List[DelegationRule]:
        """Every rule that could authorize invoker -> target, most
        specific first. The kernel considers them all: different rules
        may carry different authentication requirements (a
        command-restricted invoker-password rule and the su-style
        target-password catch-all can coexist)."""
        candidates = [
            rule for rule in self._rules
            if rule.group_join_gid is None
            and rule.matches_invoker(invoker_uid, invoker_gids)
            and rule.allows_target(target_uid)
        ]
        return sorted(candidates, key=DelegationRule.specificity, reverse=True)

    def find_group_join_rule(self, invoker_uid: int, invoker_gids: Tuple[int, ...],
                             target_gid: int) -> Optional[DelegationRule]:
        for rule in self._rules:
            if rule.group_join_gid == target_gid and rule.matches_invoker(
                invoker_uid, invoker_gids
            ):
                return rule
        return None

    # ---- construction from sudoers ------------------------------------
    @staticmethod
    def from_sudoers(policy: SudoersPolicy, resolve_user, resolve_group) -> "DelegationPolicy":
        """Translate a parsed sudoers policy into kernel rules.

        *resolve_user*/*resolve_group* map names to numeric ids and
        return None for unknown names, which makes the load fail: a
        delegation rule naming a nonexistent principal is a
        misconfiguration, not a no-op.
        """
        rules: List[DelegationRule] = []
        for sudo_rule in policy.rules:
            invoker_uid = invoker_gid = None
            if sudo_rule.invoker != ALL:
                if sudo_rule.invoker_is_group():
                    invoker_gid = resolve_group(sudo_rule.invoker[1:])
                    if invoker_gid is None:
                        raise ValueError(f"sudoers: unknown group {sudo_rule.invoker!r}")
                else:
                    invoker_uid = resolve_user(sudo_rule.invoker)
                    if invoker_uid is None:
                        raise ValueError(f"sudoers: unknown user {sudo_rule.invoker!r}")
            group_join_gid = None
            if sudo_rule.group_join:
                group_join_gid = resolve_group(sudo_rule.group_join)
                if group_join_gid is None:
                    raise ValueError(f"sudoers: unknown group {sudo_rule.group_join!r}")
            target_uid = None
            if sudo_rule.runas_user != ALL:
                target_uid = resolve_user(sudo_rule.runas_user)
                if target_uid is None:
                    raise ValueError(f"sudoers: unknown user {sudo_rule.runas_user!r}")
            rules.append(
                DelegationRule(
                    invoker_uid=invoker_uid,
                    invoker_gid=invoker_gid,
                    target_uid=target_uid,
                    commands=sudo_rule.commands,
                    nopasswd=sudo_rule.nopasswd,
                    check_target_password=sudo_rule.check_target_password,
                    group_join_gid=group_join_gid,
                )
            )
        return DelegationPolicy(rules, policy.timestamp_timeout_minutes)

    # ---- /proc grammar ----------------------------------------------------
    def serialize(self) -> str:
        lines = [f"window {self.auth_window_minutes}"]
        for rule in self._rules:
            invoker = (
                f"%{rule.invoker_gid}" if rule.invoker_gid is not None
                else (str(rule.invoker_uid) if rule.invoker_uid is not None else ALL)
            )
            target = str(rule.target_uid) if rule.target_uid is not None else ALL
            flags = []
            if rule.nopasswd:
                flags.append("nopasswd")
            if rule.check_target_password:
                flags.append("targetpw")
            if rule.group_join_gid is not None:
                flags.append(f"join={rule.group_join_gid}")
            flag_text = ",".join(flags) or "-"
            commands = ",".join(rule.commands)
            lines.append(f"{invoker} {target} {flag_text} {commands}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "DelegationPolicy":
        policy = DelegationPolicy([])
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("window "):
                policy.auth_window_minutes = int(line.split()[1])
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(
                    f"protego sudoers line {lineno}: expected "
                    f"'<invoker> <target> <flags|-> <commands>'"
                )
            invoker, target, flag_text, commands = fields
            invoker_uid = invoker_gid = None
            if invoker != ALL:
                if invoker.startswith("%"):
                    invoker_gid = int(invoker[1:])
                else:
                    invoker_uid = int(invoker)
            target_uid = None if target == ALL else int(target)
            nopasswd = targetpw = False
            group_join_gid = None
            if flag_text != "-":
                for flag in flag_text.split(","):
                    if flag == "nopasswd":
                        nopasswd = True
                    elif flag == "targetpw":
                        targetpw = True
                    elif flag.startswith("join="):
                        group_join_gid = int(flag[5:])
                    else:
                        raise ValueError(f"protego sudoers line {lineno}: bad flag {flag!r}")
            policy.add_rule(
                DelegationRule(invoker_uid, invoker_gid, target_uid,
                               tuple(commands.split(",")), nopasswd, targetpw,
                               group_join_gid)
            )
        return policy


def scrub_environment(environ: dict) -> dict:
    """Restrict inheritance across a delegated transition."""
    return {k: v for k, v in environ.items() if k in SAFE_ENV_WHITELIST}
