"""The trusted monitoring daemon (paper, Table 2: 400 lines of Python).

Three sync responsibilities:

1. **Policy files -> kernel**: /etc/fstab, /etc/sudoers(+.d), and
   /etc/bind are parsed (with names resolved to numeric ids) and the
   digested policy is written to /proc/protego/{mounts,sudoers,binds}.
2. **Fragments -> legacy**: edits to the per-account files under
   /etc/passwds, /etc/shadows, /etc/groups are validated (a user may
   change gecos/shell/home and their own password hash; uid, gid, and
   the account name are immutable) and folded back into the legacy
   /etc/passwd, /etc/shadow, /etc/group for unmodified applications.
3. **Legacy -> fragments**: root-driven edits of the legacy files
   (adduser etc.) are re-fragmented.

The daemon is required only for backward compatibility: a system with
no legacy consumers could drop responsibility 2/3, and an
administrator can write /proc directly instead of 1.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.config.bindconf import BindConfigError, parse_bind_config
from repro.config.fstab import parse_fstab, user_mountable_entries
from repro.config.passwd_db import (
    format_passwd,
    parse_group,
    parse_passwd,
    parse_shadow,
)
from repro.config.sudoers import SudoersError, parse_sudoers
from repro.core.authdb import (
    GROUP_FRAGMENT_DIR,
    PASSWD_FRAGMENT_DIR,
    SHADOW_FRAGMENT_DIR,
    UserDatabase,
)
from repro.core.bind_policy import BindPolicy
from repro.core.delegation import DelegationPolicy
from repro.core.mount_policy import MountPolicy, MountRule
from repro.core.procfiles import (
    COMMIT_PROC_PATH,
    COMMIT_SECTIONS,
)
from repro.daemon.inotify import FileWatcher, WatchEvent
from repro.daemon.status import PolicyStatusBoard
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fault import SITE_DAEMON_CRASH
from repro.kernel.kernel import Kernel

FSTAB_PATH = "/etc/fstab"
SUDOERS_PATH = "/etc/sudoers"
SUDOERS_DIR = "/etc/sudoers.d"
BIND_PATH = "/etc/bind"
PPP_OPTIONS_PATH = "/etc/ppp/options"
POLKIT_RULES_PATH = "/etc/polkit-1/rules"
DBUS_SERVICES_PATH = "/etc/dbus-1/system-services"
POLKIT_DROPIN = "/etc/sudoers.d/protego-polkit"
DBUS_DROPIN = "/etc/sudoers.d/protego-dbus"


class DaemonCrash(RuntimeError):
    """The daemon process died (the ``daemon.crash`` fault site fired).
    Caught by :class:`repro.daemon.supervisor.DaemonSupervisor`, which
    schedules a backed-off restart."""


class MonitoringDaemon:
    """One instance per machine; drive with :meth:`poll`.

    Policy pushes are *transactional*: each sync serializes locally,
    then writes the affected sections to ``/proc/protego/commit`` in
    one write, which the kernel validates in full before applying any
    of it. A failed push (parse error, injected write fault) leaves
    the kernel on last-good policy and marks the policy *stale* on the
    shared :class:`PolicyStatusBoard` (surfaced at
    ``/proc/protego/status``).
    """

    def __init__(self, kernel: Kernel,
                 status_board: Optional[PolicyStatusBoard] = None):
        self.kernel = kernel
        self.userdb = UserDatabase(kernel)
        self.watcher = FileWatcher(kernel)
        self.status = status_board if status_board is not None else PolicyStatusBoard()
        self.sync_log: List[str] = []
        self.error_log: List[str] = []
        self._installed = False
        self._route_policy = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install watches and push the initial policy load."""
        crash = self.kernel.faults.site(SITE_DAEMON_CRASH)
        if crash.armed and crash.should_fail():
            raise DaemonCrash("injected crash in daemon start")
        self.sync_all_policies()
        self.watcher.watch_file(FSTAB_PATH, self._on_fstab)
        self.watcher.watch_file(SUDOERS_PATH, self._on_sudoers)
        self.watcher.watch_dir(SUDOERS_DIR, self._on_sudoers)
        self.watcher.watch_file(BIND_PATH, self._on_bind)
        self.watcher.watch_file(POLKIT_RULES_PATH, self._on_polkit)
        self.watcher.watch_file(DBUS_SERVICES_PATH, self._on_polkit)
        self.watcher.watch_dir(PASSWD_FRAGMENT_DIR, self._on_passwd_fragment)
        self.watcher.watch_dir(SHADOW_FRAGMENT_DIR, self._on_shadow_fragment)
        self.watcher.watch_dir(GROUP_FRAGMENT_DIR, self._on_group_fragment)
        self.watcher.watch_file("/etc/passwd", self._on_legacy_passwd)
        self._installed = True

    def attach_route_policy(self, route_policy) -> None:
        """Mine /etc/ppp/options into the LSM's route policy and keep
        it synchronized."""
        self._route_policy = route_policy
        self._sync_route_policy()
        self.watcher.watch_file(PPP_OPTIONS_PATH, lambda _event: self._sync_route_policy())

    def _sync_route_policy(self) -> None:
        from repro.config.pppoptions import parse_ppp_options
        try:
            text = self.kernel.read_file(self.kernel.init, PPP_OPTIONS_PATH).decode()
        except SyscallError as exc:
            if exc.errno_value is not Errno.ENOENT:
                self._build_error(
                    "ppp",
                    f"ppp: {PPP_OPTIONS_PATH}: {exc.errno_value.name}: "
                    f"{exc.context}")
            return
        self._route_policy.replace_options(parse_ppp_options(text))
        # This policy swap bypasses the /proc files, so the caches
        # must be flushed here rather than by a write_fn: the decision
        # cache entirely, and (via the policy bump) the fused verdict
        # table. Every other config-sync write goes through the
        # syscall layer, whose generations.invalidate_path() call
        # reaches every path-keyed cache per mutated path.
        self.kernel.security_server.flush(reason="ppp route policy sync")
        self.status.note_success("ppp", self.kernel.now())
        self.sync_log.append("ppp: route policy synced")

    def poll(self) -> List[WatchEvent]:
        """One daemon wakeup: process all pending changes."""
        crash = self.kernel.faults.site(SITE_DAEMON_CRASH)
        if crash.armed and crash.should_fail():
            raise DaemonCrash("injected crash in daemon poll")
        if not self._installed:
            self.start()
            return []
        events = self.watcher.poll()
        if self.status.any_stale():
            # A previous push failed (fail-stale): the kernel holds
            # last-good policy and the source file may be newer. Every
            # wakeup retries until a push lands.
            self.sync_all_policies()
        return events

    # ------------------------------------------------------------------
    # Policy pushes (two-phase: build everything, commit in one write)
    # ------------------------------------------------------------------
    def sync_all_policies(self) -> None:
        """The full resync: explicate polkit, then push every policy
        that builds cleanly as ONE commit-file transaction. A policy
        whose source fails to build is excluded (and marked stale);
        the others still land."""
        self.sync_polkit_explication()
        sections: Dict[str, Tuple[str, str]] = {}
        for name, builder in (("mounts", self._build_mounts),
                              ("sudoers", self._build_sudoers),
                              ("binds", self._build_binds)):
            built = builder()
            if built is not None:
                sections[name] = built
        self._commit(sections)
        if self._route_policy is not None:
            self._sync_route_policy()

    def sync_polkit_explication(self) -> None:
        """Explicate PolicyKit/D-Bus configuration as extended
        sudoers drop-ins (section 4.3), which the normal sudoers sync
        then folds into the kernel delegation policy."""
        from repro.config.polkit import (
            PolkitError,
            dbus_services_to_sudoers,
            parse_dbus_services,
            parse_polkit_rules,
            polkit_rules_to_sudoers,
        )
        for source, dropin, parse, translate in (
            (POLKIT_RULES_PATH, POLKIT_DROPIN, parse_polkit_rules,
             polkit_rules_to_sudoers),
            (DBUS_SERVICES_PATH, DBUS_DROPIN, parse_dbus_services,
             dbus_services_to_sudoers),
        ):
            try:
                text = self.kernel.read_file(self.kernel.init, source).decode()
            except SyscallError:
                continue
            try:
                rules = parse(text)
            except PolkitError as exc:
                self._build_error("polkit", str(exc))
                continue
            self.kernel.write_file(self.kernel.init, dropin,
                                   translate(rules).encode())
            self.watcher.suppress(dropin)
            self.status.note_success("polkit", self.kernel.now())
            self.sync_log.append(f"polkit: explicated {source}")

    def sync_mount_policy(self) -> None:
        built = self._build_mounts()
        if built is not None:
            self._commit({"mounts": built})

    def sync_delegation_policy(self) -> None:
        built = self._build_sudoers()
        if built is not None:
            self._commit({"sudoers": built})

    def sync_bind_policy(self) -> None:
        built = self._build_binds()
        if built is not None:
            self._commit({"binds": built})

    # -- phase 1: build (read + parse + serialize, no kernel effect) ----
    def _build_mounts(self) -> Optional[Tuple[str, str]]:
        try:
            text = self.kernel.read_file(self.kernel.init, FSTAB_PATH).decode()
            entries = user_mountable_entries(parse_fstab(text))
        except (SyscallError, ValueError) as exc:
            self._build_error("mounts", f"fstab: {exc}")
            return None
        rules = [MountRule.from_fstab(entry) for entry in entries]
        policy = MountPolicy(rules)
        return policy.serialize(), f"mounts: {len(rules)} rules"

    def _build_sudoers(self) -> Optional[Tuple[str, str]]:
        text = ""
        includes: List[str] = []
        try:
            text = self.kernel.read_file(self.kernel.init, SUDOERS_PATH).decode()
        except SyscallError as exc:
            # A missing /etc/sudoers is a legitimate configuration
            # (drop-ins only); any other failure means we cannot know
            # the intended policy — keep last-good and mark it stale
            # rather than silently pushing a partial one.
            if exc.errno_value is not Errno.ENOENT:
                self._build_error(
                    "sudoers",
                    f"sudoers: {SUDOERS_PATH}: {exc.errno_value.name}: "
                    f"{exc.context}")
                return None
        if self.kernel.vfs.exists(SUDOERS_DIR):
            for name in sorted(self.kernel.sys_readdir(self.kernel.init, SUDOERS_DIR)):
                try:
                    includes.append(
                        self.kernel.read_file(self.kernel.init,
                                              f"{SUDOERS_DIR}/{name}").decode()
                    )
                except SyscallError as exc:
                    if exc.errno_value is not Errno.ENOENT:
                        self._build_error(
                            "sudoers",
                            f"sudoers: {SUDOERS_DIR}/{name}: "
                            f"{exc.errno_value.name}: {exc.context}")
                        return None
                    continue
        try:
            sudoers = parse_sudoers(text, includes)
            delegation = DelegationPolicy.from_sudoers(
                sudoers, self.userdb.resolve_user, self.userdb.resolve_group
            )
        except (SudoersError, ValueError) as exc:
            self._build_error("sudoers", f"sudoers: {exc}")
            return None
        return (delegation.serialize(),
                f"sudoers: {len(delegation.rules())} rules")

    def _build_binds(self) -> Optional[Tuple[str, str]]:
        try:
            text = self.kernel.read_file(self.kernel.init, BIND_PATH).decode()
        except SyscallError as exc:
            if exc.errno_value is not Errno.ENOENT:
                self._build_error(
                    "binds",
                    f"bind: {BIND_PATH}: {exc.errno_value.name}: {exc.context}")
            return None
        try:
            entries = parse_bind_config(text)
            grants = BindPolicy.resolve_entries(entries, self.userdb.resolve_user)
        except (BindConfigError, ValueError) as exc:
            self._build_error("binds", f"bind: {exc}")
            return None
        policy = BindPolicy(grants)
        return policy.serialize(), f"binds: {len(grants)} grants"

    def _build_error(self, policy_name: str, message: str) -> None:
        self.error_log.append(message)
        self.status.note_error(policy_name, message)

    # -- phase 2: commit (one write, validated in full by the kernel) ---
    def _commit(self, sections: Dict[str, Tuple[str, str]]) -> None:
        """Write the built *sections* to /proc/protego/commit. The
        kernel parses every section before swapping any, and the
        ``proc.write`` fault site fires before the handler runs — so
        the observable outcomes are exactly two: all sections applied,
        or none (last-good policy stays in force, policies marked
        stale)."""
        if not sections:
            return
        blob = "".join(
            f"%%{name}\n{sections[name][0]}"
            for name in COMMIT_SECTIONS if name in sections
        )
        try:
            self.kernel.write_file(self.kernel.init, COMMIT_PROC_PATH,
                                   blob.encode(), create=False)
        except SyscallError as exc:
            message = f"{exc.errno_value.name}: {exc.context}"
            for name in sections:
                self._build_error(name, f"commit {name}: {message}")
            return
        now = self.kernel.now()
        for name in sections:
            self.status.note_success(name, now)
            self.sync_log.append(sections[name][1])

    # ------------------------------------------------------------------
    # Watch callbacks: policy files
    # ------------------------------------------------------------------
    def _on_fstab(self, event: WatchEvent) -> None:
        self.sync_mount_policy()

    def _on_sudoers(self, event: WatchEvent) -> None:
        self.sync_delegation_policy()

    def _on_bind(self, event: WatchEvent) -> None:
        self.sync_bind_policy()

    def _on_polkit(self, event: WatchEvent) -> None:
        self.sync_polkit_explication()
        self.sync_delegation_policy()

    # ------------------------------------------------------------------
    # Fragment <-> legacy synchronization
    # ------------------------------------------------------------------
    def _on_passwd_fragment(self, event: WatchEvent) -> None:
        username = event.path.rsplit("/", 1)[-1]
        if event.kind == "deleted":
            return
        try:
            fragment = parse_passwd(
                self.kernel.read_file(self.kernel.init, event.path).decode()
            )[0]
        except (SyscallError, ValueError, IndexError) as exc:
            self.error_log.append(f"passwd fragment {username}: {exc}")
            return
        entries = self.userdb.passwd_entries()
        legacy = next((e for e in entries if e.name == username), None)
        if legacy is None:
            self.error_log.append(f"passwd fragment {username}: no legacy entry; ignored")
            return
        # Validation: uid/gid/name are immutable from a fragment.
        if (fragment.uid, fragment.gid, fragment.name) != (legacy.uid, legacy.gid, legacy.name):
            self.error_log.append(
                f"passwd fragment {username}: uid/gid change rejected; restoring"
            )
            self._restore_passwd_fragment(legacy)
            return
        merged = dataclasses.replace(
            legacy, gecos=fragment.gecos, home=fragment.home, shell=fragment.shell
        )
        updated = [merged if e.name == username else e for e in entries]
        self.userdb.write_passwd(updated)
        self.watcher.suppress("/etc/passwd")
        self.sync_log.append(f"passwd: merged fragment for {username}")

    def _restore_passwd_fragment(self, legacy_entry) -> None:
        path = f"{PASSWD_FRAGMENT_DIR}/{legacy_entry.name}"
        self.kernel.write_file(self.kernel.init, path,
                               format_passwd([legacy_entry]).encode())
        self.watcher.suppress(path)

    def _on_shadow_fragment(self, event: WatchEvent) -> None:
        username = event.path.rsplit("/", 1)[-1]
        if event.kind == "deleted":
            return
        try:
            fragment = parse_shadow(
                self.kernel.read_file(self.kernel.init, event.path).decode()
            )[0]
        except (SyscallError, ValueError, IndexError) as exc:
            self.error_log.append(f"shadow fragment {username}: {exc}")
            return
        if fragment.name != username:
            self.error_log.append(f"shadow fragment {username}: name mismatch; ignored")
            return
        entries = self.userdb.shadow_entries()
        if not any(e.name == username for e in entries):
            return
        updated = [fragment if e.name == username else e for e in entries]
        self.userdb.write_shadow(updated)
        self.sync_log.append(f"shadow: merged fragment for {username}")

    def _on_group_fragment(self, event: WatchEvent) -> None:
        group_name = event.path.rsplit("/", 1)[-1]
        if event.kind == "deleted":
            return
        try:
            fragment = parse_group(
                self.kernel.read_file(self.kernel.init, event.path).decode()
            )[0]
        except (SyscallError, ValueError, IndexError) as exc:
            self.error_log.append(f"group fragment {group_name}: {exc}")
            return
        entries = self.userdb.group_entries()
        legacy = next((e for e in entries if e.name == group_name), None)
        if legacy is None or fragment.gid != legacy.gid:
            self.error_log.append(f"group fragment {group_name}: gid change rejected")
            return
        updated = [fragment if e.name == group_name else e for e in entries]
        self.userdb.write_group(updated)
        self.sync_log.append(f"group: merged fragment for {group_name}")
        # Membership changes may affect delegation (%group rules).
        self.sync_delegation_policy()

    def _on_legacy_passwd(self, event: WatchEvent) -> None:
        """Root edited /etc/passwd (adduser): re-fragment."""
        self.userdb.fragment_databases()
        for username in self.userdb.fragment_usernames():
            self.watcher.suppress(f"{PASSWD_FRAGMENT_DIR}/{username}")
            self.watcher.suppress(f"{SHADOW_FRAGMENT_DIR}/{username}")
        for group in self.userdb.group_entries():
            self.watcher.suppress(f"{GROUP_FRAGMENT_DIR}/{group.name}")
        self.sync_log.append("passwd: re-fragmented after legacy edit")
