"""The Protego LSM (paper sections 2 and 4).

One security module that enforces, in the kernel, the object-based
policies historically encoded in setuid-to-root binaries:

====================  =================================================
Hook                  Policy
====================  =================================================
sb_mount/sb_umount    fstab-derived mount whitelist (4.2)
task_fix_setuid       sudoers-derived delegation, recency, and the
                      deferred setuid-on-exec transition (4.3)
task_fix_setgid       password-protected group joins (newgrp)
bprm_check            validates the pending transition's binary and
                      arguments; exec fails with EACCES otherwise
bprm_committing_creds commits the pending transition: new uid (full
                      caps iff root), scrubbed environment, closed
                      descriptors
socket_create         unprivileged raw/packet sockets (4.1.1)
socket_bind           the /etc/bind port -> (binary, uid) map (4.1.3)
dev_ioctl             modem configuration, eject of removable media
route_add             non-conflicting routes over ppp links (4.1.2)
file_open             reauthentication before shadow reads; binary
                      ACLs for the ssh host key (4.4, 4.6), decided
                      on the opened inode whatever name reached it
====================  =================================================

Privileged callers (tasks already holding the relevant capability)
always take the PASS path, so administrator behaviour is unchanged —
Protego is about the *unprivileged* user's least privilege.
"""

from __future__ import annotations

import posixpath
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.config.sudoers import ALL
from repro.core.authdb import SHADOW_FRAGMENT_DIR
from repro.core.bind_policy import BindPolicy
from repro.core.delegation import DelegationPolicy, scrub_environment
from repro.core.mount_policy import MountPolicy
from repro.core.rawsock_policy import RawSocketPolicy
from repro.core.recency import TICKS_PER_MINUTE, authenticated_recently, stamp_authentication
from repro.core.route_policy import RoutePolicy
from repro.kernel.capabilities import Capability
from repro.kernel.devices import BlockDevice, Modem
from repro.kernel.inode import Inode
from repro.kernel.lsm import HookResult, SecurityModule, SetuidDecision
from repro.kernel.task import PendingSetuid, Task


def command_matches(command_spec: str, path: str, argv: List[str]) -> bool:
    """Does an exec of *path* with *argv* satisfy *command_spec*?

    A spec is a binary path, optionally followed by required leading
    arguments ("/usr/bin/lpr -P office"). The paper shifts argument
    validation into the kernel; this is that check.
    """
    parts = command_spec.split()
    if not parts or parts[0] != path:
        return False
    required_args = parts[1:]
    supplied = list(argv[1:1 + len(required_args)])
    return supplied == required_args


def rule_covers_exec(rule, path: str, argv: List[str]) -> bool:
    """Does one delegation rule authorize exec'ing *path* with *argv*?

    Negated specs veto first (a sudoers ``ALL, !/bin/sh`` grant must
    refuse /bin/sh no matter what the positive side says), then an
    ``ALL`` or a matching positive spec authorizes.
    """
    for spec in rule.negated_commands:
        if command_matches(spec, path, argv):
            return False
    for spec in rule.positive_commands:
        if spec == ALL or command_matches(spec, path, argv):
            return True
    return False


class ProtegoLSM(SecurityModule):
    """The Protego security module."""

    name = "protego"

    def __init__(
        self,
        mount_policy: Optional[MountPolicy] = None,
        bind_policy: Optional[BindPolicy] = None,
        delegation: Optional[DelegationPolicy] = None,
        route_policy: Optional[RoutePolicy] = None,
        rawsock_policy: Optional[RawSocketPolicy] = None,
    ):
        self.mount_policy = mount_policy or MountPolicy()
        self.bind_policy = bind_policy or BindPolicy()
        self.delegation = delegation or DelegationPolicy()
        self.route_policy = route_policy or RoutePolicy()
        self.rawsock_policy = rawsock_policy or RawSocketPolicy()
        # path -> allowed exe paths; Protego's binary ACL for sensitive
        # files such as the ssh host key.
        self.binary_acl: Dict[str, Tuple[str, ...]] = {}
        # Set by the System builder: the trusted authentication service
        # the kernel launches when recency is not satisfied.
        self.authenticator = None
        self.kernel = None  # set by attach()
        # Per-(uid, terminal) authentication stamps: the kernel-side
        # equivalent of sudo's timestamp files. Task-local stamps
        # (in the security blob) cover tty-less tasks and inherit
        # across fork; the session table makes "a password entered on
        # this terminal in the last 5 minutes" hold across separate
        # invocations from the same shell.
        self._session_stamps: Dict[Tuple[int, str], int] = {}
        #: path -> (mount generation, inode, steps): the last walk of
        #: each protected path (binary-ACL paths, /etc/shadows).
        self._peeks: Dict[str, Tuple[int, Optional[Inode], Tuple]] = {}
        #: The protected paths and each of their ancestors: a change at
        #: one of these names can make a protected path name another
        #: object (see :meth:`_path_changed`).
        self._guarded: FrozenSet[str] = frozenset()
        self._guard_paths()

    def attach(self, kernel) -> "ProtegoLSM":
        """Register with *kernel* and wire the packet filter."""
        self.kernel = kernel
        kernel.register_module(self)
        kernel.generations.subscribe_paths(self._path_changed)
        self.rawsock_policy.install(kernel.net.netfilter)
        return self

    # ------------------------------------------------------------------
    # cache control
    # ------------------------------------------------------------------
    def decision_cacheable(self, hook: str, task: Task, *args) -> bool:
        """Veto caching for file opens Protego answers statefully:
        shadow-fragment reads hinge on authentication recency (and may
        prompt), and binary-ACL answers depend on the live ACL. The
        server consults this at insert time, on the opened inode, so a
        vetoed open is never cached under any name; ACL growth
        additionally flushes via :meth:`protect_binary` in case the
        file was cached before it became sensitive."""
        if hook == "file_open" and args:
            inode = args[1]
            if (self._acl_for(inode) is not None
                    or self._is_shadow_entry(inode)):
                return False
        return True

    def protect_binary(self, path: str, allowed_exes: Tuple[str, ...]) -> None:
        """Confine *path* to *allowed_exes* (Protego's binary ACL) and
        flush every cached decision: one made before the file became
        sensitive may sit under any of its names, and the cacheability
        veto only guards inserts made after this."""
        self.binary_acl[path] = tuple(allowed_exes)
        self._guard_paths()
        self.flush_decisions()

    def _guard_paths(self) -> None:
        """Recompute :attr:`_guarded` from the binary ACL."""
        guarded = set()
        for path in (*self.binary_acl, SHADOW_FRAGMENT_DIR):
            path = posixpath.normpath(path)
            while path not in guarded:
                guarded.add(path)
                path = posixpath.dirname(path)
        self._guarded = frozenset(guarded)

    def _path_changed(self, path: str) -> None:
        """The hub's path fan-out. A mount, umount or rename at a
        protected path or above it can make that path name another
        object, or none; a link or rename that names an entry of
        /etc/shadows makes a file a shadow entry under every name it
        has. A decision cached for an alias was vetted against the old
        object, and no prefix invalidation reaches the alias's name, so
        every cached decision is flushed (and, through the policy bump,
        every fused verdict). One set probe and one split per
        invalidation."""
        if (path in self._guarded
                or path.rpartition("/")[0] == SHADOW_FRAGMENT_DIR):
            self.flush_decisions()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _peek(self, path: str) -> Optional[Inode]:
        """The inode protected *path* names now (:meth:`VFS.peek`).

        The walk's answer is reused while the mount generation is
        unchanged and each of its steps still holds, which a replacement
        made under any name breaks: no path-string invalidation is
        trusted. A walk that crosses a symlink is not kept."""
        vfs = self.kernel.vfs
        generation = vfs.generations.mount
        memo = self._peeks.get(path)
        if memo is not None and memo[0] == generation:
            for directory, name, entry in memo[2]:
                if directory.entries.get(name) is not entry:
                    break
            else:
                return memo[1]
        inode, steps = vfs.peek(path)
        if steps is not None:
            self._peeks[path] = (generation, inode, steps)
        return inode

    def _acl_for(self, inode: Optional[Inode]) -> Optional[Tuple[str, ...]]:
        """The binary ACL of the protected path that names *inode* now."""
        if inode is not None:
            for path, acl in self.binary_acl.items():
                if self._peek(path) is inode:
                    return acl
        return None

    def _is_shadow_entry(self, inode: Optional[Inode]) -> bool:
        """Whether *inode* is an entry of /etc/shadows, under any name."""
        shadows = self._peek(SHADOW_FRAGMENT_DIR)
        return (shadows is not None and shadows.is_dir()
                and inode in shadows.entries.values())

    def _now(self) -> int:
        return self.kernel.now() if self.kernel is not None else 0

    def _auth_window_ticks(self) -> int:
        return self.delegation.auth_window_minutes * TICKS_PER_MINUTE

    def _gids(self, task: Task) -> Tuple[int, ...]:
        cred = task.cred
        return tuple({cred.rgid, cred.egid} | set(cred.groups))

    def _stamp(self, task: Task) -> None:
        now = self._now()
        stamp_authentication(task, now)
        if task.tty is not None:
            self._session_stamps[(task.cred.ruid, task.tty.name)] = now

    def _recently_authenticated(self, task: Task) -> bool:
        window = self._auth_window_ticks()
        if authenticated_recently(task, self._now(), window):
            return True
        if task.tty is None or window <= 0:
            return False
        stamp = self._session_stamps.get((task.cred.ruid, task.tty.name))
        return stamp is not None and self._now() - stamp <= window

    def _usable_rules(self, task: Task, rules, target_uid: int):
        """Which of the candidate rules may be used *now*?

        NOPASSWD rules are always usable; invoker-password rules are
        usable under a fresh recency stamp; otherwise the trusted
        authentication service prompts once and the entered secret is
        checked against every principal the candidate rules accept
        (the invoker for sudo-style rules, the target for su-style
        TARGETPW rules) — "this service can also request the password
        of another user or group, according to system policy".
        """
        usable = [r for r in rules if r.nopasswd]
        if self._recently_authenticated(task):
            usable += [r for r in rules
                       if not r.nopasswd and not r.check_target_password]
        if usable:
            return usable
        if self.authenticator is None:
            return []
        principals = []
        if any(not r.check_target_password for r in rules):
            principals.append(task.cred.ruid)
        if any(r.check_target_password for r in rules):
            principals.append(target_uid)
        verified = self.authenticator.authenticate_any(task, principals)
        if verified is None:
            return []
        if verified == task.cred.ruid:
            # A fresh proof of the invoker's presence: stamp recency.
            self._stamp(task)
            usable = [r for r in rules if not r.check_target_password]
            # Proving one's own password never unlocks a rule whose
            # authorization is the *target's* password — unless the
            # invoker IS the target's principal (uid collision).
            if task.cred.ruid == target_uid:
                usable += [r for r in rules if r.check_target_password]
            return usable
        # The target's password verified: su-style rules unlock.
        return [r for r in rules if r.check_target_password]

    # ------------------------------------------------------------------
    # mount / umount
    # ------------------------------------------------------------------
    def sb_mount(self, task: Task, source: str, mountpoint: str, fstype: str,
                 flags: int, options: str) -> HookResult:
        if task.cred.has_cap(Capability.CAP_SYS_ADMIN):
            return HookResult.PASS
        if self.mount_policy.authorize_mount(
            task.cred.ruid, source, mountpoint, fstype, options
        ):
            return HookResult.ALLOW
        return HookResult.PASS

    def sb_umount(self, task: Task, mountpoint: str) -> HookResult:
        if task.cred.has_cap(Capability.CAP_SYS_ADMIN):
            return HookResult.PASS
        if self.mount_policy.authorize_umount(task.cred.ruid, mountpoint):
            self.mount_policy.notice_umount(mountpoint)
            return HookResult.ALLOW
        return HookResult.PASS

    # ------------------------------------------------------------------
    # delegation: setuid / setgid / exec
    # ------------------------------------------------------------------
    def task_fix_setuid(self, task: Task, target_uid: int) -> SetuidDecision:
        cred = task.cred
        if cred.has_cap(Capability.CAP_SETUID):
            return SetuidDecision.passthrough()
        if target_uid in (cred.ruid, cred.suid):
            # The classic drop-privilege path stays kernel-default.
            return SetuidDecision.passthrough()
        rules = self.delegation.find_uid_rules(cred.ruid, self._gids(task), target_uid)
        if not rules:
            return SetuidDecision.passthrough()
        prompted_now = not (
            any(r.nopasswd for r in rules) or self._recently_authenticated(task)
        )
        usable = self._usable_rules(task, rules, target_uid)
        if not usable:
            return SetuidDecision.deny()
        if any(rule.unrestricted() for rule in usable):
            return SetuidDecision.allow()
        # Rules that were not unlocked here may still authorize the
        # exec'd binary after an authentication step at exec time —
        # unless the user just failed/satisfied a prompt covering them.
        locked = () if prompted_now else tuple(
            r for r in rules if r not in usable)
        pending = PendingSetuid(
            target_uid=target_uid,
            locked_rules=locked,
            usable_rules=tuple(usable),
        )
        return SetuidDecision.defer(pending)

    def task_fix_setgid(self, task: Task, target_gid: int) -> SetuidDecision:
        cred = task.cred
        if cred.has_cap(Capability.CAP_SETGID):
            return SetuidDecision.passthrough()
        if target_gid in (cred.rgid, cred.sgid):
            return SetuidDecision.passthrough()
        if target_gid in cred.groups:
            # Stock Linux makes even supplementary-group members go
            # through a setuid-root newgrp; Protego treats membership
            # as authorization (an object-based policy).
            return SetuidDecision.allow()
        rule = self.delegation.find_group_join_rule(
            cred.ruid, self._gids(task), target_gid
        )
        if rule is None:
            return SetuidDecision.passthrough()
        if not rule.nopasswd:
            if self.authenticator is None:
                return SetuidDecision.deny()
            if not self.authenticator.authenticate_group(task, target_gid):
                return SetuidDecision.deny()
            self._stamp(task)
        return SetuidDecision.allow()

    def bprm_check(self, task: Task, path: str, inode: Inode,
                   argv: List[str]) -> HookResult:
        pending: Optional[PendingSetuid] = task.getsec("protego", "pending_setuid")
        if pending is None:
            return HookResult.PASS
        # Whole-rule validation: each rule's own `!` carve-outs veto
        # before its positive side can grant.
        for rule in pending.usable_rules:
            if rule_covers_exec(rule, path, argv):
                return HookResult.PASS
        # A rule that still needs authentication may cover this binary;
        # the trusted service prompts *now* — "the authentication
        # service may also ask for the target user's password at this
        # point" (section 4.3).
        for rule in pending.locked_rules:
            if rule_covers_exec(rule, path, argv) and \
                    self._unlock_rule_at_exec(task, rule, pending.target_uid):
                return HookResult.PASS
        # Not an authorized binary for the parked transition: the exec
        # fails (the paper's deliberate change in error behaviour) and
        # the pending transition is discarded.
        task.clearsec("protego", "pending_setuid")
        return HookResult.DENY

    def _unlock_rule_at_exec(self, task: Task, rule, target_uid: int) -> bool:
        if self.authenticator is None:
            return False
        if rule.check_target_password:
            ok = self.authenticator.authenticate_user(task, target_uid)
        else:
            ok = self.authenticator.authenticate_user(task, task.cred.ruid)
            if ok:
                self._stamp(task)
        return ok

    def bprm_committing_creds(self, task: Task, path: str, inode: Inode) -> None:
        pending: Optional[PendingSetuid] = task.getsec("protego", "pending_setuid")
        if pending is None:
            return
        task.clearsec("protego", "pending_setuid")
        uid = pending.target_uid
        task.cred = task.cred.with_uids(ruid=uid, euid=uid, suid=uid)
        if uid == 0:
            from repro.kernel.cred import Credentials
            full = Credentials.for_root()
            task.cred = task.cred.with_caps(full.cap_permitted, full.cap_effective)
        else:
            task.cred = task.cred.drop_all_caps()
        # Inheritance restrictions across the delegated transition.
        task.environ = scrub_environment(task.environ)
        task.fdtable.close_all()

    # ------------------------------------------------------------------
    # networking
    # ------------------------------------------------------------------
    def socket_create(self, task: Task, family: str, sock_type: str,
                      protocol: str) -> HookResult:
        if sock_type in ("raw", "packet") and self.rawsock_policy.allow_unprivileged:
            return HookResult.ALLOW
        return HookResult.PASS

    def socket_bind(self, task: Task, socket, port: int) -> HookResult:
        grant = self.bind_policy.grant_for(port, socket.protocol)
        if grant is None:
            return HookResult.PASS
        if grant.binary == task.exe_path and grant.uid == task.cred.euid:
            return HookResult.ALLOW
        # The port is allocated to a different application instance:
        # nobody else gets it, not even a capability-holding process —
        # "each port may map to only one application instance".
        return HookResult.DENY

    def route_add(self, task: Task, destination: str, device: str) -> HookResult:
        if task.cred.has_cap(Capability.CAP_NET_ADMIN):
            return HookResult.PASS
        if self.route_policy.user_may_add_route(device):
            return HookResult.ALLOW
        return HookResult.PASS

    # ------------------------------------------------------------------
    # devices
    # ------------------------------------------------------------------
    def dev_ioctl(self, task: Task, device, cmd: str, arg) -> HookResult:
        if cmd == "MODEM_CONFIG" and isinstance(device, Modem):
            if task.cred.has_cap(Capability.CAP_NET_ADMIN):
                return HookResult.PASS
            option = arg[0] if isinstance(arg, tuple) else str(arg)
            if self.route_policy.user_may_configure_modem(device.name, option):
                return HookResult.ALLOW
            return HookResult.DENY
        if cmd == "EJECT" and isinstance(device, BlockDevice):
            if device.removable:
                return HookResult.ALLOW
            return HookResult.PASS
        # DM_TABLE_STATUS deliberately stays privileged: the interface
        # discloses the key; Protego replaces it with /sys (Table 4).
        return HookResult.PASS

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------
    def file_open(self, task: Task, path: str, inode: Inode, flags: int) -> HookResult:
        acl = self._acl_for(inode)
        if acl is not None and task.exe_path not in acl:
            return HookResult.DENY
        if (task.cred.has_cap(Capability.CAP_DAC_OVERRIDE)
                or not self._is_shadow_entry(inode)):
            return HookResult.PASS
        if not self._recently_authenticated(task):
            if self.authenticator is None:
                return HookResult.DENY
            if not self.authenticator.authenticate_user(task, task.cred.ruid):
                return HookResult.DENY
            self._stamp(task)
        return HookResult.PASS
