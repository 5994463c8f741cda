"""The System builder: a fully provisioned simulated machine.

This is the library's main entry point::

    from repro.core import System, SystemMode

    linux = System(SystemMode.LINUX)      # stock Linux + AppArmor
    protego = System(SystemMode.PROTEGO)  # the paper's system

    alice = protego.login("alice", "alice-password")
    status, output = protego.run(alice, "/bin/mount",
                                 ["mount", "/dev/cdrom", "/cdrom"])

Both modes share the same kernel substrate, the same users, devices,
and configuration files; the differences are exactly the paper's:

===============  ================================  =========================
                 LINUX                             PROTEGO
===============  ================================  =========================
LSMs             AppArmor                          AppArmor + Protego
setuid bits      28 studied binaries setuid root   no setuid-to-root bits
policy source    inside each trusted binary        kernel, via /proc files
credential DB    whole-file /etc/{passwd,shadow}   per-account fragments
                                                   (+ legacy sync daemon)
/dev/ppp         0600 root                         0666 (file perms replace
                                                   the capability check)
ssh host key     0600 root + setuid reader         binary ACL, unprivileged
                                                   reader
raw sockets      CAP_NET_RAW                       open to all, filtered
===============  ================================  =========================
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Tuple

from repro.auth.passwords import hash_password
from repro.auth.service import AuthenticationService
from repro.apparmor.module import AppArmorLSM
from repro.config.passwd_db import (
    GroupEntry,
    PasswdEntry,
    ShadowEntry,
    format_group,
    format_passwd,
    format_shadow,
)
from repro.core.authdb import (
    FRAGMENT_DIRS,
    GROUP_FILE,
    GROUP_MODE,
    PASSWD_FILE,
    PASSWD_MODE,
    SHADOW_FILE,
    SHADOW_MODE,
    UserDatabase,
    fragment_layout,
)
from repro.core.procfiles import (
    register_dmcrypt_sys_files,
    register_fault_proc_files,
    register_policy_proc_files,
    register_protego_proc_files,
)
from repro.core.protego import ProtegoLSM
from repro.kernel.cred import Credentials
from repro.kernel.devices import (
    BlockDevice,
    DmCryptDevice,
    Modem,
    PPPDevice,
    TTY,
    VideoDevice,
)
from repro.kernel.inode import (
    make_block_device,
    make_char_device,
    make_dir,
    make_file,
)
from repro.kernel.kernel import Kernel
from repro.kernel.net.routing import Route
from repro.kernel.net.stack import RemoteHost
from repro.kernel.task import Task
from repro.userspace.accounts import ChfnProgram, ChshProgram, VipwProgram
from repro.userspace.dmcrypt import DmcryptGetDeviceProgram
from repro.userspace.extras import (
    FpingProgram,
    LppasswdProgram,
    SshClientProgram,
    TcptracerouteProgram,
)
from repro.userspace.iptables import IptablesProgram
from repro.userspace.login import LoginProgram
from repro.userspace.mailserver import EximProgram, SensibleMdaProgram
from repro.userspace.misc import (
    EditorProgram,
    LprProgram,
    ShellProgram,
    TrueProgram,
    WhoamiProgram,
)
from repro.userspace.mount_helpers import (
    KpppProgram,
    MountCifsProgram,
    MountEcryptfsProgram,
    MountNfsProgram,
)
from repro.userspace.mount import (
    EjectProgram,
    FusermountProgram,
    MountProgram,
    UmountProgram,
)
from repro.userspace.passwd import GpasswdProgram, PasswdProgram
from repro.userspace.ping import ArpingProgram, MtrProgram, PingProgram, TracerouteProgram
from repro.userspace.polkit import DbusLaunchHelperProgram, PkexecProgram
from repro.userspace.sandbox import ChromiumSandboxProgram
from repro.userspace.pppd import PppdProgram
from repro.userspace.program import Program, install_program
from repro.userspace.sshkeysign import HOST_KEY_PATH, SshKeysignProgram
from repro.userspace.su import NewgrpProgram, SuProgram
from repro.userspace.sudo import SudoProgram, SudoeditProgram
from repro.userspace.xserver import XServerProgram


class SystemMode(enum.Enum):
    """Which system the machine models."""

    LINUX = "linux"      # baseline: Linux 3.6 + AppArmor, setuid binaries
    PROTEGO = "protego"  # the paper's prototype


#: Provisioning-time hash memo: building a fleet of shards re-provisions
#: the same default accounts per shard, and each crypt(3)-style hash
#: costs 1000 digest rounds. Distinct passwords are hashed once per
#: process; every later shard reuses the salted result. Runtime
#: rotations (passwd/gpasswd) still mint fresh salts — only the System
#: constructor goes through this.
_PROVISION_HASH_MEMO: Dict[str, str] = {}


def _provision_hash(password: str) -> str:
    cached = _PROVISION_HASH_MEMO.get(password)
    if cached is None:
        cached = _PROVISION_HASH_MEMO[password] = hash_password(password)
    return cached


@dataclasses.dataclass
class UserSpec:
    """One account to provision."""

    name: str
    uid: int
    gid: int
    password: str
    groups: Tuple[str, ...] = ()
    shell: str = "/bin/bash"

    @property
    def home(self) -> str:
        return f"/home/{self.name}"


DEFAULT_USERS = (
    UserSpec("alice", 1000, 1000, "alice-password", groups=("printers",)),
    UserSpec("bob", 1001, 1001, "bob-password"),
    UserSpec("charlie", 1002, 1002, "charlie-password"),
    UserSpec("admin1", 1100, 1100, "admin1-password", groups=("admin",)),
    UserSpec("Debian-exim", 101, 101, "!", groups=("mail",),
             shell="/usr/sbin/nologin"),
    UserSpec("www-data", 33, 33, "!", shell="/usr/sbin/nologin"),
)

DEFAULT_FSTAB = """\
/dev/sda1  /           ext4     errors=remount-ro  0 1
/dev/cdrom /cdrom      iso9660  user,noauto,ro     0 0
/dev/usb0  /media/usb  vfat     users,noauto,rw    0 0
fileserver:/export  /mnt/nfs   nfs      user,noauto,ro     0 0
//nas/share         /mnt/cifs  cifs     users,noauto,rw    0 0
/home/alice/.Private /home/alice/Private ecryptfs user,noauto,rw 0 0
"""

DEFAULT_SUDOERS = """\
Defaults timestamp_timeout=5
root    ALL=(ALL) ALL
%admin  ALL=(ALL) ALL
alice   ALL=(bob) /usr/bin/lpr
bob     ALL=(alice) NOPASSWD: /usr/bin/lpr
"""

#: Protego's explication of su's policy as an extended sudoers rule
#: (section 4.3): anyone may become anyone, gated on the *target's*
#: password.
PROTEGO_SU_DROPIN = "ALL ALL=(ALL) TARGETPW: ALL\n"

DEFAULT_BIND_CONF = """\
25/tcp  /usr/sbin/exim4    Debian-exim
80/tcp  /usr/sbin/apache2  www-data
"""

DEFAULT_PPP_OPTIONS = """\
lock
mru 1500
user-routes
permit-device ttyS0 ttyS1
"""

DEFAULT_SHELLS = "/bin/sh\n/bin/bash\n"

DEFAULT_POLKIT_RULES = """\
# <action> <id> <auth> <command> [group=<name>]
action org.example.print-as-root  auth_self   /usr/bin/lpr
action org.example.maintenance    auth_admin  /bin/true
action org.example.forbidden      no          /bin/sh
"""

DEFAULT_DBUS_SERVICES = """\
# <service> <name> <user> <binary>
service org.example.WebHelper  www-data  /bin/true
"""

#: The program classes the System installs — the studied utilities.
PROGRAM_CLASSES = (
    MountProgram, UmountProgram, FusermountProgram, EjectProgram,
    PingProgram, ArpingProgram, TracerouteProgram, MtrProgram,
    SudoProgram, SudoeditProgram, SuProgram, NewgrpProgram,
    PasswdProgram, GpasswdProgram, ChshProgram, ChfnProgram, VipwProgram,
    PppdProgram, DmcryptGetDeviceProgram, SshKeysignProgram,
    EximProgram, SensibleMdaProgram, XServerProgram, LoginProgram,
    IptablesProgram, PkexecProgram, DbusLaunchHelperProgram,
    ChromiumSandboxProgram, FpingProgram, TcptracerouteProgram,
    LppasswdProgram, SshClientProgram, MountNfsProgram, MountCifsProgram,
    MountEcryptfsProgram, KpppProgram,
    TrueProgram, ShellProgram, WhoamiProgram, LprProgram, EditorProgram,
)


class System:
    """A provisioned machine in LINUX or PROTEGO mode."""

    def __init__(
        self,
        mode: SystemMode = SystemMode.PROTEGO,
        users: Tuple[UserSpec, ...] = DEFAULT_USERS,
        hostname: str = "",
        fstab: str = DEFAULT_FSTAB,
        sudoers: str = DEFAULT_SUDOERS,
        bind_conf: str = DEFAULT_BIND_CONF,
        ppp_options: str = DEFAULT_PPP_OPTIONS,
        start_daemon: bool = True,
        group_passwords: Optional[Dict[str, str]] = None,
        polkit_rules: str = DEFAULT_POLKIT_RULES,
        dbus_services: str = DEFAULT_DBUS_SERVICES,
        sudoers_dropins: Tuple[Tuple[str, str], ...] = (),
    ):
        self.mode = mode
        self.kernel = Kernel(hostname or f"{mode.value}-box")
        self.users = users
        self.userdb = UserDatabase(self.kernel)
        self.apparmor = AppArmorLSM()
        self.kernel.register_module(self.apparmor)
        self.protego: Optional[ProtegoLSM] = None
        self.auth_service: Optional[AuthenticationService] = None
        self.supervisor = None   # DaemonSupervisor, set in _enable_protego
        self.status_board = None  # PolicyStatusBoard, shared across restarts
        self.programs: Dict[str, Program] = {}
        self._ttys: Dict[str, TTY] = {}
        register_fault_proc_files(self.kernel)
        # Compiled profile DFAs and the counters registry exist in
        # both modes: AppArmor and the caches are part of the stock
        # baseline too.
        register_policy_proc_files(self.kernel)

        self._provision_accounts(group_passwords or {})
        self._provision_config(fstab, sudoers, bind_conf, ppp_options,
                               polkit_rules, dbus_services, sudoers_dropins)
        self._provision_devices()
        self._provision_network()
        self._install_programs()

        if mode is SystemMode.PROTEGO:
            self._enable_protego(start_daemon)

    # ==================================================================
    # Provisioning: the boot image
    # ==================================================================
    # The root filesystem comes up as an image: every node is laid with
    # its final mode, owner and bytes through Kernel.lay, which
    # invalidates the path like the namespace syscalls do. Nothing here
    # runs as a task, so booting leaves the clock and the audit ring
    # untouched; what models runtime (LSM and policy loads, the
    # daemon's sync) goes through the syscall layer.
    def _lay_file(self, path: str, payload: bytes, perm: int = 0o644,
                  uid: int = 0, gid: int = 0) -> None:
        self.kernel.lay(path, make_file(payload, uid=uid, gid=gid, perm=perm))

    def _lay_dir(self, path: str, perm: int = 0o755, uid: int = 0,
                 gid: int = 0) -> None:
        self.kernel.lay(path, make_dir(uid=uid, gid=gid, perm=perm))

    def _provision_accounts(self, group_passwords: Dict[str, str]) -> None:
        root_entry = PasswdEntry("root", 0, 0, "root", "/root", "/bin/bash")
        passwd = [root_entry]
        shadow = [ShadowEntry("root", _provision_hash("root-password"))]
        groups: Dict[str, GroupEntry] = {
            "root": GroupEntry("root", 0),
            "admin": GroupEntry("admin", 27),
            "staff": GroupEntry("staff", 50),
            "mail": GroupEntry("mail", 8),
            "printers": GroupEntry("printers", 60),
        }
        for name, password in group_passwords.items():
            if name not in groups:
                groups[name] = GroupEntry(name, 200 + len(groups))
            groups[name].password_hash = _provision_hash(password)
        for spec in self.users:
            passwd.append(PasswdEntry(spec.name, spec.uid, spec.gid,
                                      spec.name.title(), spec.home, spec.shell))
            hash_value = spec.password if spec.password == "!" else _provision_hash(spec.password)
            shadow.append(ShadowEntry(spec.name, hash_value))
            groups.setdefault(spec.name, GroupEntry(spec.name, spec.gid))
            for group_name in spec.groups:
                groups.setdefault(group_name, GroupEntry(group_name, 200 + len(groups)))
                groups[group_name].members.append(spec.name)
            home = spec.home
            if not self.kernel.vfs.exists(home):
                self._lay_dir(home, 0o700, spec.uid, spec.gid)
                for sub in (".Private", "Private"):
                    self._lay_dir(f"{home}/{sub}", 0o755, spec.uid, spec.gid)
        group_list = list(groups.values())
        self._lay_file(PASSWD_FILE, format_passwd(passwd).encode(), PASSWD_MODE)
        self._lay_file(SHADOW_FILE, format_shadow(shadow).encode(), SHADOW_MODE)
        self._lay_file(GROUP_FILE, format_group(group_list).encode(), GROUP_MODE)
        if self.mode is SystemMode.PROTEGO:
            # The fragmented credential databases (section 4.4).
            for directory in FRAGMENT_DIRS:
                self._lay_dir(directory)
            for path, uid, gid, mode, payload in fragment_layout(
                    passwd, shadow, group_list):
                self._lay_file(path, payload, mode, uid, gid)

    def _provision_config(self, fstab: str, sudoers: str, bind_conf: str,
                          ppp_options: str, polkit_rules: str,
                          dbus_services: str,
                          sudoers_dropins: Tuple[Tuple[str, str], ...]) -> None:
        protego = self.mode is SystemMode.PROTEGO
        self._lay_file("/etc/fstab", fstab.encode())
        self._lay_file("/etc/sudoers", sudoers.encode(), 0o440)
        self._lay_dir("/etc/sudoers.d")
        if protego:
            self._lay_file("/etc/sudoers.d/protego-su", PROTEGO_SU_DROPIN.encode())
        for name, payload in sudoers_dropins:
            self._lay_file(f"/etc/sudoers.d/{name}", payload.encode())
        self._lay_file("/etc/bind", bind_conf.encode())
        self._lay_dir("/etc/ppp")
        self._lay_file("/etc/ppp/options", ppp_options.encode())
        self._lay_file("/etc/shells", DEFAULT_SHELLS.encode())
        self._lay_dir("/etc/polkit-1")
        self._lay_file("/etc/polkit-1/rules", polkit_rules.encode())
        self._lay_dir("/etc/dbus-1")
        self._lay_file("/etc/dbus-1/system-services", dbus_services.encode())
        self._lay_dir("/etc/cups")
        self._lay_file(LppasswdProgram.LEGACY_DB, b"", 0o600)
        if protego:
            # CUPS printing passwords fragment like the account
            # databases (Table 4's credential-database row covers
            # lppasswd too).
            self._lay_dir(LppasswdProgram.FRAGMENT_DIR)
            for spec in self.users:
                self._lay_file(f"{LppasswdProgram.FRAGMENT_DIR}/{spec.name}",
                               b"", 0o600, spec.uid, spec.gid)
        self._lay_dir("/etc/ssh")
        # Protego relaxes the host key's DAC in favour of the binary
        # ACL that _enable_protego installs.
        self._lay_file(HOST_KEY_PATH, b"HOSTKEY-SECRET-MATERIAL",
                       0o644 if protego else 0o600)
        self._lay_dir("/var/run")
        self._lay_dir("/var/mail", 0o2775, gid=8)  # root:mail
        self._lay_dir("/var/log")
        self._lay_dir("/var/spool")
        self._lay_dir("/var/spool/lpd", 0o1777)

    def _provision_devices(self) -> None:
        registry = self.kernel.devices

        sda1 = registry.register(BlockDevice("sda1", fstype="ext4"))
        cdrom = registry.register(BlockDevice("cdrom", fstype="iso9660", removable=True))
        usb = registry.register(BlockDevice("usb0", fstype="vfat", removable=True))
        dm0 = registry.register(
            DmCryptDevice("dm-0", ["sda2", "sdb1"], key=b"DMCRYPT-PRIVATE-KEY")
        )
        modem = registry.register(Modem("ttyS0"))
        registry.register(Modem("ttyS1"))
        ppp = registry.register(PPPDevice())
        card = registry.register(VideoDevice("card0", kms=True))

        lay = self.kernel.lay
        lay("/dev/sda1", make_block_device(sda1, perm=0o660))
        lay("/dev/cdrom", make_block_device(cdrom, perm=0o660))
        lay("/dev/usb0", make_block_device(usb, perm=0o660))
        lay("/dev/dm-0", make_block_device(dm0, perm=0o660))
        lay("/dev/ttyS0", make_char_device(modem, perm=0o660))
        # The Protego change: permissive /dev/ppp file permissions
        # replace a capability check (section 4.1.2).
        ppp_perm = 0o666 if self.mode is SystemMode.PROTEGO else 0o600
        lay("/dev/ppp", make_char_device(ppp, perm=ppp_perm))
        lay("/dev/card0", make_char_device(card, perm=0o666))

        for mountpoint in ("/media/usb", "/mnt/nfs", "/mnt/cifs"):
            self._lay_dir(mountpoint)

    def _provision_network(self) -> None:
        self.kernel.net.add_interface("eth0", "192.168.1.10")
        self.kernel.net.routing.add(Route("192.168.1.0/24", "eth0"))
        self.kernel.net.routing.add(Route("0.0.0.0/0", "eth0", gateway="192.168.1.1"))
        self.kernel.net.add_remote_host(RemoteHost("8.8.8.8", hops=8))
        self.kernel.net.add_remote_host(RemoteHost("192.168.1.20", hops=1))

    def _install_programs(self) -> None:
        protego = self.mode is SystemMode.PROTEGO
        for cls in PROGRAM_CLASSES:
            program = cls(protego_mode=protego)
            install_program(self.kernel, program)
            self.programs[program.path] = program
        # Login shells (the default user shell is /bin/bash).
        bash = ShellProgram(protego_mode=protego)
        install_program(self.kernel, bash, path="/bin/bash")
        self.programs[bash.path] = bash

    def _enable_protego(self, start_daemon: bool) -> None:
        # Imported here: the daemon package imports repro.core.authdb,
        # which would recurse through repro.core at module import time.
        from repro.daemon.monitor import MonitoringDaemon
        from repro.daemon.status import PolicyStatusBoard
        from repro.daemon.supervisor import DaemonSupervisor

        self.protego = ProtegoLSM().attach(self.kernel)
        register_protego_proc_files(self.kernel, self.protego)
        register_dmcrypt_sys_files(self.kernel)
        self.auth_service = AuthenticationService(self.userdb)
        self.protego.authenticator = self.auth_service
        # The image relaxed the host key's DAC; the binary ACL guards
        # it instead.
        self.protego.protect_binary(HOST_KEY_PATH, (SshKeysignProgram.default_path,))
        # The daemon runs under a supervisor: a crash (fault-injected
        # or otherwise) triggers a backed-off restart whose fresh
        # incarnation re-registers every watch and resyncs every
        # policy. The status board outlives restarts and backs
        # /proc/protego/status.
        self.status_board = PolicyStatusBoard()

        def daemon_factory(board) -> MonitoringDaemon:
            daemon = MonitoringDaemon(self.kernel, status_board=board)
            daemon.attach_route_policy(self.protego.route_policy)
            return daemon

        self.supervisor = DaemonSupervisor(self.kernel, daemon_factory,
                                           self.status_board)
        self.kernel.procfs.register(
            "protego/status",
            read_fn=lambda: self.status_board.render().encode(),
            mode=0o600,
        )
        if start_daemon:
            self.supervisor.start()

    @property
    def daemon(self):
        """The live MonitoringDaemon incarnation (None on LINUX mode,
        or while a crashed daemon awaits its restart backoff)."""
        return self.supervisor.daemon if self.supervisor is not None else None

    # ==================================================================
    # Session helpers
    # ==================================================================
    def tty(self, name: str) -> TTY:
        if name not in self._ttys:
            self._ttys[name] = TTY(name)
        return self._ttys[name]

    def login(self, username: str, password: str) -> Task:
        """Full login ceremony through /bin/login on a fresh tty."""
        tty = self.tty(f"tty-{username}-{self.kernel.now()}")
        session = self.kernel.new_task(Credentials.for_root(), comm="getty", tty=tty)
        tty.feed(password)
        status = self.kernel.sys_execve(session, "/bin/login", ["login", username])
        if status != 0:
            raise PermissionError(f"login failed for {username}: {session.stdout}")
        return session

    def spawn_session(self, username: str, password: Optional[str] = None):
        """The public session entry point: the full login ceremony,
        wrapped in a :class:`~repro.core.session.Session` facade.

        *password* defaults to the account's provisioned password.
        Raises :class:`PermissionError` when authentication fails,
        exactly as :meth:`login` does.
        """
        from repro.core.session import Session
        if password is None:
            password = self.password_of(username)
        task = self.login(username, password)
        return Session(self, task, username, password)

    def session_for(self, username: str) -> Task:
        """A shell task for *username* without the login ceremony
        (no authentication recency stamp)."""
        user = self.userdb.lookup_user(username)
        if user is None:
            raise KeyError(username)
        gids = self.userdb.gids_for(username)
        tty = self.tty(f"tty-{username}")
        task = self.kernel.user_task(user.uid, user.gid,
                                     [g for g in gids if g != user.gid],
                                     comm=f"{username}-shell", tty=tty)
        task.environ = {"HOME": user.home, "USER": username, "PATH": "/usr/bin:/bin"}
        task.cwd = user.home or "/"
        return task

    def root_session(self) -> Task:
        return self.kernel.new_task(Credentials.for_root(), comm="root-shell",
                                    tty=self.tty("console"))

    def run(self, task: Task, path: str, argv: Optional[List[str]] = None,
            feed: Optional[List[str]] = None) -> Tuple[int, List[str]]:
        """fork+exec *path* from *task*; returns (exit status, stdout).

        *feed* queues tty input lines (passwords) before the program
        runs.
        """
        for line in feed or []:
            if task.tty is not None:
                task.tty.feed(line)
        child, status = self.kernel.spawn(task, path, argv or [path])
        return status, child.stdout

    def password_of(self, username: str) -> str:
        for spec in self.users:
            if spec.name == username:
                return spec.password
        if username == "root":
            return "root-password"
        raise KeyError(username)

    def sync(self) -> None:
        """One monitoring-daemon wakeup (no-op on LINUX). Goes through
        the supervisor, so a crashed daemon gets its restart chance."""
        if self.supervisor is not None:
            self.supervisor.poll()
