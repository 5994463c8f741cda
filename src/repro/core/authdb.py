"""Credential databases: legacy whole-files and Protego fragments.

Paper section 4.4: Protego splits /etc/passwd into one file per user
under /etc/passwds/, each ``rw-------`` and owned by the user it
defines, with the parent directory root-owned ``rwxr-xr-x`` so users
cannot add accounts. /etc/shadow and /etc/group fragment the same way
(/etc/shadows/, /etc/groups/). The monitoring daemon keeps the legacy
files synchronized for backward compatibility.

The :class:`UserDatabase` is the single reader/writer used by the
kernel-side policies (name resolution), the utilities, and the
daemon. Reads and writes go through the simulated syscall layer, so
DAC and LSM policy apply to them like to everything else. Only the
boot image (:class:`repro.core.system.System`) lays the databases and
their :func:`fragment_layout` directly, as a disk image would hold them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config.passwd_db import (
    GroupEntry,
    PasswdEntry,
    ShadowEntry,
    format_group,
    format_passwd,
    format_shadow,
    parse_group,
    parse_passwd,
    parse_shadow,
)
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.kernel import Kernel
from repro.kernel.task import Task

PASSWD_FILE = "/etc/passwd"
SHADOW_FILE = "/etc/shadow"
GROUP_FILE = "/etc/group"
PASSWD_FRAGMENT_DIR = "/etc/passwds"
SHADOW_FRAGMENT_DIR = "/etc/shadows"
GROUP_FRAGMENT_DIR = "/etc/groups"
#: The fragment directories: root-owned 0755, so users cannot create
#: accounts.
FRAGMENT_DIRS = (PASSWD_FRAGMENT_DIR, SHADOW_FRAGMENT_DIR, GROUP_FRAGMENT_DIR)
#: Modes of the legacy whole-file databases (always root:root).
PASSWD_MODE = 0o644
SHADOW_MODE = 0o640
GROUP_MODE = 0o644


#: Parse results memoized on the exact file bytes. Resolution paths
#: (login, sudo, polkit) re-read the legacy databases on every lookup;
#: the bytes rarely change, but the entries they parse into are mutable
#: records that callers edit in place before writing back — so the memo
#: stores a private parsed tuple that is never handed out: the
#: ``*_entries`` readers return clones of every entry, and a lookup
#: scans the tuple and clones only the entry it returns.
#: Content-keyed, so it is safe to share across kernels in one process
#: (fleet shards): identical bytes parse identically everywhere.
_PARSE_MEMO: dict = {}
_PARSE_MEMO_MAX = 512


def fragment_layout(passwd: List[PasswdEntry], shadow: List[ShadowEntry],
                    groups: List[GroupEntry]) -> List[Tuple[str, int, int, int, bytes]]:
    """The Protego fragment files for one set of account databases:
    ``(path, uid, gid, mode, payload)`` per account and group.

    Layout per the paper: passwd and shadow fragments are owned by the
    account they define with mode 0600. A group fragment is 0644 and
    owned by the group's administrator (by convention the first
    member), so gpasswd-style membership edits become plain DAC
    writes; other groups stay root-owned. Pure, so the boot image and
    the daemon's runtime re-fragmentation lay out the same files.
    """
    uids: dict = {}
    for user in passwd:
        uids.setdefault(user.name, user.uid)
    shadow_by_name = {entry.name: entry for entry in shadow}
    layout = []
    for user in passwd:
        layout.append((f"{PASSWD_FRAGMENT_DIR}/{user.name}", user.uid,
                       user.gid, 0o600, format_passwd([user]).encode()))
        entry = shadow_by_name.get(user.name)
        if entry is not None:
            layout.append((f"{SHADOW_FRAGMENT_DIR}/{user.name}", user.uid,
                           user.gid, 0o600, format_shadow([entry]).encode()))
    for group in groups:
        admin_uid = uids.get(group.members[0], 0) if group.members else 0
        layout.append((f"{GROUP_FRAGMENT_DIR}/{group.name}", admin_uid,
                       group.gid, 0o644, format_group([group]).encode()))
    return layout


class UserDatabase:
    """Read/write access to the account databases of one machine."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    # ------------------------------------------------------------------
    # Legacy whole-file access (run as the kernel's init/root context)
    # ------------------------------------------------------------------
    def _root(self) -> Task:
        return self.kernel.init

    def _parsed(self, path: str, parser) -> tuple:
        """Read+parse a legacy database into the memo's shared tuple,
        which callers must not mutate or hand out. A missing file is an
        empty database; any other failure propagates — returning ``()``
        for a transient read error would let a caller mistake \"could
        not read\" for \"no accounts\" and rewrite the file
        accordingly."""
        try:
            data = self.kernel.read_file(self._root(), path)
        except SyscallError as exc:
            if exc.errno_value is Errno.ENOENT:
                return ()
            raise
        key = (parser, data)
        cached = _PARSE_MEMO.get(key)
        if cached is None:
            if len(_PARSE_MEMO) >= _PARSE_MEMO_MAX:
                _PARSE_MEMO.clear()
            cached = tuple(parser(data.decode()))
            _PARSE_MEMO[key] = cached
        return cached

    def passwd_entries(self) -> List[PasswdEntry]:
        return [entry.clone() for entry in self._parsed(PASSWD_FILE, parse_passwd)]

    def shadow_entries(self) -> List[ShadowEntry]:
        return [entry.clone() for entry in self._parsed(SHADOW_FILE, parse_shadow)]

    def group_entries(self) -> List[GroupEntry]:
        return [entry.clone() for entry in self._parsed(GROUP_FILE, parse_group)]

    def _replace(self, writer: Task, path: str, payload: bytes, mode: int) -> None:
        """Crash-safe whole-file replacement: write a sibling temp
        file, then rename over the target. A failure mid-write leaves
        the temp file torn and the real database untouched; readers
        never observe the truncate-then-write window."""
        tmp = f"{path}.tmp"
        self.kernel.write_file(writer, tmp, payload)
        root = self._root()
        self.kernel.sys_chmod(root, tmp, mode)
        # The databases stay root:root whoever rewrote them: a setuid
        # writer (legacy passwd) carries the invoker's egid, and
        # leaving that gid on /etc/shadow would grant the invoker's
        # whole group read access through the 0640 group bits.
        self.kernel.sys_chown(root, tmp, 0, 0)
        self.kernel.sys_rename(writer, tmp, path)

    def write_passwd(self, entries: List[PasswdEntry], task: Optional[Task] = None) -> None:
        """Rewrite the legacy file *as the given task* (DAC applies);
        the kernel's init context is used only for root-run edits such
        as the trusted daemon's."""
        writer = task or self._root()
        self._replace(writer, PASSWD_FILE, format_passwd(entries).encode(), PASSWD_MODE)

    def write_shadow(self, entries: List[ShadowEntry], task: Optional[Task] = None) -> None:
        writer = task or self._root()
        self._replace(writer, SHADOW_FILE, format_shadow(entries).encode(), SHADOW_MODE)

    def write_group(self, entries: List[GroupEntry], task: Optional[Task] = None) -> None:
        writer = task or self._root()
        self._replace(writer, GROUP_FILE, format_group(entries).encode(), GROUP_MODE)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def lookup_user(self, name: str) -> Optional[PasswdEntry]:
        for entry in self._parsed(PASSWD_FILE, parse_passwd):
            if entry.name == name:
                return entry.clone()
        return None

    def lookup_uid(self, uid: int) -> Optional[PasswdEntry]:
        for entry in self._parsed(PASSWD_FILE, parse_passwd):
            if entry.uid == uid:
                return entry.clone()
        return None

    def lookup_group(self, name: str) -> Optional[GroupEntry]:
        for entry in self._parsed(GROUP_FILE, parse_group):
            if entry.name == name:
                return entry.clone()
        return None

    def lookup_gid(self, gid: int) -> Optional[GroupEntry]:
        for entry in self._parsed(GROUP_FILE, parse_group):
            if entry.gid == gid:
                return entry.clone()
        return None

    def resolve_user(self, name: str) -> Optional[int]:
        entry = self.lookup_user(name)
        return entry.uid if entry else None

    def resolve_group(self, name: str) -> Optional[int]:
        entry = self.lookup_group(name)
        return entry.gid if entry else None

    def group_names_for(self, username: str) -> List[str]:
        names = []
        user = self.lookup_user(username)
        for group in self._parsed(GROUP_FILE, parse_group):
            if username in group.members or (user and group.gid == user.gid):
                names.append(group.name)
        return names

    def gids_for(self, username: str) -> List[int]:
        gids = []
        user = self.lookup_user(username)
        if user:
            gids.append(user.gid)
        for group in self._parsed(GROUP_FILE, parse_group):
            if username in group.members and group.gid not in gids:
                gids.append(group.gid)
        return gids

    def shadow_for(self, name: str) -> Optional[ShadowEntry]:
        for entry in self._parsed(SHADOW_FILE, parse_shadow):
            if entry.name == name:
                return entry.clone()
        return None

    # ------------------------------------------------------------------
    # Fragmentation (the Protego layout)
    # ------------------------------------------------------------------
    def fragment_databases(self) -> None:
        """Split the legacy files into per-account fragments (the
        daemon's re-fragmentation after a root edit of /etc/passwd),
        laid out by :func:`fragment_layout`. Each fragment is written
        as a temp file, given its owner and mode, then renamed into
        place, so no reader sees a half-written or wrongly-owned one."""
        root = self._root()
        for directory in FRAGMENT_DIRS:
            if not self.kernel.vfs.exists(directory):
                self.kernel.sys_mkdir(root, directory, 0o755)
        layout = fragment_layout(self.passwd_entries(), self.shadow_entries(),
                                 self.group_entries())
        for path, uid, gid, mode, payload in layout:
            tmp = f"{path}.tmp"
            self.kernel.write_file(root, tmp, payload)
            self.kernel.sys_chown(root, tmp, uid, gid)
            self.kernel.sys_chmod(root, tmp, mode)
            self.kernel.sys_rename(root, tmp, path)

    # ---- fragment access, on behalf of a task --------------------------
    def read_own_passwd_fragment(self, task: Task, username: str) -> PasswdEntry:
        data = self.kernel.read_file(task, f"{PASSWD_FRAGMENT_DIR}/{username}")
        return parse_passwd(data.decode())[0]

    def write_own_passwd_fragment(self, task: Task, entry: PasswdEntry) -> None:
        path = f"{PASSWD_FRAGMENT_DIR}/{entry.name}"
        self.kernel.write_file(task, path, format_passwd([entry]).encode())

    def fragment_usernames(self) -> List[str]:
        if not self.kernel.vfs.exists(PASSWD_FRAGMENT_DIR):
            return []
        return self.kernel.sys_readdir(self._root(), PASSWD_FRAGMENT_DIR)
