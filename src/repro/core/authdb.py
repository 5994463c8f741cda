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
DAC and LSM policy apply to them like to everything else.
"""

from __future__ import annotations

from typing import List, Optional

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


#: Parse results memoized on the exact file bytes. Resolution paths
#: (login, sudo, polkit) re-read the legacy databases on every lookup;
#: the bytes rarely change, but the entries they parse into are mutable
#: records that callers edit in place before writing back — so the memo
#: stores a private parsed tuple and every caller gets fresh clones.
#: Content-keyed, so it is safe to share across kernels in one process
#: (fleet shards): identical bytes parse identically everywhere.
_PARSE_MEMO: dict = {}
_PARSE_MEMO_MAX = 512


class UserDatabase:
    """Read/write access to the account databases of one machine."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    # ------------------------------------------------------------------
    # Legacy whole-file access (run as the kernel's init/root context)
    # ------------------------------------------------------------------
    def _root(self) -> Task:
        return self.kernel.init

    def _read_entries(self, path: str, parser):
        """Read+parse a legacy database. A missing file is an empty
        database; any other failure propagates — returning ``[]`` for
        a transient read error would let a caller mistake \"could not
        read\" for \"no accounts\" and rewrite the file accordingly."""
        try:
            data = self.kernel.read_file(self._root(), path)
        except SyscallError as exc:
            if exc.errno_value is Errno.ENOENT:
                return []
            raise
        key = (parser, data)
        cached = _PARSE_MEMO.get(key)
        if cached is None:
            if len(_PARSE_MEMO) >= _PARSE_MEMO_MAX:
                _PARSE_MEMO.clear()
            cached = tuple(parser(data.decode()))
            _PARSE_MEMO[key] = cached
        return [entry.clone() for entry in cached]

    def passwd_entries(self) -> List[PasswdEntry]:
        return self._read_entries(PASSWD_FILE, parse_passwd)

    def shadow_entries(self) -> List[ShadowEntry]:
        return self._read_entries(SHADOW_FILE, parse_shadow)

    def group_entries(self) -> List[GroupEntry]:
        return self._read_entries(GROUP_FILE, parse_group)

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
        the kernel's init context is used only for provisioning and
        the trusted daemon."""
        writer = task or self._root()
        self._replace(writer, PASSWD_FILE, format_passwd(entries).encode(), 0o644)

    def write_shadow(self, entries: List[ShadowEntry], task: Optional[Task] = None) -> None:
        writer = task or self._root()
        self._replace(writer, SHADOW_FILE, format_shadow(entries).encode(), 0o640)

    def write_group(self, entries: List[GroupEntry], task: Optional[Task] = None) -> None:
        writer = task or self._root()
        self._replace(writer, GROUP_FILE, format_group(entries).encode(), 0o644)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def lookup_user(self, name: str) -> Optional[PasswdEntry]:
        for entry in self.passwd_entries():
            if entry.name == name:
                return entry
        return None

    def lookup_uid(self, uid: int) -> Optional[PasswdEntry]:
        for entry in self.passwd_entries():
            if entry.uid == uid:
                return entry
        return None

    def lookup_group(self, name: str) -> Optional[GroupEntry]:
        for entry in self.group_entries():
            if entry.name == name:
                return entry
        return None

    def lookup_gid(self, gid: int) -> Optional[GroupEntry]:
        for entry in self.group_entries():
            if entry.gid == gid:
                return entry
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
        for group in self.group_entries():
            if username in group.members or (user and group.gid == user.gid):
                names.append(group.name)
        return names

    def gids_for(self, username: str) -> List[int]:
        gids = []
        user = self.lookup_user(username)
        if user:
            gids.append(user.gid)
        for group in self.group_entries():
            if username in group.members and group.gid not in gids:
                gids.append(group.gid)
        return gids

    def shadow_for(self, name: str) -> Optional[ShadowEntry]:
        for entry in self.shadow_entries():
            if entry.name == name:
                return entry
        return None

    # ------------------------------------------------------------------
    # Fragmentation (the Protego layout)
    # ------------------------------------------------------------------
    def fragment_databases(self) -> None:
        """Split the legacy files into per-account fragments.

        Layout per the paper: fragment files are owned by the account
        they define with mode 0600; the directories are root-owned
        0755 so users cannot create accounts.
        """
        root = self._root()
        for directory in (PASSWD_FRAGMENT_DIR, SHADOW_FRAGMENT_DIR, GROUP_FRAGMENT_DIR):
            if not self.kernel.vfs.exists(directory):
                self.kernel.sys_mkdir(root, directory, 0o755)
        shadow_by_name = {entry.name: entry for entry in self.shadow_entries()}
        for user in self.passwd_entries():
            self._write_fragment(
                f"{PASSWD_FRAGMENT_DIR}/{user.name}",
                format_passwd([user]).encode(), user.uid, user.gid,
            )
            shadow = shadow_by_name.get(user.name)
            if shadow is not None:
                self._write_fragment(
                    f"{SHADOW_FRAGMENT_DIR}/{user.name}",
                    format_shadow([shadow]).encode(), user.uid, user.gid,
                )
        for group in self.group_entries():
            # The group fragment is owned by the group's administrator
            # (by convention the first member), so gpasswd-style
            # membership edits become plain DAC writes; other groups
            # stay root-owned.
            admin_uid = 0
            if group.members:
                admin = self.lookup_user(group.members[0])
                if admin is not None:
                    admin_uid = admin.uid
            self._write_fragment(
                f"{GROUP_FRAGMENT_DIR}/{group.name}",
                format_group([group]).encode(), admin_uid, group.gid, mode=0o644,
            )

    def _write_fragment(self, path: str, payload: bytes, uid: int, gid: int,
                        mode: int = 0o600) -> None:
        root = self._root()
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
