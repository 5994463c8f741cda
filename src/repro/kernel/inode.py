"""Inodes and directory entries for the simulated VFS.

An :class:`Inode` carries the ownership and mode bits that
discretionary access control and the setuid mechanism consult. Regular
files hold bytes; directories hold a name -> inode mapping; special
files (block/char devices, /proc entries) delegate reads and writes to
callbacks so pseudo-filesystems can be expressed naturally.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from repro.kernel import modes
from repro.kernel.errno import Errno, SyscallError

_ino_counter = itertools.count(2)


class Inode:
    """One filesystem object.

    Attributes mirror ``struct inode``: ``mode`` includes both the
    file-type bits and the permission bits (including setuid/setgid),
    ``uid``/``gid`` own the object, and ``data`` holds file contents.
    """

    def __init__(
        self,
        mode: int,
        uid: int = 0,
        gid: int = 0,
        data: bytes = b"",
        symlink_target: str = "",
        device: object = None,
        read_fn: Optional[Callable[[], bytes]] = None,
        write_fn: Optional[Callable[[bytes], None]] = None,
    ):
        self.ino = next(_ino_counter)
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = 1
        self.data = bytearray(data)
        self.symlink_target = symlink_target
        self.device = device
        self.read_fn = read_fn
        self.write_fn = write_fn
        self.entries: Dict[str, "Inode"] = {} if modes.is_dir(mode) else None
        # mtime is a logical clock bumped by the kernel on writes and
        # attribute changes. (The daemon's watcher compares content
        # hashes, not mtimes.)
        self.mtime = 0
        # File capabilities (the setcap mechanism, paper section 3.1):
        # granted to the process at exec instead of full setuid-root.
        # None = no file caps.
        self.file_caps = None
        # DAC generation: bumped whenever mode/uid/gid change (chmod,
        # chown), orphaning every dentry-cache permission entry keyed
        # on the old value.
        self.generation = 0

    # ---- type predicates -------------------------------------------------
    def is_dir(self) -> bool:
        return modes.is_dir(self.mode)

    def is_regular(self) -> bool:
        return modes.is_reg(self.mode)

    def is_symlink(self) -> bool:
        return modes.is_lnk(self.mode)

    def is_setuid(self) -> bool:
        return modes.is_setuid(self.mode)

    def is_setgid(self) -> bool:
        return modes.is_setgid(self.mode)

    # ---- directory operations --------------------------------------------
    def lookup(self, name: str) -> "Inode":
        if not self.is_dir():
            raise SyscallError(Errno.ENOTDIR, name)
        try:
            return self.entries[name]
        except KeyError:
            raise SyscallError(Errno.ENOENT, name) from None

    def link(self, name: str, inode: "Inode") -> None:
        if not self.is_dir():
            raise SyscallError(Errno.ENOTDIR, name)
        if name in self.entries:
            raise SyscallError(Errno.EEXIST, name)
        self.entries[name] = inode
        inode.nlink += 1

    def unlink(self, name: str) -> "Inode":
        if not self.is_dir():
            raise SyscallError(Errno.ENOTDIR, name)
        try:
            inode = self.entries.pop(name)
        except KeyError:
            raise SyscallError(Errno.ENOENT, name) from None
        inode.nlink -= 1
        return inode

    # ---- data operations ---------------------------------------------------
    def read_bytes(self) -> bytes:
        if self.read_fn is not None:
            return self.read_fn()
        return bytes(self.data)

    def write_bytes(self, payload: bytes, append: bool = False) -> None:
        if self.write_fn is not None:
            self.write_fn(bytes(payload))
            return
        if append:
            self.data.extend(payload)
        else:
            self.data[:] = payload
        self.mtime += 1

    def size(self) -> int:
        if self.read_fn is not None:
            return len(self.read_fn())
        return len(self.data)

    def __repr__(self) -> str:
        return f"Inode(ino={self.ino}, mode={modes.format_mode(self.mode)}, uid={self.uid})"


def make_dir(uid: int = 0, gid: int = 0, perm: int = 0o755) -> Inode:
    return Inode(modes.S_IFDIR | perm, uid=uid, gid=gid)


def make_file(data: bytes = b"", uid: int = 0, gid: int = 0, perm: int = 0o644) -> Inode:
    return Inode(modes.S_IFREG | perm, uid=uid, gid=gid, data=data)


def make_symlink(target: str, uid: int = 0, gid: int = 0) -> Inode:
    return Inode(modes.S_IFLNK | 0o777, uid=uid, gid=gid, symlink_target=target)


def make_block_device(device: object, uid: int = 0, gid: int = 0, perm: int = 0o660) -> Inode:
    return Inode(modes.S_IFBLK | perm, uid=uid, gid=gid, device=device)


def make_char_device(device: object, uid: int = 0, gid: int = 0, perm: int = 0o660) -> Inode:
    return Inode(modes.S_IFCHR | perm, uid=uid, gid=gid, device=device)
