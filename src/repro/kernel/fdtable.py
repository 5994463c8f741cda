"""Per-task file descriptor table.

Models the pieces of ``struct files_struct`` that the paper's policies
touch: open-file offsets, access-mode enforcement, the close-on-exec
flag (Protego marks shadow-file handles CLOEXEC so they cannot be
inherited, section 4.4), and fd inheritance across fork/exec.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.kernel import modes
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.inode import Inode


class OpenFile:
    """An open file description (``struct file``)."""

    __slots__ = ("inode", "flags", "path", "offset", "socket")

    def __init__(self, inode: Inode, flags: int, path: str):
        self.inode = inode
        self.flags = flags
        self.path = path
        self.offset = 0
        # Set by socket(2); a plain attribute (not a getattr probe) so
        # every close(2) pays one slot load instead of a keyed lookup.
        self.socket = None

    def readable(self) -> bool:
        return (self.flags & modes.O_ACCMODE) in (modes.O_RDONLY, modes.O_RDWR)

    def writable(self) -> bool:
        return (self.flags & modes.O_ACCMODE) in (modes.O_WRONLY, modes.O_RDWR)

    def cloexec(self) -> bool:
        return bool(self.flags & modes.O_CLOEXEC)


class FDTable:
    """Mapping of small integers to open files."""

    def __init__(self, max_fds: int = 1024):
        self._files: Dict[int, OpenFile] = {}
        self.max_fds = max_fds
        # Lowest possibly-free descriptor (``files_struct.next_fd``):
        # install starts its lowest-fd scan here instead of at zero.
        self._next_fd = 0

    def install(self, open_file: OpenFile) -> int:
        files = self._files
        fd = self._next_fd
        while fd in files:
            fd += 1
        if fd >= self.max_fds:
            raise SyscallError(Errno.EMFILE, "fd table full")
        files[fd] = open_file
        self._next_fd = fd + 1
        return fd

    def get(self, fd: int) -> OpenFile:
        try:
            return self._files[fd]
        except KeyError:
            raise SyscallError(Errno.EBADF, str(fd)) from None

    def close(self, fd: int) -> None:
        if fd not in self._files:
            raise SyscallError(Errno.EBADF, str(fd))
        del self._files[fd]
        if fd < self._next_fd:
            self._next_fd = fd

    def close_all(self) -> None:
        self._files.clear()
        self._next_fd = 0

    def copy_for_fork(self) -> "FDTable":
        """fork(2) shares open file descriptions with the child."""
        table = FDTable(self.max_fds)
        table._files = dict(self._files)
        table._next_fd = self._next_fd
        return table

    def drop_cloexec(self) -> None:
        """Applied on exec(2): close every O_CLOEXEC descriptor."""
        self._files = {fd: f for fd, f in self._files.items() if not f.cloexec()}
        self._next_fd = 0

    def find_path(self, path: str) -> Optional[int]:
        for fd, open_file in self._files.items():
            if open_file.path == path:
                return fd
        return None

    def __len__(self) -> int:
        return len(self._files)
