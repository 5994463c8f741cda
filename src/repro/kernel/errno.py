"""Errno values and the syscall error type used across the simulator.

The simulated syscall layer signals failure by raising
:class:`SyscallError`, carrying the same errno values a real Linux
kernel would return. Code that drives the simulator (userspace program
objects, tests, benchmarks) can either catch the exception or use the
``errno`` attribute to branch exactly as C code branches on ``-errno``.
"""

from __future__ import annotations

import enum


class Errno(enum.IntEnum):
    """The subset of Linux errno values the simulator uses."""

    EPERM = 1
    ENOENT = 2
    ESRCH = 3
    EINTR = 4
    EIO = 5
    ENXIO = 6
    EBADF = 9
    ECHILD = 10
    EAGAIN = 11
    ENOMEM = 12
    EACCES = 13
    EFAULT = 14
    ENOTBLK = 15
    EBUSY = 16
    EEXIST = 17
    EXDEV = 18
    ENODEV = 19
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    ENFILE = 23
    EMFILE = 24
    ENOTTY = 25
    ETXTBSY = 26
    EFBIG = 27
    ENOSPC = 28
    ESPIPE = 29
    EROFS = 30
    EMLINK = 31
    EPIPE = 32
    ERANGE = 34
    ENAMETOOLONG = 36
    ENOSYS = 38
    ENOTEMPTY = 39
    ELOOP = 40
    EADDRINUSE = 98
    EADDRNOTAVAIL = 99
    ENETUNREACH = 101
    ECONNRESET = 104
    ENOBUFS = 105
    EISCONN = 106
    ENOTCONN = 107
    ETIMEDOUT = 110
    ECONNREFUSED = 111
    EHOSTUNREACH = 113
    EALREADY = 114
    EINPROGRESS = 115


class SyscallError(OSError):
    """Raised by the simulated syscall layer on failure.

    Mirrors the kernel convention of returning ``-errno``: the
    exception carries an :class:`Errno`, an optional human-readable
    context string, and behaves as an :class:`OSError` so generic
    error-handling code works unchanged.
    """

    def __init__(self, errno_value: Errno, context: str = ""):
        if errno_value.__class__ is not Errno:
            errno_value = Errno(errno_value)
        self.errno_value = errno_value
        self.context = context
        message = self.errno_value.name
        if context:
            message = f"{message}: {context}"
        super().__init__(int(errno_value), message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyscallError({self.errno_value.name}, {self.context!r})"
