"""File mode bits, open flags, and mount flags.

The numeric values match Linux so that tests and examples can be
written with familiar octal constants (e.g. a setuid root binary is
``0o104755``).
"""

from __future__ import annotations

# ---- inode type bits (stat.st_mode & S_IFMT) -------------------------
S_IFMT = 0o170000
S_IFSOCK = 0o140000
S_IFLNK = 0o120000
S_IFREG = 0o100000
S_IFBLK = 0o060000
S_IFDIR = 0o040000
S_IFCHR = 0o020000
S_IFIFO = 0o010000

# ---- permission / special bits ---------------------------------------
S_ISUID = 0o4000
S_ISGID = 0o2000
S_ISVTX = 0o1000

S_IRUSR = 0o400
S_IWUSR = 0o200
S_IXUSR = 0o100
S_IRGRP = 0o040
S_IWGRP = 0o020
S_IXGRP = 0o010
S_IROTH = 0o004
S_IWOTH = 0o002
S_IXOTH = 0o001

PERM_MASK = 0o7777

# ---- open(2) flags ----------------------------------------------------
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_ACCMODE = 0o3
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_DIRECTORY = 0o200000
O_CLOEXEC = 0o2000000

# ---- access(2) masks ---------------------------------------------------
R_OK = 4
W_OK = 2
X_OK = 1
F_OK = 0

# ---- mount(2) flags ----------------------------------------------------
MS_RDONLY = 1
MS_NOSUID = 2
MS_NODEV = 4
MS_NOEXEC = 8
MS_REMOUNT = 32
MS_BIND = 4096


def is_dir(mode: int) -> bool:
    return (mode & S_IFMT) == S_IFDIR


def is_reg(mode: int) -> bool:
    return (mode & S_IFMT) == S_IFREG


def is_lnk(mode: int) -> bool:
    return (mode & S_IFMT) == S_IFLNK


def is_setuid(mode: int) -> bool:
    return bool(mode & S_ISUID)


def is_setgid(mode: int) -> bool:
    return bool(mode & S_ISGID)


def format_mode(mode: int) -> str:
    """Render a mode like ``ls -l`` does (e.g. ``-rwsr-xr-x``)."""
    kind = {
        S_IFSOCK: "s", S_IFLNK: "l", S_IFREG: "-", S_IFBLK: "b",
        S_IFDIR: "d", S_IFCHR: "c", S_IFIFO: "p",
    }.get(mode & S_IFMT, "?")
    bits = []
    for shift, (setid_bit, setid_char) in (
        (6, (S_ISUID, "s")),
        (3, (S_ISGID, "s")),
        (0, (S_ISVTX, "t")),
    ):
        triple = (mode >> shift) & 0o7
        bits.append("r" if triple & 4 else "-")
        bits.append("w" if triple & 2 else "-")
        if mode & setid_bit:
            bits.append(setid_char if triple & 1 else setid_char.upper())
        else:
            bits.append("x" if triple & 1 else "-")
    return kind + "".join(bits)
