"""Namespaces (paper sections 4.6 and 6, Table 8).

Linux gradually added sandboxing namespaces from 2.6.23; until 3.8
the security implications were not well understood and sandbox
helpers such as chromium-sandbox had to be setuid root. From 3.8,
unprivileged users may create user namespaces and, inside them,
mount/network/pid namespaces.

The paper's section 6 argument, which these models reproduce
faithfully: namespaces isolate — *inside* a sandbox a process can
appear to hold any capability — but externally visible operations are
still subject to the original user's privilege. They are therefore
the wrong tool for least privilege on *shared* system abstractions:

* a mount inside a mount namespace never changes the host tree;
* a raw socket inside a network namespace sends ICMP only within the
  fake network — reaching the outside world still needs an agent with
  CAP_NET_RAW outside the sandbox;
* "root" in a user namespace has no authority over host-owned objects
  (it cannot update /etc/passwd).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Optional

from repro.kernel.errno import Errno, SyscallError
from repro.kernel.vfs import Filesystem, normalize

_ns_ids = itertools.count(1)


class Namespace:
    """Base namespace object."""

    kind = "none"

    def __init__(self):
        self.ns_id = next(_ns_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.ns_id})"


class UserNamespace(Namespace):
    """A user namespace: the creator maps to uid 0 *inside*.

    ``owner_uid`` is the real (init-namespace) uid that created it —
    the privilege every externally visible operation is still subject
    to.
    """

    kind = "user"

    def __init__(self, owner_uid: int, uid_map: Optional[Dict[int, int]] = None):
        super().__init__()
        self.owner_uid = owner_uid
        # inside-uid -> outside-uid; the conventional single mapping
        # is {0: owner_uid}.
        self.uid_map = dict(uid_map or {0: owner_uid})

    def inside_is_root(self, inside_uid: int = 0) -> bool:
        return inside_uid in self.uid_map


class MountNamespace(Namespace):
    """A private mount table; mounts here never touch the host VFS."""

    kind = "mount"

    def __init__(self):
        super().__init__()
        self.mounts: Dict[str, Filesystem] = {}

    def attach(self, mountpoint: str, fs: Filesystem) -> None:
        mountpoint = normalize(mountpoint)
        if mountpoint in self.mounts:
            raise SyscallError(Errno.EBUSY, mountpoint)
        self.mounts[mountpoint] = fs

    def detach(self, mountpoint: str) -> Filesystem:
        mountpoint = normalize(mountpoint)
        try:
            return self.mounts.pop(mountpoint)
        except KeyError:
            raise SyscallError(Errno.EINVAL, mountpoint) from None

    def resolve(self, path: str):
        """Resolve within the private mounts only; returns the inode
        or None when the path is not under a private mount."""
        path = normalize(path)
        best = None
        for mountpoint, fs in self.mounts.items():
            if path == mountpoint or path.startswith(mountpoint.rstrip("/") + "/"):
                if best is None or len(mountpoint) > len(best[0]):
                    best = (mountpoint, fs)
        if best is None:
            return None
        mountpoint, fs = best
        remainder = path[len(mountpoint):].strip("/")
        inode = fs.root
        for part in remainder.split("/") if remainder else []:
            inode = inode.lookup(part)
        return inode


class NetNamespace(Namespace):
    """A private network stack with a fake interface and no routes to
    the outside world."""

    kind = "net"

    def __init__(self):
        super().__init__()
        from repro.kernel.net.stack import NetworkStack
        from repro.kernel.net.routing import Route
        self.stack = NetworkStack()
        self.stack.add_interface("veth0", "10.200.0.2")
        self.stack.routing.add(Route("10.200.0.0/24", "veth0"))


class PidNamespace(Namespace):
    """A private pid numbering; the sandboxed task sees itself as 1."""

    kind = "pid"

    def __init__(self):
        super().__init__()
        self._pids = itertools.count(1)
        self.mapping: Dict[int, int] = {}  # real pid -> ns pid

    def enroll(self, real_pid: int) -> int:
        ns_pid = next(self._pids)
        self.mapping[real_pid] = ns_pid
        return ns_pid

    def ns_pid(self, real_pid: int) -> Optional[int]:
        return self.mapping.get(real_pid)


NAMESPACE_KINDS = ("user", "mount", "net", "pid")


@dataclasses.dataclass(frozen=True)
class KernelVersion:
    """Just enough versioning for the namespace policy timeline."""

    major: int
    minor: int

    def supports_unprivileged_userns(self) -> bool:
        """Linux >= 3.8 (paper section 4.6)."""
        return (self.major, self.minor) >= (3, 8)

    def supports_namespaces(self) -> bool:
        """Linux >= 2.6.23 introduced the first namespaces."""
        return (self.major, self.minor) >= (2, 6)

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}"
