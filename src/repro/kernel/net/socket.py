"""Socket object model.

Models the four socket flavours the paper's policies distinguish:
stream (TCP), datagram (UDP), raw (user-built IP headers, normally
gated by CAP_NET_RAW), and packet (user-built MAC headers).
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional

from repro.kernel.errno import Errno, SyscallError
from repro.kernel.net.packets import Packet

_socket_ids = itertools.count(1)

PRIVILEGED_PORT_MAX = 1024


class AddressFamily(str, enum.Enum):
    AF_INET = "inet"
    AF_PACKET = "packet"
    AF_UNIX = "unix"


class SocketType(str, enum.Enum):
    STREAM = "stream"
    DGRAM = "dgram"
    RAW = "raw"
    PACKET = "packet"

    def requires_net_raw(self) -> bool:
        """Does stock Linux demand CAP_NET_RAW to create this type?"""
        return self in (SocketType.RAW, SocketType.PACKET)


class SocketState(str, enum.Enum):
    NEW = "new"
    BOUND = "bound"
    LISTENING = "listening"
    CONNECTED = "connected"
    CLOSED = "closed"


class Socket:
    """One socket, owned by the task that created it."""

    def __init__(
        self,
        family: AddressFamily,
        sock_type: SocketType,
        protocol: str,
        owner_uid: int,
        owner_pid: int,
        owner_exe: str = "",
        unprivileged_raw: bool = False,
    ):
        self.sock_id = next(_socket_ids)
        self.family = family
        self.sock_type = sock_type
        self.protocol = protocol
        self.owner_uid = owner_uid
        self.owner_pid = owner_pid
        self.owner_exe = owner_exe
        self.state = SocketState.NEW
        self.local_ip: str = "0.0.0.0"
        self.local_port: int = 0
        self.remote_ip: Optional[str] = None
        self.remote_port: Optional[int] = None
        self.recv_queue: List[Packet] = []
        self.backlog: List["Socket"] = []
        # Marked by the Protego LSM when the socket was created by a
        # task *without* CAP_NET_RAW: its traffic is subject to the
        # extra netfilter rules (paper, Table 4 row 1).
        self.unprivileged_raw = unprivileged_raw

    def enqueue(self, packet: Packet) -> None:
        if self.state is SocketState.CLOSED:
            return
        self.recv_queue.append(packet)

    def dequeue(self) -> Packet:
        if not self.recv_queue:
            raise SyscallError(Errno.EAGAIN, "recv queue empty")
        return self.recv_queue.pop(0)

    def has_data(self) -> bool:
        return bool(self.recv_queue)

    def close(self) -> None:
        self.state = SocketState.CLOSED
        self.recv_queue.clear()
        self.backlog.clear()

    def __repr__(self) -> str:
        return (
            f"Socket(id={self.sock_id}, {self.family.value}/{self.sock_type.value}, "
            f"port={self.local_port}, uid={self.owner_uid})"
        )
