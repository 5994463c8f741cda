"""The network stack: interfaces, port table, the packet send path.

Delivery model: deterministic, synchronous. An outgoing packet
traverses the OUTPUT netfilter chain and, when no OUTPUT rule matched,
Protego's PROTEGO_RAW chain (one flow-cache probe judges both), then
the routing table; if it is addressed to a local interface it is
delivered to the bound socket (or answered by the stack itself for
ICMP echo); if it matches a registered remote host, that host's
responder runs. This keeps every policy decision the paper cares about
on-path while avoiding real I/O.
"""

from __future__ import annotations

import dataclasses
import collections
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fault import (
    SITE_NET_DROP,
    SITE_NET_DUP,
    SITE_NET_REORDER,
    FaultSite,
)
from repro.kernel.net.netfilter import Chain, NetfilterTable
from repro.kernel.net.packets import ICMPType, Packet, Protocol
from repro.kernel.net.routing import RoutingTable
from repro.kernel.net.socket import Socket, SocketState


@dataclasses.dataclass
class NetworkInterface:
    name: str
    ip: str
    # Read when the stack adds or removes an interface: its
    # local-address set is rebuilt then, not on every packet.
    up: bool = True
    # Simulated per-hop cost used by the latency-shaped benchmarks.
    wire_cost: int = 0


class RemoteHost:
    """A host on the other side of the (simulated) wire.

    ``responder`` receives the arriving packet and returns reply
    packets. The default responder answers ICMP echo and refuses TCP.
    """

    def __init__(self, ip: str, responder: Optional[Callable[[Packet], List[Packet]]] = None,
                 hops: int = 5):
        self.ip = ip
        self.hops = hops
        self.responder = responder or self._default_responder
        # Bounded: diagnostics only; benchmarks send millions.
        self.received: Deque[Packet] = collections.deque(maxlen=1024)

    def _default_responder(self, packet: Packet) -> List[Packet]:
        if packet.protocol is Protocol.ICMP and packet.icmp_type is ICMPType.ECHO_REQUEST:
            reply = packet.reply_template()
            reply.icmp_type = ICMPType.ECHO_REPLY
            reply.payload = packet.payload
            return [reply]
        if packet.protocol is Protocol.TCP:
            # A SYN to an open port: answer (SYN-ACK stand-in) — what
            # tcptraceroute's final hop looks like.
            return [packet.reply_template()]
        return []

    def deliver(self, packet: Packet) -> List[Packet]:
        self.received.append(packet)
        if packet.ttl <= self.hops:
            # TTL expired in transit: the expiring hop emits an ICMP
            # TIME_EXCEEDED regardless of the probe's protocol — which
            # is why both traceroute flavours work.
            exceeded = packet.reply_template()
            exceeded.protocol = Protocol.ICMP
            exceeded.icmp_type = ICMPType.TIME_EXCEEDED
            exceeded.src_ip = f"10.254.0.{packet.ttl}"
            return [exceeded]
        return self.responder(packet)


class NetworkStack:
    """All networking state for one simulated machine."""

    def __init__(self):
        self.interfaces: Dict[str, NetworkInterface] = {
            "lo": NetworkInterface("lo", "127.0.0.1"),
        }
        self._local_addrs = frozenset(self.local_ips())
        self.routing = RoutingTable()
        self.netfilter = NetfilterTable()
        self.ports: Dict[Tuple[str, int], Socket] = {}
        self.raw_listeners: List[Socket] = []
        self.remote_hosts: Dict[str, RemoteHost] = {}
        # Bounded diagnostic rings; counters in netfilter.stats are
        # the authoritative tallies.
        self.sent_log: Deque[Packet] = collections.deque(maxlen=1024)
        self.dropped_log: Deque[Packet] = collections.deque(maxlen=1024)
        # Simulated wire faults (rebound to the kernel's injector at
        # boot): drop is silent loss, dup delivers twice, reorder
        # defers a packet behind the next transmission. All model
        # conditions a correct client must tolerate — never a policy
        # bypass, since they act after the netfilter verdict.
        self.fault_drop = FaultSite(SITE_NET_DROP)
        self.fault_dup = FaultSite(SITE_NET_DUP)
        self.fault_reorder = FaultSite(SITE_NET_REORDER)
        self._deferred: Deque[Tuple[Packet, Optional[Socket]]] = collections.deque()
        self._flushing = False

    def bind_faults(self, drop: FaultSite, dup: FaultSite,
                    reorder: FaultSite) -> None:
        """Adopt the kernel's shared fault sites (boot-time wiring)."""
        self.fault_drop = drop
        self.fault_dup = dup
        self.fault_reorder = reorder

    # ------------------------------------------------------------------
    # Interfaces & peers
    # ------------------------------------------------------------------
    def add_interface(self, name: str, ip: str, wire_cost: int = 0) -> NetworkInterface:
        iface = NetworkInterface(name, ip, wire_cost=wire_cost)
        self.interfaces[name] = iface
        self._local_addrs = frozenset(self.local_ips())
        return iface

    def remove_interface(self, name: str) -> None:
        self.interfaces.pop(name, None)
        self._local_addrs = frozenset(self.local_ips())
        self.routing.remove_by_device(name)

    def local_ips(self) -> List[str]:
        return [iface.ip for iface in self.interfaces.values() if iface.up]

    def add_remote_host(self, host: RemoteHost) -> RemoteHost:
        self.remote_hosts[host.ip] = host
        return host

    # ------------------------------------------------------------------
    # Port table
    # ------------------------------------------------------------------
    def bind_socket(self, socket: Socket, ip: str, port: int) -> None:
        key = (socket.protocol, port)
        if port != 0 and key in self.ports:
            raise SyscallError(Errno.EADDRINUSE, f"{socket.protocol}:{port}")
        if port == 0:
            port = self._ephemeral_port(socket.protocol)
            key = (socket.protocol, port)
        socket.local_ip = ip
        socket.local_port = port
        socket.state = SocketState.BOUND
        self.ports[key] = socket

    def release_socket(self, socket: Socket) -> None:
        key = (socket.protocol, socket.local_port)
        if self.ports.get(key) is socket:
            del self.ports[key]
        if socket in self.raw_listeners:
            self.raw_listeners.remove(socket)

    def _ephemeral_port(self, protocol: str) -> int:
        for port in range(32768, 61000):
            if (protocol, port) not in self.ports:
                return port
        raise SyscallError(Errno.EADDRINUSE, "ephemeral ports exhausted")

    def register_raw_listener(self, socket: Socket) -> None:
        self.raw_listeners.append(socket)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, packet: Packet, socket: Optional[Socket] = None) -> List[Packet]:
        """Transmit *packet*; returns any replies delivered back.

        Raises EPERM when the OUTPUT chain drops the packet, or when
        no administrator OUTPUT rule claimed it and Protego's
        unprivileged-raw defaults (PROTEGO_RAW) drop it (this is how a
        compromised, deprivileged ping observes Protego's policy), and
        ENETUNREACH when no route exists.
        """
        dropped_by = self.netfilter.output_verdict(packet, socket)
        if dropped_by is not None:
            self.dropped_log.append(packet)
            if dropped_by is Chain.OUTPUT:
                raise SyscallError(Errno.EPERM, "netfilter OUTPUT drop")
            raise SyscallError(Errno.EPERM, "netfilter PROTEGO_RAW drop")

        # Injected wire faults run strictly after the policy verdict:
        # they can lose or repeat traffic, never smuggle it past the
        # filter. Loss is silent (the caller sees a send that drew no
        # reply, exactly like real packet loss).
        if self.fault_drop.armed and self.fault_drop.should_fail():
            self.dropped_log.append(packet)
            return []
        if (self.fault_reorder.armed and not self._flushing
                and self.fault_reorder.should_fail()):
            # Defer this packet behind the next transmission.
            self._deferred.append((packet, socket))
            return []
        replies = self._transmit(packet)
        if self.fault_dup.armed and self.fault_dup.should_fail():
            replies = replies + self._transmit(packet)
        if self._deferred and not self._flushing:
            self._flushing = True
            try:
                while self._deferred:
                    late_packet, _ = self._deferred.popleft()
                    replies = replies + self._transmit(late_packet)
            finally:
                self._flushing = False
        return replies

    def flush_deferred(self) -> List[Packet]:
        """Deliver any packets a reorder fault is still holding (a
        sweep calls this after disarming, so no traffic is stranded)."""
        delivered: List[Packet] = []
        self._flushing = True
        try:
            while self._deferred:
                late_packet, _ = self._deferred.popleft()
                delivered.extend(self._transmit(late_packet))
        finally:
            self._flushing = False
        return delivered

    def _transmit(self, packet: Packet) -> List[Packet]:
        """The post-filter delivery path: route and deliver."""
        self.sent_log.append(packet)

        if packet.dst_ip in self._local_addrs:
            return self._deliver_local(packet)

        route = self.routing.lookup(packet.dst_ip)
        if route is None:
            raise SyscallError(Errno.ENETUNREACH, packet.dst_ip)
        host = self.remote_hosts.get(packet.dst_ip)
        if host is None:
            return []
        replies = host.deliver(packet)
        delivered: List[Packet] = []
        for reply in replies:
            delivered.extend(self._deliver_local(reply))
            delivered.append(reply)
        return delivered

    def _deliver_local(self, packet: Packet) -> List[Packet]:
        delivered: List[Packet] = []
        protocol = packet.protocol
        port_key = ("udp" if protocol is Protocol.UDP
                    else "tcp" if protocol is Protocol.TCP else None)
        if port_key is not None:
            target = self.ports.get((port_key, packet.dst_port))
            if target is not None:
                target.enqueue(packet)
                delivered.append(packet)
        # Raw listeners see every matching-protocol packet (how ping
        # receives its echo replies).
        for listener in self.raw_listeners:
            if listener.protocol in (packet.protocol.value, "all"):
                listener.enqueue(packet)
                delivered.append(packet)
        # The stack itself answers echo requests addressed to us.
        if (
            packet.protocol is Protocol.ICMP
            and packet.icmp_type is ICMPType.ECHO_REQUEST
            and packet.dst_ip in self._local_addrs
        ):
            reply = packet.reply_template()
            reply.icmp_type = ICMPType.ECHO_REPLY
            reply.payload = packet.payload
            for listener in self.raw_listeners:
                if listener.protocol in ("icmp", "all"):
                    listener.enqueue(reply)
                    delivered.append(reply)
        return delivered

    # ------------------------------------------------------------------
    # TCP-ish connect for the web/mail workloads
    # ------------------------------------------------------------------
    def connect(self, client: Socket, dst_ip: str, dst_port: int) -> Socket:
        """Synchronous three-way-handshake stand-in.

        Returns the accepted server-side socket when the destination
        is local and listening; raises ECONNREFUSED otherwise.
        """
        if dst_ip in self._local_addrs:
            server = self.ports.get((client.protocol, dst_port))
            if server is None or server.state is not SocketState.LISTENING:
                raise SyscallError(Errno.ECONNREFUSED, f"{dst_ip}:{dst_port}")
            accepted = Socket(
                server.family, server.sock_type, server.protocol,
                server.owner_uid, server.owner_pid, server.owner_exe,
            )
            accepted.state = SocketState.CONNECTED
            accepted.local_ip, accepted.local_port = dst_ip, dst_port
            accepted.remote_ip, accepted.remote_port = client.local_ip, client.local_port
            server.backlog.append(accepted)
            client.state = SocketState.CONNECTED
            client.remote_ip, client.remote_port = dst_ip, dst_port
            client.peer = accepted  # type: ignore[attr-defined]
            accepted.peer = client  # type: ignore[attr-defined]
            return accepted
        route = self.routing.lookup(dst_ip)
        if route is None:
            raise SyscallError(Errno.ENETUNREACH, dst_ip)
        host = self.remote_hosts.get(dst_ip)
        if host is None:
            raise SyscallError(Errno.ETIMEDOUT, dst_ip)
        client.state = SocketState.CONNECTED
        client.remote_ip, client.remote_port = dst_ip, dst_port
        return client
