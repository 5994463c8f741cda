"""Unit tests for the network substrate: sockets, routing, netfilter."""

import pytest

from repro.kernel import Kernel
from repro.kernel.capabilities import Capability
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.net import (
    AddressFamily,
    ICMPType,
    NetworkStack,
    Packet,
    RemoteHost,
    Route,
    RouteConflictError,
    RoutingTable,
    Rule,
    SocketType,
    Verdict,
)
from repro.kernel.net.netfilter import Chain, default_protego_output_rules
from repro.kernel.net.packets import HeaderOrigin, Protocol, icmp_echo_request


@pytest.fixture
def kernel():
    k = Kernel()
    k.net.add_interface("eth0", "192.168.1.5")
    k.net.routing.add(Route("0.0.0.0/0", "eth0", gateway="192.168.1.1"))
    return k


@pytest.fixture
def root(kernel):
    return kernel.root_task()


@pytest.fixture
def alice(kernel):
    return kernel.user_task(1000, 1000)


class TestRoutingTable:
    def test_longest_prefix_match(self):
        table = RoutingTable()
        table.add(Route("0.0.0.0/0", "eth0"))
        table.add(Route("10.0.0.0/8", "tun0"))
        table.add(Route("10.1.0.0/16", "ppp0"))
        assert table.lookup("10.1.2.3").device == "ppp0"
        assert table.lookup("10.9.9.9").device == "tun0"
        assert table.lookup("8.8.8.8").device == "eth0"

    def test_no_route(self):
        assert RoutingTable().lookup("1.2.3.4") is None

    def test_conflict_detection_overlap(self):
        table = RoutingTable()
        table.add(Route("10.0.0.0/24", "eth0"))
        with pytest.raises(RouteConflictError):
            table.add(Route("10.0.0.0/25", "ppp0"), check_conflict=True)

    def test_default_route_does_not_conflict(self):
        table = RoutingTable()
        table.add(Route("0.0.0.0/0", "eth0"))
        table.add(Route("10.8.0.0/24", "ppp0"), check_conflict=True)
        assert len(table) == 2

    def test_disjoint_routes_no_conflict(self):
        table = RoutingTable()
        table.add(Route("10.0.0.0/24", "eth0"))
        table.add(Route("10.0.1.0/24", "ppp0"), check_conflict=True)

    def test_remove_by_device(self):
        table = RoutingTable()
        table.add(Route("10.8.0.0/24", "ppp0"))
        table.add(Route("10.9.0.0/24", "eth0"))
        dropped = table.remove_by_device("ppp0")
        assert len(dropped) == 1
        assert len(table) == 1

    def test_remove_missing_raises(self):
        with pytest.raises(SyscallError) as err:
            RoutingTable().remove("10.0.0.0/8")
        assert err.value.errno_value == Errno.ESRCH


class TestNetfilter:
    def test_default_policy_accept(self):
        stack = NetworkStack()
        pkt = icmp_echo_request("10.0.0.1", "10.0.0.2")
        assert stack.netfilter.evaluate(Chain.OUTPUT, pkt) is Verdict.ACCEPT

    def test_first_match_wins(self):
        stack = NetworkStack()
        stack.netfilter.append(Rule(Verdict.DROP, protocol=Protocol.ICMP))
        stack.netfilter.append(Rule(Verdict.ACCEPT, protocol=Protocol.ICMP))
        pkt = icmp_echo_request("10.0.0.1", "10.0.0.2")
        assert stack.netfilter.evaluate(Chain.OUTPUT, pkt) is Verdict.DROP

    def test_unprivileged_raw_scoping(self, kernel, root, alice):
        """The Protego netfilter extension: rules scoped to sockets
        created without CAP_NET_RAW do not touch privileged traffic."""
        kernel.net.netfilter.extend(default_protego_output_rules())
        pkt = Packet(Protocol.TCP, "192.168.1.5", "8.8.8.8", dst_port=80,
                     header_origin=HeaderOrigin.USER_IP)
        from repro.kernel.net.socket import Socket
        priv = Socket(AddressFamily.AF_INET, SocketType.RAW, "tcp", 0, 1)
        unpriv = Socket(AddressFamily.AF_INET, SocketType.RAW, "tcp", 1000, 2,
                        unprivileged_raw=True)
        assert kernel.net.netfilter.evaluate(Chain.OUTPUT, pkt, priv) is Verdict.ACCEPT
        assert kernel.net.netfilter.evaluate(Chain.OUTPUT, pkt, unpriv) is Verdict.DROP

    def test_default_rules_allow_safe_icmp(self):
        stack = NetworkStack()
        stack.netfilter.extend(default_protego_output_rules())
        from repro.kernel.net.socket import Socket
        sock = Socket(AddressFamily.AF_INET, SocketType.RAW, "icmp", 1000, 2,
                      unprivileged_raw=True)
        ping = icmp_echo_request("10.0.0.1", "8.8.8.8")
        assert stack.netfilter.evaluate(Chain.OUTPUT, ping, sock) is Verdict.ACCEPT

    def test_flush(self):
        stack = NetworkStack()
        stack.netfilter.extend(default_protego_output_rules())
        assert stack.netfilter.rules(Chain.OUTPUT)
        stack.netfilter.flush()
        assert not stack.netfilter.rules(Chain.OUTPUT)

    def test_spoofed_transport_detection(self):
        raw_tcp = Packet(Protocol.TCP, "1.1.1.1", "2.2.2.2",
                         header_origin=HeaderOrigin.USER_IP)
        kernel_tcp = Packet(Protocol.TCP, "1.1.1.1", "2.2.2.2",
                            header_origin=HeaderOrigin.KERNEL)
        assert raw_tcp.is_spoofed_transport()
        assert not kernel_tcp.is_spoofed_transport()

    def test_stats_counters(self):
        stack = NetworkStack()
        stack.netfilter.append(Rule(Verdict.DROP, protocol=Protocol.ICMP))
        pkt = icmp_echo_request("10.0.0.1", "10.0.0.2")
        assert stack.netfilter.evaluate(Chain.OUTPUT, pkt) is Verdict.DROP
        assert stack.netfilter.stats["dropped"] == 1


class TestSocketSyscalls:
    def test_tcp_socket_needs_no_privilege(self, kernel, alice):
        sock = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        assert sock.protocol == "tcp"
        assert not sock.unprivileged_raw

    def test_raw_socket_requires_cap_net_raw_on_stock_linux(self, kernel, alice):
        with pytest.raises(SyscallError) as err:
            kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.RAW)
        assert err.value.errno_value == Errno.EPERM

    def test_root_can_create_raw_socket(self, kernel, root):
        sock = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.RAW, "icmp")
        assert sock.sock_type is SocketType.RAW

    def test_packet_socket_also_gated(self, kernel, alice):
        with pytest.raises(SyscallError):
            kernel.sys_socket(alice, AddressFamily.AF_PACKET, SocketType.PACKET)

    def test_privileged_bind_requires_cap(self, kernel, root, alice):
        server = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        with pytest.raises(SyscallError) as err:
            kernel.sys_bind(alice, server, "0.0.0.0", 80)
        assert err.value.errno_value == Errno.EPERM
        rsock = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.STREAM)
        kernel.sys_bind(root, rsock, "0.0.0.0", 80)
        assert rsock.local_port == 80

    def test_unprivileged_bind_to_high_port(self, kernel, alice):
        sock = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        kernel.sys_bind(alice, sock, "0.0.0.0", 8080)
        assert sock.local_port == 8080

    def test_bind_addrinuse(self, kernel, alice):
        a = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        b = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        kernel.sys_bind(alice, a, "0.0.0.0", 8080)
        with pytest.raises(SyscallError) as err:
            kernel.sys_bind(alice, b, "0.0.0.0", 8080)
        assert err.value.errno_value == Errno.EADDRINUSE

    def test_ephemeral_bind(self, kernel, alice):
        sock = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        kernel.sys_bind(alice, sock, "0.0.0.0", 0)
        assert sock.local_port >= 32768

    def test_close_releases_port(self, kernel, alice):
        sock = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        kernel.sys_bind(alice, sock, "0.0.0.0", 8080)
        kernel.sys_close(alice, sock.fd)
        again = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        kernel.sys_bind(alice, again, "0.0.0.0", 8080)


class TestSendReceive:
    def test_ping_remote_host(self, kernel, root):
        kernel.net.add_remote_host(RemoteHost("8.8.8.8"))
        sock = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.RAW, "icmp")
        req = icmp_echo_request("192.168.1.5", "8.8.8.8", payload=b"hi",
                                sender_uid=0)
        kernel.sys_sendto(root, sock, req)
        reply = kernel.sys_recvfrom(root, sock)
        assert reply.icmp_type is ICMPType.ECHO_REPLY
        assert reply.payload == b"hi"

    def test_ping_localhost(self, kernel, root):
        sock = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.RAW, "icmp")
        req = icmp_echo_request("127.0.0.1", "127.0.0.1")
        kernel.sys_sendto(root, sock, req)
        replies = [p for p in sock.recv_queue if p.icmp_type is ICMPType.ECHO_REPLY]
        assert replies

    def test_local_addresses_follow_interface_changes(self, kernel, root):
        """An interface's address is local from its add to its removal,
        and a re-added name answers only at its new address."""
        server = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.DGRAM)
        kernel.sys_bind(root, server, "0.0.0.0", 9)

        def send_udp(dst):
            kernel.net.send(Packet(Protocol.UDP, "10.9.0.1", dst, dst_port=9))

        kernel.net.add_interface("tun0", "10.9.0.1")
        send_udp("10.9.0.1")
        assert server.has_data()
        server.dequeue()
        kernel.net.add_interface("tun0", "10.9.0.2")
        send_udp("10.9.0.1")           # no longer ours: routed away
        assert not server.has_data()
        send_udp("10.9.0.2")
        assert server.has_data()
        kernel.net.remove_interface("tun0")
        kernel.net.routing.remove("0.0.0.0/0")
        with pytest.raises(SyscallError) as err:
            send_udp("10.9.0.2")
        assert err.value.errno_value == Errno.ENETUNREACH

    def test_no_route_raises_enetunreach(self, kernel, root):
        kernel.net.routing.remove("0.0.0.0/0")
        sock = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.RAW, "icmp")
        with pytest.raises(SyscallError) as err:
            kernel.sys_sendto(root, sock, icmp_echo_request("192.168.1.5", "8.8.8.8"))
        assert err.value.errno_value == Errno.ENETUNREACH

    def test_ttl_expiry_gives_time_exceeded(self, kernel, root):
        kernel.net.add_remote_host(RemoteHost("8.8.8.8", hops=5))
        sock = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.RAW, "icmp")
        probe = icmp_echo_request("192.168.1.5", "8.8.8.8", ttl=2)
        kernel.sys_sendto(root, sock, probe)
        reply = kernel.sys_recvfrom(root, sock)
        assert reply.icmp_type is ICMPType.TIME_EXCEEDED

    def test_tcp_connect_accept_roundtrip(self, kernel, root, alice):
        server = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.STREAM)
        kernel.sys_bind(root, server, "127.0.0.1", 80)
        kernel.sys_listen(root, server)
        client = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        kernel.sys_connect(alice, client, "127.0.0.1", 80)
        accepted = kernel.sys_accept(root, server)
        assert accepted.remote_port == client.local_port

    def test_connect_refused_when_not_listening(self, kernel, alice):
        client = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        with pytest.raises(SyscallError) as err:
            kernel.sys_connect(alice, client, "127.0.0.1", 81)
        assert err.value.errno_value == Errno.ECONNREFUSED


class TestRouteSyscalls:
    def test_route_add_requires_cap_net_admin(self, kernel, alice):
        with pytest.raises(SyscallError) as err:
            kernel.sys_route_add(alice, "10.8.0.0/24", "ppp0")
        assert err.value.errno_value == Errno.EPERM

    def test_root_adds_routes_without_conflict_check(self, kernel, root):
        kernel.sys_route_add(root, "10.8.0.0/24", "ppp0")
        kernel.sys_route_add(root, "10.8.0.0/25", "ppp1")  # overlaps, root may
        assert len(kernel.net.routing) == 3  # fixture default route + 2
