"""The netfilter flow cache: memoized verdicts, exact invalidation,
and strict subordination to injected wire faults."""

import dataclasses

import pytest

from repro.core.rawsock_policy import RawSocketPolicy
from repro.kernel import Kernel
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.net import (
    AddressFamily,
    NetworkStack,
    RemoteHost,
    Route,
    Rule,
    SocketType,
    Verdict,
)
from repro.kernel.net.netfilter import (
    Chain,
    NetfilterTable,
    default_protego_output_rules,
)
from repro.kernel.net.packets import HeaderOrigin, Protocol, icmp_echo_request
from repro.kernel.net.socket import Socket


def ping(dst="8.8.8.8", uid=0, **kw):
    return icmp_echo_request("10.0.0.1", dst, sender_uid=uid, **kw)


def udp(dst_port, origin=HeaderOrigin.KERNEL):
    from repro.kernel.net.packets import Packet
    return Packet(Protocol.UDP, "10.0.0.1", "8.8.8.8", src_port=40000,
                  dst_port=dst_port, header_origin=origin)


class TestFlowCacheHits:
    def test_second_identical_packet_hits(self):
        table = NetfilterTable()
        table.append(Rule(Verdict.DROP, protocol=Protocol.UDP, dst_port=53))
        pkt = udp(53)
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.DROP
        assert table.stats["flow_misses"] == 1
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.DROP
        assert table.stats["flow_hits"] == 1
        # accepted/dropped tallies count every packet, hit or miss.
        assert table.stats["dropped"] == 2

    def test_hit_preserves_matched_flag(self):
        table = NetfilterTable()
        table.append(Rule(Verdict.ACCEPT, protocol=Protocol.ICMP))
        hit1 = table.evaluate_detailed(Chain.OUTPUT, ping())
        hit2 = table.evaluate_detailed(Chain.OUTPUT, ping())
        assert hit1 == hit2 == (Verdict.ACCEPT, True)
        miss = table.evaluate_detailed(Chain.OUTPUT, udp(99))
        assert miss == (Verdict.ACCEPT, False)  # policy, no rule matched

    def test_distinct_flows_cached_separately(self):
        table = NetfilterTable()
        table.append(Rule(Verdict.DROP, protocol=Protocol.UDP, dst_port=53))
        assert table.evaluate(Chain.OUTPUT, udp(53)) is Verdict.DROP
        assert table.evaluate(Chain.OUTPUT, udp(54)) is Verdict.ACCEPT
        assert table.flow_cache_len() == 2
        assert table.stats["flow_hits"] == 0

    def test_chains_keyed_separately(self):
        table = NetfilterTable()
        table.append(Rule(Verdict.DROP, chain=Chain.PROTEGO_RAW))
        pkt = ping()
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.ACCEPT
        assert table.evaluate(Chain.PROTEGO_RAW, pkt) is Verdict.DROP

    def test_socket_identity_in_key(self):
        """The unprivileged-raw mark rides the socket, so the same
        packet through different sockets must not share an entry."""
        table = NetfilterTable()
        table.extend(default_protego_output_rules())
        pkt = udp(99, origin=HeaderOrigin.USER_IP)  # spoofed transport
        priv = Socket(AddressFamily.AF_INET, SocketType.RAW, "udp", 0, 1)
        unpriv = Socket(AddressFamily.AF_INET, SocketType.RAW, "udp", 1000, 2,
                        unprivileged_raw=True)
        assert table.evaluate(Chain.OUTPUT, pkt, priv) is Verdict.ACCEPT
        assert table.evaluate(Chain.OUTPUT, pkt, unpriv) is Verdict.DROP
        # and both verdicts replay from cache unchanged
        assert table.evaluate(Chain.OUTPUT, pkt, priv) is Verdict.ACCEPT
        assert table.evaluate(Chain.OUTPUT, pkt, unpriv) is Verdict.DROP
        assert table.stats["flow_hits"] == 2

    def test_disabled_cache_never_hits(self):
        table = NetfilterTable()
        table.flow_cache_enabled = False
        pkt = ping()
        table.evaluate(Chain.OUTPUT, pkt)
        table.evaluate(Chain.OUTPUT, pkt)
        assert table.stats["flow_hits"] == 0
        assert table.flow_cache_len() == 0

    def test_capacity_eviction(self):
        table = NetfilterTable()
        for port in range(NetfilterTable.FLOW_CACHE_SIZE + 10):
            table.evaluate(Chain.OUTPUT, udp(port % 65000 + 1))
        assert table.flow_cache_len() <= NetfilterTable.FLOW_CACHE_SIZE


class TestInvalidation:
    def test_append_invalidates(self):
        table = NetfilterTable()
        pkt = udp(53)
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.ACCEPT
        table.append(Rule(Verdict.DROP, protocol=Protocol.UDP, dst_port=53))
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.DROP

    def test_insert_invalidates(self):
        table = NetfilterTable()
        table.append(Rule(Verdict.ACCEPT, protocol=Protocol.UDP))
        pkt = udp(53)
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.ACCEPT
        table.insert(Rule(Verdict.DROP, protocol=Protocol.UDP, dst_port=53))
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.DROP

    def test_extend_invalidates(self):
        table = NetfilterTable()
        pkt = udp(99, origin=HeaderOrigin.USER_IP)
        sock = Socket(AddressFamily.AF_INET, SocketType.RAW, "udp", 1000, 2,
                      unprivileged_raw=True)
        assert table.evaluate(Chain.OUTPUT, pkt, sock) is Verdict.ACCEPT
        table.extend(default_protego_output_rules())
        assert table.evaluate(Chain.OUTPUT, pkt, sock) is Verdict.DROP

    def test_flush_invalidates(self):
        table = NetfilterTable()
        table.append(Rule(Verdict.DROP, protocol=Protocol.UDP, dst_port=53))
        pkt = udp(53)
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.DROP
        table.flush()
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.ACCEPT

    def test_policy_assignment_invalidates(self):
        table = NetfilterTable()
        pkt = ping()
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.ACCEPT
        table.policy[Chain.OUTPUT] = Verdict.DROP
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.DROP

    def test_each_rule_change_counts_one_invalidation(self):
        table = NetfilterTable()
        before = table.stats["flow_invalidations"]
        table.append(Rule(Verdict.DROP))
        table.flush()
        assert table.stats["flow_invalidations"] == before + 2
        assert table.flow_cache_len() == 0

    def test_render(self):
        # The flow counters are rendered by the kernel's registry.
        kernel = Kernel()
        table = kernel.net.netfilter
        pkt = ping()
        table.evaluate(Chain.OUTPUT, pkt)
        table.evaluate(Chain.OUTPUT, pkt)
        text = kernel.metrics.render()
        assert "kernel.netfilter.flow_hits 1\n" in text
        assert "kernel.netfilter.flow_misses 1\n" in text
        assert "kernel.netfilter.entries 1\n" in text


class TestFaultSubordination:
    """Injected wire faults act strictly *after* the (possibly cached)
    netfilter verdict: they can lose or repeat accepted traffic, never
    resurrect dropped traffic or bypass the filter."""

    def _stack(self):
        stack = NetworkStack()
        stack.add_interface("eth0", "10.0.0.1")
        stack.routing.add(Route("0.0.0.0/0", "eth0"))
        stack.add_remote_host(RemoteHost("8.8.8.8", hops=1))
        return stack

    def test_drop_fault_applies_to_cached_accept(self):
        stack = self._stack()
        assert stack.send(ping()) != []          # primes the flow cache
        stack.fault_drop.configure(probability=1.0)
        assert stack.send(ping()) == []          # cache hit, then wire loss
        # Unmatched OUTPUT falls through to PROTEGO_RAW, so the second
        # send replays two cached verdicts (one per chain).
        assert stack.netfilter.stats["flow_hits"] == 2

    def test_cached_drop_still_raises_with_faults_armed(self):
        stack = self._stack()
        stack.netfilter.append(Rule(Verdict.DROP, protocol=Protocol.ICMP))
        with pytest.raises(SyscallError) as err:
            stack.send(ping())
        assert err.value.errno_value == Errno.EPERM
        stack.fault_dup.configure(probability=1.0)
        with pytest.raises(SyscallError):
            stack.send(ping())                   # cached DROP, dup can't revive
        assert stack.netfilter.stats["flow_hits"] == 1

    def test_rule_change_beats_warm_cache_on_live_send_path(self):
        """iptables-style mutation mid-traffic: the very next packet
        sees the new rule, no stale verdict."""
        stack = self._stack()
        for _ in range(5):
            assert stack.send(ping()) != []
        stack.netfilter.append(Rule(Verdict.DROP, protocol=Protocol.ICMP))
        with pytest.raises(SyscallError):
            stack.send(ping())


class TestKernelSendPath:
    def test_repeated_ping_hits_flow_cache(self):
        kernel = Kernel()
        kernel.net.add_interface("eth0", "192.168.1.5")
        kernel.net.routing.add(Route("0.0.0.0/0", "eth0", gateway="192.168.1.1"))
        kernel.net.add_remote_host(RemoteHost("8.8.8.8", hops=1))
        root = kernel.root_task()
        sock = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.RAW,
                                 "icmp")
        pkt = icmp_echo_request("192.168.1.5", "8.8.8.8")
        for _ in range(4):
            kernel.sys_sendto(root, sock, pkt)
        stats = kernel.net.netfilter.stats
        assert stats["flow_hits"] >= 3


class TestRuleImmutabilityContract:
    def test_replace_goes_through_table_methods(self):
        """The documented mutation contract: swapping a rule via
        flush+extend invalidates; the dataclasses.replace idiom the
        raw-socket policy uses composes with it."""
        table = NetfilterTable()
        rule = Rule(Verdict.DROP, protocol=Protocol.UDP, dst_port=53)
        table.append(rule)
        pkt = udp(53)
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.DROP
        table.flush(Chain.OUTPUT)
        table.extend([dataclasses.replace(rule, verdict=Verdict.ACCEPT)])
        assert table.evaluate(Chain.OUTPUT, pkt) is Verdict.ACCEPT


# ----------------------------------------------------------------------
# The send path's one probe against the per-chain oracle
# ----------------------------------------------------------------------
class _TwoCallStack(NetworkStack):
    """The send path with its verdict asked one chain at a time, as two
    :meth:`NetfilterTable.evaluate_detailed` calls: the oracle for
    :meth:`NetfilterTable.output_verdict`. Faults stay disarmed."""

    def send(self, packet, socket=None):
        verdict, matched = self.netfilter.evaluate_detailed(
            Chain.OUTPUT, packet, socket)
        if verdict is Verdict.DROP:
            self.dropped_log.append(packet)
            raise SyscallError(Errno.EPERM, "netfilter OUTPUT drop")
        if not matched:
            verdict = self.netfilter.evaluate(Chain.PROTEGO_RAW, packet, socket)
            if verdict is Verdict.DROP:
                self.dropped_log.append(packet)
                raise SyscallError(Errno.EPERM, "netfilter PROTEGO_RAW drop")
        return self._transmit(packet)


def _send_stack(cls=NetworkStack):
    stack = cls()
    stack.add_interface("eth0", "10.0.0.1")
    stack.routing.add(Route("0.0.0.0/0", "eth0"))
    stack.add_remote_host(RemoteHost("8.8.8.8", hops=1))
    server = Socket(AddressFamily.AF_INET, SocketType.DGRAM, "udp", 0, 1)
    stack.bind_socket(server, "10.0.0.1", 7)
    return stack


def _packet(protocol, dst, dst_port=0, origin=HeaderOrigin.KERNEL):
    from repro.kernel.net.packets import Packet
    return Packet(protocol, "10.0.0.1", dst, src_port=40000,
                  dst_port=dst_port, header_origin=origin, sender_uid=1000)


#: name -> (socket factory, packet factory); each send builds a fresh
#: packet, as a real sender does.
SENDERS = {
    "kernel-udp": (
        lambda: Socket(AddressFamily.AF_INET, SocketType.DGRAM, "udp", 1000, 10),
        lambda: _packet(Protocol.UDP, "10.0.0.1", 7)),
    "kernel-tcp": (
        lambda: Socket(AddressFamily.AF_INET, SocketType.STREAM, "tcp", 1000, 11),
        lambda: _packet(Protocol.TCP, "8.8.8.8", 80)),
    "privileged-raw-icmp": (
        lambda: Socket(AddressFamily.AF_INET, SocketType.RAW, "icmp", 0, 12),
        lambda: ping()),
    "unprivileged-raw-echo": (
        lambda: Socket(AddressFamily.AF_INET, SocketType.RAW, "icmp", 1000, 13,
                       unprivileged_raw=True),
        lambda: ping(uid=1000)),
    "unprivileged-raw-spoofed-udp": (
        lambda: Socket(AddressFamily.AF_INET, SocketType.RAW, "udp", 1000, 14,
                       unprivileged_raw=True),
        lambda: _packet(Protocol.UDP, "8.8.8.8", 53, HeaderOrigin.USER_IP)),
}


def _raw_defaults(table):
    RawSocketPolicy().install(table)


def _output_policy_drop(table):
    table.policy[Chain.OUTPUT] = Verdict.DROP


#: name -> the steps that program a twin table. The administrator's
#: rules sit on top of Protego's raw defaults, as on a Protego machine.
RULESETS = {
    "none": [],
    "raw-defaults": [_raw_defaults],
    "output-drop-port": [
        _raw_defaults,
        lambda table: table.append(Rule(Verdict.DROP, dst_port=53))],
    "output-accept-match": [
        _raw_defaults,
        lambda table: table.append(Rule(Verdict.ACCEPT, protocol=Protocol.UDP))],
    "raw-head-admin-accept": [
        _raw_defaults,
        lambda table: table.insert(Rule(Verdict.ACCEPT, chain=Chain.PROTEGO_RAW,
                                        owner_uid=1000, protocol=Protocol.UDP))],
    "output-policy-drop": [_raw_defaults, _output_policy_drop],
}


def _outcome(stack, packet, socket):
    try:
        replies = stack.send(packet, socket)
    except SyscallError as err:
        return err.errno_value, err.context
    return [(r.protocol, r.src_ip, r.dst_ip, r.src_port, r.dst_port,
             r.icmp_type) for r in replies]


def _against_oracle(sender, ruleset, flow_cache=True, sends=3):
    """Send *sends* packets through a stack and its two-call twin;
    after each, the outcomes and the whole stats dicts must agree."""
    make_socket, make_packet = SENDERS[sender]
    stack, oracle = _send_stack(), _send_stack(_TwoCallStack)
    for twin in (stack, oracle):
        for step in RULESETS[ruleset]:
            step(twin.netfilter)
        twin.netfilter.flow_cache_enabled = flow_cache
    sock, oracle_sock = make_socket(), make_socket()
    for _ in range(sends):
        got = _outcome(stack, make_packet(), sock)
        assert got == _outcome(oracle, make_packet(), oracle_sock)
        assert stack.netfilter.stats == oracle.netfilter.stats
    return stack


class TestOneProbeSendPath:
    @pytest.mark.parametrize("ruleset", sorted(RULESETS))
    @pytest.mark.parametrize("sender", sorted(SENDERS))
    def test_matches_two_call_oracle(self, sender, ruleset):
        stack = _against_oracle(sender, ruleset)
        # One composed entry answers every send of the flow.
        assert stack.netfilter.flow_cache_len() == 1

    @pytest.mark.parametrize("chain", [Chain.OUTPUT, Chain.PROTEGO_RAW])
    def test_rule_appended_after_caching_decides_next_send(self, chain):
        stack = _send_stack()
        make_socket, make_packet = SENDERS["unprivileged-raw-echo"]
        sock = make_socket()
        assert stack.send(make_packet(), sock) != []
        assert stack.send(make_packet(), sock) != []
        assert stack.netfilter.stats["flow_hits"] == 2
        stack.netfilter.append(Rule(Verdict.DROP, chain=chain,
                                    protocol=Protocol.ICMP))
        with pytest.raises(SyscallError) as err:
            stack.send(make_packet(), sock)
        assert err.value.context == f"netfilter {chain.value} drop"

    @pytest.mark.parametrize("sender", sorted(SENDERS))
    def test_disabled_cache_matches_oracle_and_holds_nothing(self, sender):
        for ruleset in RULESETS:
            stack = _against_oracle(sender, ruleset, flow_cache=False)
            stats = stack.netfilter.stats
            assert stats["flow_hits"] == stats["flow_misses"] == 0
            assert stack.netfilter.flow_cache_len() == 0

    def test_second_packet_makes_no_per_chain_call(self, monkeypatch):
        calls = []
        per_chain = NetfilterTable.evaluate_detailed

        def spy(self, chain, *args):
            calls.append(chain)
            return per_chain(self, chain, *args)

        monkeypatch.setattr(NetfilterTable, "evaluate_detailed", spy)
        stack = _send_stack()
        make_socket, make_packet = SENDERS["unprivileged-raw-echo"]
        sock = make_socket()
        stack.send(make_packet(), sock)
        calls.clear()
        assert stack.send(make_packet(), sock) != []
        assert calls == []
        assert stack.netfilter.stats["flow_hits"] == 2
