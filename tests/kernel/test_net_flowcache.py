"""The netfilter flow cache: memoized verdicts, exact invalidation,
and strict subordination to injected wire faults."""

import dataclasses

import pytest

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
