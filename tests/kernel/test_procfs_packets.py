"""Unit tests for the pseudo-filesystem registry and packet helpers."""

import pytest

from repro.kernel import Kernel
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.net.packets import (
    HeaderOrigin,
    ICMPType,
    Packet,
    Protocol,
    icmp_echo_request,
)
from repro.kernel.procfs import make_procfs


class TestPseudoFilesystem:
    def test_register_and_read(self):
        fs = make_procfs()
        fs.register("protego/status", read_fn=lambda: b"ok\n")
        inode = fs.root.entries["protego"].entries["status"]
        assert inode.read_bytes() == b"ok\n"

    def test_register_creates_intermediate_dirs(self):
        fs = make_procfs()
        fs.register("a/b/c/file", read_fn=lambda: b"")
        assert fs.root.entries["a"].entries["b"].entries["c"].is_dir() is False or True
        assert "file" in fs.root.entries["a"].entries["b"].entries["c"].entries

    def test_duplicate_registration_rejected(self):
        fs = make_procfs()
        fs.register("x", read_fn=lambda: b"")
        with pytest.raises(SyscallError) as err:
            fs.register("x", read_fn=lambda: b"")
        assert err.value.errno_value == Errno.EEXIST

    def test_write_fn_invoked(self):
        fs = make_procfs()
        seen = []
        fs.register("sink", write_fn=seen.append, mode=0o600)
        inode = fs.root.entries["sink"]
        inode.write_bytes(b"payload")
        assert seen == [b"payload"]

    def test_registered_through_kernel_vfs(self):
        kernel = Kernel()
        kernel.procfs.register("demo", read_fn=lambda: b"hello")
        assert kernel.read_file(kernel.init, "/proc/demo") == b"hello"

    def test_pseudo_file_size_tracks_read_fn(self):
        fs = make_procfs()
        state = {"data": b"short"}
        inode = fs.register("dyn", read_fn=lambda: state["data"])
        assert inode.size() == 5
        state["data"] = b"much longer now"
        assert inode.size() == 15


class TestPacketHelpers:
    def test_echo_request_constructor(self):
        packet = icmp_echo_request("1.1.1.1", "2.2.2.2", payload=b"p", ttl=3)
        assert packet.protocol is Protocol.ICMP
        assert packet.icmp_type is ICMPType.ECHO_REQUEST
        assert packet.ttl == 3

    def test_reply_template_swaps_endpoints(self):
        packet = Packet(Protocol.UDP, "1.1.1.1", "2.2.2.2",
                        src_port=1234, dst_port=53)
        reply = packet.reply_template()
        assert (reply.src_ip, reply.dst_ip) == ("2.2.2.2", "1.1.1.1")
        assert (reply.src_port, reply.dst_port) == (53, 1234)

    def test_packet_ids_unique(self):
        a = icmp_echo_request("1.1.1.1", "2.2.2.2")
        b = icmp_echo_request("1.1.1.1", "2.2.2.2")
        assert a.packet_id != b.packet_id

    @pytest.mark.parametrize("origin,protocol,spoofed", [
        (HeaderOrigin.KERNEL, Protocol.TCP, False),
        (HeaderOrigin.USER_IP, Protocol.TCP, True),
        (HeaderOrigin.USER_MAC, Protocol.UDP, True),
        (HeaderOrigin.USER_IP, Protocol.ICMP, False),
    ])
    def test_spoofed_transport_matrix(self, origin, protocol, spoofed):
        packet = Packet(protocol, "1.1.1.1", "2.2.2.2", header_origin=origin)
        assert packet.is_spoofed_transport() == spoofed


class TestErrnoRepresentation:
    def test_syscall_error_is_oserror(self):
        err = SyscallError(Errno.EACCES, "denied")
        assert isinstance(err, OSError)
        assert err.errno == 13
        assert "EACCES" in str(err)
        assert "denied" in str(err)

    def test_context_optional(self):
        err = SyscallError(Errno.ENOENT)
        assert "ENOENT" in str(err)

    def test_plain_int_is_converted_and_checked(self):
        assert SyscallError(13).errno_value is Errno.EACCES
        with pytest.raises(ValueError):
            SyscallError(9999)
