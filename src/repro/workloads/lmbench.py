"""lmbench-style microbenchmarks (paper Table 5, upper block).

Every row of the paper's lmbench section is reproduced, including the
five additional tests the paper wrote for the modified system calls
(mount/umount, setuid, setgid, ioctl, bind). Each test builds the same
operation on a LINUX and a PROTEGO system and times it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Tuple

from repro.core import System
from repro.core.build import build_pair
from repro.kernel import modes
from repro.kernel.net.packets import Packet, Protocol
from repro.kernel.net.socket import AddressFamily, SocketType
from repro.kernel.net.stack import RemoteHost
from repro.workloads.harness import BenchResult, compare_modes, time_per_op

#: Paper Table 5 lmbench rows: (linux us, protego us, overhead %).
PAPER_LMBENCH: Dict[str, Tuple[float, float, float]] = {
    "syscall": (0.04, 0.04, 0.00),
    "read": (0.09, 0.09, 0.00),
    "write": (0.09, 0.09, 0.00),
    "stat": (0.34, 0.33, -2.94),
    "open/close": (1.17, 1.17, 0.00),
    "mount/umnt": (525.15, 531.13, 1.13),
    "setuid": (0.82, 0.83, 1.22),
    "setgid": (0.82, 0.83, 1.22),
    "ioctl": (2.76, 2.78, 0.72),
    "bind": (1.77, 1.81, 2.25),
    "sig install": (0.10, 0.10, 0.00),
    "sig overhead": (0.70, 0.70, 0.00),
    "prot fault": (0.19, 0.19, 0.00),
    "fork+exit": (159.00, 158.00, -0.63),
    "fork+execve": (554.00, 573.00, 3.43),
    "fork+/bin/sh": (1360.00, 1413.00, 3.90),
    "0KB create": (5.57, 5.43, -2.51),
    "0KB delete": (3.93, 3.79, -3.56),
    "10KB create": (11.00, 10.80, -1.82),
    "10KB delete": (5.90, 5.85, -0.85),
    "AF_UNIX": (9.30, 9.69, 4.19),
    "Pipe": (6.73, 6.88, 2.23),
    "TCP connect": (18.00, 18.55, 3.05),
    "Local TCP lat": (19.63, 20.87, 6.32),
    "Local UDP lat": (16.70, 17.90, 7.19),
    "Rem. UDP lat": (543.60, 578.30, 6.38),
    "Rem. TCP lat": (588.10, 631.50, 7.38),
}

PAPER_BANDWIDTH = ("BW (MB/s)", 5316.60, 5170.69, 2.74)


# ----------------------------------------------------------------------
# Test constructors: System -> zero-arg op
# ----------------------------------------------------------------------
def _op_syscall(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    return lambda: kernel.sys_getpid(task)


def _op_read(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    kernel.write_file(task, "/tmp/readfile", b"x" * 512)
    fd = kernel.sys_open(task, "/tmp/readfile")

    def op():
        task.fdtable.get(fd).offset = 0
        kernel.sys_read(task, fd, 512)
    return op


def _op_write(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    fd = kernel.sys_open(task, "/tmp/writefile", modes.O_WRONLY | modes.O_CREAT)
    payload = b"y" * 512

    def op():
        task.fdtable.get(fd).offset = 0
        kernel.sys_write(task, fd, payload)
    return op


def _op_stat(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    return lambda: kernel.sys_stat(task, "/etc/fstab")


def _op_open_close(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    kernel.write_file(task, "/tmp/ocfile", b"")

    def op():
        fd = kernel.sys_open(task, "/tmp/ocfile")
        kernel.sys_close(task, fd)
    return op


def _op_mount_umount(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()

    def op():
        kernel.sys_mount(task, "tmpfs", "/mnt", "tmpfs")
        kernel.sys_umount(task, "/mnt")
    return op


def _op_setuid(system: System) -> Callable[[], None]:
    kernel = system.kernel
    task = system.session_for("alice")
    # setuid to the real uid: the no-op transition every setuid binary
    # performs when dropping privilege; traverses the full hook path.
    return lambda: kernel.sys_setuid(task, 1000)


def _op_setgid(system: System) -> Callable[[], None]:
    kernel = system.kernel
    task = system.session_for("alice")
    return lambda: kernel.sys_setgid(task, 1000)


def _op_ioctl(system: System) -> Callable[[], None]:
    kernel = system.kernel
    task = system.session_for("alice")
    card = kernel.devices.get("card0")
    consoles = itertools.cycle((1, 2))
    return lambda: kernel.sys_ioctl(task, card, "KMS_SWITCH", next(consoles))


def _op_bind(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    sock = kernel.sys_socket(task, AddressFamily.AF_INET, SocketType.STREAM)

    def op():
        kernel.sys_bind(task, sock, "0.0.0.0", 600)
        kernel.net.release_socket(sock)
        sock.local_port = 0
    return op


def _op_sig_install(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    handler = lambda signum: None
    return lambda: kernel.sys_signal(task, 10, handler)


def _op_sig_overhead(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    kernel.sys_signal(task, 10, lambda signum: None)
    return lambda: kernel.sys_kill(task, task.pid, 10)


def _op_prot_fault(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    return lambda: kernel.sys_fault(task)


def _op_fork_exit(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()

    def op():
        child = kernel.sys_fork(task)
        kernel.sys_exit(child, 0)
        kernel.sys_wait(task)
    return op


def _make_fork_exec(binary: str):
    def factory(system: System) -> Callable[[], None]:
        kernel, task = system.kernel, system.root_session()

        def op():
            kernel.spawn(task, binary)
            kernel.sys_wait(task)
        return op
    return factory


def _make_file_create(size: int):
    def factory(system: System) -> Callable[[], None]:
        kernel, task = system.kernel, system.root_session()
        payload = b"z" * size
        counter = itertools.count()

        def op():
            kernel.write_file(task, f"/tmp/c{size}-{next(counter)}", payload)
        return op
    return factory


def _make_file_delete(size: int):
    def factory(system: System) -> Callable[[], None]:
        kernel, task = system.kernel, system.root_session()
        payload = b"z" * size
        pending: List[str] = []
        counter = itertools.count()

        def refill(count: int) -> None:
            for _ in range(count):
                name = f"/tmp/d{size}-{next(counter)}"
                kernel.write_file(task, name, payload)
                pending.append(name)

        # Prefill during setup so the timed batches almost never pay a
        # creation burst (a 512-file refill inside one op used to put
        # ±150µs on a ~30µs row); residual refills are small enough
        # for the harness's trimmed mean to absorb.
        refill(2048)

        def op():
            if not pending:
                refill(256)
            kernel.sys_unlink(task, pending.pop())
        return op
    return factory


def _unix_socket_pair(system: System):
    kernel, task = system.kernel, system.root_session()
    a = kernel.sys_socket(task, AddressFamily.AF_UNIX, SocketType.DGRAM, "unix")
    b = kernel.sys_socket(task, AddressFamily.AF_UNIX, SocketType.DGRAM, "unix")
    a.peer = b  # type: ignore[attr-defined]
    b.peer = a  # type: ignore[attr-defined]
    return kernel, task, a, b


def _op_af_unix(system: System) -> Callable[[], None]:
    kernel, task, a, b = _unix_socket_pair(system)
    message = Packet(Protocol.CUSTOM, "local", "local", payload=b"m")

    def op():
        kernel.sys_sendto(task, a, message)
        kernel.sys_recvfrom(task, b)
    return op


def _op_pipe(system: System) -> Callable[[], None]:
    kernel, task = system.kernel, system.root_session()
    read_fd, write_fd = kernel.sys_pipe(task)

    def op():
        task.fdtable.get(write_fd).offset = 0
        kernel.sys_write(task, write_fd, b"m")
        task.fdtable.get(read_fd).offset = 0
        kernel.sys_read(task, read_fd, 1)
    return op


def _op_tcp_connect(system: System) -> Callable[[], None]:
    kernel, root = system.kernel, system.root_session()
    alice = system.session_for("alice")
    server = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
    kernel.sys_bind(alice, server, "127.0.0.1", 8080)
    kernel.sys_listen(alice, server)

    def op():
        client = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.STREAM)
        kernel.sys_connect(root, client, "127.0.0.1", 8080)
        kernel.sys_accept(alice, server)
        kernel.sys_close(root, client.fd)
    return op


def _make_local_latency(protocol: Protocol, sock_type: SocketType):
    def factory(system: System) -> Callable[[], None]:
        kernel, task = system.kernel, system.root_session()
        server = kernel.sys_socket(task, AddressFamily.AF_INET, sock_type)
        kernel.sys_bind(task, server, "127.0.0.1", 8081)
        client = kernel.sys_socket(task, AddressFamily.AF_INET, sock_type)
        kernel.sys_bind(task, client, "127.0.0.1", 0)

        def op():
            request = Packet(protocol, "127.0.0.1", "127.0.0.1",
                             src_port=client.local_port, dst_port=8081,
                             payload=b"ping")
            kernel.sys_sendto(task, client, request)
            received = kernel.sys_recvfrom(task, server)
            reply = received.reply_template()
            reply.payload = b"pong"
            kernel.sys_sendto(task, server, reply)
            kernel.sys_recvfrom(task, client)
        return op
    return factory


def _echo_responder(packet: Packet) -> List[Packet]:
    reply = packet.reply_template()
    reply.payload = packet.payload
    return [reply]


def _make_remote_latency(protocol: Protocol, sock_type: SocketType):
    def factory(system: System) -> Callable[[], None]:
        kernel, task = system.kernel, system.root_session()
        system.kernel.net.add_remote_host(
            RemoteHost("198.51.100.7", responder=_echo_responder, hops=0))
        client = kernel.sys_socket(task, AddressFamily.AF_INET, sock_type)
        kernel.net.bind_socket(client, "192.168.1.10", 0)

        def op():
            request = Packet(protocol, "192.168.1.10", "198.51.100.7",
                             src_port=client.local_port, dst_port=7,
                             payload=b"ping")
            kernel.sys_sendto(task, client, request)
            kernel.sys_recvfrom(task, client)
        return op
    return factory


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
#: name -> (factory, iterations)
LMBENCH_TESTS: Dict[str, Tuple[Callable, int]] = {
    "syscall": (_op_syscall, 2000),
    "read": (_op_read, 2000),
    "write": (_op_write, 2000),
    "stat": (_op_stat, 1000),
    "open/close": (_op_open_close, 1000),
    "mount/umnt": (_op_mount_umount, 300),
    "setuid": (_op_setuid, 1000),
    "setgid": (_op_setgid, 1000),
    "ioctl": (_op_ioctl, 1000),
    "bind": (_op_bind, 500),
    "sig install": (_op_sig_install, 2000),
    "sig overhead": (_op_sig_overhead, 2000),
    "prot fault": (_op_prot_fault, 2000),
    "fork+exit": (_op_fork_exit, 300),
    "fork+execve": (_make_fork_exec("/bin/true"), 300),
    "fork+/bin/sh": (_make_fork_exec("/bin/sh"), 300),
    "0KB create": (_make_file_create(0), 500),
    "0KB delete": (_make_file_delete(0), 500),
    "10KB create": (_make_file_create(10 * 1024), 500),
    "10KB delete": (_make_file_delete(10 * 1024), 500),
    "AF_UNIX": (_op_af_unix, 1000),
    "Pipe": (_op_pipe, 1000),
    "TCP connect": (_op_tcp_connect, 300),
    "Local TCP lat": (_make_local_latency(Protocol.TCP, SocketType.STREAM), 500),
    "Local UDP lat": (_make_local_latency(Protocol.UDP, SocketType.DGRAM), 500),
    "Rem. UDP lat": (_make_remote_latency(Protocol.UDP, SocketType.DGRAM), 500),
    "Rem. TCP lat": (_make_remote_latency(Protocol.TCP, SocketType.STREAM), 500),
}


def run_test(name: str, scale: float = 1.0, batches: int = 5) -> BenchResult:
    """One Table 5 row; five batches by default so the harness's
    trimmed mean can discard the extreme batch at each end."""
    factory, iterations = LMBENCH_TESTS[name]
    return compare_modes(
        name, factory, max(10, int(iterations * scale)),
        paper=PAPER_LMBENCH[name], batches=batches,
    )


def run_bandwidth(scale: float = 1.0, batches: int = 5) -> BenchResult:
    """The BW row: stream 1 MB through the file layer; report MB/s."""
    def factory(system: System) -> Callable[[], None]:
        kernel, task = system.kernel, system.root_session()
        chunk = b"b" * (64 * 1024)
        fd = kernel.sys_open(task, "/tmp/bw", modes.O_WRONLY | modes.O_CREAT)

        def op():
            task.fdtable.get(fd).offset = 0
            for _ in range(16):  # 16 * 64KB = 1MB
                kernel.sys_write(task, fd, chunk)
        return op

    iterations = max(2, int(20 * scale))
    linux, protego = build_pair()
    linux_us, linux_ci = time_per_op(factory(linux), iterations, batches)
    protego_us, protego_ci = time_per_op(factory(protego), iterations, batches)
    name, paper_linux, paper_protego, paper_oh = PAPER_BANDWIDTH
    return BenchResult(
        name=name, unit="MB/s",
        linux_value=1e6 / linux_us, linux_ci=linux_ci,
        protego_value=1e6 / protego_us, protego_ci=protego_ci,
        paper_linux=paper_linux, paper_protego=paper_protego,
        paper_overhead_percent=paper_oh, higher_is_better=True,
    )

