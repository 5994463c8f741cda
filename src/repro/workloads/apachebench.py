"""ApacheBench-style web workload (paper Table 5, bottom block).

An Apache-like server binds a port and serves fixed-size responses;
the driver issues requests at concurrency 25/50/100/200 (round-robin
interleaving — the simulator is single-threaded) and reports time per
request and transfer rate, as ab does.

The Protego-relevant cost here is the packet path: the paper measures
2-4% from the extra netfilter rules on all outgoing packets even for
applications using no privileged functionality.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.core import System
from repro.core.build import build_pair
from repro.kernel.net.packets import Packet, Protocol
from repro.kernel.net.socket import AddressFamily, SocketType
from repro.workloads.harness import BenchResult, time_pair

#: paper: concurrency -> (linux ms/req, protego ms/req, overhead %)
PAPER_TIME_PER_REQUEST = {
    25: (0.28, 0.29, 3.57),
    50: (0.26, 0.27, 3.85),
    100: (0.25, 0.26, 4.00),
    200: (1.13, 1.16, 2.65),
}

#: paper: concurrency -> (linux kbps, protego kbps, overhead %)
PAPER_TRANSFER_RATE = {
    25: (6781.04, 6506.29, 4.05),
    50: (7375.21, 7083.63, 3.95),
    100: (7342.15, 7051.54, 3.96),
    200: (1642.90, 1599.55, 2.64),
}

RESPONSE_BYTES = 2048
WEB_PORT = 8088


@dataclasses.dataclass
class WebServer:
    """The served endpoint on one system."""

    system: System
    task: object
    socket: object
    response: bytes

    @classmethod
    def start(cls, system: System) -> "WebServer":
        www = system.userdb.lookup_user("www-data")
        task = system.kernel.user_task(www.uid, www.gid, comm="apache2")
        task.exe_path = "/usr/sbin/apache2"
        sock = system.kernel.sys_socket(task, AddressFamily.AF_INET,
                                        SocketType.STREAM)
        system.kernel.sys_bind(task, sock, "127.0.0.1", WEB_PORT)
        system.kernel.sys_listen(task, sock)
        return cls(system, task, sock, b"H" * RESPONSE_BYTES)

    def handle(self, request: Packet) -> None:
        reply = request.reply_template()
        reply.payload = self.response
        self.system.kernel.sys_sendto(self.task, self.socket, reply)


class ABDriver:
    """One benchmark client population against one server."""

    def __init__(self, system: System, concurrency: int):
        self.system = system
        self.kernel = system.kernel
        self.server = WebServer.start(system)
        self.concurrency = concurrency
        self.client_task = system.session_for("alice")
        self.clients = []
        for _ in range(concurrency):
            sock = self.kernel.sys_socket(self.client_task,
                                          AddressFamily.AF_INET,
                                          SocketType.STREAM)
            self.kernel.net.bind_socket(sock, "127.0.0.1", 0)
            self.clients.append(sock)

    def round(self) -> int:
        """One request per concurrent client; returns bytes moved."""
        moved = 0
        for sock in self.clients:
            request = Packet(Protocol.TCP, "127.0.0.1", "127.0.0.1",
                             src_port=sock.local_port, dst_port=WEB_PORT,
                             payload=b"GET / HTTP/1.0\r\n\r\n")
            self.kernel.sys_sendto(self.client_task, sock, request)
            incoming = self.kernel.sys_recvfrom(self.server.task,
                                                self.server.socket)
            self.server.handle(incoming)
            response = self.kernel.sys_recvfrom(self.client_task, sock)
            moved += len(response.payload)
        return moved


def run_apachebench(concurrency: int, rounds: int = 30,
                    batches: int = 5) -> Tuple[BenchResult, BenchResult]:
    """Time-per-request and transfer-rate rows for one concurrency.

    ``time_pair`` measures microseconds per *round* (one request per
    client); both derived rows transform that measurement, so the
    confidence interval must ride along through the same transform:

    * per-request time is ``t / C`` — a linear scale, the CI divides
      by the same ``C``;
    * transfer rate is ``B / t`` — for ``y = B/x`` a half-width ``dx``
      propagates as ``dy = (B/x^2) dx`` (first-order).

    These rows used to report the raw per-round CI against the scaled
    values, which is how a 13.7µs/req mean ended up printed with a
    ±254µs interval: the interval belonged to a different unit.
    """
    linux_system, protego_system = build_pair()
    linux_driver = ABDriver(linux_system, concurrency)
    protego_driver = ABDriver(protego_system, concurrency)
    (linux_us, linux_ci), (protego_us, protego_ci) = time_pair(
        linux_driver.round, protego_driver.round, rounds, batches)
    paper = PAPER_TIME_PER_REQUEST[concurrency]
    time_result = BenchResult(
        name=f"ab {concurrency} conc reqs", unit="us/req",
        linux_value=linux_us / concurrency,
        linux_ci=linux_ci / concurrency,
        protego_value=protego_us / concurrency,
        protego_ci=protego_ci / concurrency,
        paper_linux=paper[0], paper_protego=paper[1],
        paper_overhead_percent=paper[2],
    )
    bytes_per_round = concurrency * RESPONSE_BYTES
    paper_rate = PAPER_TRANSFER_RATE[concurrency]
    rate_result = BenchResult(
        name=f"ab {concurrency} transfer", unit="MB/s",
        linux_value=bytes_per_round / linux_us,      # bytes/us == MB/s
        linux_ci=bytes_per_round / linux_us ** 2 * linux_ci,
        protego_value=bytes_per_round / protego_us,
        protego_ci=bytes_per_round / protego_us ** 2 * protego_ci,
        paper_linux=paper_rate[0], paper_protego=paper_rate[1],
        paper_overhead_percent=paper_rate[2],
        higher_is_better=True,
    )
    return time_result, rate_result
