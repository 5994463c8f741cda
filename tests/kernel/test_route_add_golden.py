"""route_add's outcomes and audit trail in both modes.

route_add is a never-cached question: the security server decides it
afresh on every call. Protego's ppp policy lets a user add a route
over a ppp link, where the kernel then refuses a clash, while any
other unprivileged route add falls back on CAP_NET_ADMIN. This test
runs one fixed script in both modes and pins each step's outcome, the
reference monitor's audit rows and the kernel audit events the script
writes. ``seq`` and ``clock`` depend on what booting did first, so
they are left out; the rows' order keeps each syscall's capability
row beside its route_add row.
"""

import re

import pytest

from repro.core import System, SystemMode
from repro.kernel.errno import SyscallError

_SEQ_CLOCK = re.compile(r"^seq=\d+ clock=\d+ ")

EXPECTED = {
    SystemMode.LINUX: [
        "user adds a ppp route: EPERM capability:route_add: dev ppp0",
        "user adds a clashing ppp route: EPERM capability:route_add: dev ppp1",
        "user adds an eth route: EPERM capability:route_add: dev eth0",
        "root adds an eth route: ok",
        "root clobbers the ppp route: ok",
        "# audit ring",
        "pid=3 uid=1000 euid=1000 hook=capable obj=cap:CAP_NET_ADMIN mask=0 verdict=deny layer=capability cached=0 errno=EPERM",
        "pid=3 uid=1000 euid=1000 hook=route_add obj=route:10.9.0.0/30 mask=0 verdict=deny layer=capability cached=0 errno=EPERM",
        "pid=3 uid=1000 euid=1000 hook=capable obj=cap:CAP_NET_ADMIN mask=0 verdict=deny layer=capability cached=1 errno=EPERM",
        "pid=3 uid=1000 euid=1000 hook=route_add obj=route:10.9.0.0/30 mask=0 verdict=deny layer=capability cached=0 errno=EPERM",
        "pid=3 uid=1000 euid=1000 hook=capable obj=cap:CAP_NET_ADMIN mask=0 verdict=deny layer=capability cached=1 errno=EPERM",
        "pid=3 uid=1000 euid=1000 hook=route_add obj=route:10.10.0.0/24 mask=0 verdict=deny layer=capability cached=0 errno=EPERM",
        "pid=2 uid=0 euid=0 hook=capable obj=cap:CAP_NET_ADMIN mask=0 verdict=allow layer=capability cached=0",
        "pid=2 uid=0 euid=0 hook=route_add obj=route:10.11.0.0/24 mask=0 verdict=allow layer=capability cached=0",
        "pid=2 uid=0 euid=0 hook=capable obj=cap:CAP_NET_ADMIN mask=0 verdict=allow layer=capability cached=1",
        "pid=2 uid=0 euid=0 hook=route_add obj=route:10.9.0.0/30 mask=0 verdict=allow layer=capability cached=0",
        "# audit events",
        "route.add pid=2 uid=0 euid=0 10.11.0.0/24 dev eth0",
        "route.add pid=2 uid=0 euid=0 10.9.0.0/30 dev eth0",
    ],
    SystemMode.PROTEGO: [
        "user adds a ppp route: ok",
        "user adds a clashing ppp route: EEXIST 10.9.0.0/30 overlaps existing 10.9.0.0/30",
        "user adds an eth route: EPERM capability:route_add: dev eth0",
        "root adds an eth route: ok",
        "root clobbers the ppp route: ok",
        "# audit ring",
        "pid=3 uid=1000 euid=1000 hook=route_add obj=route:10.9.0.0/30 mask=0 verdict=allow layer=protego cached=0",
        "pid=3 uid=1000 euid=1000 hook=route_add obj=route:10.9.0.0/30 mask=0 verdict=allow layer=protego cached=0",
        "pid=3 uid=1000 euid=1000 hook=capable obj=cap:CAP_NET_ADMIN mask=0 verdict=deny layer=capability cached=0 errno=EPERM",
        "pid=3 uid=1000 euid=1000 hook=route_add obj=route:10.10.0.0/24 mask=0 verdict=deny layer=capability cached=0 errno=EPERM",
        "pid=2 uid=0 euid=0 hook=capable obj=cap:CAP_NET_ADMIN mask=0 verdict=allow layer=capability cached=0",
        "pid=2 uid=0 euid=0 hook=route_add obj=route:10.11.0.0/24 mask=0 verdict=allow layer=capability cached=0",
        "pid=2 uid=0 euid=0 hook=capable obj=cap:CAP_NET_ADMIN mask=0 verdict=allow layer=capability cached=1",
        "pid=2 uid=0 euid=0 hook=route_add obj=route:10.9.0.0/30 mask=0 verdict=allow layer=capability cached=0",
        "# audit events",
        "route.add pid=3 uid=1000 euid=1000 10.9.0.0/30 dev ppp0",
        "route.add pid=2 uid=0 euid=0 10.11.0.0/24 dev eth0",
        "route.add pid=2 uid=0 euid=0 10.9.0.0/30 dev eth0",
    ],
}


def _outcome(fn):
    try:
        fn()
    except SyscallError as exc:
        return f"{exc.errno_value.name} {exc.context}"
    return "ok"


def transcript(mode):
    system = System(mode)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    audit = kernel.security_server.audit
    seq = audit.seq
    events = len(kernel.audit_events())
    route = kernel.sys_route_add
    steps = (
        ("user adds a ppp route",
         lambda: route(alice, "10.9.0.0/30", "ppp0")),
        ("user adds a clashing ppp route",
         lambda: route(alice, "10.9.0.0/30", "ppp1")),
        ("user adds an eth route",
         lambda: route(alice, "10.10.0.0/24", "eth0")),
        ("root adds an eth route",
         lambda: route(root, "10.11.0.0/24", "eth0")),
        ("root clobbers the ppp route",
         lambda: route(root, "10.9.0.0/30", "eth0")),
    )
    lines = [f"{name}: {_outcome(step)}" for name, step in steps]
    lines.append("# audit ring")
    rows = kernel.security_server.render_audit(audit.seq - seq)
    lines += [_SEQ_CLOCK.sub("", row) for row in rows.splitlines()[1:]]
    lines.append("# audit events")
    lines += [f"{r.event} pid={r.pid} uid={r.uid} euid={r.euid} {r.detail}"
              for r in kernel.audit_events()[events:]]
    return lines


@pytest.mark.parametrize("mode", [SystemMode.LINUX, SystemMode.PROTEGO])
def test_route_add_matches_the_pinned_transcript(mode):
    assert transcript(mode) == EXPECTED[mode]
