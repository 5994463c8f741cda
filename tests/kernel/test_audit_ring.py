"""Audit-ring overflow behaviour: rotation, sequence gaps, /proc header."""

from repro.core import System, SystemMode
from repro.kernel import modes
from repro.kernel.fault import SITE_AUDIT_APPEND
from repro.kernel.security.audit import AuditRing


def make_row(i, verdict="allow"):
    return (i, 100 + i, 1000, 1000, "file_open", f"/tmp/f{i}", 4,
            verdict, "dac", False, "", "")


class TestOverflow:
    def test_oldest_dropped_when_full(self):
        ring = AuditRing(capacity=4)
        for i in range(10):
            ring.record(make_row(i))
        assert len(ring) == 4
        assert ring.dropped == 6
        entries = ring.entries()
        # Only the newest four survive, oldest first.
        assert [e.obj for e in entries] == [
            "/tmp/f6", "/tmp/f7", "/tmp/f8", "/tmp/f9"]

    def test_seq_is_monotonic_across_rotation(self):
        ring = AuditRing(capacity=3)
        for i in range(8):
            ring.record(make_row(i))
        seqs = [e.seq for e in ring.entries()]
        assert seqs == sorted(seqs)
        assert all(b == a + 1 for a, b in zip(seqs, seqs[1:]))
        assert seqs[-1] == 8  # seq counts every record ever appended

    def test_entries_last_n_returns_newest(self):
        ring = AuditRing(capacity=16)
        for i in range(5):
            ring.record(make_row(i))
        tail = ring.entries(last=2)
        assert [e.obj for e in tail] == ["/tmp/f3", "/tmp/f4"]
        assert ring.entries(last=0) == []

    def test_render_header_accounts_for_rotation_and_loss(self):
        ring = AuditRing(capacity=2)
        ring.record(make_row(0))
        ring.record(make_row(1))
        ring.record(make_row(2))
        ring.fault_site.configure(times=1)
        ring.record(make_row(3))  # refused: counted as lost
        text = ring.render()
        header = text.splitlines()[0]
        assert header.startswith("# capacity=2 ")
        assert "dropped=1" in header
        assert "lost=1" in header
        # The lost row left a sequence gap the reader can detect.
        seqs = [e.seq for e in ring.entries()]
        assert seqs == [2, 3] and ring._seq == 4

    def test_deny_rows_survive_injected_loss(self):
        ring = AuditRing(capacity=8)
        ring.fault_site.configure()  # every append refused
        ring.record(make_row(0, verdict="allow"))
        ring.record(make_row(1, verdict="deny"))
        assert ring.lost == 1
        assert ring.rescued_denials == 1
        assert [e.verdict for e in ring.entries()] == ["deny"]


class TestProcSurface:
    def test_proc_audit_renders_lost_header(self):
        system = System(SystemMode.PROTEGO)
        kernel, root = system.kernel, system.root_session()
        kernel.faults.configure(SITE_AUDIT_APPEND, times=3)
        # Drive decisions until the armed site has self-disarmed.
        while kernel.faults.site(SITE_AUDIT_APPEND).armed:
            fd = kernel.sys_open(root, "/etc/passwd", modes.O_RDONLY)
            kernel.sys_close(root, fd)
            kernel.security_server.flush()  # defeat the AVC: fresh rows
        text = kernel.read_file(root, "/proc/protego/audit").decode()
        header = text.splitlines()[0]
        assert header.startswith("# capacity=")
        assert "lost=" in header and "dropped=" in header
        lost = int(header.split("lost=")[1].split()[0])
        rescued = int(header.split("rescued_denials=")[1].split()[0])
        assert lost + rescued == 3

    def test_proc_audit_overflow_end_to_end(self):
        system = System(SystemMode.PROTEGO)
        kernel, root = system.kernel, system.root_session()
        # A right-sized ring keeps the overflow loop cheap.
        ring = AuditRing(capacity=64)
        ring.fault_site = kernel.faults.site(SITE_AUDIT_APPEND)
        kernel.security_server.audit = ring
        while ring.dropped == 0:
            fd = kernel.sys_open(root, "/etc/passwd", modes.O_RDONLY)
            kernel.sys_close(root, fd)
            kernel.security_server.flush()  # defeat the AVC: fresh rows
        assert len(ring) == ring.capacity
        text = kernel.read_file(root, "/proc/protego/audit").decode()
        lines = text.strip().splitlines()
        assert len(lines) == ring.capacity + 1  # header + full ring
        assert int(lines[0].split("dropped=")[1].split()[0]) > 0
        seqs = [int(line.split("seq=")[1].split()[0]) for line in lines[1:]]
        assert all(b == a + 1 for a, b in zip(seqs, seqs[1:]))


def entry_render(entry):
    """The per-entry rendering the ring used before it formatted its
    stored tuples directly: the oracle for :meth:`AuditRing.render`."""
    line = (
        f"seq={entry.seq} clock={entry.clock} pid={entry.pid} "
        f"uid={entry.uid} euid={entry.euid} hook={entry.hook} "
        f"obj={entry.obj} mask={entry.mask} verdict={entry.verdict} "
        f"layer={entry.layer} cached={int(entry.cached)}"
    )
    if entry.errno:
        line += f" errno={entry.errno}"
    return line


class TestRender:
    def test_render_matches_per_entry_rendering(self):
        ring = AuditRing(capacity=6)
        for i in range(8):
            if i % 3 == 0:
                ring.record((i, 100 + i, 1000, 0, "file_open", f"/etc/f{i}",
                             2, "deny", "dac", bool(i % 2), "EACCES",
                             "dac denied"))
            else:
                ring.record(make_row(i))
        ring.record_fused(9, 42, 1000, 1000, ("file_open", "/tmp/x", 4,
                                             "allow", "dac", True, "", ""))
        for last in (None, 0, 3):
            header = (f"# capacity=6 dropped={ring.dropped} lost=0 "
                      f"rescued_denials=0")
            expected = "\n".join(
                [header] + [entry_render(e) for e in ring.entries(last)]) + "\n"
            assert ring.render(last) == expected
        assert " errno=EACCES" in ring.render()
        assert ring.render(0).count("\n") == 1
