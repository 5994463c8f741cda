"""Unit tests for the VFS watch framework."""

import pytest

from repro.daemon.inotify import FileWatcher
from repro.kernel import Kernel, modes


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def watcher(kernel):
    return FileWatcher(kernel)


def events_of(kind, events):
    return [e for e in events if e.kind == kind]


class TestFileWatch:
    def test_no_event_when_unchanged(self, kernel, watcher):
        kernel.write_file(kernel.init, "/etc/fstab", b"x")
        seen = []
        watcher.watch_file("/etc/fstab", seen.append)
        assert watcher.poll() == []
        assert seen == []

    def test_modification_fires_once(self, kernel, watcher):
        kernel.write_file(kernel.init, "/etc/fstab", b"x")
        seen = []
        watcher.watch_file("/etc/fstab", seen.append)
        kernel.write_file(kernel.init, "/etc/fstab", b"y")
        events = watcher.poll()
        assert len(events) == 1
        assert events[0].kind == "modified"
        assert watcher.poll() == []  # consumed

    def test_same_content_rewrite_no_event(self, kernel, watcher):
        kernel.write_file(kernel.init, "/etc/fstab", b"x")
        watcher.watch_file("/etc/fstab", lambda e: None)
        kernel.write_file(kernel.init, "/etc/fstab", b"x")
        assert watcher.poll() == []

    def test_watch_missing_file_then_created(self, kernel, watcher):
        seen = []
        watcher.watch_file("/etc/bind", seen.append)
        kernel.write_file(kernel.init, "/etc/bind", b"25/tcp /a root")
        events = watcher.poll()
        assert len(events) == 1
        assert events[0].kind == "modified"  # None -> hash counts as change

    def test_suppress_swallows_own_write(self, kernel, watcher):
        kernel.write_file(kernel.init, "/etc/passwd", b"a")
        watcher.watch_file("/etc/passwd", lambda e: None)
        kernel.write_file(kernel.init, "/etc/passwd", b"b")
        watcher.suppress("/etc/passwd")
        assert watcher.poll() == []


class TestDirWatch:
    def test_created_entry(self, kernel, watcher):
        kernel.sys_mkdir(kernel.init, "/etc/sudoers.d")
        seen = []
        watcher.watch_dir("/etc/sudoers.d", seen.append)
        kernel.write_file(kernel.init, "/etc/sudoers.d/extra", b"r")
        events = watcher.poll()
        assert [e.kind for e in events] == ["created"]
        assert events[0].path == "/etc/sudoers.d/extra"

    def test_deleted_entry(self, kernel, watcher):
        kernel.sys_mkdir(kernel.init, "/etc/sudoers.d")
        kernel.write_file(kernel.init, "/etc/sudoers.d/extra", b"r")
        watcher.watch_dir("/etc/sudoers.d", lambda e: None)
        kernel.sys_unlink(kernel.init, "/etc/sudoers.d/extra")
        events = watcher.poll()
        assert [e.kind for e in events] == ["deleted"]

    def test_modified_entry(self, kernel, watcher):
        kernel.sys_mkdir(kernel.init, "/d")
        kernel.write_file(kernel.init, "/d/f", b"1")
        watcher.watch_dir("/d", lambda e: None)
        kernel.write_file(kernel.init, "/d/f", b"2")
        events = watcher.poll()
        assert [e.kind for e in events] == ["modified"]

    def test_multiple_changes_in_one_poll(self, kernel, watcher):
        kernel.sys_mkdir(kernel.init, "/d")
        kernel.write_file(kernel.init, "/d/a", b"1")
        watcher.watch_dir("/d", lambda e: None)
        kernel.write_file(kernel.init, "/d/a", b"2")
        kernel.write_file(kernel.init, "/d/b", b"new")
        events = watcher.poll()
        kinds = sorted(e.kind for e in events)
        assert kinds == ["created", "modified"]


class TestKernelSideFingerprints:
    """The watcher reads inodes, not files: a poll costs no syscall,
    yet every byte change still fires exactly one event."""

    @pytest.fixture
    def watched(self, kernel, watcher):
        kernel.sys_mkdir(kernel.init, "/d")
        kernel.write_file(kernel.init, "/d/a", b"1")
        kernel.write_file(kernel.init, "/etc/fstab", b"x")
        seen = []
        watcher.watch_dir("/d", seen.append)
        watcher.watch_file("/etc/fstab", seen.append)
        return seen

    def test_unchanged_poll_is_syscall_free(self, kernel, watcher, watched):
        clock = kernel.clock
        seq = kernel.security_server.audit.seq
        for _ in range(3):
            assert watcher.poll() == []
        assert kernel.clock == clock
        assert kernel.security_server.audit.seq == seq
        assert watched == []

    def test_sys_write_fires_once(self, kernel, watcher, watched):
        fd = kernel.sys_open(kernel.init, "/d/a", modes.O_WRONLY)
        kernel.sys_write(kernel.init, fd, b"2")
        kernel.sys_close(kernel.init, fd)
        assert [(e.path, e.kind) for e in watcher.poll()] == [("/d/a", "modified")]
        assert watcher.poll() == []

    def test_rename_over_fires_once(self, kernel, watcher, watched):
        kernel.write_file(kernel.init, "/etc/fstab.tmp", b"y")
        kernel.sys_rename(kernel.init, "/etc/fstab.tmp", "/etc/fstab")
        assert [(e.path, e.kind) for e in watcher.poll()] == [
            ("/etc/fstab", "modified")]
        assert watcher.poll() == []

    def test_unlink_fires_once(self, kernel, watcher, watched):
        kernel.sys_unlink(kernel.init, "/d/a")
        kernel.sys_unlink(kernel.init, "/etc/fstab")
        assert sorted((e.path, e.kind) for e in watcher.poll()) == [
            ("/d/a", "deleted"), ("/etc/fstab", "modified")]
        assert watcher.poll() == []
        assert len(watched) == 2

    def test_directories_have_no_fingerprint(self, kernel, watcher):
        kernel.sys_mkdir(kernel.init, "/d")
        assert watcher._fingerprint("/d") is None
        assert watcher._fingerprint("/missing") is None
        assert watcher._listdir("/missing") == []
