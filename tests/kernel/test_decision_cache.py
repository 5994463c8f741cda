"""The reference monitor: decision cache, invalidation, audit trail.

Covers the AVC-style behaviours the refactor introduced:

* repeated opens are answered from the decision cache;
* chmod invalidates exactly the affected object's entries;
* a setuid credential commit orphans the caller's cached decisions;
* a daemon-driven sudoers reload flushes the cache globally;
* denials carry a ``<module>:<hook>`` context naming the deciding
  layer;
* /proc/protego/audit replays recent decisions with subject, object,
  hook, verdict, and deciding layer.
"""

import dataclasses
import functools

import pytest

from repro.core.procfiles import AUDIT_PROC_PATH
from repro.core.system import System, SystemMode
from repro.kernel import Kernel, modes
from repro.kernel.capabilities import Capability
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.lsm import HookResult, LSMChain, SecurityModule, deny_errno
from repro.kernel.security import OBJ, Decision


@pytest.fixture
def kernel():
    # These tests count decision-cache hits/misses (the oracle layer);
    # the fused fast path would otherwise serve warm opens before the
    # server ever sees them.
    k = Kernel()
    k.fastpath.enabled = False
    return k


@pytest.fixture
def root(kernel):
    return kernel.root_task()


@pytest.fixture
def alice(kernel):
    return kernel.user_task(1000, 1000)


def _probed_sid(kernel, task):
    """The subject id a cacheable request from *task* is keyed on."""
    kernel.capable(task, Capability.CAP_CHOWN)
    return task.sid


def cached_objects(kernel):
    """The object identities currently in the decision cache (every
    path-keyed cache holds its key's object at index 1)."""
    return {key[1] for key in kernel.security_server._cache}


class TestDecisionCacheHits:
    def test_repeated_open_hits_cache(self, kernel, root):
        kernel.write_file(root, "/etc/motd", b"hello\n")
        server = kernel.security_server
        fd = kernel.sys_open(root, "/etc/motd")
        kernel.sys_close(root, fd)
        hits_before = server.stats.hits
        for _ in range(3):
            fd = kernel.sys_open(root, "/etc/motd")
            kernel.sys_close(root, fd)
        assert server.stats.hits == hits_before + 3

    def test_cache_hit_returns_same_inode(self, kernel, root):
        kernel.write_file(root, "/etc/motd", b"payload")
        fd1 = kernel.sys_open(root, "/etc/motd")
        fd2 = kernel.sys_open(root, "/etc/motd")
        assert (root.fdtable.get(fd1).inode
                is root.fdtable.get(fd2).inode)
        assert kernel.sys_read(root, fd2) == b"payload"

    def test_distinct_subjects_get_distinct_entries(self, kernel, root, alice):
        kernel.write_file(root, "/tmp/shared", b"x")
        fd = kernel.sys_open(root, "/tmp/shared")
        kernel.sys_close(root, fd)
        misses_before = kernel.security_server.stats.misses
        fd = kernel.sys_open(alice, "/tmp/shared")
        kernel.sys_close(alice, fd)
        # Alice's first open cannot reuse root's entry.
        assert kernel.security_server.stats.misses == misses_before + 1

    def test_negative_lookups_are_never_cached(self, kernel, root):
        server = kernel.security_server
        for _ in range(2):
            with pytest.raises(SyscallError) as err:
                kernel.sys_open(root, "/no/such/file")
            assert err.value.errno_value == Errno.ENOENT
        # Both attempts recomputed: an ENOENT must not mask a later
        # create of the same name.
        assert server.stats.hits == 0

    def test_a_cached_decision_cannot_be_changed(self, kernel, root):
        kernel.write_file(root, "/etc/motd", b"x")
        server = kernel.security_server
        question = functools.partial(
            server.check, "file_open", root, "/etc/motd",
            ("/etc/motd", OBJ, 0), mask=modes.R_OK,
            dac=lambda: kernel.vfs.lookup("/etc/motd", root.cred, modes.R_OK))
        first = question()
        hits_before = server.stats.hits
        served = question()
        assert server.stats.hits == hits_before + 1
        assert served is first and served.fastpath_ok
        assert served.value is kernel.vfs.resolve("/etc/motd")
        for field in Decision._fields:
            with pytest.raises(AttributeError):
                setattr(served, field, None)
        assert question() == first

    def test_capability_hits_count_and_audit(
            self, kernel, alice, monkeypatch):
        server = kernel.security_server
        checks = []
        check = server.check
        monkeypatch.setattr(server, "check", lambda hook, *args, **kwargs: (
            checks.append(hook) or check(hook, *args, **kwargs)))
        assert not kernel.capable(alice, Capability.CAP_SYS_ADMIN)
        stats = dataclasses.replace(server.stats)
        assert not kernel.capable(alice, Capability.CAP_SYS_ADMIN)
        assert checks == ["capable", "capable"]
        assert (server.stats.lookups, server.stats.hits, server.stats.misses) \
            == (stats.lookups + 1, stats.hits + 1, stats.misses)
        miss, hit = server.audit.entries()[-2:]
        assert dataclasses.replace(hit, seq=miss.seq, clock=miss.clock,
                                   cached=False) == miss
        assert hit.cached and hit.obj == "cap:CAP_SYS_ADMIN"

    def test_denial_can_be_cached(self, kernel, root, alice):
        kernel.write_file(root, "/etc/secret", b"x")
        kernel.sys_chmod(root, "/etc/secret", 0o600)
        server = kernel.security_server
        with pytest.raises(SyscallError):
            kernel.sys_open(alice, "/etc/secret")
        hits_before = server.stats.hits
        with pytest.raises(SyscallError) as err:
            kernel.sys_open(alice, "/etc/secret")
        assert err.value.errno_value == Errno.EACCES
        assert server.stats.hits == hits_before + 1


class TestInvalidation:
    def test_chmod_invalidates_exactly_the_affected_object(self, kernel, root):
        kernel.write_file(root, "/tmp/a", b"")
        kernel.write_file(root, "/tmp/b", b"")
        for path in ("/tmp/a", "/tmp/b"):
            fd = kernel.sys_open(root, path)
            kernel.sys_close(root, fd)
        assert {"/tmp/a", "/tmp/b"} <= cached_objects(kernel)
        kernel.sys_chmod(root, "/tmp/a", 0o600)
        remaining = cached_objects(kernel)
        assert "/tmp/a" not in remaining
        assert "/tmp/b" in remaining

    def test_chmod_on_directory_invalidates_descendants(self, kernel, root):
        kernel.sys_mkdir(root, "/srv")
        kernel.write_file(root, "/srv/data", b"")
        fd = kernel.sys_open(root, "/srv/data")
        kernel.sys_close(root, fd)
        assert "/srv/data" in cached_objects(kernel)
        kernel.sys_chmod(root, "/srv", 0o700)
        assert "/srv/data" not in cached_objects(kernel)

    def test_unlink_and_recreate_is_not_served_stale(self, kernel, root):
        kernel.write_file(root, "/tmp/volatile", b"old")
        fd = kernel.sys_open(root, "/tmp/volatile")
        kernel.sys_close(root, fd)
        kernel.sys_unlink(root, "/tmp/volatile")
        kernel.write_file(root, "/tmp/volatile", b"new")
        assert kernel.read_file(root, "/tmp/volatile") == b"new"

    def test_protect_binary_drops_previously_cached_open(self):
        """The cacheability veto runs at insert time, so registering a
        binary-ACL entry must evict any decision cached before the
        path became sensitive — and later opens must stay uncached."""
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        root = system.root_session()
        kernel.sys_mkdir(root, "/opt")
        kernel.write_file(root, "/opt/appkey", b"SECRET")
        for _ in range(2):
            fd = kernel.sys_open(root, "/opt/appkey")
            kernel.sys_close(root, fd)
        assert "/opt/appkey" in cached_objects(kernel)
        protego = kernel.lsm.find("protego")
        protego.protect_binary("/opt/appkey", ("/usr/bin/app",))
        assert "/opt/appkey" not in cached_objects(kernel)
        root.exe_path = "/bin/cat"
        with pytest.raises(SyscallError):
            kernel.sys_open(root, "/opt/appkey")
        root.exe_path = "/usr/bin/app"
        fd = kernel.sys_open(root, "/opt/appkey")
        kernel.sys_close(root, fd)
        assert "/opt/appkey" not in cached_objects(kernel)

    def test_setuid_commit_changes_the_sid(self, kernel, root):
        sid_before = _probed_sid(kernel, root)
        kernel.sys_setuid(root, 1000)
        assert _probed_sid(kernel, root) != sid_before

    def test_setuid_commit_orphans_cached_decisions(self, kernel, root):
        kernel.write_file(root, "/tmp/data", b"")
        # Warm the cache under root's credentials.
        fd = kernel.sys_open(root, "/tmp/data")
        kernel.sys_close(root, fd)
        server = kernel.security_server
        kernel.sys_setuid(root, 1000)
        hits_before = server.stats.hits
        misses_before = server.stats.misses
        fd = kernel.sys_open(root, "/tmp/data")
        kernel.sys_close(root, fd)
        # The old entry is unreachable: the open recomputed.
        assert server.stats.hits == hits_before
        assert server.stats.misses > misses_before

    def test_euid_only_setuid_also_commits(self, kernel):
        task = kernel.new_task(
            kernel.init.cred.__class__(ruid=1000, euid=1000, suid=0,
                                       fsuid=1000, rgid=1000, egid=1000,
                                       sgid=1000, fsgid=1000))
        sid_before = _probed_sid(kernel, task)
        kernel.sys_setuid(task, 0)  # suid=0 permits the euid switch
        assert task.cred.euid == 0
        assert _probed_sid(kernel, task) != sid_before

    def test_mount_invalidates_the_mountpoint_subtree(self, kernel, root):
        kernel.sys_mkdir(root, "/mnt/disk")
        kernel.write_file(root, "/mnt/disk/file", b"")
        fd = kernel.sys_open(root, "/mnt/disk/file")
        kernel.sys_close(root, fd)
        assert "/mnt/disk/file" in cached_objects(kernel)
        kernel.sys_mount(root, "none", "/mnt/disk", "tmpfs")
        assert "/mnt/disk/file" not in cached_objects(kernel)


class TestPolicyReloadFlush:
    def test_daemon_sudoers_reload_flushes_the_cache(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        server = kernel.security_server
        alice = system.session_for("alice")
        # Warm the cache with alice's decisions.
        assert kernel.sys_access(alice, "/etc/fstab", modes.R_OK)
        assert kernel.sys_access(alice, "/etc/fstab", modes.R_OK)
        assert "/etc/fstab" in cached_objects(kernel)
        flushes_before = server.stats.flushes
        kernel.write_file(kernel.init, "/etc/sudoers",
                          b"root ALL=(ALL) ALL\n")
        system.sync()
        assert server.stats.flushes > flushes_before
        assert "/etc/fstab" not in cached_objects(kernel)

    def test_proc_policy_write_flushes(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        server = kernel.security_server
        root = system.root_session()
        assert kernel.sys_access(root, "/etc/fstab", modes.R_OK)
        flushes_before = server.stats.flushes
        payload = kernel.read_file(root, "/proc/protego/binds")
        kernel.write_file(root, "/proc/protego/binds", payload, create=False)
        assert server.stats.flushes > flushes_before

    def test_apparmor_profile_load_flushes(self, kernel, root):
        from repro.apparmor.profiles import Profile
        server = kernel.security_server
        kernel.write_file(root, "/etc/motd", b"x")
        fd = kernel.sys_open(root, "/etc/motd")
        kernel.sys_close(root, fd)
        assert server.cache_len() > 0
        apparmor = kernel.lsm.find("apparmor")
        if apparmor is None:
            from repro.apparmor.module import AppArmorLSM
            apparmor = kernel.register_module(AppArmorLSM())
        apparmor.load_profile(Profile(binary="/usr/bin/thing"))
        assert server.cache_len() == 0


class TestDenialAttribution:
    def test_lsm_denial_context_names_module_and_hook(self, kernel, alice):
        class Denier(SecurityModule):
            name = "denier"

            def file_open(self, task, path, inode, flags):
                if path == "/vault":
                    return HookResult.DENY
                return HookResult.PASS

        kernel.write_file(kernel.root_task(), "/vault", b"x")
        kernel.register_module(Denier())
        with pytest.raises(SyscallError) as err:
            kernel.sys_open(alice, "/vault")
        assert err.value.context.startswith("denier:file_open")
        assert err.value.errno_value == Errno.EACCES

    def test_capability_denial_context_names_the_layer(self, kernel, alice):
        with pytest.raises(SyscallError) as err:
            kernel.sys_mount(alice, "none", "/mnt", "tmpfs")
        assert err.value.errno_value == Errno.EPERM
        assert err.value.context.startswith("capability:sb_mount")

    def test_dac_denial_context_names_the_layer(self, kernel, root, alice):
        kernel.write_file(root, "/etc/secret", b"x")
        kernel.sys_chmod(root, "/etc/secret", 0o600)
        with pytest.raises(SyscallError) as err:
            kernel.sys_open(alice, "/etc/secret")
        assert err.value.context.startswith("dac:file_open")

    def test_protego_bind_denial_is_attributed(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        from repro.kernel.net.socket import AddressFamily, SocketType
        sock = kernel.sys_socket(alice, AddressFamily.AF_INET, SocketType.STREAM)
        with pytest.raises(SyscallError) as err:
            kernel.sys_bind(alice, sock, "0.0.0.0", 25)
        assert err.value.errno_value == Errno.EACCES
        assert err.value.context.startswith("protego:socket_bind")

    def test_chain_short_circuits_on_first_deny(self):
        calls = []

        class First(SecurityModule):
            name = "first"

            def file_open(self, task, path, inode, flags):
                calls.append("first")
                return HookResult.DENY

        class Second(SecurityModule):
            name = "second"

            def file_open(self, task, path, inode, flags):
                calls.append("second")
                return HookResult.ALLOW

        chain = LSMChain([First(), Second()])
        result, module = chain.call_detailed("file_open", None, "/x", None, 0)
        assert result is HookResult.DENY
        assert module == "first"
        assert calls == ["first"]
        # The same on a booted kernel whose chain the two join after
        # AppArmor and Protego: each binds its hooks as it registers.
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        kernel.fastpath.enabled = False
        alice = system.session_for("alice")
        kernel.register_module(First())
        kernel.register_module(Second())
        del calls[:]
        with pytest.raises(SyscallError) as err:
            kernel.read_file(alice, "/etc/fstab")
        assert err.value.context == "first:file_open"
        assert calls == ["first"]

    def test_deny_errno_carries_module_context(self):
        err = deny_errno("protego", "sb_mount", "/dev/cdrom")
        assert err.errno_value == Errno.EPERM
        assert err.context == "protego:sb_mount: /dev/cdrom"


class TestAuditTrail:
    def test_audit_records_allow_and_deny_with_attribution(self, kernel, root, alice):
        kernel.write_file(root, "/etc/secret", b"x")
        kernel.sys_chmod(root, "/etc/secret", 0o600)
        fd = kernel.sys_open(root, "/etc/secret")
        kernel.sys_close(root, fd)
        with pytest.raises(SyscallError):
            kernel.sys_open(alice, "/etc/secret")
        entries = kernel.security_server.audit.entries()
        opens = [e for e in entries
                 if e.hook == "file_open" and e.obj == "/etc/secret"]
        assert any(e.verdict == "allow" and e.pid == root.pid for e in opens)
        denied = [e for e in opens if e.verdict == "deny"]
        assert denied
        assert denied[-1].pid == alice.pid
        assert denied[-1].layer == "dac"
        assert denied[-1].errno == "EACCES"

    def test_cached_decisions_are_audited_as_hits(self, kernel, root):
        kernel.write_file(root, "/etc/motd", b"x")
        for _ in range(2):
            fd = kernel.sys_open(root, "/etc/motd")
            kernel.sys_close(root, fd)
        opens = [e for e in kernel.security_server.audit.entries()
                 if e.hook == "file_open" and e.obj == "/etc/motd"]
        # write_file's creating open is uncacheable; the two read opens
        # are a miss followed by a hit.
        assert [e.cached for e in opens[-2:]] == [False, True]

    def test_audit_ring_is_bounded(self, kernel, root):
        ring = kernel.security_server.audit
        for i in range(ring.capacity + 50):
            kernel.sys_access(root, "/", modes.R_OK)
        assert len(ring) == ring.capacity
        assert ring.dropped > 0

    def test_proc_audit_replays_decisions(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        root = system.root_session()
        alice = system.session_for("alice")
        with pytest.raises(SyscallError):
            kernel.sys_open(alice, "/etc/sudoers")
        text = kernel.read_file(root, AUDIT_PROC_PATH).decode()
        lines = [line for line in text.splitlines() if line]
        assert lines, "audit procfile should replay recent decisions"
        denial = next(line for line in reversed(lines)
                      if "obj=/etc/sudoers" in line and "verdict=deny" in line)
        assert f"pid={alice.pid}" in denial
        assert "hook=file_open" in denial
        assert "layer=dac" in denial
        assert "uid=1000" in denial

    def test_proc_audit_is_root_only(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        with pytest.raises(SyscallError):
            kernel.sys_open(alice, AUDIT_PROC_PATH)
