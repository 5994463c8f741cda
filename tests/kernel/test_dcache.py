"""Dentry-cache tests: single-walk lookups, negative entries, and the
invalidation routes (path prefix, a mount's at its mountpoint included,
and inode generation).

The structural bar for the refactor is walk count: a cold path-taking
syscall performs exactly one component walk; a warm one performs zero.
The correctness bar is that no mutation — rename, mount/umount,
create-after-ENOENT, chmod, setuid — is ever masked by a stale hit.
"""

import pytest

from repro.core.procfiles import METRICS_PROC_PATH
from repro.core.system import System, SystemMode
from repro.kernel import Kernel, modes
from repro.kernel.cred import Credentials
from repro.kernel.dcache import MAX_ENTRIES
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.inode import make_dir, make_file, make_symlink
from repro.kernel.vfs import VFS, Filesystem


@pytest.fixture
def kernel():
    # These tests exercise the dentry cache itself (the oracle layer);
    # the fused fast path would otherwise absorb the warm hits the
    # assertions count.
    k = Kernel()
    k.fastpath.enabled = False
    return k


@pytest.fixture
def root(kernel):
    return kernel.root_task()


@pytest.fixture
def alice(kernel):
    return kernel.user_task(1000, 1000)


@pytest.fixture
def vfs():
    v = VFS()
    tree = v.rootfs.root
    tree.entries["etc"] = make_dir()
    tree.entries["etc"].entries["passwd"] = make_file(b"root:x:0:0\n")
    return v


class TestSingleWalk:
    def test_cold_stat_performs_exactly_one_walk(self, kernel, root):
        kernel.write_file(root, "/etc/motd", b"x")
        stats = kernel.vfs.dcache.stats
        walks_before = stats.walks
        kernel.sys_stat(root, "/etc/motd")
        assert stats.walks == walks_before + 1

    def test_warm_stat_performs_zero_walks(self, kernel, root):
        kernel.write_file(root, "/etc/motd", b"x")
        kernel.sys_stat(root, "/etc/motd")
        stats = kernel.vfs.dcache.stats
        walks_before, hits_before = stats.walks, stats.hits
        for _ in range(3):
            kernel.sys_stat(root, "/etc/motd")
        assert stats.walks == walks_before
        assert stats.hits == hits_before + 3

    def test_warm_open_performs_zero_walks(self, kernel, root):
        # The decision cache would hide the dcache; bypass it so the
        # open's DAC thunk actually runs.
        kernel.security_server.cache_enabled = False
        kernel.write_file(root, "/etc/motd", b"x")
        fd = kernel.sys_open(root, "/etc/motd")
        kernel.sys_close(root, fd)
        stats = kernel.vfs.dcache.stats
        walks_before = stats.walks
        fd = kernel.sys_open(root, "/etc/motd")
        kernel.sys_close(root, fd)
        assert stats.walks == walks_before

    def test_hit_returns_the_same_inode(self, vfs):
        first = vfs.lookup("/etc/passwd")
        second = vfs.lookup("/etc/passwd")
        assert first is second

    def test_disabled_cache_walks_every_time(self, vfs):
        vfs.dcache.enabled = False
        vfs.lookup("/etc/passwd")
        vfs.lookup("/etc/passwd")
        assert vfs.dcache.stats.walks == 2
        assert vfs.dcache.stats.hits == 0


class TestNegativeEntries:
    def test_repeated_enoent_is_answered_negatively(self, vfs):
        stats = vfs.dcache.stats
        for _ in range(2):
            with pytest.raises(SyscallError) as err:
                vfs.lookup("/etc/nope")
            assert err.value.errno_value == Errno.ENOENT
        assert stats.walks == 1
        assert stats.negative_hits == 1

    @pytest.mark.parametrize("path", ["/etc/nope", "/etc/nodir/leaf"])
    def test_a_negative_hit_raises_the_cold_walks_context(self, vfs, path):
        contexts = []
        for enabled in (True, True, False):  # cold, warm, dcache off
            vfs.dcache.enabled = enabled
            with pytest.raises(SyscallError) as err:
                vfs.lookup(path)
            assert err.value.errno_value == Errno.ENOENT
            contexts.append(err.value.context)
        assert vfs.dcache.stats.negative_hits == 1
        assert contexts == [path.split("/")[2]] * 3

    @pytest.mark.parametrize("mode", [SystemMode.LINUX, SystemMode.PROTEGO])
    def test_an_enoent_record_does_not_depend_on_the_caches(self, mode):
        # The red-team battery records the denial context of a missing
        # fragment directory on legacy; it must read the same whether
        # the negative entry was cached, and with every cache off.
        def contexts(system):
            alice = system.session_for("alice")
            seen = []
            for call in (system.kernel.sys_stat, system.kernel.sys_open) * 2:
                with pytest.raises(SyscallError) as err:
                    call(alice, "/etc/nowhere/bob")
                assert err.value.errno_value == Errno.ENOENT
                seen.append(err.value.context)
            return seen

        cached = contexts(System(mode))
        uncached = System(mode)
        uncached.kernel.fastpath.enabled = False
        uncached.kernel.vfs.dcache.enabled = False
        assert cached == contexts(uncached)
        assert cached[:2] == cached[2:]

    def test_create_clears_the_negative_entry(self, kernel, root):
        with pytest.raises(SyscallError):
            kernel.sys_stat(root, "/tmp/coming-soon")
        kernel.write_file(root, "/tmp/coming-soon", b"here")
        assert kernel.read_file(root, "/tmp/coming-soon") == b"here"

    def test_mkdir_clears_the_negative_entry(self, kernel, root):
        with pytest.raises(SyscallError):
            kernel.sys_stat(root, "/srv")
        kernel.sys_mkdir(root, "/srv")
        assert kernel.sys_stat(root, "/srv").mode & modes.S_IFDIR

    def test_only_enoent_is_cached_negatively(self, vfs):
        # ENOTDIR (a file used as a directory) must not leave a
        # negative entry behind.
        with pytest.raises(SyscallError) as err:
            vfs.lookup("/etc/passwd/sub")
        assert err.value.errno_value == Errno.ENOTDIR
        assert "/etc/passwd/sub" not in vfs.dcache.cached_paths()

    def test_procfs_registration_clears_negative_entries(self, kernel, root):
        with pytest.raises(SyscallError):
            kernel.sys_stat(root, "/proc/protego/late")
        kernel.procfs.register("protego/late", read_fn=lambda: b"now\n")
        assert kernel.read_file(root, "/proc/protego/late") == b"now\n"


class TestSymlinks:
    def test_symlink_crossing_walks_are_not_cached(self, vfs):
        vfs.rootfs.root.entries["link"] = make_symlink("/etc/passwd")
        vfs.lookup("/link")
        assert "/link" not in vfs.dcache.cached_paths()

    def test_nofollow_and_follow_are_distinct_entries(self, vfs):
        vfs.rootfs.root.entries["link"] = make_symlink("/etc/passwd")
        nofollow = vfs.lookup("/link", follow_final_symlink=False)
        assert nofollow.is_symlink()
        follow = vfs.lookup("/link")
        assert not follow.is_symlink()

    def test_path_permission_symlink_loop_raises_eloop(self, vfs):
        # Regression: the permission walk used to recurse without a
        # depth limit and died with RecursionError on a 2-cycle.
        vfs.rootfs.root.entries["a"] = make_symlink("/b")
        vfs.rootfs.root.entries["b"] = make_symlink("/a")
        with pytest.raises(SyscallError) as err:
            vfs.path_permission(Credentials.for_root(), "/a", modes.R_OK)
        assert err.value.errno_value == Errno.ELOOP

    def test_retargeted_symlink_is_never_served_stale(self, kernel, root):
        kernel.write_file(root, "/tmp/one", b"1")
        kernel.write_file(root, "/tmp/two", b"2")
        kernel.sys_symlink(root, "/tmp/one", "/tmp/cur")
        assert kernel.read_file(root, "/tmp/cur") == b"1"
        kernel.sys_unlink(root, "/tmp/cur")
        kernel.sys_symlink(root, "/tmp/two", "/tmp/cur")
        assert kernel.read_file(root, "/tmp/cur") == b"2"


class TestMutationInvalidation:
    def test_lookup_after_rename_sees_the_new_name(self, kernel, root):
        kernel.write_file(root, "/tmp/old", b"payload")
        kernel.sys_stat(root, "/tmp/old")  # warm the cache
        kernel.sys_rename(root, "/tmp/old", "/tmp/new")
        with pytest.raises(SyscallError) as err:
            kernel.sys_stat(root, "/tmp/old")
        assert err.value.errno_value == Errno.ENOENT
        assert kernel.read_file(root, "/tmp/new") == b"payload"

    def test_renamed_directory_subtree_is_invalidated(self, kernel, root):
        kernel.sys_mkdir(root, "/srv")
        kernel.write_file(root, "/srv/data", b"d")
        kernel.sys_stat(root, "/srv/data")
        kernel.sys_rename(root, "/srv", "/opt")
        with pytest.raises(SyscallError) as err:
            kernel.sys_stat(root, "/srv/data")
        assert err.value.errno_value == Errno.ENOENT
        assert kernel.read_file(root, "/opt/data") == b"d"

    def test_unlink_then_recreate_is_fresh(self, kernel, root):
        kernel.write_file(root, "/tmp/v", b"old")
        kernel.sys_stat(root, "/tmp/v")
        kernel.sys_unlink(root, "/tmp/v")
        kernel.write_file(root, "/tmp/v", b"new")
        assert kernel.read_file(root, "/tmp/v") == b"new"

    def test_mount_hides_the_underlying_tree(self, kernel, root):
        kernel.sys_mkdir(root, "/mnt/disk")
        kernel.write_file(root, "/mnt/disk/file", b"under")
        kernel.sys_stat(root, "/mnt/disk/file")  # cached pre-mount
        kernel.sys_mount(root, "none", "/mnt/disk", "tmpfs")
        with pytest.raises(SyscallError) as err:
            kernel.sys_stat(root, "/mnt/disk/file")
        assert err.value.errno_value == Errno.ENOENT

    def test_lookup_after_umount_sees_the_underlying_tree(self, kernel, root):
        kernel.sys_mkdir(root, "/mnt/disk")
        kernel.write_file(root, "/mnt/disk/file", b"under")
        kernel.sys_mount(root, "none", "/mnt/disk", "tmpfs")
        with pytest.raises(SyscallError):
            kernel.sys_stat(root, "/mnt/disk/file")  # negative, cached
        kernel.sys_umount(root, "/mnt/disk")
        assert kernel.read_file(root, "/mnt/disk/file") == b"under"

    @pytest.mark.parametrize("mode", list(SystemMode))
    def test_mount_keeps_names_outside_its_mountpoint_warm(self, mode):
        # A booted machine, every cache on: a mount announces only its
        # mountpoint, so warm names elsewhere (a sibling sharing the
        # string prefix "/mnt" included) come back as fused hits
        # without a walk.
        system = System(mode)
        kernel = system.kernel
        root = system.root_session()
        kernel.sys_mkdir(root, "/mntx")
        kernel.write_file(root, "/mntx/file", b"x")
        stats = ("/etc", "/etc/fstab", "/tmp", "/mntx", "/mntx/file",
                 "/etc/absent")
        opens = ("/etc/fstab", "/etc/passwd", "/mntx/file")

        def touch():
            for name in stats:
                try:
                    kernel.sys_stat(root, name)
                except SyscallError as exc:
                    assert exc.errno_value == Errno.ENOENT
            for name in opens:
                kernel.sys_close(root, kernel.sys_open(root, name))

        touch()
        touch()
        kernel.sys_mount(root, "none", "/mnt", "tmpfs")
        before = kernel.metrics.snapshot()
        touch()
        delta = kernel.metrics.delta(before)
        assert delta["kernel.dcache.walks"] == 0
        assert delta["kernel.fastpath.misses"] == 0
        assert delta["kernel.fastpath.hits"] == len(stats) + len(opens)

    def test_mount_change_bumps_the_epoch(self, kernel, root):
        # The mount generation is the hub's; the registry reads it.
        def epoch():
            return kernel.metrics.snapshot()["kernel.generations.mount"]

        before = epoch()
        kernel.sys_mount(root, "none", "/mnt", "tmpfs")
        assert epoch() == before + 1
        kernel.sys_umount(root, "/mnt")
        assert epoch() == before + 2


class TestPermissionInvalidation:
    def test_chmod_revokes_a_cached_allow(self, kernel, root, alice):
        kernel.security_server.cache_enabled = False
        kernel.write_file(root, "/etc/shared", b"x")
        kernel.sys_chmod(root, "/etc/shared", 0o644)
        fd = kernel.sys_open(alice, "/etc/shared")
        kernel.sys_close(alice, fd)
        kernel.sys_chmod(root, "/etc/shared", 0o600)
        with pytest.raises(SyscallError) as err:
            kernel.sys_open(alice, "/etc/shared")
        assert err.value.errno_value == Errno.EACCES

    def test_chmod_clears_a_cached_deny(self, kernel, root, alice):
        kernel.security_server.cache_enabled = False
        kernel.write_file(root, "/etc/locked", b"x")
        kernel.sys_chmod(root, "/etc/locked", 0o600)
        with pytest.raises(SyscallError):
            kernel.sys_open(alice, "/etc/locked")
        kernel.sys_chmod(root, "/etc/locked", 0o644)
        fd = kernel.sys_open(alice, "/etc/locked")
        kernel.sys_close(alice, fd)

    def test_chown_bumps_the_inode_generation(self, kernel, root):
        kernel.write_file(root, "/tmp/f", b"")
        inode = kernel.vfs.resolve("/tmp/f")
        gen = inode.generation
        kernel.sys_chown(root, "/tmp/f", 1000)
        assert inode.generation == gen + 1

    def test_setuid_orphans_cached_permissions(self, kernel, root):
        kernel.security_server.cache_enabled = False
        kernel.write_file(root, "/etc/secret", b"x")
        kernel.sys_chmod(root, "/etc/secret", 0o600)
        fd = kernel.sys_open(root, "/etc/secret")  # cached allow as root
        kernel.sys_close(root, fd)
        kernel.sys_setuid(root, 1000)
        with pytest.raises(SyscallError) as err:
            kernel.sys_open(root, "/etc/secret")
        assert err.value.errno_value == Errno.EACCES

    def test_equal_credentials_share_one_bounded_map(self, kernel, root):
        dcache = kernel.vfs.dcache
        twin = kernel.user_task(1000, 1000)
        other = kernel.user_task(1000, 1000)
        assert twin.cred == other.cred and twin.cred is not other.cred
        kernel.sys_stat(twin, "/etc")
        kernel.sys_stat(other, "/tmp")
        perms = dcache.perms_for(twin.cred)
        assert dcache.perms_for(other.cred) is perms
        # A shared map lives as long as its credentials do, so it is
        # emptied once it outgrows the path map's capacity.
        perms.update((("filler", n), None) for n in range(MAX_ENTRIES))
        assert dcache.perms_for(twin.cred) is perms
        assert not perms
        kernel.sys_stat(twin, "/etc")
        assert perms

    def test_search_permission_enforced_on_hits(self, kernel, root, alice):
        kernel.security_server.cache_enabled = False
        kernel.sys_mkdir(root, "/srv")
        kernel.write_file(root, "/srv/open", b"x")
        kernel.sys_chmod(root, "/srv/open", 0o644)
        kernel.sys_stat(root, "/srv/open")  # positive entry exists
        kernel.sys_chmod(root, "/srv", 0o700)
        # Alice's lookup revalidates search on /srv from the hit path.
        with pytest.raises(SyscallError) as err:
            kernel.sys_stat(alice, "/srv/open")
        assert err.value.errno_value == Errno.EACCES


class TestMountTrie:
    def test_covering_after_detach_falls_back_to_outer(self, vfs):
        vfs.rootfs.root.entries["mnt"] = make_dir()
        outer = Filesystem("tmpfs")
        outer.root.entries["inner"] = make_dir()
        vfs.attach("/mnt", outer)
        vfs.attach("/mnt/inner", Filesystem("tmpfs"))
        vfs.detach("/mnt/inner")
        assert vfs.mount_covering("/mnt/inner/x").fs is outer

    def test_no_mounts_means_no_covering(self, vfs):
        assert vfs.mount_covering("/etc/passwd") is None

    def test_sibling_prefix_does_not_match(self, vfs):
        vfs.rootfs.root.entries["mnt"] = make_dir()
        vfs.attach("/mnt", Filesystem("tmpfs"))
        assert vfs.mount_covering("/mntx/file") is None


class TestProcFile:
    """The dcache's counters are served by /proc/protego/metrics."""

    def test_dcache_proc_file_renders_counters(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        root = system.root_session()
        kernel.fastpath.enabled = False  # let the stats reach the dcache
        kernel.sys_stat(root, "/etc/fstab")
        before = kernel.metrics.snapshot()
        kernel.sys_stat(root, "/etc/fstab")
        after = kernel.metrics.snapshot()
        # The warm stat was one dcache hit and no walk.
        assert after["kernel.dcache.hits"] == before["kernel.dcache.hits"] + 1
        assert after["kernel.dcache.walks"] == before["kernel.dcache.walks"]
        text = kernel.read_file(root, METRICS_PROC_PATH).decode()
        names = {line.split(" ")[0] for line in text.splitlines()}
        assert {"kernel.dcache.lookups", "kernel.dcache.hits",
                "kernel.dcache.walks", "kernel.dcache.entries",
                "kernel.generations.mount"} <= names

    def test_dcache_proc_file_is_root_only(self):
        system = System(SystemMode.PROTEGO)
        kernel = system.kernel
        alice = system.session_for("alice")
        with pytest.raises(SyscallError):
            kernel.sys_open(alice, METRICS_PROC_PATH)
