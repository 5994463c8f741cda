"""Differential testing: the fused fast path == the layered oracle.

The fused verdict table answers warm stat/open/access with one probe;
the layered walk (dcache + decision cache + LSM chain, here run with
every cache disabled) is the oracle. This property test interleaves
the full mutation vocabulary — chmod, chown, mount, umount, AppArmor
profile (re)loads, transactional policy commits, create/unlink — with
lookups from five tasks, and demands that **every** fused outcome
(success attributes or errno) equals the uncached layered outcome, for
over a thousand seeded rounds per run. Two of the tasks share a
subject id with another: a second alice session running alice's
binary, and a child of bob that execs mid-run and so leaves bob's
context for its own.

The mountpoint, a file it covers and a file that exists only inside
the mounted tmpfs are among the looked-up names, so a mount whose
invalidation misses its own subtree diverges too.

Any missed invalidation edge — a mutation the flush or prefix
fan-out fails to cover — surfaces here as a divergence with the seed,
round, task, and path in the failure message. After every round each
path-keyed cache's reverse path index (the fused table's, the
dcache's and the decision cache's) must also name only keys its table
still holds: an eviction that skips the index leaves a dangling key
behind.
"""

import random

import pytest

from repro.apparmor.profiles import make_profile
from repro.core.procfiles import MOUNTS_PROC_PATH
from repro.core.system import System, SystemMode
from repro.kernel import modes
from repro.kernel.errno import SyscallError

ROUNDS = 1100
MUTATION_RATE = 0.35
#: What bob's child execs halfway through the run.
CHILD_EXEC = "/bin/true"


def _outcome(fn):
    """Run *fn*, folding success value or errno into a comparable."""
    try:
        return ("ok", fn())
    except SyscallError as exc:
        return ("err", exc.errno_value)


def _oracle(kernel, fn):
    """Run *fn* with every cache layer off: the ground-truth walk."""
    fastpath, server, dcache = (kernel.fastpath, kernel.security_server,
                                kernel.vfs.dcache)
    fastpath.enabled = False
    server_saved, dcache_saved = server.cache_enabled, dcache.enabled
    server.cache_enabled = False
    dcache.enabled = False
    try:
        return _outcome(fn)
    finally:
        fastpath.enabled = True
        server.cache_enabled = server_saved
        dcache.enabled = dcache_saved


def _dangling_index_keys(kernel):
    """Keys a path-keyed cache's reverse index holds for entries its
    table no longer has, named by cache."""
    tables = {"fused": kernel.fastpath.table,
              "dcache": kernel.vfs.dcache._entries,
              "avc": kernel.security_server._cache}
    dangling = {}
    for name, table in tables.items():
        keys = [key for group in table.index._keys.values()
                for key in group if key not in table]
        if keys:
            dangling[name] = keys
    return dangling


def _build_world(kernel, root):
    """A scratch tree with mixed ownership and permissions."""
    paths = ["/etc/fstab", "/etc/passwd"]
    kernel.sys_mkdir(root, "/prop")
    for d in ("a", "b"):
        kernel.sys_mkdir(root, f"/prop/{d}")
        for f in ("x", "y"):
            path = f"/prop/{d}/{f}"
            kernel.write_file(root, path, b"seed")
            paths.append(path)
    paths += ["/prop/a", "/prop/b/missing", "/prop/absent/deep"]
    # The mountpoint, a file the mount covers, and a name that exists
    # only inside the tmpfs (written by each mount): a mount must drop
    # every cached answer about them, and nothing else needs to go.
    kernel.sys_mkdir(root, "/prop/mnt")
    kernel.write_file(root, "/prop/mnt/under", b"under")
    paths += ["/prop/mnt", "/prop/mnt/under", "/prop/mnt/top"]
    return paths


@pytest.mark.parametrize("seed", [7, 23])
def test_fused_verdicts_match_the_layered_oracle(seed):
    rng = random.Random(seed)
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    root = system.root_session()
    alice = system.session_for("alice")
    # Give alice her own binary so the AppArmor mutations confine only
    # her lookups, not the mutating root session (every session task
    # shares one exe_path by default).
    alice.exe_path = "/usr/bin/alice-shell"
    bob = system.session_for("bob")
    # Tasks that share a context: alice's second session runs an equal
    # (not identical) exe string, and bob's child shares bob's subject
    # id until it execs.
    alice2 = system.session_for("alice")
    alice2.exe_path = "".join(["/usr/bin/", "alice-shell"])
    bob_child = kernel.sys_fork(bob)
    tasks = {"root": root, "alice": alice, "alice2": alice2, "bob": bob,
             "bob-child": bob_child}
    paths = _build_world(kernel, root)
    apparmor = kernel.lsm.find("apparmor")
    mounts_policy = kernel.read_file(root, MOUNTS_PROC_PATH)
    mounted = False
    file_serial = 0

    def mutate():
        nonlocal mounted, file_serial
        kind = rng.choice(("chmod", "chown", "mount", "umount",
                           "profile", "commit", "create", "unlink"))
        if kind == "chmod":
            kernel.sys_chmod(root, rng.choice(paths[:7]),
                             rng.choice((0o600, 0o640, 0o644, 0o700, 0o755)))
        elif kind == "chown":
            kernel.sys_chown(root, rng.choice(paths[2:7]),
                             rng.choice((0, alice.cred.ruid, bob.cred.ruid)))
        elif kind == "mount" and not mounted:
            kernel.sys_mount(root, "tmpfs", "/prop/mnt", "tmpfs")
            kernel.write_file(root, "/prop/mnt/top", b"top")
            mounted = True
        elif kind == "umount" and mounted:
            kernel.sys_umount(root, "/prop/mnt")
            mounted = False
        elif kind == "profile":
            if rng.random() < 0.5:
                apparmor.load_profile(make_profile(
                    alice.exe_path, [("/prop/a/*", "rw"), ("/etc/**", "r")],
                    enforce=rng.random() < 0.8))
            else:
                apparmor.unload_profile(alice.exe_path)
        elif kind == "commit":
            # Rewriting the mount whitelist is a whole-policy replace:
            # it must orphan every fused verdict.
            kernel.write_file(root, MOUNTS_PROC_PATH, mounts_policy,
                              create=False)
        elif kind == "create":
            file_serial += 1
            kernel.write_file(root, f"/prop/b/n{file_serial % 4}", b"new")
        elif kind == "unlink":
            try:
                kernel.sys_unlink(root, f"/prop/b/n{file_serial % 4}")
            except SyscallError:
                pass  # not currently present

    def lookup(task, path):
        op = rng.choice(("stat", "open", "access"))
        if op == "stat":
            return _outcome(lambda: kernel.sys_stat(task, path)), \
                _oracle(kernel, lambda: kernel.sys_stat(task, path))

        if op == "open":
            def do_open():
                fd = kernel.sys_open(task, path)
                ino = kernel.sys_stat(task, path).ino
                kernel.sys_close(task, fd)
                return ino
            return _outcome(do_open), _oracle(kernel, do_open)

        mask = rng.choice((modes.F_OK, modes.R_OK, modes.W_OK,
                           modes.R_OK | modes.W_OK))
        probe = lambda: kernel.sys_access(task, path, mask)
        return _outcome(probe), _oracle(kernel, probe)

    divergences = []
    index_drift = None
    for round_no in range(ROUNDS):
        if round_no == ROUNDS // 2:
            kernel.sys_execve(bob_child, CHILD_EXEC, run=False)
        if rng.random() < MUTATION_RATE:
            mutate()
        task_name = rng.choice(("root", "alice", "alice", "alice2", "bob",
                                "bob-child"))
        path = rng.choice(paths + [f"/prop/b/n{file_serial % 4}"])
        fused, oracle = lookup(tasks[task_name], path)
        if fused != oracle:
            divergences.append(
                f"seed={seed} round={round_no} task={task_name} "
                f"path={path}: fused={fused} oracle={oracle}")
        dangling = _dangling_index_keys(kernel)
        if dangling and index_drift is None:
            index_drift = f"seed={seed} round={round_no}: {dangling}"

    assert not divergences, "\n".join(divergences[:20])
    assert index_drift is None, index_drift
    # The run must actually have exercised the fused plane, with the
    # shared contexts sharing subject ids.
    assert kernel.fastpath.stats.hits > 0
    assert kernel.fastpath.stats.insertions > 0
    assert alice2.sid == alice.sid
    assert bob_child.exe_path == CHILD_EXEC and bob_child.sid != bob.sid
