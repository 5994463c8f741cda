"""The Kernel: owns all simulator state and boots the machine.

A :class:`Kernel` is one simulated machine. Provisioning (users,
/etc files, installed binaries, devices, the security mode) is done by
:class:`repro.core.system.System`, which is the public entry point;
the Kernel itself is the mechanism layer.

Besides the reference monitor's decision ring, the kernel keeps an
event log (``Kernel.audit``, read through :meth:`Kernel.audit_events`):
one :class:`AuditRecord` tuple per mount, setuid, exec, bind, ...,
built with ``tuple.__new__`` because the paper's hooked syscalls log
one on every allowed call.
"""

from __future__ import annotations

import collections
import itertools
import posixpath
from typing import Deque, Dict, List, NamedTuple, Optional

from repro.kernel.cred import Credentials
from repro.kernel.devices import DeviceRegistry
from repro.kernel.entry import EntryGate
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fastpath import FastPathTable
from repro.kernel.fault import (
    SITE_AUDIT_APPEND,
    SITE_AVC_ALLOC,
    SITE_DCACHE_ALLOC,
    SITE_ENTRY_MASK,
    SITE_FASTPATH_INSERT,
    SITE_NET_DROP,
    SITE_NET_DUP,
    SITE_NET_REORDER,
    SITE_PROC_WRITE,
    SITE_SYSCALL_ENTRY,
    FaultInjector,
)
from repro.kernel.generations import GenerationHub
from repro.kernel.inode import Inode, make_dir
from repro.kernel.lsm import LSMChain, SecurityModule
from repro.kernel.metrics import MetricsRegistry
from repro.kernel.net.stack import NetworkStack
from repro.kernel.procfs import PseudoFilesystem, make_procfs, make_sysfs
from repro.kernel.security import SecurityServer
from repro.kernel.syscalls import SyscallMixin
from repro.kernel.task import Task
from repro.kernel.vfs import VFS, normalize


class AuditRecord(NamedTuple):
    """One audit log entry. A tuple record: the log holds up to 20,000
    of them, and a dataclass instance cost about a third more memory
    and a Python ``__init__`` frame per event."""

    clock: int
    event: str
    pid: int
    uid: int
    euid: int
    detail: str


#: Bare tuple construction for :class:`AuditRecord` (skips the
#: generated NamedTuple ``__new__`` frame).
_RECORD_NEW = tuple.__new__


class Kernel(SyscallMixin):
    """One simulated machine's kernel."""

    def __init__(self, hostname: str = "sim", version: "KernelVersion" = None):
        from repro.kernel.namespaces import KernelVersion
        self.hostname = hostname
        # Linux 3.6.0 is the paper's base; bump to (3, 8) to enable
        # unprivileged user namespaces (section 4.6).
        self.version = version or KernelVersion(3, 6)
        # Deterministic fault injection (CONFIG_FAULT_INJECTION-style):
        # every degradable layer holds a named site from this registry,
        # guarded by a single `site.armed` load when disarmed.
        self.faults = FaultInjector()
        # One generation authority for every access-relevant cache:
        # policy bumps empty the fused fast path, path mutations and
        # mount-table changes (as their mountpoint) fan out to every
        # path-keyed cache, and subject ids are interned here, one per
        # (credentials, executable) context.
        self.generations = GenerationHub()
        self.vfs = VFS(generations=self.generations)
        self.devices = DeviceRegistry()
        self.net = NetworkStack()
        self.lsm = LSMChain()
        # The reference monitor: composes DAC + LSM chain + capability
        # checks, caches decisions, and keeps the audit ring behind
        # /proc/protego/audit. One generations.invalidate_path() per
        # mutation reaches its decision cache, the dentry cache and the
        # fused table through the hub's path fan-out.
        self.security_server = SecurityServer(self.lsm, self,
                                              generations=self.generations)
        # Bound-method shortcut for the fused open(2) hit path: the
        # ring is created once and never replaced, so the three
        # attribute hops per audit replay collapse to one load.
        self._audit_fused = self.security_server.audit.record_fused
        # The fused fast path: final open/stat/access verdicts keyed on
        # (op|mask, path, sid), emptied by policy bumps; prefix
        # invalidations, a mount's included, arrive via the hub's path
        # fan-out. The layered walk below stays the oracle.
        self.fastpath = FastPathTable(
            self.generations, fault_site=self.faults.site(SITE_FASTPATH_INSERT))
        # SFIP-style syscall-entry gating: per-task permitted-syscall
        # bitmasks checked before argument processing.
        self.entry_gate = EntryGate(self.faults.site(SITE_ENTRY_MASK))
        # Bind the injection sites into the layers they degrade.
        self.vfs.dcache.fault_site = self.faults.site(SITE_DCACHE_ALLOC)
        self.security_server.fault_site = self.faults.site(SITE_AVC_ALLOC)
        self.security_server.audit.fault_site = self.faults.site(SITE_AUDIT_APPEND)
        self.net.bind_faults(
            self.faults.site(SITE_NET_DROP),
            self.faults.site(SITE_NET_DUP),
            self.faults.site(SITE_NET_REORDER),
        )
        # One counters registry (/proc/protego/metrics, fleet reports).
        metrics = self.metrics = MetricsRegistry()
        server, netfilter = self.security_server, self.net.netfilter
        metrics.register("entry", self.entry_gate.stats)
        metrics.register("fastpath", self.fastpath.stats,
                         entries=self.fastpath.__len__)
        metrics.register("dcache", self.vfs.dcache.stats,
                         entries=self.vfs.dcache.entry_count)
        metrics.register("avc", server.stats, entries=server.cache_len)
        metrics.register("audit", server.audit,
                         ("seq", "dropped", "lost", "rescued_denials"))
        metrics.register("netfilter", netfilter.stats,
                         entries=netfilter.flow_cache_len)
        metrics.register("generations", self.generations,
                         ("mount", "policy", "cred"))
        self._syscall_fault = self.faults.site(SITE_SYSCALL_ENTRY)
        self._proc_write_fault = self.faults.site(SITE_PROC_WRITE)
        self.tasks: Dict[int, Task] = {}
        self._pids = itertools.count(1)
        self.clock = 0
        # Bounded ring, like a real audit backend with rotation:
        # long-running benchmarks would otherwise grow it without end.
        self.audit: Deque[AuditRecord] = collections.deque(maxlen=20_000)
        # path -> Program; populated by userspace.program.install()
        self.binaries: Dict[str, object] = {}
        self.procfs: PseudoFilesystem = make_procfs()
        self.sysfs: PseudoFilesystem = make_sysfs()
        self._boot_namespace()
        self.init = self._spawn_init()

    # ------------------------------------------------------------------
    def _boot_namespace(self) -> None:
        root = self.vfs.rootfs.root
        for name in ("bin", "sbin", "etc", "dev", "home", "tmp", "var", "usr",
                     "mnt", "media", "cdrom", "lib", "proc", "sys", "root"):
            root.entries[name] = make_dir()
        tmp = root.entries["tmp"]
        tmp.mode = (tmp.mode & ~0o7777) | 0o1777  # sticky, world-writable
        self.vfs.attach("/proc", self.procfs)
        self.vfs.attach("/sys", self.sysfs)

    def _spawn_init(self) -> Task:
        init = Task(self._next_pid(), Credentials.for_root(), comm="init")
        self.tasks[init.pid] = init
        return init

    def _next_pid(self) -> int:
        return next(self._pids)

    def lay(self, path: str, inode: Inode) -> None:
        """Link *inode* at *path* as part of the machine's filesystem
        image, replacing whatever node the name held. Missing parent
        directories are laid first, root-owned 0755 (``mkdir -p``).

        This is how a root filesystem comes off a disk image: nodes
        carry their final mode, owner and bytes, no task creates them
        and no policy is asked. Each laid path is invalidated exactly
        as a namespace syscall would, so no cached walk, decision or
        fused verdict about it survives.
        """
        path = normalize(path)
        try:
            parent, leaf = self.vfs.resolve_parent(path)
        except SyscallError as exc:
            if exc.errno_value is not Errno.ENOENT:
                raise
            self.lay(posixpath.dirname(path), make_dir())
            parent, leaf = self.vfs.resolve_parent(path)
        parent.entries[leaf] = inode
        self.generations.invalidate_path(path)

    # ------------------------------------------------------------------
    def tick(self, n: int = 1) -> int:
        """Advance the logical clock (one tick per syscall)."""
        self.clock += n
        return self.clock

    def now(self) -> int:
        return self.clock

    def log_audit(self, event: str, task: Task, detail: str = "") -> None:
        cred = task.cred
        self.audit.append(_RECORD_NEW(AuditRecord, (
            self.clock, event, task.pid, cred.ruid, cred.euid, detail)))

    def audit_events(self, event_prefix: str = "") -> List[AuditRecord]:
        return [r for r in self.audit if r.event.startswith(event_prefix)]

    # ------------------------------------------------------------------
    def register_module(self, module: SecurityModule) -> SecurityModule:
        self.lsm.register(module)
        module.security_server = self.security_server
        # A new policy layer changes answers to already-cached questions.
        self.security_server.flush(reason=f"register {module.name}")
        return module

    def new_task(self, cred: Credentials, comm: str = "proc",
                 parent: Optional[Task] = None, tty: Optional[object] = None) -> Task:
        """Create a task directly (a login session root, a daemon)."""
        task = Task(self._next_pid(), cred, parent=parent or self.init, comm=comm)
        task.tty = tty
        self.tasks[task.pid] = task
        (parent or self.init).children.append(task)
        self.security_server.notify("task_alloc", task)
        return task

    def user_task(self, uid: int, gid: int, groups: List[int] = (),
                  comm: str = "shell", tty: Optional[object] = None) -> Task:
        return self.new_task(Credentials.for_user(uid, gid, groups), comm=comm, tty=tty)

    def root_task(self, comm: str = "root-shell") -> Task:
        return self.new_task(Credentials.for_root(), comm=comm)
