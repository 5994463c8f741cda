"""The syscall layer.

Each method takes the calling :class:`~repro.kernel.task.Task` first,
mirroring the implicit ``current`` of a real kernel. Every policy
question goes to the kernel's reference monitor
(:class:`~repro.kernel.security.SecurityServer`) as one ``check``
call that names the hook, the object, the hook's arguments and the
default policy; the server decides which of those questions its
decision cache may hold. It composes the layers in the paper's order:

1. DAC runs first and its denial is final;
2. LSM hooks may DENY outright or ALLOW an operation the default
   policy would refuse (Protego's object-based policies);
3. otherwise the stock capability checks and identity fallbacks apply.

The server caches repeatable decisions (AVC-style) and appends every
outcome to the audit ring behind ``/proc/protego/audit``; the syscall
layer is responsible for telling the generation hub when objects
change (chmod, unlink, mount). Credential commits (setuid, exec) tell
nobody: they give the task a new credentials object or executable,
and every cache probe re-interns the task's subject id when either
is no longer the one its id was minted for. A setuid or setgid to an
id the task already holds keeps its credentials object, so nothing
re-interns.

The eight system calls the paper changes — socket, bind, mount,
umount, setuid, setgid, ioctl, and the exec-side enforcement of
setuid-on-exec — are all here, each asking one question.
"""

from __future__ import annotations

import posixpath
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.kernel import modes
from repro.kernel.capabilities import Capability
from repro.kernel.cred import Credentials
from repro.kernel.devices import BlockDevice, Device, DmCryptDevice, Modem
from repro.kernel.entry import FAULTABLE_SYSCALLS, SYSCALL_BITS
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fastpath import OP_OPEN, OP_PERM, OP_STAT
from repro.kernel.fdtable import OpenFile
from repro.kernel.inode import (
    Inode,
    make_dir,
    make_file,
    make_symlink,
)
from repro.kernel.net.packets import Packet
from repro.kernel.net.routing import Route
from repro.kernel.net.socket import (
    AddressFamily,
    Socket,
    SocketState,
    SocketType,
    PRIVILEGED_PORT_MAX,
)
from repro.kernel.security import OBJ, LAYER_CAPABILITY, LAYER_DAC
from repro.kernel.task import Task
from repro.kernel.vfs import NORM_MEMO, Filesystem, normalize

#: (uid_t)-1, Linux's INVALID_UID and INVALID_GID: ids run 0 to 2**32 - 2.
_INVALID_ID = 2**32 - 1

#: The most supplementary groups setgroups(2) takes (Linux NGROUPS_MAX).
NGROUPS_MAX = 65536

#: open(2) access mode -> the DAC mask it must satisfy.
_ACCMODE_MASK = {modes.O_RDONLY: modes.R_OK, modes.O_WRONLY: modes.W_OK,
                 modes.O_RDWR: modes.R_OK | modes.W_OK}


class StatResult(NamedTuple):
    """What stat(2) reports. A NamedTuple, not a dataclass: one is
    built per stat(2) and frozen-dataclass construction alone costs
    more than the whole fused-table probe."""

    ino: int
    mode: int
    uid: int
    gid: int
    size: int
    nlink: int


#: Bare tuple construction for the stat(2) return: the generated
#: NamedTuple __new__ costs ~2.5x more than tuple.__new__ and sits on
#: the fused hot path.
_STAT_NEW = tuple.__new__

#: Per-syscall entry constants for the hand-inlined preambles in the
#: hot syscalls (stat/open/close): the bitmask bit and the faultable
#: membership, resolved once at import instead of per call.
_BIT_STAT = SYSCALL_BITS["stat"]
_BIT_OPEN = SYSCALL_BITS["open"]
_BIT_CLOSE = SYSCALL_BITS["close"]
_FAULTABLE_STAT = "stat" in FAULTABLE_SYSCALLS
_FAULTABLE_OPEN = "open" in FAULTABLE_SYSCALLS
_FAULTABLE_CLOSE = "close" in FAULTABLE_SYSCALLS

#: Flag-word constants the open(2) hot path tests, hoisted out of the
#: ``modes`` module so each test is one load, not two.
_O_CREAT = modes.O_CREAT
_O_TRUNC = modes.O_TRUNC
_O_APPEND = modes.O_APPEND

#: Bare OpenFile allocation for the fused open(2) hit: skipping the
#: ``__init__`` frame and assigning the five slots inline is ~25%
#: cheaper, and a fused hit builds one per call.
_OF_NEW = object.__new__


class SyscallMixin:
    """Syscall implementations; mixed into :class:`Kernel`.

    Expects the host class to provide: ``vfs``, ``lsm``, ``net``,
    ``devices``, ``tasks``, ``binaries``, ``audit``, ``clock``,
    ``security_server`` and the helpers ``tick()``, ``capable()``,
    ``log_audit()``.
    """

    # ==================================================================
    # Dispatch preamble (repro.kernel.entry)
    # ==================================================================
    def _enter(self, task: Task, name: str) -> None:
        """Every syscall's entry sequence, before any argument
        processing: advance the clock, give the ``syscall.entry``
        fault site its shot (historical faultable subset only, so
        existing sweep schedules keep their meaning), then check the
        task's SFIP-style permitted-syscall bitmask.

        The bitmask check is inlined here rather than a gate method —
        this is the hottest line in the kernel (every syscall passes
        here) and the call overhead alone is measurable against the
        fused-table probe. A task's mask is cached until
        :meth:`EntryGate.restrict`/``unrestrict`` clear it.
        """
        self.clock += 1
        if self._syscall_fault.armed and name in FAULTABLE_SYSCALLS:
            self._fault_entry(name)
        gate = self.entry_gate
        stats = gate.stats
        mask = task.entry_mask
        if mask is None:
            mask = gate.recompute(task)
        else:
            stats.mask_hits += 1
        if not mask & SYSCALL_BITS[name]:
            stats.rejections += 1
            raise SyscallError(Errno.EPERM, f"entry gate: {name}")

    def _fault_entry(self, name: str) -> None:
        """An armed ``syscall.entry`` site may abort this call before
        any work happens — the EINTR/ENOMEM a real kernel surfaces
        when interrupted or out of memory at entry. :meth:`_enter`
        guards with ``self._syscall_fault.armed`` so the disarmed cost
        is one attribute load. The site's ``only`` filter scopes
        injection to a named subset of syscalls."""
        site = self._syscall_fault
        if site.should_fail(name):
            site.fail(name)

    # ==================================================================
    # Fused fast path (repro.kernel.fastpath)
    # ==================================================================
    def _fastpath_audit(self, task: Task, suffix: Tuple) -> None:
        """Replay a fused verdict's audit row: the precomputed suffix
        (hook..context) behind a fresh (clock, pid, uids) prefix, so a
        fused hit is as visible in /proc/protego/audit as a decision-
        cache hit."""
        cred = task.cred
        self._audit_fused(self.clock, task.pid, cred.ruid, cred.euid,
                          suffix)

    def _fuse(self, fp_key: Optional[Tuple], decision, path: str) -> None:
        """Memoize a layered verdict in the fused table when every
        layer agrees it is safe: the security server reported
        ``fastpath_ok`` (cacheable hook, no module veto, no walk-shaped
        errno) and the walk left a dentry behind (so prefix
        invalidation covers everything the verdict depends on). The
        entry replays the decision's own ``audit_suffix``, the row
        tail a decision-cache hit replays too."""
        if fp_key is None or not decision.fastpath_ok:
            return
        if not self.vfs.walk_cached(path):
            return
        self.fastpath.put(fp_key, decision.value, decision.errno,
                          decision.context, decision.audit_suffix)

    # ==================================================================
    # Capability check (single funnel through the reference monitor)
    # ==================================================================
    def capable(self, task: Task, cap: Capability) -> bool:
        return self.security_server.capable(task, cap)

    def require_capable(self, task: Task, cap: Capability, what: str) -> None:
        if not self.capable(task, cap):
            raise SyscallError(Errno.EPERM, f"{what} requires {cap.name}")

    # ==================================================================
    # Monitor plumbing for DAC path checks
    # ==================================================================
    def _path_permission(self, task: Task, path: str, mask: int) -> Inode:
        """A DAC path walk as a monitored (and cacheable) decision.

        The DAC layer is one :meth:`VFS.lookup`: resolution and the
        per-directory search checks in a single dcache-backed walk.
        A warm call is served whole from the fused fast path — one
        probe instead of the dcache + decision-cache pair — with the
        layered walk below as the oracle on any miss.
        """
        fastpath = self.fastpath
        fp_key = None
        if fastpath.enabled:
            if task.sid_cred is task.cred and task.sid_exe is task.exe_path:
                sid = task.sid
            else:
                sid = self.generations.subject(task)
            fp_key = (OP_PERM | mask, path, sid)
            hit = fastpath.get(fp_key)
            if hit is not None:
                if hit.audit_suffix is not None:
                    self._fastpath_audit(task, hit.audit_suffix)
                if hit.errno is not None:
                    raise SyscallError(hit.errno, hit.context)
                return hit.inode
        decision = self.security_server.check(
            "inode_permission", task, path, (path, OBJ, mask), mask=mask,
            dac=lambda: self.vfs.lookup(path, task.cred, mask))
        self._fuse(fp_key, decision, path)
        if not decision.allowed:
            raise decision.denial()
        return decision.value

    def _dir_write_permission(self, task: Task, path: str,
                              probe: Optional[Tuple]) -> Tuple[Inode, str]:
        """Demand write+search on *path*'s parent directory (the DAC
        gate for create/unlink/rename) and return ``(parent, leaf)``.

        The DAC layer walks to the parent under the caller's
        credentials first, so a name in a directory the caller cannot
        search is neither changed nor reported on, and ENOENT/ENOTDIR
        still come before EACCES, as in Linux. *path* is normalized.
        *probe* is what :meth:`VFS.probe` returned for *path*: when the
        decision cache answers, its dentry names the parent."""
        head, _, leaf = path.rpartition("/")
        if not leaf:
            raise SyscallError(Errno.EEXIST, path)
        parent_path = head or "/"
        mask = modes.W_OK | modes.X_OK
        parent = None

        def dac() -> Inode:
            nonlocal parent
            parent = self.vfs.lookup(parent_path, task.cred)
            if not parent.is_dir():
                raise SyscallError(Errno.ENOTDIR, parent_path)
            self.vfs.check_permission(task.cred, parent, mask)
            return parent

        decision = self.security_server.check(
            "inode_permission", task, parent_path, (parent_path, OBJ, mask),
            mask=mask, dac=dac)
        if not decision.allowed:
            raise decision.denial()
        if parent is None:
            # Served from the decision cache, whose cached inode a
            # change made through an alias may have left stale.
            if probe is not None:
                return probe[0].inode, leaf
            return self.vfs.resolve_parent(path)
        return parent, leaf

    def _check_sticky(self, task: Task, parent: Inode, victim: Inode,
                      path: str) -> None:
        """In a sticky directory only the entry's owner, the
        directory's owner or a CAP_FOWNER holder may remove or replace
        the entry (Linux ``check_sticky``): unlink, rmdir and both
        names of a rename ask here."""
        if parent.mode & modes.S_ISVTX:
            if (task.cred.fsuid not in (victim.uid, parent.uid)
                    and not self.capable(task, Capability.CAP_FOWNER)):
                raise SyscallError(Errno.EACCES, f"sticky dir protects {path}")

    def _resolved(self, path: str, follow: bool = False) -> Optional[str]:
        """The symlink-free name of *path* when its walk crosses a
        symlink, else None: a walk that crosses one caches nothing, so
        the caches hold what they know about the object under its
        resolved name, and a write spelled through the link must
        announce that name too. The walk is to the parent for a write
        to one of its entries (create, mkdir, unlink, rmdir, rename,
        link, symlink) and, with *follow*, to the object itself (chmod,
        chown). A write takes it before it changes anything, since the
        change may move, replace or remove the link; a caller whose
        walk is known to be symlink-free (a :meth:`VFS.probe` hit, or
        the dentry a lookup left behind) skips the call."""
        if follow:
            resolved = self.vfs.realpath(path)
        else:
            parent, leaf = posixpath.split(path)
            resolved = posixpath.join(self.vfs.realpath(parent), leaf)
        return resolved if resolved != path else None

    def _announce(self, path: str, resolved: Optional[str]) -> None:
        """Announce that a write changed *path* and, when it was spelled
        through a symlink, its *resolved* name (:meth:`_resolved`,
        taken before the write): the hub's path fan-out drops each name
        and everything beneath it."""
        invalidate_path = self.generations.invalidate_path
        invalidate_path(path)
        if resolved is not None:
            invalidate_path(resolved)

    # ==================================================================
    # Files
    # ==================================================================
    def sys_open(self, task: Task, path: str, flags: int = modes.O_RDONLY,
                 mode: int = 0o644) -> int:
        # _enter inlined (keep in lockstep): open/stat/close are the
        # fused hot calls, where even the preamble's call overhead and
        # name lookups show up against the one-probe budget.
        self.clock += 1
        if self._syscall_fault.armed and _FAULTABLE_OPEN:
            self._fault_entry("open")
        gate = self.entry_gate
        gstats = gate.stats
        emask = task.entry_mask
        if emask is None:
            emask = gate.recompute(task)
        else:
            gstats.mask_hits += 1
        if not emask & _BIT_OPEN:
            gstats.rejections += 1
            raise SyscallError(Errno.EPERM, "entry gate: open")
        norm = NORM_MEMO.get(path)
        path = norm if norm is not None else self._resolve_at(task, path)
        fastpath = self.fastpath
        fp_key = None
        if fastpath.enabled and not flags & _O_CREAT:
            # O_CREAT opens mutate the namespace; they never consult
            # or feed the fused table.
            if task.sid_cred is task.cred and task.sid_exe is task.exe_path:
                sid = task.sid
            else:
                sid = self.generations.subject(task)
            fp_key = (OP_OPEN | flags, path, sid)
            # FastPathTable.get inlined (keep in lockstep with
            # sys_stat's copy and the canonical method).
            hit = fastpath.table.get(fp_key)
            if hit is not None:
                fastpath.stats.hits += 1
                suffix = hit.audit_suffix
                if suffix is not None:
                    # _fastpath_audit inlined (keep in lockstep).
                    cred = task.cred
                    self._audit_fused(self.clock, task.pid, cred.ruid,
                                      cred.euid, suffix)
                if hit.errno is not None:
                    raise SyscallError(hit.errno, hit.context)
                # _install_open_file inlined (keep in lockstep): the
                # allow-side tail is most of a fused open.
                inode = hit.inode
                if (flags & _O_TRUNC and inode.is_regular()
                        and inode.read_fn is None):
                    inode.write_bytes(b"")
                open_file = _OF_NEW(OpenFile)
                open_file.inode = inode
                open_file.flags = flags
                open_file.path = path
                open_file.offset = inode.size() if flags & _O_APPEND else 0
                open_file.socket = None
                fdtable = task.fdtable
                files = fdtable._files
                fd = fdtable._next_fd
                while fd in files:
                    fd += 1
                if fd >= fdtable.max_fds:
                    raise SyscallError(Errno.EMFILE, "fd table full")
                files[fd] = open_file
                fdtable._next_fd = fd + 1
                return fd
            fastpath.stats.misses += 1
        accmode = flags & modes.O_ACCMODE
        mask = _ACCMODE_MASK[accmode]
        if flags & _O_CREAT:
            vfs = self.vfs
            probe = vfs.probe(path)
            existing = probe[1] if probe is not None else None
            if probe is not None and existing is None:
                # Absent from its cached parent: create it, no walk.
                target = path
            elif (existing is not None and not flags & modes.O_EXCL
                  and not existing.is_symlink()):
                # Present: open it like any other name.
                target = None
            else:
                # An uncached parent, a symlink, or O_EXCL on an
                # existing name: walk.
                probe = None
                if flags & modes.O_EXCL:
                    # O_EXCL never follows the final symlink: any
                    # existing name, a dangling link included, is EEXIST.
                    if vfs.exists(path, follow_final_symlink=False):
                        # Only a caller who may search every directory
                        # on the way learns that the name exists.
                        vfs.lookup(path, task.cred,
                                   follow_final_symlink=False)
                        raise SyscallError(Errno.EEXIST, path)
                    target = path
                elif vfs.exists(path):
                    target = None
                else:
                    # A dangling link is followed to the name it points
                    # at; the link itself is never replaced.
                    target = vfs.create_target(path, task.cred)
            if target is not None:
                parent, leaf = self._dir_write_permission(task, target, probe)
                resolved = None if probe is not None else self._resolved(target)
                created = make_file(
                    b"", uid=task.cred.fsuid, gid=task.cred.fsgid,
                    perm=mode & ~0o022,
                )
                parent.entries[leaf] = created
                # The name now resolves: drop any stale decisions about it.
                self._announce(target, resolved)
                # A create is never cached: no DAC thunk, so no
                # inode for a hit to return. Its DAC check, write on
                # the parent, has passed; the modules still see it.
                decision = self.security_server.check(
                    "file_open", task, path, (path, created, flags),
                    mask=mask, deny_errno=Errno.EACCES, layer=LAYER_DAC)
                if not decision.allowed:
                    raise decision.denial()
                return self._install_open_file(task, created, flags, path)

        def dac() -> Inode:
            inode = self.vfs.lookup(path, task.cred, mask)
            if inode.is_dir() and accmode != modes.O_RDONLY:
                raise SyscallError(Errno.EISDIR, path)
            return inode

        decision = self.security_server.check(
            "file_open", task, path, (path, OBJ, flags), mask=mask, dac=dac,
            deny_errno=Errno.EACCES)
        self._fuse(fp_key, decision, path)
        if not decision.allowed:
            raise decision.denial()
        return self._install_open_file(task, decision.value, flags, path)

    def _install_open_file(self, task: Task, inode: Inode, flags: int,
                           path: str) -> int:
        """The allow-side tail of open(2), shared by the layered path
        and fused hits (O_TRUNC is a per-open side effect, so a hit
        replays it)."""
        if flags & _O_TRUNC and inode.is_regular() and inode.read_fn is None:
            # Pseudo-files (procfs/sysfs) are not truncated on open:
            # only an explicit write reaches their handler.
            inode.write_bytes(b"")
        open_file = OpenFile(inode, flags, path)
        if flags & _O_APPEND:
            open_file.offset = inode.size()
        # FDTable.install inlined (keep in lockstep): the lowest-fd
        # scan from the next_fd hint, minus the method call.
        fdtable = task.fdtable
        files = fdtable._files
        fd = fdtable._next_fd
        while fd in files:
            fd += 1
        if fd >= fdtable.max_fds:
            raise SyscallError(Errno.EMFILE, "fd table full")
        files[fd] = open_file
        fdtable._next_fd = fd + 1
        return fd

    def sys_read(self, task: Task, fd: int, size: int = -1) -> bytes:
        self._enter(task, "read")
        open_file = task.fdtable.get(fd)
        if not open_file.readable():
            raise SyscallError(Errno.EBADF, f"fd {fd} not readable")
        if open_file.inode.is_dir():
            raise SyscallError(Errno.EISDIR, open_file.path)
        data = open_file.inode.read_bytes()
        if size < 0:
            chunk = data[open_file.offset:]
        else:
            chunk = data[open_file.offset:open_file.offset + size]
        open_file.offset += len(chunk)
        return chunk

    def sys_write(self, task: Task, fd: int, payload: bytes) -> int:
        self._enter(task, "write")
        open_file = task.fdtable.get(fd)
        if not open_file.writable():
            raise SyscallError(Errno.EBADF, f"fd {fd} not writable")
        inode = open_file.inode
        if inode.write_fn is not None:
            # The proc.write site fires *before* the handler runs, so
            # an injected failure can never half-apply a policy write:
            # the old payload stays in force (fail-stale).
            if (self._proc_write_fault.armed
                    and self._proc_write_fault.should_fail(open_file.path)):
                self._proc_write_fault.fail(open_file.path)
            inode.write_bytes(payload)
            return len(payload)
        if inode.read_fn is not None:
            # A read-only pseudo-file (e.g. the /sys dm metadata): no
            # write handler exists, even for root.
            raise SyscallError(Errno.EACCES, f"{open_file.path} is read-only")
        data = inode.data
        end = open_file.offset + len(payload)
        if len(data) < end:
            data.extend(b"\x00" * (end - len(data)))
        data[open_file.offset:end] = payload
        open_file.offset = end
        inode.mtime += 1
        return len(payload)

    def sys_close(self, task: Task, fd: int) -> None:
        # _enter inlined (keep in lockstep with sys_open's copy).
        self.clock += 1
        if self._syscall_fault.armed and _FAULTABLE_CLOSE:
            self._fault_entry("close")
        gate = self.entry_gate
        gstats = gate.stats
        emask = task.entry_mask
        if emask is None:
            emask = gate.recompute(task)
        else:
            gstats.mask_hits += 1
        if not emask & _BIT_CLOSE:
            gstats.rejections += 1
            raise SyscallError(Errno.EPERM, "entry gate: close")
        # FDTable.get/close inlined: close(2) rides the fused
        # open/close hot pair, so the two method calls count.
        fdtable = task.fdtable
        files = fdtable._files
        open_file = files.get(fd)
        if open_file is None:
            raise SyscallError(Errno.EBADF, str(fd))
        sock = open_file.socket
        if sock is not None:
            getattr(sock, "stack", self.net).release_socket(sock)
            sock.close()
        del files[fd]
        if fd < fdtable._next_fd:
            fdtable._next_fd = fd

    def sys_stat(self, task: Task, path: str) -> StatResult:
        # _enter inlined (keep in lockstep with sys_open's copy).
        self.clock += 1
        if self._syscall_fault.armed and _FAULTABLE_STAT:
            self._fault_entry("stat")
        gate = self.entry_gate
        gstats = gate.stats
        emask = task.entry_mask
        if emask is None:
            emask = gate.recompute(task)
        else:
            gstats.mask_hits += 1
        if not emask & _BIT_STAT:
            gstats.rejections += 1
            raise SyscallError(Errno.EPERM, "entry gate: stat")
        norm = NORM_MEMO.get(path)
        path = norm if norm is not None else self._resolve_at(task, path)
        fastpath = self.fastpath
        if fastpath.enabled:
            if task.sid_cred is task.cred and task.sid_exe is task.exe_path:
                sid = task.sid
            else:
                sid = self.generations.subject(task)
            fp_key = (OP_STAT, path, sid)
            # FastPathTable.get inlined (keep in lockstep): the warm
            # probe is the whole point of the table, so the bound-method
            # call is a measurable share of a fused stat.
            hit = fastpath.table.get(fp_key)
            if hit is not None:
                fastpath.stats.hits += 1
                if hit.errno is not None:
                    raise SyscallError(hit.errno, hit.context)
                inode = hit.inode
            else:
                fastpath.stats.misses += 1
                # The oracle in verdict form: one cached walk plus the
                # dependency bit saying whether it may be memoized.
                inode, errno, context, cacheable = \
                    self.vfs.lookup_verdict(path, task.cred)
                if cacheable:
                    # Stat performs no LSM check, so the walk's own
                    # certificate is the whole fusing condition; the
                    # layered path audits nothing, so no suffix.
                    fastpath.put(fp_key, inode, errno, context, None)
                if errno is not None:
                    raise SyscallError(errno, context)
        else:
            # One cached walk: resolution and the directory search
            # checks together (stat needs no permission on the file
            # itself).
            inode = self.vfs.lookup(path, task.cred)
        return _STAT_NEW(StatResult, (inode.ino, inode.mode, inode.uid,
                                      inode.gid, inode.size(), inode.nlink))

    def sys_access(self, task: Task, path: str, mask: int) -> bool:
        self._enter(task, "access")
        try:
            self._path_permission(task, self._resolve_at(task, path), mask)
            return True
        except SyscallError:
            return False

    def sys_mkdir(self, task: Task, path: str, mode: int = 0o755) -> None:
        self._enter(task, "mkdir")
        path = self._resolve_at(task, path)
        probe = self.vfs.probe(path)
        parent, leaf = self._dir_write_permission(task, path, probe)
        if leaf in parent.entries:
            raise SyscallError(Errno.EEXIST, path)
        resolved = None if probe is not None else self._resolved(path)
        made = make_dir(uid=task.cred.fsuid, gid=task.cred.fsgid, perm=mode)
        parent.entries[leaf] = made
        self._announce(path, resolved)
        if probe is not None:
            # Every create inside the new directory probes its dentry
            # next. Files are not instantiated: few are walked again.
            self.vfs.instantiate(path, probe[0], made)

    def sys_unlink(self, task: Task, path: str) -> None:
        self._enter(task, "unlink")
        path = self._resolve_at(task, path)
        probe = self.vfs.probe(path)
        parent, leaf = self._dir_write_permission(task, path, probe)
        victim = parent.lookup(leaf)
        if victim.is_dir():
            raise SyscallError(Errno.EISDIR, path)
        self._check_sticky(task, parent, victim, path)
        resolved = None if probe is not None else self._resolved(path)
        parent.unlink(leaf)
        self._announce(path, resolved)

    def sys_symlink(self, task: Task, target: str, linkpath: str) -> None:
        self._enter(task, "symlink")
        linkpath = self._resolve_at(task, linkpath)
        probe = self.vfs.probe(linkpath)
        parent, leaf = self._dir_write_permission(task, linkpath, probe)
        if leaf in parent.entries:
            raise SyscallError(Errno.EEXIST, linkpath)
        resolved = None if probe is not None else self._resolved(linkpath)
        parent.entries[leaf] = make_symlink(target, uid=task.cred.fsuid, gid=task.cred.fsgid)
        self._announce(linkpath, resolved)

    def sys_chmod(self, task: Task, path: str, mode: int) -> None:
        self._enter(task, "chmod")
        path = self._resolve_at(task, path)
        inode = self.vfs.lookup(path, task.cred)
        if task.cred.fsuid != inode.uid and not self.capable(task, Capability.CAP_FOWNER):
            raise SyscallError(Errno.EPERM, f"chmod {path}")
        resolved = (None if self.vfs.walk_cached(path)
                    else self._resolved(path, follow=True))
        inode.mode = (inode.mode & modes.S_IFMT) | (mode & modes.PERM_MASK)
        inode.mtime += 1
        inode.generation += 1
        # Permission bits changed: every cached decision about this
        # object (and, for a directory, every walk through it) is
        # stale; the generation bump orphans the dcache permission
        # entries, the hub's path fan-out drops the path-keyed ones.
        self._announce(path, resolved)

    def sys_chown(self, task: Task, path: str, uid: int, gid: int = -1) -> None:
        self._enter(task, "chown")
        path = self._resolve_at(task, path)
        inode = self.vfs.lookup(path, task.cred)
        if uid != -1 and uid != inode.uid:
            self.require_capable(task, Capability.CAP_CHOWN, f"chown {path}")
        if gid != -1 and gid != inode.gid:
            if not (task.cred.fsuid == inode.uid and task.cred.in_group(gid)):
                self.require_capable(task, Capability.CAP_CHOWN, f"chgrp {path}")
        resolved = (None if self.vfs.walk_cached(path)
                    else self._resolved(path, follow=True))
        if uid != -1:
            inode.uid = uid
            # Linux clears the set-id bits on an ownership change, but
            # only on non-directories (chown_common): a setgid
            # directory keeps handing its group to new entries.
            if not inode.is_dir():
                inode.mode &= ~(modes.S_ISUID | modes.S_ISGID)
        if gid != -1:
            inode.gid = gid
        inode.mtime += 1
        inode.generation += 1
        self._announce(path, resolved)

    def sys_link(self, task: Task, target: str, linkpath: str) -> None:
        """Hard link: same inode, another name; nlink bookkeeping."""
        self._enter(task, "link")
        target = self._resolve_at(task, target)
        linkpath = self._resolve_at(task, linkpath)
        inode = self.vfs.lookup(target, task.cred)
        if inode.is_dir():
            raise SyscallError(Errno.EISDIR, target)
        probe = self.vfs.probe(linkpath)
        parent, leaf = self._dir_write_permission(task, linkpath, probe)
        resolved = None if probe is not None else self._resolved(linkpath)
        parent.link(leaf, inode)
        self._announce(linkpath, resolved)

    def sys_rename(self, task: Task, old_path: str, new_path: str) -> None:
        """rename(2); both parents need write permission; an existing
        destination of the same kind is replaced, as Linux does: a file
        cannot replace a directory (EISDIR), nor a directory a file
        (ENOTDIR). Both names of one file leave everything as it is
        (POSIX), and a directory cannot move beneath itself (EINVAL)."""
        self._enter(task, "rename")
        vfs = self.vfs
        old_path = self._resolve_at(task, old_path)
        new_path = self._resolve_at(task, new_path)
        old_probe = vfs.probe(old_path)
        old_parent, old_leaf = self._dir_write_permission(
            task, old_path, old_probe)
        new_probe = vfs.probe(new_path)
        new_parent, new_leaf = self._dir_write_permission(
            task, new_path, new_probe)
        inode = old_parent.lookup(old_leaf)
        if inode.is_dir():
            # Compared as resolved names, so a symlinked spelling of
            # the destination is caught too.
            moved = vfs.realpath(old_path)
            into = vfs.realpath(posixpath.dirname(new_path))
            if into == moved or into.startswith(moved + "/"):
                raise SyscallError(Errno.EINVAL, f"{old_path} into itself")
        existing = new_parent.entries.get(new_leaf)
        if existing is inode:
            return
        # Both resolved names before the move: it may move or replace
        # the symlink either name is spelled through.
        old_resolved = (None if old_probe is not None
                        else self._resolved(old_path))
        new_resolved = (None if new_probe is not None
                        else self._resolved(new_path))
        self._check_sticky(task, old_parent, inode, old_path)
        if existing is not None:
            self._check_sticky(task, new_parent, existing, new_path)
            if existing.is_dir() and not inode.is_dir():
                raise SyscallError(Errno.EISDIR, new_path)
            if inode.is_dir() and not existing.is_dir():
                raise SyscallError(Errno.ENOTDIR, new_path)
            if existing.is_dir() and inode.is_dir() and existing.entries:
                raise SyscallError(Errno.ENOTEMPTY, new_path)
            new_parent.unlink(new_leaf)
        old_parent.unlink(old_leaf)
        new_parent.link(new_leaf, inode)
        self._announce(old_path, old_resolved)
        self._announce(new_path, new_resolved)

    def sys_rmdir(self, task: Task, path: str) -> None:
        self._enter(task, "rmdir")
        path = self._resolve_at(task, path)
        probe = self.vfs.probe(path)
        parent, leaf = self._dir_write_permission(task, path, probe)
        victim = parent.lookup(leaf)
        if not victim.is_dir():
            raise SyscallError(Errno.ENOTDIR, path)
        self._check_sticky(task, parent, victim, path)
        if victim.entries:
            raise SyscallError(Errno.ENOTEMPTY, path)
        if self.vfs.mount_at(path) is not None:
            raise SyscallError(Errno.EBUSY, path)
        resolved = None if probe is not None else self._resolved(path)
        parent.unlink(leaf)
        self._announce(path, resolved)

    def sys_readdir(self, task: Task, path: str) -> List[str]:
        self._enter(task, "readdir")
        path = self._resolve_at(task, path)
        inode = self._path_permission(task, path, modes.R_OK)
        if not inode.is_dir():
            raise SyscallError(Errno.ENOTDIR, path)
        return sorted(inode.entries)

    def sys_chdir(self, task: Task, path: str) -> None:
        self._enter(task, "chdir")
        path = self._resolve_at(task, path)
        if not self.vfs.lookup(path, task.cred).is_dir():
            raise SyscallError(Errno.ENOTDIR, path)
        self._path_permission(task, path, modes.X_OK)
        task.cwd = path

    def _resolve_at(self, task: Task, path: str) -> str:
        # Memo probe first: its keys are always absolute (normalize
        # raises before memoizing relative input), so a relative *path*
        # can only miss and fall through to the cwd join.
        norm = NORM_MEMO.get(path)
        if norm is not None:
            return norm
        if not path.startswith("/"):
            base = task.cwd.rstrip("/")
            path = f"{base}/{path}"
        return normalize(path)

    # -- whole-file helpers (what read()/write() loops amount to) -------
    def read_file(self, task: Task, path: str) -> bytes:
        fd = self.sys_open(task, path, modes.O_RDONLY)
        try:
            return self.sys_read(task, fd)
        finally:
            self.sys_close(task, fd)

    def write_file(self, task: Task, path: str, payload: bytes,
                   create: bool = True, append: bool = False) -> None:
        flags = modes.O_WRONLY
        if create:
            flags |= modes.O_CREAT
        if append:
            flags |= modes.O_APPEND
        else:
            flags |= modes.O_TRUNC
        fd = self.sys_open(task, path, flags)
        try:
            self.sys_write(task, fd, payload)
        finally:
            self.sys_close(task, fd)

    # ==================================================================
    # Untouched-by-Protego syscalls (lmbench's baseline rows)
    # ==================================================================
    def sys_getpid(self, task: Task) -> int:
        """The null syscall: pure kernel-entry cost. Inside a pid
        namespace, the namespaced pid is reported."""
        self._enter(task, "getpid")
        pidns = task.namespaces.get("pid")
        if pidns is not None:
            ns_pid = pidns.ns_pid(task.pid)
            if ns_pid is not None:
                return ns_pid
        return task.pid

    def sys_signal(self, task: Task, signum: int, handler) -> None:
        """Install a signal handler (sig install row)."""
        self._enter(task, "signal")
        task.security.setdefault("signals", {})[signum] = handler

    def sys_kill(self, task: Task, target_pid: int, signum: int) -> None:
        """Deliver a signal; runs the handler synchronously
        (sig overhead row)."""
        self._enter(task, "kill")
        target = self.tasks.get(target_pid)
        if target is None:
            raise SyscallError(Errno.ESRCH, str(target_pid))
        handler = target.security.get("signals", {}).get(signum)
        if handler is not None:
            handler(signum)

    def sys_fault(self, task: Task) -> None:
        """A protection-fault round trip (prot fault row): enter the
        kernel, walk the 'fault' path, return."""
        self._enter(task, "fault")

    def sys_pipe(self, task: Task) -> Tuple[int, int]:
        """An in-memory pipe: returns (read fd, write fd)."""
        self._enter(task, "pipe")
        buffer = make_file(perm=0o600)
        read_end = OpenFile(buffer, modes.O_RDONLY, "pipe:[r]")
        write_end = OpenFile(buffer, modes.O_WRONLY, "pipe:[w]")
        return task.fdtable.install(read_end), task.fdtable.install(write_end)

    # ==================================================================
    # Mount / umount  (paper section 4.2, Figure 1)
    # ==================================================================
    def sys_mount(self, task: Task, source: str, mountpoint: str,
                  fstype: str = "auto", flags: int = 0, options: str = "") -> None:
        self._enter(task, "mount")
        mountpoint = self._resolve_at(task, mountpoint)
        mountns = task.namespaces.get("mount")
        if mountns is not None:
            # Inside a mount namespace every mount is private: it can
            # never alter the host tree (the paper's section 6 point).
            userns = task.namespaces.get("user")
            if not (self.capable(task, Capability.CAP_SYS_ADMIN)
                    or (userns is not None and userns.inside_is_root())):
                raise SyscallError(Errno.EPERM, "mount in namespace requires "
                                                "namespace root")
            fs = self._filesystem_for(source, fstype, flags)
            mountns.attach(mountpoint, fs)
            self.log_audit("mount.ns", task, f"{source} -> {mountpoint}")
            return
        decision = self.security_server.check(
            "sb_mount", task, mountpoint,
            (source, mountpoint, fstype, flags, options),
            capability=Capability.CAP_SYS_ADMIN, context=f"mount {source}")
        if not decision.allowed:
            self.log_audit("mount.denied", task, f"{source} -> {mountpoint}")
            raise decision.denial()
        fs = self._filesystem_for(source, fstype, flags)
        self.vfs.attach(mountpoint, fs, flags, mounter_uid=task.cred.ruid)
        self.log_audit("mount", task, f"{source} -> {mountpoint} ({fs.fstype})")

    def sys_umount(self, task: Task, mountpoint: str) -> None:
        self._enter(task, "umount")
        mountpoint = self._resolve_at(task, mountpoint)
        mountns = task.namespaces.get("mount")
        if mountns is not None:
            mountns.detach(mountpoint)
            self.log_audit("umount.ns", task, mountpoint)
            return
        decision = self.security_server.check(
            "sb_umount", task, mountpoint, (mountpoint,),
            capability=Capability.CAP_SYS_ADMIN)
        if not decision.allowed:
            raise decision.denial()
        self.vfs.detach(mountpoint)
        self.log_audit("umount", task, mountpoint)

    def _filesystem_for(self, source: str, fstype: str, flags: int) -> Filesystem:
        """Build the filesystem instance mount(2) grafts in.

        Block-device sources take their type from the device; other
        sources (tmpfs, proc) are synthesized.
        """
        if source.startswith("/dev/"):
            inode = self.vfs.resolve(source)
            device = inode.device
            if not isinstance(device, BlockDevice):
                raise SyscallError(Errno.ENOTBLK, source)
            if device.ejected:
                raise SyscallError(Errno.ENXIO, f"{source} ejected")
            fs = Filesystem(device.fstype if fstype == "auto" else fstype,
                            source=source, flags=flags)
            return fs
        return Filesystem(fstype if fstype != "auto" else "tmpfs", source=source, flags=flags)

    # ==================================================================
    # Credentials  (paper section 4.3)
    # ==================================================================
    def sys_setuid(self, task: Task, uid: int) -> None:
        """setuid(2) with Protego's deferred-transition extension."""
        self._enter(task, "setuid")
        if not 0 <= uid < _INVALID_ID:
            raise SyscallError(Errno.EINVAL, f"invalid uid {uid}")
        decision = self.security_server.check(
            "task_fix_setuid", task, f"uid:{uid}", (uid,),
            capability=Capability.CAP_SETUID,
            fallback=lambda: uid in (task.cred.ruid, task.cred.suid))
        if not decision.allowed:
            if decision.from_lsm:
                self.log_audit("setuid.denied", task, f"-> {uid}")
            raise decision.denial()
        if decision.from_lsm:
            if decision.pending is not None:
                # Park the transition; exec will validate the binary.
                task.setsec("protego", "pending_setuid", decision.pending)
                self.log_audit("setuid.deferred", task, f"-> {uid}")
                return
            task.cred = task.cred.with_uids(ruid=uid, euid=uid, suid=uid)
            if uid == 0:
                # A policy-authorized transition to root regains the
                # full capability sets, but only *after* every check
                # has succeeded (the paper's ordering requirement).
                full = Credentials.for_root()
                task.cred = task.cred.with_caps(full.cap_permitted, full.cap_effective)
            else:
                task.cred = task.cred.drop_all_caps()
            self.log_audit("setuid", task, f"-> {uid}")
            return
        if decision.layer == LAYER_CAPABILITY:
            # Stock Linux policy: CAP_SETUID allows any transition.
            task.cred = task.cred.with_uids(ruid=uid, euid=uid, suid=uid)
            if uid != 0:
                # setuid(nonroot) from root drops capability sets.
                task.cred = task.cred.drop_all_caps()
            self.log_audit("setuid", task, f"-> {uid}")
            return
        # Identity fallback: uid is the task's own ruid/suid.
        task.cred = task.cred.with_uids(euid=uid)
        self.log_audit("setuid", task, f"euid -> {uid}")

    def sys_setgid(self, task: Task, gid: int) -> None:
        self._enter(task, "setgid")
        if not 0 <= gid < _INVALID_ID:
            raise SyscallError(Errno.EINVAL, f"invalid gid {gid}")
        decision = self.security_server.check(
            "task_fix_setgid", task, f"gid:{gid}", (gid,),
            capability=Capability.CAP_SETGID,
            fallback=lambda: gid in (task.cred.rgid, task.cred.sgid))
        if not decision.allowed:
            raise decision.denial()
        if decision.from_lsm or decision.layer == LAYER_CAPABILITY:
            task.cred = task.cred.with_gids(rgid=gid, egid=gid, sgid=gid)
            self.log_audit("setgid", task, f"-> {gid}")
            return
        # Identity fallback: gid is the task's own rgid/sgid.
        task.cred = task.cred.with_gids(egid=gid)
        self.log_audit("setgid", task, f"egid -> {gid}")

    def sys_setgroups(self, task: Task, groups: Sequence[int]) -> None:
        self._enter(task, "setgroups")
        self.require_capable(task, Capability.CAP_SETGID, "setgroups")
        # Linux counts the list as passed, duplicates included, before
        # it reads a single gid.
        if len(groups) > NGROUPS_MAX:
            raise SyscallError(Errno.EINVAL,
                               f"{len(groups)} groups > NGROUPS_MAX")
        groups = frozenset(groups)
        for gid in groups:
            if not 0 <= gid < _INVALID_ID:
                raise SyscallError(Errno.EINVAL, f"invalid gid {gid}")
        task.cred = task.cred.with_groups(groups)

    # ==================================================================
    # Processes
    # ==================================================================
    def sys_fork(self, parent: Task) -> Task:
        self._enter(parent, "fork")
        child = Task(self._next_pid(), parent.cred, parent=parent, comm=parent.comm)
        child.cwd = parent.cwd
        child.environ = dict(parent.environ)
        child.exe_path = parent.exe_path
        child.fdtable = parent.fdtable.copy_for_fork()
        child.tty = parent.tty
        child.security = {mod: dict(state) for mod, state in parent.security.items()}
        child.namespaces = dict(parent.namespaces)
        # Syscall-entry confinement is inherited, as seccomp filters are.
        child.entry_allowed = parent.entry_allowed
        child.entry_mask = parent.entry_mask
        pidns = child.namespaces.get("pid")
        if pidns is not None:
            pidns.enroll(child.pid)
        parent.children.append(child)
        self.tasks[child.pid] = child
        self.security_server.notify("task_alloc", child)
        return child

    def sys_execve(self, task: Task, path: str, argv: Optional[List[str]] = None,
                   env: Optional[Dict[str, str]] = None, run: bool = True) -> int:
        """exec(2): setuid-bit semantics plus LSM validation.

        With ``run=True`` (the default) the registered program body is
        executed synchronously and its exit status returned, which
        keeps driving code simple and benchmarks cheap.
        """
        self._enter(task, "execve")
        argv = list(argv or [path])
        path = self._resolve_at(task, path)
        inode = self._path_permission(task, path, modes.X_OK)
        if inode.is_dir():
            raise SyscallError(Errno.EISDIR, path)
        if not self.vfs.walk_cached(path):
            # The permission walk crossed a symlink (a dentry is left
            # behind iff it did not): canonicalize, so the LSM exec
            # hooks, the binary lookup, and the task's exe identity
            # all see the real binary. Without this, exec'ing a
            # symlink to a policy-negated binary would present the
            # link's path to the delegation veto — the path-confusion
            # attack the redteam battery drives.
            path = self.vfs.realpath(path)

        decision = self.security_server.check(
            "bprm_check", task, path, (path, inode, argv),
            deny_errno=Errno.EACCES)
        if not decision.allowed:
            self.log_audit("exec.denied", task, path)
            raise decision.denial()

        # Environment scrubbing boundary: exec resets to the provided env.
        if env is not None:
            task.environ = dict(env)

        # setuid/setgid bit semantics.
        mount = self.vfs.mount_covering(path)
        nosuid = bool(mount and mount.fs.is_nosuid())
        if inode.is_setuid() and not nosuid:
            task.cred = task.cred.with_uids(euid=inode.uid, suid=inode.uid)
            if inode.uid == 0:
                # A setuid-root exec regains the full capability sets —
                # the very over-privilege the paper is about.
                full_cred = Credentials.for_root()
                task.cred = task.cred.with_caps(
                    full_cred.cap_permitted, full_cred.cap_effective,
                )
        if inode.is_setgid() and not nosuid:
            task.cred = task.cred.with_gids(egid=inode.gid)
        if inode.file_caps is not None and not nosuid:
            # The setcap mechanism (section 3.1): the binary grants
            # specific capabilities instead of full root — still a
            # subject-based, coarser-than-policy grant.
            task.cred = task.cred.with_caps(
                permitted=task.cred.cap_permitted.union(inode.file_caps),
                effective=task.cred.cap_effective.union(inode.file_caps),
            )

        task.fdtable.drop_cloexec()
        task.exe_path = path
        task.comm = path.rsplit("/", 1)[-1]
        self.security_server.notify("bprm_committing_creds", task, path, inode)
        self.log_audit("exec", task, path)

        if not run:
            return 0
        program = self.binaries.get(path)
        if program is None:
            return 0
        return program.run(self, task, argv)

    def sys_exit(self, task: Task, status: int = 0) -> None:
        self._enter(task, "exit")
        task.exit_status = status
        task.fdtable.close_all()

    def sys_wait(self, parent: Task) -> Tuple[int, int]:
        self._enter(parent, "wait")
        for child in parent.children:
            if child.exit_status is not None:
                parent.children.remove(child)
                self.tasks.pop(child.pid, None)
                return child.pid, child.exit_status
        raise SyscallError(Errno.ECHILD, "no exited children")

    def spawn(self, parent: Task, path: str, argv: Optional[List[str]] = None,
              env: Optional[Dict[str, str]] = None) -> Tuple[Task, int]:
        """fork + execve + run; returns (child task, exit status)."""
        child = self.sys_fork(parent)
        try:
            status = self.sys_execve(child, path, argv, env)
        except SyscallError:
            self.sys_exit(child, 127)
            raise
        if child.exit_status is None:
            self.sys_exit(child, status)
        return child, child.exit_status

    def sys_setcap(self, task: Task, path: str, caps) -> None:
        """setcap(8)'s kernel side: attach file capabilities to a
        binary (requires CAP_SETFCAP). Section 3.1's alternative to
        the setuid bit — and section 3.2's cautionary tale: the grant
        is still per-binary and coarse."""
        self._enter(task, "setcap")
        self.require_capable(task, Capability.CAP_SETFCAP, "setcap")
        path = self._resolve_at(task, path)
        inode = self.vfs.resolve(path)
        if not inode.is_regular():
            raise SyscallError(Errno.EINVAL, path)
        inode.file_caps = caps
        self.generations.invalidate_path(path)
        self.log_audit("setcap", task, f"{path} += {len(caps)} caps")

    # ==================================================================
    # Namespaces  (paper sections 4.6 and 6)
    # ==================================================================
    def sys_unshare(self, task: Task, kinds) -> None:
        """unshare(2): move *task* into fresh namespaces.

        Policy follows the kernel timeline the paper describes: before
        3.8 any namespace requires CAP_SYS_ADMIN (hence setuid sandbox
        helpers); from 3.8 an unprivileged task may create a *user*
        namespace, and once it is root inside one, the other kinds.
        """
        from repro.kernel.namespaces import (
            NAMESPACE_KINDS,
            MountNamespace,
            NetNamespace,
            PidNamespace,
            UserNamespace,
        )
        self._enter(task, "unshare")
        kinds = list(kinds)
        for kind in kinds:
            if kind not in NAMESPACE_KINDS:
                raise SyscallError(Errno.EINVAL, f"namespace kind {kind!r}")
        if not self.version.supports_namespaces():
            raise SyscallError(Errno.ENOSYS, "kernel lacks namespaces")
        privileged = self.capable(task, Capability.CAP_SYS_ADMIN)
        in_userns = "user" in task.namespaces
        wants_userns = "user" in kinds
        if not privileged:
            if wants_userns and not self.version.supports_unprivileged_userns():
                raise SyscallError(
                    Errno.EPERM,
                    f"unprivileged user namespaces need >= 3.8 (this is "
                    f"{self.version})")
            if not wants_userns and not in_userns:
                raise SyscallError(Errno.EPERM, "namespace requires privilege "
                                                "or a user namespace")
        if wants_userns:
            task.namespaces["user"] = UserNamespace(owner_uid=task.cred.ruid)
        for kind in kinds:
            if kind == "user":
                continue
            namespace = {"mount": MountNamespace, "net": NetNamespace,
                         "pid": PidNamespace}[kind]()
            task.namespaces[kind] = namespace
            if kind == "pid":
                namespace.enroll(task.pid)
        self.log_audit("unshare", task, ",".join(kinds))

    def _net_for(self, task: Task):
        """The network stack this task's sockets live in."""
        netns = task.namespaces.get("net")
        return netns.stack if netns is not None else self.net

    # ==================================================================
    # Networking  (paper section 4.1)
    # ==================================================================
    def sys_socket(self, task: Task, family: AddressFamily, sock_type: SocketType,
                   protocol: str = "") -> Socket:
        self._enter(task, "socket")
        protocol = protocol or {
            SocketType.STREAM: "tcp", SocketType.DGRAM: "udp",
            SocketType.RAW: "icmp", SocketType.PACKET: "all",
        }[sock_type]
        stack = self._net_for(task)
        in_netns = stack is not self.net
        unprivileged_raw = False
        if sock_type.requires_net_raw() and not in_netns:
            decision = self.security_server.check(
                "socket_create", task, f"socket:{sock_type.value}/{protocol}",
                (family.value, sock_type.value, protocol),
                capability=Capability.CAP_NET_RAW)
            if not decision.allowed:
                raise decision.denial()
            if decision.from_lsm:
                unprivileged_raw = not task.cred.has_cap(Capability.CAP_NET_RAW)
        # Inside a network namespace the task holds CAP_NET_RAW *over
        # that namespace*: raw sockets are free, but they only ever
        # touch the fake network.
        sock = Socket(family, sock_type, protocol, task.cred.euid, task.pid,
                      task.exe_path, unprivileged_raw=unprivileged_raw)
        sock.stack = stack
        if sock_type in (SocketType.RAW, SocketType.PACKET):
            stack.register_raw_listener(sock)
        open_file = OpenFile(make_file(perm=0o600), modes.O_RDWR, f"socket:[{sock.sock_id}]")
        open_file.socket = sock  # type: ignore[attr-defined]
        fd = task.fdtable.install(open_file)
        sock.fd = fd  # type: ignore[attr-defined]
        self.log_audit("socket", task, f"{sock_type.value}/{protocol}"
                       + (" (unprivileged-raw)" if unprivileged_raw else ""))
        return sock

    def sys_bind(self, task: Task, sock: Socket, ip: str, port: int) -> None:
        self._enter(task, "bind")
        stack = getattr(sock, "stack", self.net)
        if 0 < port < PRIVILEGED_PORT_MAX and stack is self.net:
            decision = self.security_server.check(
                "socket_bind", task, f"port:{port}/{sock.protocol}",
                (sock, port), mask=port,
                capability=Capability.CAP_NET_BIND_SERVICE,
                deny_errno=Errno.EACCES)
            if not decision.allowed:
                if decision.from_lsm:
                    self.log_audit("bind.denied", task, f"port {port}")
                raise decision.denial()
        stack.bind_socket(sock, ip, port)
        self.log_audit("bind", task, f"{sock.protocol}:{port}")

    def sys_listen(self, task: Task, sock: Socket, backlog: int = 128) -> None:
        self._enter(task, "listen")
        if sock.state is not SocketState.BOUND:
            raise SyscallError(Errno.EINVAL, "socket not bound")
        sock.state = SocketState.LISTENING

    def sys_connect(self, task: Task, sock: Socket, ip: str, port: int) -> None:
        self._enter(task, "connect")
        stack = getattr(sock, "stack", self.net)
        if sock.local_port == 0:
            stack.bind_socket(sock, "0.0.0.0", 0)
        stack.connect(sock, ip, port)

    def sys_accept(self, task: Task, sock: Socket) -> Socket:
        self._enter(task, "accept")
        if sock.state is not SocketState.LISTENING:
            raise SyscallError(Errno.EINVAL, "socket not listening")
        if not sock.backlog:
            raise SyscallError(Errno.EAGAIN, "no pending connections")
        return sock.backlog.pop(0)

    def sys_sendto(self, task: Task, sock: Socket, packet: Packet) -> List[Packet]:
        self._enter(task, "sendto")
        packet.sender_uid = task.cred.euid
        peer = getattr(sock, "peer", None)
        if sock.family is AddressFamily.AF_UNIX and peer is not None:
            # Local IPC never touches the packet filter.
            peer.enqueue(packet)
            return [packet]
        return getattr(sock, "stack", self.net).send(packet, sock)

    def sys_recvfrom(self, task: Task, sock: Socket) -> Packet:
        self._enter(task, "recvfrom")
        return sock.dequeue()

    # ==================================================================
    # ioctl  (paper Table 4: pppd modem/route config, dm-crypt metadata)
    # ==================================================================
    def sys_ioctl(self, task: Task, device: Device, cmd: str, arg: object = None) -> object:
        self._enter(task, "ioctl")
        decision = self.security_server.check(
            "dev_ioctl", task, f"dev:{device.name}", (device, cmd, arg),
            context=cmd)
        if not decision.allowed:
            self.log_audit("ioctl.denied", task, f"{device.name} {cmd}")
            raise decision.denial()
        allowed_by_lsm = decision.from_lsm
        handler = getattr(self, f"_ioctl_{cmd.lower()}", None)
        if handler is None:
            raise SyscallError(Errno.ENOTTY, cmd)
        return handler(task, device, arg, allowed_by_lsm)

    def _ioctl_modem_config(self, task: Task, device: Device, arg: object,
                            allowed_by_lsm: bool) -> object:
        if not isinstance(device, Modem):
            raise SyscallError(Errno.ENOTTY, device.name)
        if not allowed_by_lsm:
            self.require_capable(task, Capability.CAP_NET_ADMIN, "modem config")
        option, value = arg
        device.acquire(task.pid)
        device.configure(option, value)
        return None

    def _ioctl_dm_table_status(self, task: Task, device: Device, arg: object,
                               allowed_by_lsm: bool) -> object:
        """The legacy dm ioctl: discloses devices *and* the key, so it
        demands CAP_SYS_ADMIN regardless of LSM policy (the paper's
        point: the interface itself forces privilege — Protego
        abandons it for a /sys file rather than hooking it)."""
        if not isinstance(device, DmCryptDevice):
            raise SyscallError(Errno.ENOTTY, device.name)
        self.require_capable(task, Capability.CAP_SYS_ADMIN, "DM_TABLE_STATUS")
        return device.legacy_ioctl_table()

    def _ioctl_eject(self, task: Task, device: Device, arg: object,
                     allowed_by_lsm: bool) -> object:
        if not isinstance(device, BlockDevice):
            raise SyscallError(Errno.ENOTTY, device.name)
        if not allowed_by_lsm:
            self.require_capable(task, Capability.CAP_SYS_ADMIN, "eject")
        # A mounted medium cannot be ejected (the drive is locked).
        source = f"/dev/{device.name}"
        for mount in self.vfs.mounts.values():
            if mount.fs.source == source:
                raise SyscallError(Errno.EBUSY, f"{device.name} is mounted")
        device.eject()
        return None

    def _ioctl_vidmode(self, task: Task, device: Device, arg: object,
                       allowed_by_lsm: bool) -> object:
        """Legacy (pre-KMS) video mode set: root only."""
        if not allowed_by_lsm:
            self.require_capable(task, Capability.CAP_SYS_ADMIN, "set video mode")
        resolution, refresh = arg
        device.set_mode(resolution, refresh)
        return None

    def _ioctl_kms_switch(self, task: Task, device: Device, arg: object,
                          allowed_by_lsm: bool) -> object:
        """KMS console switch: kernel-managed, no privilege needed
        (section 4.5 — the interface redesign obviates the setuid X)."""
        return device.kms_switch(arg)

    # ==================================================================
    # Routing  (paper section 4.1.2)
    # ==================================================================
    def sys_route_add(self, task: Task, destination: str, device: str,
                      gateway: str = "") -> None:
        self._enter(task, "route_add")
        route = Route(destination, device, gateway, added_by_uid=task.cred.ruid)
        decision = self.security_server.check(
            "route_add", task, f"route:{destination}", (destination, device),
            capability=Capability.CAP_NET_ADMIN, context=f"dev {device}")
        if not decision.allowed:
            if decision.from_lsm:
                self.log_audit("route.denied", task, destination)
            raise decision.denial()
        # Protego's object policy authorizes only non-conflicting
        # routes; a capability holder may clobber at will.
        self.net.routing.add(route, check_conflict=decision.from_lsm)
        self.log_audit("route.add", task, f"{destination} dev {device}")

    def sys_route_del(self, task: Task, destination: str, device: str = "") -> None:
        self._enter(task, "route_del")
        self.require_capable(task, Capability.CAP_NET_ADMIN, "route del")
        self.net.routing.remove(destination, device)
