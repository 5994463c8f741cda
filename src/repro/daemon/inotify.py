"""inotify-like change notification over the simulated VFS.

The real Protego daemon uses py-notify over Linux inotify; the
simulator has no event loop, so the watcher exposes an explicit
``poll()`` that fires callbacks for every watched path whose content
changed since the last poll. Watching a directory fires on any
created, removed, or modified entry.

Like kernel inotify, the watcher sees the VFS from inside the kernel:
it hashes inode bytes and lists directory entries directly, so a poll
issues no syscall, ticks no clock and leaves no audit row. Events stay
content-based: one fires exactly when a watched file's bytes change.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List, Optional

from repro.kernel.errno import SyscallError
from repro.kernel.kernel import Kernel


@dataclasses.dataclass
class WatchEvent:
    """One detected change."""

    path: str
    kind: str  # "modified" | "created" | "deleted"


Callback = Callable[[WatchEvent], None]


class _Watch:
    def __init__(self, path: str, callback: Callback, is_dir: bool):
        self.path = path
        self.callback = callback
        self.is_dir = is_dir
        self.fingerprints: Dict[str, Optional[str]] = {}


class FileWatcher:
    """Polls watched paths and fires callbacks on change."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._watches: List[_Watch] = []

    # ------------------------------------------------------------------
    def watch_file(self, path: str, callback: Callback) -> None:
        watch = _Watch(path, callback, is_dir=False)
        watch.fingerprints[path] = self._fingerprint(path)
        self._watches.append(watch)

    def watch_dir(self, path: str, callback: Callback) -> None:
        watch = _Watch(path, callback, is_dir=True)
        for child in self._listdir(path):
            child_path = f"{path}/{child}"
            watch.fingerprints[child_path] = self._fingerprint(child_path)
        self._watches.append(watch)

    def suppress(self, path: str) -> None:
        """Refresh stored fingerprints for *path* so a change the
        daemon itself just made does not echo back as an event."""
        for watch in self._watches:
            if path in watch.fingerprints or (watch.is_dir and path.startswith(watch.path + "/")):
                watch.fingerprints[path] = self._fingerprint(path)
            elif watch.path == path:
                watch.fingerprints[path] = self._fingerprint(path)

    # ------------------------------------------------------------------
    def poll(self) -> List[WatchEvent]:
        """Detect changes since the previous poll; fire callbacks."""
        events: List[WatchEvent] = []
        for watch in self._watches:
            events.extend(self._poll_watch(watch))
        return events

    def _poll_watch(self, watch: _Watch) -> List[WatchEvent]:
        events: List[WatchEvent] = []
        if watch.is_dir:
            current_paths = {f"{watch.path}/{c}" for c in self._listdir(watch.path)}
        else:
            current_paths = {watch.path}
        known = set(watch.fingerprints)
        for path in sorted(current_paths - known):
            watch.fingerprints[path] = self._fingerprint(path)
            events.append(self._fire(watch, WatchEvent(path, "created")))
        for path in sorted(known - current_paths):
            del watch.fingerprints[path]
            events.append(self._fire(watch, WatchEvent(path, "deleted")))
        for path in sorted(current_paths & known):
            fingerprint = self._fingerprint(path)
            if fingerprint != watch.fingerprints[path]:
                watch.fingerprints[path] = fingerprint
                events.append(self._fire(watch, WatchEvent(path, "modified")))
        return [e for e in events if e is not None]

    def _fire(self, watch: _Watch, event: WatchEvent) -> WatchEvent:
        watch.callback(event)
        return event

    # ------------------------------------------------------------------
    def _fingerprint(self, path: str) -> Optional[str]:
        """The sha256 of *path*'s bytes, read from the inode itself:
        kernel inotify is told of changes by the VFS, so the watcher
        never re-reads through the syscall layer. Directories and
        missing paths have no fingerprint."""
        try:
            inode = self.kernel.vfs.resolve(path)
        except SyscallError:
            return None
        if inode.is_dir():
            return None
        return hashlib.sha256(inode.read_bytes()).hexdigest()

    def _listdir(self, path: str) -> List[str]:
        try:
            inode = self.kernel.vfs.resolve(path)
        except SyscallError:
            return []
        return sorted(inode.entries) if inode.is_dir() else []
