"""The traced run: spans and counters recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (class
attributes and module functions, listed in :data:`SPANS`) with a span
recorder, and :meth:`Tracer.uninstall` puts every original back. Nothing
under ``src/`` is edited: the wrappers exist only between ``install()``
and ``uninstall()`` inside a traced benchmark process.

A span records its name, its duration and the span that was open when
it started. A layer's *self* time is its spans' duration minus the time
covered by child spans, so nested layers are not counted twice.

Counters come from the layers' own stats objects, harvested when each
kernel is collected and once more when the ledger is read, so a sweep
that boots hundreds of short-lived kernels is counted in full without
keeping any of them alive.

Sweep points run in forked pool workers, which inherit the installed
wrappers. The wrapper around ``repro.parallel.pool._run_chunk`` resets
the worker's copy of the ledger, runs the chunk and writes the chunk's
ledger to the output directory, where :meth:`Tracer.collect` merges it.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name). A ``None`` class names
#: a module function, rebound wherever a loaded module holds it; an
#: attribute ending in ``*`` wraps every public method of the class whose
#: name starts with the prefix, one span per method.
SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.kernel.syscalls", "SyscallMixin", "sys_*", "kernel.syscalls"),
    ("repro.kernel.vfs", "VFS", "lookup", "kernel.vfs.lookup"),
    ("repro.kernel.vfs", "VFS", "lookup_verdict", "kernel.vfs.lookup_verdict"),
    ("repro.kernel.security.server", "SecurityServer", "check",
     "kernel.security.server.check"),
    ("repro.kernel.security.audit", "AuditRing", "record",
     "kernel.security.audit.record"),
    ("repro.kernel.security.audit", "AuditRing", "record_fused",
     "kernel.security.audit.record_fused"),
    ("repro.kernel.net.netfilter", "NetfilterTable", "evaluate_detailed",
     "kernel.net.netfilter.evaluate"),
    ("repro.kernel.net.routing", "RoutingTable", "lookup",
     "kernel.net.routing.lookup"),
    ("repro.kernel.pathindex", "PathIndex", "collect",
     "kernel.pathindex.collect"),
    ("repro.kernel.generations", "GenerationHub", "invalidate_path",
     "kernel.generations.invalidate_path"),
    ("repro.apparmor.profiles", "Profile", "allows_path",
     "apparmor.allows_path"),
    ("repro.apparmor.profiles", "Profile", "allows_path_verdict",
     "apparmor.allows_path_verdict"),
    ("repro.apparmor.compiler", None, "compile_rules", "apparmor.compile"),
    ("repro.core.authdb", "UserDatabase", "*", "core.authdb"),
    ("repro.userspace.program", "Program", "run", "userspace"),
    ("repro.fleet.shard", "Shard", "sync", "daemon.shard_sync"),
    ("repro.core.system", "System", "sync", "daemon.system_sync"),
    ("repro.core.system", "System", "__init__", "core.build.boot"),
    ("repro.core.build", None, "build_system", "core.build.build_system"),
    ("repro.scenarios.differ", None, "run_differential",
     "scenarios.differential"),
    ("repro.scenarios.chaos", None, "run_chaos_point", "scenarios.chaos"),
    ("repro.redteam.battery", None, "run_scenario_battery", "redteam.battery"),
)

#: The LSM modules traced one span per hook, as ``kernel.lsm.<name>.<hook>``.
LSM_MODULES = (
    ("repro.core.protego", "ProtegoLSM", "protego"),
    ("repro.apparmor.module", "AppArmorLSM", "apparmor"),
)

#: Layers, longest first: a span belongs to the first whose name prefixes it.
LAYERS = (
    "kernel.security.server", "kernel.security.audit", "kernel.lsm.protego",
    "kernel.lsm.apparmor", "kernel.generations", "kernel.pathindex",
    "kernel.syscalls", "parallel.pool", "core.authdb", "core.build",
    "kernel.vfs", "kernel.net", "scenarios", "userspace", "apparmor",
    "redteam", "daemon",
)

#: Marker attribute every wrapper carries; the tests assert none is left.
MARK = "__perfbench_span__"

#: Module-name prefixes whose bindings of a wrapped function are rebound.
_REBIND = ("repro", "perfbench")


def layer_of(span: str) -> Optional[str]:
    for layer in LAYERS:
        if span == layer or span.startswith(layer + "."):
            return layer
    return None


def _rebindable_modules():
    """(name, module) of every loaded module whose bindings may hold a
    wrapped function."""
    return [(name, module) for name, module in list(sys.modules.items())
            if any(name == p or name.startswith(p + ".") for p in _REBIND)]


class Ledger:
    """Spans, counters and GC pauses of one traced process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: span name -> [calls, total ns, self ns]
        self.spans: Dict[str, List[int]] = {}
        #: "span<parent" -> calls
        self.parents: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        #: open spans, innermost last: [name, ns covered by children]
        self.stack: List[list] = []
        self.gc_collections = [0, 0, 0]
        self.gc_pause_ns = 0
        #: (start, end) monotonic ns of every pool chunk run in a worker
        self.chunks: List[Tuple[int, int]] = []
        #: (start, end, workers) monotonic ns of every parallel_map call
        self.pool_calls: List[Tuple[int, int, int]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def merge(self, other: dict) -> None:
        """Fold a ledger written by :meth:`to_json` into this one."""
        for name, (calls, total, own) in other["spans"].items():
            row = self.spans.setdefault(name, [0, 0, 0])
            row[0] += calls
            row[1] += total
            row[2] += own
        for key, calls in other["parents"].items():
            self.parents[key] = self.parents.get(key, 0) + calls
        for name, n in other["counts"].items():
            self.count(name, n)
        for gen in range(3):
            self.gc_collections[gen] += other["gc_collections"][gen]
        self.gc_pause_ns += other["gc_pause_ns"]
        self.chunks.extend(tuple(c) for c in other["chunks"])

    def to_json(self) -> dict:
        return {"spans": self.spans, "parents": self.parents,
                "counts": self.counts, "gc_collections": self.gc_collections,
                "gc_pause_ns": self.gc_pause_ns, "chunks": self.chunks,
                "pool_calls": self.pool_calls}


def _harvest(ledger: Ledger, gate, fastpath, dcache, avc, audit,
             netfilter) -> None:
    """Add one kernel's layer counters to *ledger* (runs once: when the
    kernel is collected, or when the ledger is read)."""
    count = ledger.count
    count("kernel.entry.mask_hits", gate.mask_hits)
    count("kernel.entry.revalidations", gate.mask_recomputes)
    count("kernel.entry.rejections", gate.rejections)
    count("kernel.fastpath.hits", fastpath.hits)
    count("kernel.fastpath.lookups", fastpath.hits + fastpath.misses)
    count("kernel.fastpath.stale_evictions", fastpath.stale_evictions)
    count("kernel.fastpath.puts", fastpath.insertions)
    count("kernel.dcache.hits", dcache.hits)
    count("kernel.dcache.lookups", dcache.lookups)
    count("kernel.security.server.avc_hits", avc.hits)
    count("kernel.security.server.avc_lookups", avc.lookups)
    count("kernel.security.audit.lost", audit.lost)
    count("kernel.net.flow_hits", netfilter["flow_hits"])
    count("kernel.net.flow_lookups",
          netfilter["flow_hits"] + netfilter["flow_misses"])


class Tracer:
    """Installs span wrappers and a GC hook; removes them on uninstall.

    *out_dir* receives one ledger file per pool chunk a worker process
    runs; :meth:`collect` merges and deletes them.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.ledger = Ledger()
        #: (owner, attribute, original value) of every patched binding
        self._patched: List[Tuple[object, str, object]] = []
        #: (wrapper, original) of every wrapped module function
        self._functions: List[Tuple[Callable, Callable]] = []
        self._finalizers: List[weakref.finalize] = []
        self._gc_start = 0
        self._chunk_seq = 0
        self._tag = f"chunk-{os.getpid()}"

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, fn: Callable, name: str,
              name_of: Optional[Callable] = None,
              on_result: Optional[Callable] = None) -> Callable:
        ledger = self.ledger
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            label = name if name_of is None else name_of(args)
            stack = ledger.stack
            parent = stack[-1][0] if stack else "-"
            frame = [label, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                # A pool worker resets the ledger inside a span it
                # inherited, so the frame may be gone from the stack.
                stack = ledger.stack
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                row = ledger.spans.get(label)
                if row is None:
                    row = ledger.spans[label] = [0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                key = f"{label}<{parent}"
                ledger.parents[key] = ledger.parents.get(key, 0) + 1
            if on_result is not None:
                on_result(result)
            return result

        setattr(span, MARK, name)
        return span

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module_name: str, attr: str, wrapper) -> None:
        """Rebind a module function in every loaded module that holds
        it (``from x import f`` copies the binding)."""
        original = getattr(importlib.import_module(module_name), attr)
        self._functions.append((wrapper, original))
        for _name, module in _rebindable_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    @staticmethod
    def _mark(fn: Callable, original: Callable, name: str) -> Callable:
        functools.update_wrapper(fn, original)
        setattr(fn, MARK, name)
        return fn

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        count = self.ledger.count
        on_result = {
            "kernel.pathindex.collect":
                lambda keys: count("kernel.pathindex.keys_dropped", len(keys)),
        }
        # Import every target first, so each ``from x import f`` copy
        # exists by the time its function is rebound.
        for module_name, *_rest in SPANS + LSM_MODULES:
            importlib.import_module(module_name)
        for module_name, class_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            if class_name is None:
                self._patch_function(module_name, attr, self._wrap(
                    getattr(module, attr), name))
                continue
            cls = getattr(module, class_name)
            if attr.endswith("*"):
                prefix = attr[:-1]
                for key, value in list(vars(cls).items()):
                    if key.startswith(prefix) and not key.startswith("_") \
                            and inspect.isfunction(value):
                        self._patch(cls, key, self._wrap(value, f"{name}.{key}"))
                continue
            name_of = None
            if name == "userspace":
                def name_of(args):
                    return f"userspace.{args[0].name()}"
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name, name_of,
                                              on_result.get(name)))

        from repro.kernel.lsm import _ALL_HOOKS
        for module_name, class_name, short in LSM_MODULES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for hook in _ALL_HOOKS:
                value = vars(cls).get(hook)
                if inspect.isfunction(value):
                    self._patch(cls, hook, self._wrap(
                        value, f"kernel.lsm.{short}.{hook}"))

        self._install_counters()
        self._install_pool()
        gc.callbacks.append(self._on_gc)

    def _install_counters(self) -> None:
        from repro.kernel.generations import GenerationHub
        from repro.kernel.kernel import Kernel

        count = self.ledger.count
        for attr in ("bump_mount", "bump_policy", "next_cred_epoch"):
            original = vars(GenerationHub)[attr]

            def counted(hub, _original=original, _name=attr):
                count(f"kernel.generations.{_name}")
                return _original(hub)

            self._patch(GenerationHub, attr, self._mark(counted, original, attr))

        init = vars(Kernel)["__init__"]

        def kernel_init(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            self._watch(kernel)

        self._patch(Kernel, "__init__", self._mark(kernel_init, init,
                                                   "kernel.watch"))

    def _watch(self, kernel) -> None:
        server = kernel.security_server
        self._finalizers.append(weakref.finalize(
            kernel, _harvest, self.ledger, kernel.entry_gate.stats,
            kernel.fastpath.stats, kernel.vfs.dcache.stats, server.stats,
            server.audit, kernel.net.netfilter.stats))

    def _install_pool(self) -> None:
        import repro.parallel.pool as pool

        ledger = self.ledger
        run_chunk = pool._run_chunk
        parallel_map = pool.parallel_map

        def traced_chunk(fn, chunk):
            # In a pool worker: start a fresh ledger for this chunk and
            # save it where the parent merges it.
            self._detach_finalizers()
            ledger.reset()
            start = time.monotonic_ns()
            try:
                return run_chunk(fn, chunk)
            finally:
                ledger.chunks.append((start, time.monotonic_ns()))
                self._save_chunk_ledger()

        def timed_map(fn, keys, workers=None, chunk_size=None):
            start = time.monotonic_ns()
            try:
                return parallel_map(fn, keys, workers=workers,
                                    chunk_size=chunk_size)
            finally:
                ledger.pool_calls.append(
                    (start, time.monotonic_ns(),
                     pool.resolve_workers(workers)))

        # Workers look the chunk function up by its module and name, so
        # the wrapper carries the original's.
        self._patch(pool, "_run_chunk",
                    self._mark(traced_chunk, run_chunk, "parallel.pool.chunk"))
        self._patch_function("repro.parallel.pool", "parallel_map", self._wrap(
            self._mark(timed_map, parallel_map, "parallel.pool.map"),
            "parallel.pool.map"))

    def _save_chunk_ledger(self) -> None:
        self._flush_finalizers()
        self._chunk_seq += 1
        path = self.out_dir / f"{self._tag}-{os.getpid()}-{self._chunk_seq}.json"
        path.write_text(json.dumps(self.ledger.to_json()))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.ledger.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.ledger.gc_collections[info["generation"]] += 1

    def _flush_finalizers(self) -> None:
        for finalizer in self._finalizers:
            finalizer()
        self._finalizers.clear()

    def _detach_finalizers(self) -> None:
        for finalizer in self._finalizers:
            finalizer.detach()
        self._finalizers.clear()

    def uninstall(self) -> None:
        """Restore every patched binding, newest first, and unhook GC."""
        self._flush_finalizers()
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        # A module imported while installed copied a wrapper with
        # ``from x import f``; put the original back there too.
        while self._functions:
            wrapper, original = self._functions.pop()
            for _name, module in _rebindable_modules():
                for key, value in list(vars(module).items()):
                    if value is wrapper:
                        setattr(module, key, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def collect(self) -> Ledger:
        """Merge (and delete) the chunk ledgers workers saved."""
        self._flush_finalizers()
        for path in sorted(self.out_dir.glob(f"{self._tag}-*.json")):
            self.ledger.merge(json.loads(path.read_text()))
            path.unlink()
        return self.ledger


def leftover_wrappers() -> List[str]:
    """Every loaded binding that still carries a wrapper, plus any GC
    hook left registered: empty after a clean uninstall."""
    found = []
    for name, module in _rebindable_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{name}.{key}")
            if inspect.isclass(value) and value.__module__ == name:
                found.extend(f"{name}.{key}.{attr}"
                             for attr, member in list(vars(value).items())
                             if hasattr(member, MARK))
    if any(isinstance(getattr(cb, "__self__", None), Tracer)
           for cb in gc.callbacks):
        found.append("gc.callbacks")
    return found
