"""One counters registry per kernel, behind ``/proc/protego/metrics``.

Each layer keeps its counters where its hot path bumps them (a stats
object, a dataclass, a dict or plain attributes) and registers them
once at boot under its layer's name. :meth:`MetricsRegistry.snapshot`
reads them all at call time into one flat ``kernel.<layer>.<counter>``
map of ints. Nothing derived is stored: readers compute rates from the
raw counters, e.g. a fused-table hit rate is ``hits / (hits + misses)``.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import Callable, Dict, Iterable, Optional


def _fields(source) -> Iterable[str]:
    """A dict's keys, a dataclass's fields or a slotted object's slots."""
    if isinstance(source, dict):
        return tuple(source)
    if dataclasses.is_dataclass(source):
        return tuple(field.name for field in dataclasses.fields(source))
    return type(source).__slots__


class MetricsRegistry:
    """Named readers of live counters, one per metric."""

    def __init__(self) -> None:
        self._readers: Dict[str, Callable[[], int]] = {}

    def register(self, layer: str, source,
                 names: Optional[Iterable[str]] = None,
                 entries: Optional[Callable[[], int]] = None) -> None:
        """Register *source*'s counters *names* (default: all its
        fields) as ``kernel.<layer>.<name>``, and *entries*, a cache's
        size, as ``kernel.<layer>.entries``. Names are unique."""
        read = operator.getitem if isinstance(source, dict) else getattr
        readers = {name: functools.partial(read, source, name)
                   for name in (_fields(source) if names is None else names)}
        if entries is not None:
            readers["entries"] = entries
        for name, reader in readers.items():
            key = f"kernel.{layer}.{name}"
            if key in self._readers:
                raise ValueError(f"duplicate metric {key}")
            self._readers[key] = reader

    def snapshot(self) -> Dict[str, int]:
        return {name: read() for name, read in self._readers.items()}

    def delta(self, base: Dict[str, int]) -> Dict[str, int]:
        """Each metric's change since *base*, an earlier snapshot."""
        return {name: value - base.get(name, 0)
                for name, value in self.snapshot().items()}

    def render(self) -> str:
        """``/proc/protego/metrics``: one sorted ``name value`` line each."""
        snapshot = self.snapshot()
        return "".join(f"{name} {snapshot[name]}\n"
                       for name in sorted(snapshot))
