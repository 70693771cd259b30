"""Span tracer for the benchmark's traced runs.

Tracer.install() wraps every public function and every public method of
the classes defined in the traced fedmrl modules, and rebinds each copy
that other fedmrl modules took with ``from ... import``, so a call made
through any of those names records a span.  A span is (id, parent id,
name, start ns, end ns); spans are kept in memory in flat int64 arrays
and handed out per segment by take().  Tracer.remove() restores every
original binding.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

PACKAGE = "fedmrl"
TRACED_MODULES = ("numerics", "models", "core", "data", "metrics", "federation")


@dataclass
class Segment:
    """Spans recorded between two take() calls, with per-name totals."""

    ids: np.ndarray  # int32
    parents: np.ndarray  # int32, 0 for the root
    names: np.ndarray  # int16 index into Tracer.names
    starts: np.ndarray  # int64 ns
    ends: np.ndarray  # int64 ns
    calls: np.ndarray  # per name index
    inclusive_ns: np.ndarray  # per name index
    self_ns: np.ndarray  # per name index


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._columns = tuple(array("q") for _ in range(5))
        self._stack = [0]
        self._counter = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the public callables of TRACED_MODULES and rebind their copies."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = modules[f"{PACKAGE}.{short}"]
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[id(value)] = self._wrap(value, f"{short}.{attr}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for method, fn in list(vars(value).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._saved.append((value, method, fn))
                            setattr(value, method, self._wrap(fn, f"{short}.{attr}.{method}"))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Restore every binding install() replaced."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        stack, counter, clock = self._stack, self._counter, time.perf_counter_ns
        push, pop = stack.append, stack.pop
        rec_id, rec_parent, rec_name, rec_start, rec_end = (c.append for c in self._columns)

        def traced(*args, **kwargs):
            span = next(counter)
            parent = stack[-1]
            push(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                rec_id(span)
                rec_parent(parent)
                rec_name(index)
                rec_start(start)
                rec_end(end)

        return traced

    def take(self) -> Segment:
        """Spans recorded since the last take, with calls, inclusive and self time per name.

        Call only between traced calls, so that every parent of a span in
        the segment is in the segment or is the root (id 0).  Self time is
        a span's duration minus the durations of its direct children.
        """
        ids, parents, names, starts, ends = (
            np.frombuffer(c, dtype=np.int64).copy() if len(c) else np.zeros(0, np.int64)
            for c in self._columns
        )
        for column in self._columns:
            del column[:]
        width = len(self.names)
        durations = ends - starts
        base = int(ids.min()) if ids.size else 0
        child_ns = np.zeros(ids.size + 1, dtype=np.int64)
        inner = parents != 0
        np.add.at(child_ns, parents[inner] - base, durations[inner])
        self_ns = durations - child_ns[ids - base]
        return Segment(
            ids=ids.astype(np.int32),
            parents=parents.astype(np.int32),
            names=names.astype(np.int16),
            starts=starts,
            ends=ends,
            calls=np.bincount(names, minlength=width),
            inclusive_ns=np.bincount(names, weights=durations, minlength=width),
            self_ns=np.bincount(names, weights=self_ns, minlength=width),
        )
