"""Span recording for the traced benchmark run.

Every public function of the package's working modules is rebound, in each
module namespace that holds it, to a wrapper that records one span per call:
the function's key (``module.function``), the index of the enclosing span,
and its start and end in nanoseconds.  Spans stay in memory; the per-layer
table is computed from them when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

import inspect
import time
from collections import Counter

# Package modules that do work; ``_backend`` and ``exceptions`` do none.
LAYERS = ("distributions", "samplesize", "design", "estimator", "simulate", "cli")

# Calls whose arguments are kept, to count repeated calls.
_ARG_KEYS = {"distributions.f_quantile"}


class Tracer:
    def __init__(self):
        self.keys = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.args = {}
        self._stack = []
        self._installed = []

    def _wrap(self, key, fn):
        keys, parents, starts, ends = self.keys, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns
        keep_args = key in _ARG_KEYS
        args_log = self.args

        def traced(*args, **kwargs):
            idx = len(keys)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            if keep_args:
                args_log[idx] = args
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Rebind every public layer function wherever the package holds it."""
        modules = [package] + [getattr(package, name) for name in LAYERS]
        wrappers = {}
        for name in LAYERS:
            module = getattr(package, name)
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{name}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._installed):
            setattr(module, attr, obj)
        self._installed.clear()

    def mark(self):
        """Index of the next span; spans from a mark on belong to one stretch."""
        return len(self.keys)

    def self_ns(self, lo, hi):
        """Total self time per key over spans lo..hi-1, plus root-span time."""
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            parent = self.parents[i]
            if parent >= lo:
                child[parent - lo] += self.ends[i] - self.starts[i]
        totals = Counter()
        root_ns = 0
        for i in range(lo, hi):
            duration = self.ends[i] - self.starts[i]
            totals[self.keys[i]] += duration - child[i - lo]
            if self.parents[i] < lo:
                root_ns += duration
        return totals, root_ns

    def calls(self, lo, hi, key, parent_key=None):
        """Number of ``key`` spans in lo..hi-1, optionally only under ``parent_key``."""
        return sum(
            1
            for i in range(lo, hi)
            if self.keys[i] == key
            and (parent_key is None or (
                self.parents[i] >= 0 and self.keys[self.parents[i]] == parent_key
            ))
        )

    def repeat_frac(self, lo, hi, key):
        """Share of ``key`` calls in lo..hi-1 whose arguments an earlier call had."""
        seen = set()
        calls = repeats = 0
        for i in range(lo, hi):
            if self.keys[i] != key:
                continue
            calls += 1
            # f_quantile(prob, FDistParams): the frozen dataclass is hashable.
            args = tuple(self.args[i])
            if args in seen:
                repeats += 1
            seen.add(args)
        return repeats / calls if calls else 0.0
