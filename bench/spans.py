"""Nested timing spans recorded around rentdiv functions from outside the package.

A `Recorder` replaces chosen module-level functions of the rentdiv modules
with wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans live in flat arrays until the run
ends, then `summarize` turns them into per-name counts, total time and self
time (a span's duration minus the time its direct children cover; calls are
nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

# The layer boundaries the benchmark traces, as "module.function".  Leaf
# helpers such as model.to_rational are left out on purpose: they run once
# per coefficient inside the simplex, so a span around them would cost more
# than the work it measures.  Functions missing from a module are skipped, so
# the list keeps working when a later change moves or deletes one of them.
TRACED = (
    "cli.main",
    "scenarios.load_scenario",
    "scenarios.builtin_scenario",
    "scenarios.run_scenario",
    "manipulation.best_response_search",
    "manipulation.evaluate_deviation",
    "pricing.solve",
    "pricing.maximin_prices",
    "pricing.simplex_solve",
    "pricing.min_utility_feasible",
    "pricing.is_envy_free",
    "matching.max_welfare_assignment",
    "matching.all_optimal_assignments",
    "matching.tie_break_key",
    "model.validate_instance",
    "model.build_outcome",
)

OP = "op"  # root span the benchmark opens around every operation


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        nid = self._intern(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets=TRACED):
        """Swap each target for its traced wrapper in every rentdiv module
        that holds a reference to it (``from .model import validate_instance``
        makes copies), and restore the originals on exit."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "rentdiv" or key.startswith("rentdiv."))
        ]
        swapped = []
        for target in targets:
            module_name, func_name = target.split(".")
            home = sys.modules.get(f"rentdiv.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(target, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        swapped.append((m, attr, original))
        try:
            yield self
        finally:
            for m, attr, original in reversed(swapped):
                setattr(m, attr, original)

    def op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        return self.wrap(OP, fn)(*args)


class Summary:
    """Per-name aggregates of a finished recording."""

    def __init__(self, recorder: Recorder):
        n = len(recorder.name)
        child = [0.0] * n
        dur = [recorder.end[i] - recorder.start[i] for i in range(n)]
        for i in range(n):
            p = recorder.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list] = {}
        for i in range(n):
            name = recorder.names[recorder.name[i]]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur[i]
            self.self_time[name] = self.self_time.get(name, 0.0) + dur[i] - child[i]
            self.durations.setdefault(name, []).append(dur[i])
        self._recorder = recorder
        self.ops = self.count.get(OP, 0)
        self.op_time = self.total.get(OP, 0.0)

    def calls_per_op(self, name: str) -> float:
        return self.count.get(name, 0) / self.ops if self.ops else 0.0

    def self_share(self, name: str) -> float:
        return self.self_time.get(name, 0.0) / self.op_time if self.op_time else 0.0

    def module_self_share(self, module: str) -> float:
        prefix = module + "."
        t = sum(v for k, v in self.self_time.items() if k.startswith(prefix))
        return t / self.op_time if self.op_time else 0.0

    def ms_p50(self, name: str) -> float:
        d = self.durations.get(name)
        return statistics.median(d) * 1e3 if d else 0.0

    def share_with_descendant(self, name: str, descendant: str) -> float:
        """Share of `name` spans that have a `descendant` span below them."""
        rec = self._recorder
        ids = rec._ids
        if name not in ids:
            return 0.0
        nid = ids[name]
        did = ids.get(descendant)
        marked = set()
        if did is not None:
            for i in range(len(rec.name)):
                if rec.name[i] != did:
                    continue
                p = rec.parent[i]
                while p >= 0:
                    if rec.name[p] == nid:
                        marked.add(p)
                        break
                    p = rec.parent[p]
        return len(marked) / self.count[name]
