"""In-memory span recorder installed around a package's functions from outside.

Wrappers are installed at every name that binds the wrapped object (the
defining module and each module that imported it), or on the class for
methods, and removed again by ``uninstall``.  Nothing in the traced
package changes.

Time is thread CPU time, so the spans of concurrent threads (the batch
thread pool) are not counted twice: a span's self time is its CPU time
minus that of its children on the same thread.  Each span also records
wall-clock start and end.  Calls marked *hot* (per-point or per-pair
calls, millions per run) are not stored one by one; their calls, CPU and
self time are summed per (nearest stored ancestor, name), which keeps the
self-time arithmetic exact while bounding memory.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

_cpu = time.thread_time_ns
_wall = time.perf_counter_ns


@dataclass(frozen=True)
class Target:
    """One function or method to trace."""

    layer: str
    module: str  # defining module, e.g. "surfemb4.gamma" or "mpmath"
    qualname: str  # "build_gamma", "GammaGroup.orbit_of", "Character.__init__"
    hot: bool = False
    size: Optional[Callable] = None  # args -> size parameter, stored spans only
    note: Optional[Callable] = None  # (thread state, args, result) -> None

    @property
    def name(self) -> str:
        short = self.qualname[:-len(".__init__")] if self.qualname.endswith(".__init__") \
            else self.qualname
        return f"{self.layer}.{short}"


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # frames: [nearest stored span index, cpu start, child cpu]
        # stored spans: [name id, wall start, wall end, parent, item, cpu, self cpu, size]
        self.spans: list[list] = []
        self.agg: dict[tuple[int, int], list[int]] = {}  # (ancestor, name id) -> calls, cpu, self
        self.counters: dict = {}

    def root(self) -> int:
        return self.stack[0][0] if self.stack else -1


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names = [t.name for t in targets]
        self.layer_of = {t.name: t.layer for t in targets}
        self.item = -1  # replay item id, set by the caller between invocations
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.state = st
        return st

    # -- wrappers -------------------------------------------------------------

    def _stored(self, fn, nid: int, size, note):
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            idx = len(st.spans)
            rec = [nid, _wall(), 0, stack[-1][0] if stack else -1, tracer.item, 0, 0,
                   size(args) if size else None]
            st.spans.append(rec)
            frame = [idx, _cpu(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = _cpu() - frame[1]
                stack.pop()
                rec[2] = _wall()
                rec[5] = cpu
                rec[6] = cpu - frame[2]
                if stack:
                    stack[-1][2] += cpu
            if note:
                note(st, args, result)
            return result

        return traced

    def _hot(self, fn, nid: int, note):
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            anc = stack[-1][0] if stack else -1
            frame = [anc, _cpu(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = _cpu() - frame[1]
                stack.pop()
                acc = st.agg.get((anc, nid))
                if acc is None:
                    acc = st.agg[(anc, nid)] = [0, 0, 0]
                acc[0] += 1
                acc[1] += cpu
                acc[2] += cpu - frame[2]
                if stack:
                    stack[-1][2] += cpu
            if note:
                note(st, args, result)
            return result

        return traced

    def install(self, package: str) -> None:
        """Wrap every target, at each name in ``package``'s modules that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for nid, t in enumerate(self.targets):
            owner = sys.modules[t.module]
            *path, attr = t.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = (self._hot(original, nid, t.note) if t.hot
                       else self._stored(original, nid, t.size, t.note))
            sites = [owner] if path else [owner] + [m for m in modules if m is not owner]
            for site in sites:
                if getattr(site, attr, None) is original:
                    self._restore.append((site, attr, original))
                    setattr(site, attr, wrapped)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, cpu_s and self_s over all threads."""
        out = {n: {"calls": 0, "cpu_s": 0.0, "self_s": 0.0} for n in self.names}
        for st in self._threads:
            for rec in st.spans:
                d = out[self.names[rec[0]]]
                d["calls"] += 1
                d["cpu_s"] += rec[5] / 1e9
                d["self_s"] += rec[6] / 1e9
            for (_, nid), (calls, cpu, self_cpu) in st.agg.items():
                d = out[self.names[nid]]
                d["calls"] += calls
                d["cpu_s"] += cpu / 1e9
                d["self_s"] += self_cpu / 1e9
        return out

    def counters(self) -> dict:
        """Counters summed over threads; set-valued counters are merged."""
        out: dict = {}
        for st in self._threads:
            for key, value in st.counters.items():
                if isinstance(value, set):
                    out.setdefault(key, set()).update(value)
                else:
                    out[key] = out.get(key, 0) + value
        return out

    def sized(self, name: str) -> list[tuple[int, float]]:
        """(size, CPU seconds including children) of each stored ``name`` span with a size."""
        nid = self.names.index(name)
        return [(rec[7], rec[5] / 1e9) for st in self._threads for rec in st.spans
                if rec[0] == nid and rec[7]]

    def dump(self, path) -> int:
        """Write stored spans (global indices) and aggregated hot calls; returns span count."""
        spans, agg, offset = [], [], 0
        for st in self._threads:
            for rec in st.spans:
                parent = rec[3] + offset if rec[3] >= 0 else -1
                spans.append([self.names[rec[0]], rec[1], rec[2], parent, rec[4], st.index,
                              rec[5], rec[6], rec[7]])
            for (anc, nid), (calls, cpu, self_cpu) in st.agg.items():
                agg.append([anc + offset if anc >= 0 else -1, self.names[nid], calls, cpu,
                            self_cpu])
            offset += len(st.spans)
        with open(path, "w") as fh:
            json.dump({
                "span_fields": ["name", "wall_start_ns", "wall_end_ns", "parent", "item",
                                "thread", "cpu_ns", "self_cpu_ns", "size"],
                "spans": spans,
                "aggregated_fields": ["parent", "name", "calls", "cpu_ns", "self_cpu_ns"],
                "aggregated": agg,
            }, fh)
        return len(spans)


def fit(points: list[tuple[int, float]], exponential: bool = False) -> tuple[float, dict]:
    """Growth of the median time per call with size.

    Power law: the least-squares slope of log(time) against log(size).
    Exponential: the base b of time ~ b^size.  Returns (0, medians) with
    fewer than two distinct sizes.
    """
    by_size: dict[int, list[float]] = {}
    for size, sec in points:
        by_size.setdefault(size, []).append(sec)
    medians = {s: statistics.median(v) for s, v in sorted(by_size.items())}
    xs = [s if exponential else math.log(s) for s, v in medians.items() if v > 0]
    ys = [math.log(v) for v in medians.values() if v > 0]
    if len(set(xs)) < 2:
        return 0.0, medians
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return (math.exp(slope) if exponential else slope), medians
