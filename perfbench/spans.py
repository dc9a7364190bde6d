"""In-memory spans around hepbell's public calls, and self-time arithmetic.

A span is ``(name, start_ns, end_ns, parent, iteration)``; ``parent`` is the
index of the enclosing span in the same list, or -1 for a top-level span.
Times come from CLOCK_MONOTONIC, which every process on the host shares, so
spans recorded inside a child process nest under the span the benchmark
opened around that process.

``install`` replaces hepbell functions by timing wrappers from the outside:
nothing under ``src/`` changes.  Spans stay in memory and ``Tracer.dump``
writes them once, when the traced process exits.
"""

from __future__ import annotations

import json
import os
import threading
import time
from functools import wraps


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# (module, attribute) -> span name.  Only the calls a per-layer metric reads
# get a span: a span around a helper would move its time out of the caller's
# self time.
SPANNED = {
    ("mesonlab", "generate_events"): "mesonlab.generate_events",
    ("mesonlab", "_invert_signal_cdf"): "mesonlab.invert_signal_cdf",
    ("mesonlab", "write_events_csv"): "mesonlab.write_events_csv",
    ("mesonlab", "read_events_csv"): "mesonlab.read_events_csv",
    ("mesonlab", "derive_kappa"): "mesonlab.derive_kappa",
    ("mesonlab", "estimate_probability"): "mesonlab.estimate_probability",
    ("mesonlab", "ch_from_events"): "mesonlab.ch_from_events",
    ("qcore", "born_probability"): "qcore.born_probability",
    ("qcore", "eigenvector_for_eigenvalue"): "qcore.eigenvector_for_eigenvalue",
    ("spin1", "maximize_violation"): "spin1.maximize_violation",
    ("spin1", "maximize_ch_vv"): "spin1.maximize_ch_vv",
    ("spin1", "hardy_probabilities"): "spin1.hardy_probabilities",
    ("photon3", "ch_value_3gamma"): "photon3.ch_value_3gamma",
    ("photon3", "three_tangle"): "photon3.three_tangle",
    ("lhv", "max_ch_3gamma_lhv"): "lhv.max_ch_3gamma_lhv",
    ("lhv", "max_hardy_spin1_lhv"): "lhv.max_hardy_spin1_lhv",
}

# The objectives the grid + golden-section search evaluates.  They run
# tens of thousands of times per search, so they are counted, not spanned.
COUNTED = {
    ("spin1", "hardy_difference_closed"): "search.objective_calls",
    ("spin1", "ch_vv_joint_combination"): "search.objective_calls",
}


class Tracer:
    """Spans and counters of one process."""

    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, func, args, kwargs):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0, 0, stack[-1] if stack else -1, self.iteration))
        stack.append(index)
        start = now_ns()
        try:
            return func(*args, **kwargs)
        finally:
            end = now_ns()
            stack.pop()
            name, _, _, parent, iteration = self.spans[index]
            self.spans[index] = (name, start, end, parent, iteration)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _after_call(tracer: Tracer, name: str, args, kwargs, result) -> None:
    """Counters read from a call's inputs and result, outside its span."""
    if name == "mesonlab.generate_events":
        tracer.count("events_drawn", len(result))
        tracer.count("events_coincident", int(result.coincidence_mask.sum()))
    elif name == "mesonlab.write_events_csv":
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.count("csv_bytes_written", os.path.getsize(path))
    elif name == "mesonlab.read_events_csv":
        path = args[0] if args else kwargs["path"]
        tracer.count("csv_bytes_read", os.path.getsize(path))


def _spanned(tracer: Tracer, name: str, func):
    cache_info = getattr(func, "cache_info", None)

    @wraps(func)
    def wrapper(*args, **kwargs):
        misses = cache_info().misses if cache_info else 0
        result = tracer.call(name, func, args, kwargs)
        if cache_info and cache_info().misses > misses:
            tracer.count(name + ".cold_calls")
        _after_call(tracer, name, args, kwargs, result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, func):
    @wraps(func)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return func(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the listed hepbell functions in every module that references them.

    Modules bind some of these by name (``from .qcore import
    born_probability``), so each module attribute that is one of the
    original functions is replaced, not only the defining module's.
    """
    import importlib

    import hepbell

    modules = {
        name: importlib.import_module(f"hepbell.{name}")
        for name in ("cli", "mesonlab", "qcore", "spin1", "_search", "photon3", "lhv")
    }
    replacements = {}
    for table, make in ((SPANNED, _spanned), (COUNTED, _counted)):
        for (module, attr), name in table.items():
            original = getattr(modules[module], attr)
            replacements[id(original)] = (original, make(tracer, name, original))
    for module in (hepbell, *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def self_times(spans) -> list[float]:
    """Seconds of each span not covered by its direct children.

    Children are merged as intervals first, so children that overlap (a
    layer running on several threads) are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start - covered) / 1e9)
    return out
