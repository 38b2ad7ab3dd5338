"""In-memory span recorder wrapped around qphase's public functions.

A span is (name, start_ns, end_ns, parent index).  The benchmark opens its own
root spans (``setup``, ``op:<kind>``, ``check``); the wrapped library calls
nest under them.  Per-layer figures count only spans rooted at ``setup`` or
``op:*``, so the benchmark's own checks never inflate a layer.

``perf_counter_ns`` reads CLOCK_MONOTONIC on Linux, so spans written by a
child process (the ``qphase`` CLI runs) share the parent's time base and are
merged under the parent's operation span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = (
    "system",
    "fields",
    "geometry",
    "operators",
    "mub",
    "wigner",
    "states",
    "tomography",
    "verify",
    "cli",
    "serialize",
)
# Classes whose public methods are layer entry points too: the net's
# phase-point stack and outcome table are lazily built caches.
METHOD_CLASSES = {"wigner": ("QuantumNet",)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self, package: str = "qphase") -> None:
        """Wrap every public function of the layer modules.

        Functions imported by name into other modules (``translation_unitary``
        into ``mub``, ``wigner`` and ``verify``; the stage functions into
        ``system``; the checks listed in ``verify.ALL_CHECKS``) are rebound
        wherever they are looked up, or their calls would be missed.
        """
        replaced: dict[int, object] = {}
        for short in LAYERS:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            for cls_name in METHOD_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and callable(obj) and not isinstance(obj, type):
                        setattr(cls, attr, self.wrap(f"{short}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, list):
                    obj[:] = [replaced.get(id(x), x) for x in obj]

    def merge(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under one of ours."""
        base = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        rows = []
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split("\t")
            rows.append([name, int(start), int(end), int(parent)])
    return rows


def layer_stats(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self nanoseconds, kept apart for
    spans under ``op:*`` roots ("op") and under ``setup`` roots ("setup")."""
    n = len(spans)
    child_ns = [0] * n
    root = [0] * n
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    stats: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        root_name = spans[root[i]][0]
        phase = "op" if root_name.startswith("op:") else root_name
        if phase not in ("op", "setup") or root[i] == i:
            continue
        s = stats.setdefault(name, {}).setdefault(phase, {"calls": 0, "ns": 0, "self_ns": 0})
        s["calls"] += 1
        s["ns"] += end - start
        s["self_ns"] += end - start - child_ns[i]
    return stats


def calls_by_kind(spans: list[list], name: str) -> dict[str, float]:
    """Mean calls of ``name`` per operation, for each kind of ``op:<kind>``."""
    kinds = {i: s[0][3:] for i, s in enumerate(spans) if s[3] < 0 and s[0].startswith("op:")}
    root = [0] * len(spans)
    for i, s in enumerate(spans):
        root[i] = root[s[3]] if s[3] >= 0 else i
    ops = Counter(kinds.values())
    calls = dict.fromkeys(ops, 0)
    for i, s in enumerate(spans):
        if s[0] == name and root[i] in kinds:
            calls[kinds[root[i]]] += 1
    return {k: calls[k] / ops[k] for k in sorted(calls)}
