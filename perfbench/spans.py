"""Runtime-only span tracer for the traced benchmark run.

``Tracer.install`` replaces, for the duration of the traced pass, every
public function of the traced ``qdeg`` modules with a wrapper that
records a span, and does the same for ``numpy.linalg.eigh`` and
``eigvalsh`` so that eigendecompositions count whichever route runs
them. Only calls made inside a benchmark operation (an ``op.*`` root
span) are recorded. Nothing under ``src/`` is edited; ``uninstall``
restores the originals. Spans live in memory as
``[name, start_ns, end_ns, parent_index, tag]`` and are written out once,
at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: Package modules whose public functions are wrapped; the module name is the layer.
TRACED_LAYERS = ("linalg", "channels", "classify", "symext", "cli")
EIGEN_SPANS = frozenset(
    {"linalg.hermitian_eigen", "linalg.hermitian_eigenvalues", "numpy.eigh", "numpy.eigvalsh"}
)
#: Spans are capped so a traced pass stays within a few tens of MB.
MAX_SPANS = 250_000


def _dim(args):
    a = args[0] if args else None
    shape = getattr(a, "shape", None)
    if shape is None:
        shape = getattr(getattr(a, "matrix", None), "shape", None)
    return int(shape[0]) if shape else 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.limit = MAX_SPANS
        self._stack: list = []
        self._patches: list = []

    @property
    def full(self) -> bool:
        """True once ``limit`` spans are recorded; passes stop starting operations then."""
        return len(self.spans) >= self.limit

    def span(self, name: str, tag=None):
        """Context manager for a benchmark-level span (an operation root)."""
        return _Span(self, name, tag)

    def _open(self, name, tag):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, tag])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, tag_dim):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside an operation: input building or output checking
                return fn(*args, **kwargs)
            idx = self._open(name, _dim(args) if tag_dim else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def install(self, package):
        """Wrap public functions of the traced layers and numpy's eigensolvers."""
        targets = []
        for layer in TRACED_LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets.append((f"{layer}.{name}", obj, layer == "linalg"))
        for name in ("eigh", "eigvalsh"):
            targets.append((f"numpy.{name}", getattr(np.linalg, name), True))
        holders = [np.linalg] + [m for n, m in sys.modules.items()
                                 if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for span_name, fn, tag_dim in targets:
            wrapped = self._wrap(span_name, fn, tag_dim)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def write(self, path, meta: dict):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start_ns", "end_ns", "parent", "tag"],
                       "spans": self.spans}, fh)


class _Span:
    def __init__(self, tracer, name, tag):
        self.tracer, self.name, self.tag = tracer, name, tag

    def __enter__(self):
        self.idx = self.tracer._open(self.name, self.tag)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyse(spans: list) -> dict:
    """Reduce spans to per-layer self time and per-span-name durations.

    Returns ``self_ns`` (layer -> self time), ``root_ns`` (total time of
    root spans) and ``durations`` (span name -> list of (duration_ns, tag)).
    A span's self time is its duration minus that of its direct children.
    """
    n = len(spans)
    child_ns = [0] * n
    for name, start, end, parent, tag in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = defaultdict(int)
    durations = defaultdict(list)
    root_ns = 0
    for i, (name, start, end, parent, tag) in enumerate(spans):
        dur = end - start
        self_ns[layer_of(name)] += dur - child_ns[i]
        durations[name].append((dur, tag))
        if parent < 0:
            root_ns += dur
    return {"self_ns": dict(self_ns), "root_ns": root_ns, "durations": durations}


def eigen_counts(spans: list, owner: str) -> list:
    """For each span named ``owner``: (its parent's tag, eigen calls, eigen ns, duration ns).

    An eigendecomposition counts once, at the outermost eigen span, so a
    qdeg solver that delegates to LAPACK is not counted twice.
    """
    owner_of = [-1] * len(spans)
    in_eigen = [False] * len(spans)
    rows = {}
    for i, (name, start, end, parent, tag) in enumerate(spans):
        if name == owner:
            owner_of[i] = i
            rows[i] = [spans[parent][4] if parent >= 0 else None, 0, 0, end - start]
        elif parent >= 0:
            owner_of[i] = owner_of[parent]
        if name in EIGEN_SPANS:
            outermost = parent < 0 or not in_eigen[parent]
            in_eigen[i] = True
            if outermost and owner_of[i] >= 0:
                row = rows[owner_of[i]]
                row[1] += 1
                row[2] += end - start
        elif parent >= 0:
            in_eigen[i] = in_eigen[parent]
    return list(rows.values())


def layer_time_under(spans: list, root_tag_prefix: str, layer: str):
    """(time in outermost ``layer`` spans, total time) under root spans whose tag
    starts with ``root_tag_prefix``."""
    root_of = [-1] * len(spans)
    in_layer = [False] * len(spans)
    inside = total = 0
    for i, (name, start, end, parent, tag) in enumerate(spans):
        if parent < 0:
            root_of[i] = i if isinstance(tag, str) and tag.startswith(root_tag_prefix) else -1
            if root_of[i] >= 0:
                total += end - start
            continue
        root_of[i] = root_of[parent]
        mine = layer_of(name) == layer
        if mine and not in_layer[parent] and root_of[i] >= 0:
            inside += end - start
        in_layer[i] = mine or in_layer[parent]
    return inside, total
