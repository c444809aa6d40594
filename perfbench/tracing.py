"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each traced function with a wrapper in every
``interfero`` module that holds a reference to it, because callers look the
function up in their own module's globals (``from .circuits import ...``).
Methods are replaced on their class.  `Tracer.uninstall` puts the originals
back, so traced and untraced repetitions alternate in one process.

Spans carry their thread.  Each thread keeps its own stack, so a span's
parent is the span open below it on the same thread; a cell the sweep's
thread pool runs gets the span that submitted it as parent.  A span records
its wall interval and its thread's CPU time.  Self time is CPU time: the
span's minus that of its children on the same thread.  With two workers
contending for the interpreter lock, wall intervals on each thread include
the time spent waiting for the other, so only CPU time adds up across
threads to the work each layer did.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# Span name for one cell of a threaded sweep.  It is not a public function:
# its self time (per-cell glue in `run_sweep`) is charged to its parent, and
# its CPU time measures how much of the sweep ran in parallel.
CELL = "experiments.run_sweep.cell"


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "cpu")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.thread = threading.get_ident()
        self.parent = parent
        self.cpu = time.thread_time()
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Records spans of the functions named in ``targets`` while installed.

    A target is ``"<module>.<function>"`` or ``"<module>.<Class>.<method>"``
    relative to the ``interfero`` package.
    """

    def __init__(self, targets: list[str]) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, parent: Span | None = None):
        """``fn`` recording a span called ``name`` per call.

        ``parent`` is used when the calling thread has no open span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else parent)
            self.spans.append(span)  # list.append is atomic under the GIL
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - span.cpu
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "interfero" or n.startswith("interfero.")]
        for target in self.targets:
            module_name, _, path = target.partition(".")
            owner = importlib.import_module(f"interfero.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(target, original)
            holders = [owner] if classes else [m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                self._set(holder, attr, wrapper)
        self._set(importlib.import_module("interfero.experiments"), "ThreadPoolExecutor", self._pool_class())

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _set(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                cell = tracer.wrap(CELL, fn, parent=stack[-1] if stack else None)
                return super().submit(cell, *args, **kwargs)

        return TracedPool


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo = a
        cur_hi = max(cur_hi, b)
    return total + cur_hi - cur_lo


def summarize_spans(spans: list[Span], t0: float, t1: float) -> dict[str, float]:
    """Per-layer figures of one traced repetition that ran from ``t0`` to ``t1``.

    ``<name>.calls``, ``<name>.self_s`` (CPU time, summed over threads) and
    ``<name>.incl_s`` (wall time) for every span name seen;
    ``experiments.run_sweep.parallelism``, the summed CPU time of threaded
    cells over the sweep's wall time (1 when the sweep ran its cells on its
    own thread); and ``trace.uncovered_s``, the wall time from ``t0`` to
    ``t1`` that no top-level span covers.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for s in spans:
        own = s.cpu - sum(k.cpu for k in children.get(id(s), []) if k.thread == s.thread)
        name = s.parent.name if s.name == CELL and s.parent is not None else s.name
        add(f"{name}.self_s", own)
        if s.name != CELL:
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.incl_s", s.end - s.start)
    sweeps = [s for s in spans if s.name == "experiments.run_sweep"]
    if sweeps:
        cells = [s for s in spans if s.name == CELL]
        sweep_wall = sum(s.end - s.start for s in sweeps)
        out["experiments.run_sweep.parallelism"] = sum(c.cpu for c in cells) / sweep_wall if cells else 1.0
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    out["trace.uncovered_s"] = (t1 - t0) - covered(roots, t0, t1)
    return out
