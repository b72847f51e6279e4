"""Layer tracing from outside the program, plus the delay-injection hook.

The traced run replaces the module or class attribute through which callers
reach each layer's public functions (every ``repro`` module that imported a
function by name gets the wrapper too), records one span per call, and keeps
the spans in memory until the run ends.  The untraced run installs nothing,
so it calls the program exactly as a user would.

A span holds its layer name, start and end, the span that was open on the
same thread when it began (its parent) and the outermost such span (its
root).  A layer's busy time sums its outermost spans (a layer calling itself
is counted once); its self time is each span's duration minus its direct
children's.

Delay injection (``--inject LAYER:FRACTION``) wraps one layer, even in an
untraced run, and after each call spins for ``FRACTION`` times the call's
duration.  It exists to show that the benchmark detects a slower layer on the
workload that runs it and not on one that bypasses it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``(layer, owner path, attribute)``; an owner path ending in a class name
#: wraps a method, otherwise a module-level function.
LAYERS: List[Tuple[str, str, str]] = [
    ("sparsify.grass", "repro.sparsify.grass.GrassSparsifier", "sparsify"),
    ("core.setup", "repro.core.setup", "run_setup"),
    ("spectral.kappa", "repro.spectral.condition", "relative_condition_number"),
    ("spectral.kappa", "repro.spectral.condition", "condition_estimate"),
    ("spectral.eigvec", "repro.spectral.condition", "dominant_generalized_eigenvector"),
    ("spectral.factor", "scipy.sparse.linalg", "splu"),
    ("spectral.factor", "repro.spectral.solvers.GroundedSolver", "__init__"),
    ("spectral.pcg", "repro.spectral.solvers.PCGSolver", "solve"),
    ("graphs.laplacian", "repro.graphs.graph.Graph", "laplacian_matrix"),
    ("core.update", "repro.core.update", "run_update"),
    ("core.removal", "repro.core.update", "run_removal"),
    ("core.maintenance", "repro.core.maintenance.HierarchyMaintainer", "note_removals"),
    ("core.maintenance", "repro.core.maintenance.HierarchyMaintainer", "note_insertions"),
    ("core.guard", "repro.core.update", "run_kappa_guard"),
    ("service.apply", "repro.service.SparsifierService", "apply"),
    ("service.snapshot", "repro.service.SparsifierService", "snapshot"),
    ("snapshot.capture", "repro.snapshot.SparsifierSnapshot", "capture"),
    ("snapshot.query", "repro.snapshot.SparsifierSnapshot", "effective_resistance_many"),
    ("snapshot.query", "repro.snapshot.SparsifierSnapshot", "solve"),
]

INJECTABLE = sorted({layer for layer, _, _ in LAYERS})

#: Per-layer metrics printed by a traced run: ``name: (unit, better)``.
PER_LAYER_UNITS = {
    "sparsify.grass.busy_s": ("s", "lower"),
    "core.setup.busy_s": ("s", "lower"),
    "spectral.kappa.busy_s": ("s", "lower"),
    "spectral.kappa.calls": ("count", "lower"),
    "spectral.kappa.solves_per_call": ("count", "lower"),
    "spectral.eigvec.busy_s": ("s", "lower"),
    "spectral.eigvec.calls": ("count", "lower"),
    "spectral.factor.busy_s": ("s", "lower"),
    "spectral.factor.calls": ("count", "lower"),
    "spectral.factor.fill_nnz": ("count", "lower"),
    "spectral.factor.per_epoch": ("count", "lower"),
    "spectral.pcg.busy_s": ("s", "lower"),
    "spectral.pcg.iterations": ("count", "lower"),
    "graphs.laplacian.busy_s": ("s", "lower"),
    "graphs.laplacian.calls": ("count", "lower"),
    "core.update.busy_s": ("s", "lower"),
    "core.update.events": ("count", "higher"),
    "core.update.admit_ratio": ("ratio", "lower"),
    "core.removal.busy_s": ("s", "lower"),
    "core.removal.repairs": ("count", "lower"),
    "core.maintenance.busy_s": ("s", "lower"),
    "core.maintenance.splices": ("count", "lower"),
    "core.maintenance.merges": ("count", "lower"),
    "core.maintenance.diameter_recomputes": ("count", "lower"),
    "core.guard.busy_s": ("s", "lower"),
    "core.guard.self_s": ("s", "lower"),
    "core.guard.rounds": ("count", "lower"),
    "core.guard.unsatisfied": ("count", "lower"),
    "service.apply.busy_s": ("s", "lower"),
    "service.snapshot.self_s": ("s", "lower"),
    "snapshot.capture.busy_s": ("s", "lower"),
    "snapshot.capture.calls": ("count", "lower"),
    "snapshot.query.busy_s": ("s", "lower"),
    "snapshot.cached_read_ratio": ("ratio", "higher"),
    "server.overhead_ms": ("ms", "lower"),
    "server.queue_depth_max": ("count", "lower"),
    "bench.send_lateness_p99_ms": ("ms", "lower"),
    "bench.host_ref_ms": ("ms", "lower"),
    "bench.unattributed_write_share": ("ratio", "lower"),
}


def _resolve(path: str):
    """Return the module or class named by a dotted ``path``."""
    import importlib

    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module_path, _, class_name = path.rpartition(".")
        return getattr(importlib.import_module(module_path), class_name)


def _spin(seconds: float) -> None:
    """Busy-wait: an injected delay costs CPU, as a slower layer would."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _CountingLU:
    """SuperLU stand-in that counts solves (Lanczos and PCG operator applies)."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer: "Tracer") -> None:
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        self._tracer.note_solve()
        return self._lu.solve(rhs, trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder and the wrappers that feed it."""

    def __init__(self, *, record: bool, inject: Optional[Tuple[str, float]] = None) -> None:
        self.record = record
        self.inject = inject
        #: ``[name, start, end, parent index, root index]``; ``end`` is filled
        #: when the call returns.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- span bookkeeping --------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.open = defaultdict(int)
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        index = len(self.spans)
        # list.append is atomic under the interpreter lock; index is ours.
        self.spans.append([name, time.perf_counter(), None, parent, root])
        stack.append(index)
        self._local.open[name] += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack().pop()
        self._local.open[span[0]] -= 1

    def inside(self, name: str) -> bool:
        self._stack()
        return self._local.open[name] > 0

    def add(self, key: str, value: float = 1.0) -> None:
        with self._counter_lock:
            self.counters[key] += value

    def note_solve(self) -> None:
        if self.inside("spectral.kappa"):
            self.add("spectral.kappa.solves")

    # -- wrappers ------------------------------------------------------------
    def _wrapper(self, layer: str, fn: Callable, after: Optional[Callable]) -> Callable:
        stretch = self.inject[1] if self.inject and self.inject[0] == layer else 0.0
        record = self.record
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            begin = time.perf_counter()
            index = tracer.begin(layer) if record else -1
            try:
                result = fn(*args, **kwargs)
            finally:
                if stretch:
                    _spin(stretch * (time.perf_counter() - begin))
                if record:
                    tracer.end(index)
            if record and after is not None:
                result = after(args, kwargs, result)
            return result

        return wrapped

    def _after_hooks(self) -> Dict[Tuple[str, str], Callable]:
        tracer = self
        add = self.add

        def splu_after(args, kwargs, lu):
            add("spectral.factor.factorisations", 1)
            add("spectral.factor.fill_nnz_total", float(lu.nnz))
            return _CountingLU(lu, tracer)

        def pcg_after(args, kwargs, report):
            add("spectral.pcg.solves", 1)
            add("spectral.pcg.iterations", float(report.iterations))
            return report

        def update_after(args, kwargs, result):
            new_edges = args[2] if len(args) > 2 else kwargs["new_edges"]
            add("core.update.events", len(new_edges))
            add("core.update.added", result.summary.added)
            return result

        def removal_after(args, kwargs, result):
            add("core.removal.repairs", result.num_repairs)
            return result

        def guard_after(args, kwargs, report):
            add("core.guard.rounds", report.rounds)
            add("core.guard.unsatisfied", 0 if report.satisfied else 1)
            return report

        return {
            ("spectral.factor", "splu"): splu_after,
            ("spectral.pcg", "solve"): pcg_after,
            ("core.update", "run_update"): update_after,
            ("core.removal", "run_removal"): removal_after,
            ("core.guard", "run_kappa_guard"): guard_after,
        }

    def install(self) -> None:
        """Wrap the traced layers (all of them, or only the injected one)."""
        import repro.api  # noqa: F401  (imports every layer module)

        hooks = self._after_hooks()
        for layer, owner_path, attr in LAYERS:
            if not self.record and not (self.inject and self.inject[0] == layer):
                continue
            owner = _resolve(owner_path)
            after = hooks.get((layer, attr))
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper(layer, raw.__func__, after))
                else:
                    wrapped = self._wrapper(layer, raw, after)
                setattr(owner, attr, wrapped)
                self._restore.append(functools.partial(setattr, owner, attr, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(layer, original, after)
            # Callers that imported the function by name resolve it in their
            # own module: patch every module that holds the same object.
            for name, module in list(sys.modules.items()):
                if module is None or not (name == owner_path or name.startswith("repro")):
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
                    self._restore.append(functools.partial(setattr, module, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- derived metrics ---------------------------------------------------
    def child_time(self) -> List[float]:
        """Per span, the summed duration of its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0 and span[2] is not None:
                child_time[span[3]] += span[2] - span[1]
        return child_time

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: busy (outermost spans), self time and outermost calls."""
        spans = self.spans
        child_time = self.child_time()
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"busy": 0.0, "self": 0.0,
                                                                "calls": 0})
        for index, span in enumerate(spans):
            if span[2] is None:
                continue
            name, duration = span[0], span[2] - span[1]
            entry = out[name]
            entry["self"] += duration - child_time[index]
            parent, outermost = span[3], True
            while parent >= 0:
                if spans[parent][0] == name:
                    outermost = False
                    break
                parent = spans[parent][3]
            if outermost:
                entry["busy"] += duration
                entry["calls"] += 1
        return out

    def cached_read_ratio(self) -> float:
        """Share of snapshot queries that paid no factorisation."""
        queries = [i for i, span in enumerate(self.spans)
                   if span[0] == "snapshot.query" and span[2] is not None]
        if not queries:
            return 0.0
        factored = set()
        for span in self.spans:
            if span[0] == "spectral.factor":
                parent = span[3]
                while parent >= 0:
                    if parent in factored:
                        break
                    if self.spans[parent][0] == "snapshot.query":
                        factored.add(parent)
                        break
                    parent = self.spans[parent][3]
        return 1.0 - len(factored) / len(queries)


def layer_metrics(tracer: Tracer, *, scale: float, epochs: int,
                  maintenance: Optional[dict] = None) -> Dict[str, float]:
    """Turn spans and counters into the per-layer metric values.

    ``scale`` is the host-normalisation factor applied to every time;
    ``epochs`` counts the sparsifier versions the run produced (setups plus
    applied batches), the denominator of ``spectral.factor.per_epoch``.
    """
    times = tracer.layer_times()
    counters = tracer.counters

    def busy(name: str) -> float:
        return times[name]["busy"] * scale if name in times else 0.0

    def calls(name: str) -> float:
        return float(times[name]["calls"]) if name in times else 0.0

    kappa_calls = calls("spectral.kappa")
    factorisations = counters.get("spectral.factor.factorisations", 0.0)
    pcg_solves = counters.get("spectral.pcg.solves", 0.0)
    events = counters.get("core.update.events", 0.0)
    maintenance = maintenance or {}
    return {
        "sparsify.grass.busy_s": busy("sparsify.grass"),
        "core.setup.busy_s": busy("core.setup"),
        "spectral.kappa.busy_s": busy("spectral.kappa"),
        "spectral.kappa.calls": kappa_calls,
        "spectral.kappa.solves_per_call": (counters.get("spectral.kappa.solves", 0.0)
                                           / kappa_calls if kappa_calls else 0.0),
        "spectral.eigvec.busy_s": busy("spectral.eigvec"),
        "spectral.eigvec.calls": calls("spectral.eigvec"),
        "spectral.factor.busy_s": busy("spectral.factor"),
        "spectral.factor.calls": factorisations,
        "spectral.factor.fill_nnz": (counters.get("spectral.factor.fill_nnz_total", 0.0)
                                     / factorisations if factorisations else 0.0),
        "spectral.factor.per_epoch": factorisations / epochs if epochs else 0.0,
        "spectral.pcg.busy_s": busy("spectral.pcg"),
        "spectral.pcg.iterations": (counters.get("spectral.pcg.iterations", 0.0)
                                    / pcg_solves if pcg_solves else 0.0),
        "graphs.laplacian.busy_s": busy("graphs.laplacian"),
        "graphs.laplacian.calls": calls("graphs.laplacian"),
        "core.update.busy_s": busy("core.update"),
        "core.update.events": events,
        "core.update.admit_ratio": (counters.get("core.update.added", 0.0) / events
                                    if events else 0.0),
        "core.removal.busy_s": busy("core.removal"),
        "core.removal.repairs": counters.get("core.removal.repairs", 0.0),
        "core.maintenance.busy_s": busy("core.maintenance"),
        "core.maintenance.splices": float(maintenance.get("splices", 0)),
        "core.maintenance.merges": float(maintenance.get("merges", 0)),
        "core.maintenance.diameter_recomputes": float(maintenance.get("diameter_recomputes", 0)),
        "core.guard.busy_s": busy("core.guard"),
        "core.guard.self_s": (times["core.guard"]["self"] * scale
                              if "core.guard" in times else 0.0),
        "core.guard.rounds": counters.get("core.guard.rounds", 0.0),
        "core.guard.unsatisfied": counters.get("core.guard.unsatisfied", 0.0),
        "service.apply.busy_s": busy("service.apply"),
        "service.snapshot.self_s": (times["service.snapshot"]["self"] * scale
                                    if "service.snapshot" in times else 0.0),
        "snapshot.capture.busy_s": busy("snapshot.capture"),
        "snapshot.capture.calls": calls("snapshot.capture"),
        "snapshot.query.busy_s": busy("snapshot.query"),
        "snapshot.cached_read_ratio": tracer.cached_read_ratio(),
    }


def unattributed_share(tracer: Tracer, root_name: str) -> float:
    """Share of ``root_name`` span time not covered by any direct child span."""
    child_time = tracer.child_time()
    total = covered = 0.0
    for index, span in enumerate(tracer.spans):
        if span[0] == root_name and span[2] is not None:
            total += span[2] - span[1]
            covered += child_time[index]
    return (total - covered) / total if total > 0 else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0
