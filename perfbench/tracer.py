"""Outside-in tracer for the heatflux layers.

The tracer never edits the package. It replaces each public function of the
layer modules with a wrapper that records a span, in every module namespace
that binds the function: ``from .forward import solve_ibvp`` copies the name
into ``adjoint`` and ``cli``, and wrapping only ``forward.solve_ibvp`` would
miss the calls made through those copies. ``restore`` puts every original
back.

A span is (name id, parent span id, start, end), kept in flat arrays so a run
of a million spans stays small; the spans are written out only when the run
ends. A span's self time is its duration minus the time covered by its child
spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

import numpy as np

# The package modules that make up the layers, in call order from the top.
LAYERS = ("cli", "config", "material", "pchip", "forward", "observation", "adjoint", "optimizer")

# The two march entry points. End-to-end runs wrap only these, to count time
# steps for the throughput metric.
MARCHES = ("forward.solve_ibvp", "adjoint.solve_adjoint")


class Tracer:
    """Spans and counters recorded by wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, on_return=None):
        """Return `fn` wrapped so that each call records a span `name`.

        `on_return(tracer, args, result)` runs inside the span after a
        successful call; it derives counters from arguments and results.
        The bookkeeping is the same as in `span`, inlined because the
        wrapper runs several times per time step of a march.
        """
        nid = self._intern(name)
        clock = self.clock
        stack = self._stack
        start, end, name_id, parent = self.start, self.end, self.name_id, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self, args, result)
                return result
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block, for code that is not a call."""
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        try:
            yield
        finally:
            self.end[sid] = self.clock()
            self._stack.pop()

    def spans(self) -> "SpanTable":
        return SpanTable(
            names=list(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
        )


class SpanTable:
    """Finished spans as columns, with per-span self time."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.duration = end - start
        child = np.bincount(
            parent[parent >= 0], weights=self.duration[parent >= 0], minlength=len(start)
        )
        self.self_time = self.duration - child

    def select(self, name: str) -> np.ndarray:
        """Indices of the spans called `name`."""
        if name not in self.names:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(self.name_id == self.names.index(name))

    def count(self, name: str) -> int:
        return int(self.select(name).size)

    def total(self, name: str) -> float:
        return float(self.duration[self.select(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.select(name)].sum())

    def self_total_prefix(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with `prefix`."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())

    def slice(self, lo: int, hi: int) -> "SpanTable":
        """Spans lo..hi-1 as their own table. Spans are stored in the order
        they open, so the spans opened inside span lo are exactly lo+1..hi-1
        for the hi at which it closed; parents outside the slice become -1."""
        parent = self.parent[lo:hi] - lo
        parent[parent < 0] = -1
        return SpanTable(self.names, self.name_id[lo:hi], parent, self.start[lo:hi], self.end[lo:hi])

    def nearest_ancestor(self, idx: int, ancestor_ids: set) -> int:
        """The nearest ancestor of span `idx` whose index is in `ancestor_ids`, or -1."""
        p = int(self.parent[idx])
        while p >= 0 and p not in ancestor_ids:
            p = int(self.parent[p])
        return p

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            parent=self.parent,
            start=self.start,
            end=self.end,
        )


def layer_functions(modules: dict):
    """(qualified name, function) for each public function a layer defines."""
    for layer, mod in modules.items():
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                yield f"{layer}.{attr}", obj


class Instrumentation:
    """Wrappers installed into the package namespaces, undone by `restore`."""

    def __init__(self, tracer: Tracer, modules: dict, namespaces, only=None, after=None):
        """Wrap the layer functions named in `only` (all, if None).

        `after()`, when given, runs after each wrapped call has returned or
        raised, outside its span.
        """
        self._undo: list[tuple[object, str, object]] = []
        wrappers = {}
        for qualname, fn in layer_functions(modules):
            if only is not None and qualname not in only:
                continue
            wrapped = tracer.wrap(fn, qualname, _HOOKS.get(qualname))
            if after is not None:
                wrapped = _then(wrapped, after)
            wrappers[id(fn)] = (fn, wrapped)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    @property
    def bindings(self) -> list[str]:
        """'module.attr' for every binding replaced, e.g. 'heatflux.adjoint.solve_ibvp'."""
        return [f"{ns.__name__}.{attr}" for ns, attr, _ in self._undo]

    def restore(self) -> None:
        for ns, attr, original in reversed(self._undo):
            setattr(ns, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _then(fn, after):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            after()

    return call


def _count_forward(tracer, args, field):
    tracer.counters["forward.steps"] += field.grid.nt
    tracer.counters["forward.field_bytes"] += field.values.nbytes


def _count_adjoint(tracer, args, phi):
    tracer.counters["adjoint.steps"] += phi.shape[0] - 1


def _count_bfgs_skip(tracer, args, S_new):
    # bfgs_inverse_update returns its input matrix itself when it skips.
    if S_new is args[0]:
        tracer.counters["optimizer.bfgs.skipped"] += 1


def _wrap_problem(tracer, args, problem):
    # The objective and gradient closures are the optimizer's view of the
    # forward/adjoint chain; wrapping them lets line-search trials and field
    # cache hits be counted from the span tree.
    problem.objective = tracer.wrap(problem.objective, "optimizer.problem.objective")
    problem.gradient = tracer.wrap(problem.gradient, "optimizer.problem.gradient")


_HOOKS = {
    "forward.solve_ibvp": _count_forward,
    "adjoint.solve_adjoint": _count_adjoint,
    "optimizer.bfgs_inverse_update": _count_bfgs_skip,
    "optimizer.make_pde_problem": _wrap_problem,
}
