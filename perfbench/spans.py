"""Spans and counters recorded around puboforge's public functions.

Nothing inside the package changes.  `install` replaces each traced public
function at every module attribute of ``puboforge`` that refers to it (so
``puboforge.cli.solve_ilp_exact`` and ``puboforge.setcover.solve_ilp_exact``
both record), and replaces two hot methods with plain counters.  A name the
package no longer defines is skipped and its metrics are reported absent.

A span is (op, id, parent, name, start_ns, end_ns, attrs); spans stay in
memory until the run writes them out.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def _solver_attrs(result) -> dict:
    return {"nodes": result.nodes, "proven": bool(result.proven_optimal)}


def _reduced_attrs(result) -> dict:
    return {"ancillas": len(result.registry), "terms": len(result.quadratic)}


def _attrs(extract, result) -> dict | None:
    """Counts read from a return value; None when the call raised or the
    value no longer has the expected shape."""
    if extract is None or result is None:
        return None
    try:
        return extract(result)
    except (AttributeError, TypeError):
        return None


# (metric prefix, module, qualified name, attrs read from the return value)
SPANS = (
    ("cli.run", "puboforge.cli", "run", None),
    ("poly.parse_polynomial", "puboforge.poly", "parse_polynomial", lambda r: {"terms": len(r)}),
    ("poly.control_precision", "puboforge.poly", "control_precision", None),
    ("setcover.build_set_cover", "puboforge.setcover", "build_set_cover", lambda r: {"rows": len(r.universe), "candidates": len(r.candidates)}),
    ("setcover.set_cover_to_ilp", "puboforge.setcover", "set_cover_to_ilp", None),
    ("setcover.solve_ilp_exact", "puboforge.setcover", "solve_ilp_exact", _solver_attrs),
    ("setcover.plan_from_cover", "puboforge.setcover", "plan_from_cover", None),
    ("setcover.reduce_min_greedy", "puboforge.setcover", "reduce_min_greedy", None),
    ("precision.greedy_precision_plan", "puboforge.precision", "greedy_precision_plan", None),
    ("gadgets.ReductionPlan.from_assignment", "puboforge.gadgets", "ReductionPlan.from_assignment", None),
    ("gadgets.apply_plan", "puboforge.gadgets", "apply_plan", _reduced_attrs),
    ("gadgets.emit_qubo", "puboforge.gadgets", "emit_qubo", lambda r: {"bytes": len(r)}),
    ("gadgets.parse_qubo", "puboforge.gadgets", "parse_qubo", _reduced_attrs),
    ("wmaxsat.build_wmaxsat", "puboforge.wmaxsat", "build_wmaxsat", lambda r: {"vars": r.num_vars, "hard": len(r.hard)}),
    ("wmaxsat.solve_wmaxsat_exact", "puboforge.wmaxsat", "solve_wmaxsat_exact", _solver_attrs),
    ("wmaxsat.apply_quartic_plan", "puboforge.wmaxsat", "apply_quartic_plan", _reduced_attrs),
    ("wmaxsat.emit_wcnf", "puboforge.wmaxsat", "emit_wcnf", None),
    ("verify.verify_reduction", "puboforge.verify", "verify_reduction", lambda r: {"ok": bool(r.ok)}),
)

# Called thousands of times per operation: counted, never spanned.
COUNTERS = (
    ("poly.cubic_terms", "puboforge.poly", "Polynomial.cubic_terms"),
    ("poly.Polynomial", "puboforge.poly", "Polynomial.__init__"),
)

# Per-layer metrics reported for each span prefix.
SPAN_METRICS = {
    "setcover.solve_ilp_exact": ("self_ms", "calls", "nodes", "us_per_node", "proven_frac"),
    "setcover.build_set_cover": ("self_ms",),
    "setcover.set_cover_to_ilp": ("self_ms",),
    "setcover.plan_from_cover": ("self_ms",),
    "setcover.reduce_min_greedy": ("self_ms", "calls"),
    "precision.greedy_precision_plan": ("self_ms", "calls"),
    "gadgets.apply_plan": ("self_ms",),
    "gadgets.ReductionPlan.from_assignment": ("self_ms",),
    "gadgets.emit_qubo": ("self_ms",),
    "gadgets.parse_qubo": ("self_ms",),
    "wmaxsat.solve_wmaxsat_exact": ("self_ms", "nodes", "us_per_node", "proven_frac"),
    "wmaxsat.build_wmaxsat": ("self_ms",),
    "wmaxsat.apply_quartic_plan": ("self_ms",),
    "wmaxsat.emit_wcnf": ("self_ms",),
    "verify.verify_reduction": ("self_ms", "calls"),
    "poly.parse_polynomial": ("self_ms",),
    "poly.control_precision": ("self_ms",),
    "cli.run": ("self_ms",),
    # The operation outside cli.run: redirecting its output and timing it.
    "op": ("self_ms",),
}


class Tracer:
    """In-memory span and counter store for one run.

    ``op`` is the identifier of the operation in flight; every span and
    count recorded while it is set belongs to that operation.  While it is
    None the wrappers only pass calls through, so an untraced operation can
    run between two traced ones.
    """

    def __init__(self) -> None:
        self.op: int | None = None
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = {}
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def spanned(self, name: str, fn, extract=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            sid = self.new_id()
            self._stack.append(sid)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, name, start, end, _attrs(extract, result)))

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts.setdefault(self.op, Counter())[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def operation(self, op: int):
        """Root span ``op`` around one operation; yields the span id."""
        self.op = op
        sid = self.new_id()
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield sid
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((op, sid, None, "op", start, end, None))
            self.op = None


def _resolve(module: str, qualname: str):
    """(owner, attribute, raw object) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "puboforge" or mod_name.startswith("puboforge.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced name that the loaded package still defines."""
    importlib.import_module("puboforge")
    for name, module, qualname, extract in SPANS:
        found = _resolve(module, qualname)
        if found is None:
            continue
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.spanned(name, raw.__func__, extract)))
        elif isinstance(owner, type):
            setattr(owner, attr, tracer.spanned(name, raw, extract))
        else:
            _replace_everywhere(raw, tracer.spanned(name, raw, extract))
        tracer.installed.add(name)
    for name, module, qualname in COUNTERS:
        found = _resolve(module, qualname)
        if found is None:
            continue
        owner, attr, raw = found
        setattr(owner, attr, tracer.counted(name, raw))
        tracer.installed.add(name)


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time in ns of each span: its duration minus the union of the
    intervals its direct children cover (clipped to the span itself)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for _, sid, _, _, start, end, _ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the recorded spans and counts.

    Times and counts are means per operation, so runs that completed
    different numbers of operations compare directly.  A layer whose name
    the package no longer defines is left out.
    """
    selfs = self_times(tracer.spans)
    agg: dict[str, dict[str, float]] = {}
    for _, sid, _, name, _, _, attrs in tracer.spans:
        a = agg.setdefault(name, {"self_ns": 0, "calls": 0, "nodes": 0, "proven": 0})
        a["self_ns"] += selfs[sid]
        a["calls"] += 1
        if attrs:
            a["nodes"] += attrs.get("nodes", 0)
            a["proven"] += attrs.get("proven", False)
    out: dict[str, float] = {}
    for name, stats in SPAN_METRICS.items():
        if name != "op" and name not in tracer.installed:
            continue
        a = agg.get(name, {"self_ns": 0, "calls": 0, "nodes": 0, "proven": 0})
        values = {
            "self_ms": a["self_ns"] / 1e6 / ops,
            "calls": a["calls"] / ops,
            "nodes": a["nodes"] / ops,
            "us_per_node": a["self_ns"] / 1e3 / a["nodes"] if a["nodes"] else 0.0,
            "proven_frac": a["proven"] / a["calls"] if a["calls"] else 0.0,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    totals: Counter = Counter()
    for bucket in tracer.counts.values():
        totals.update(bucket)
    for name, _, _ in COUNTERS:
        if name in tracer.installed:
            out[f"{name}.calls"] = totals[name] / ops
    return out


def to_json(tracer: Tracer) -> dict:
    return {
        "spans": [
            {"op": op, "id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end, "attrs": attrs}
            for op, sid, parent, name, start, end, attrs in tracer.spans
        ],
        "counts": {str(op): dict(bucket) for op, bucket in tracer.counts.items()},
        "installed": sorted(tracer.installed),
    }

