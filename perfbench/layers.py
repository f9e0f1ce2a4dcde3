"""Which nehari functions the traced run wraps, and the per-layer metrics.

The layers are the package's modules: cli, reports, threshold, solver,
fibering, functional and grid.  Layer-boundary calls get one span each;
the hot inner calls are aggregated (see tracing.py).  The linear-solver
factorisation is private to ``solver._shift_solve``, so it is timed at the
scipy boundary: ``scipy.sparse.linalg.splu`` is wrapped, and the ``solve``
of the factor it returns counts the linear solves.  Iteration counts come
from the ``SolveReport`` each ``minimize`` and ``positivity_rescale``
returns.

Every per-layer metric is a mean per traced operation, so runs that fit a
different number of operations stay comparable.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

from tracing import Tracer

# name -> unit; the per_layer list of BENCHMARK.json must match this table
PER_LAYER = {}


def _declare(prefix, *fields):
    units = {"calls": "count", "s": "s", "self_s": "s", "iterations": "count"}
    for f in fields:
        PER_LAYER[f"{prefix}.{f}"] = units[f]


PER_LAYER["cli.import_s"] = "s"
PER_LAYER["op.s"] = "s"
PER_LAYER["op.self_s"] = "s"
_declare("cli.resolve_problem", "calls", "s", "self_s")
_declare("threshold.estimate_s4", "calls", "s", "self_s")
PER_LAYER["threshold.estimate_s4.share"] = "ratio"
_declare("solver.descent.nplus", "calls", "s", "self_s", "iterations")
_declare("solver.descent.nminus", "calls", "s", "self_s", "iterations")
_declare("solver.positivity_rescale", "calls", "s", "self_s", "iterations")
_declare("solver.verify_solution", "calls", "s", "self_s")
_declare("solver.factorize", "calls", "s", "self_s")
_declare("solver.linear_solve", "calls", "s")
_declare("grid.laplacian_matvec", "calls", "s")
_declare("grid.laplacian_matvec.under_threshold", "calls", "s")
_declare("grid.laplacian_matvec.under_solver", "calls", "s")
_declare("grid.pair_to_csv", "calls", "s")
_declare("grid.pair_from_csv", "calls", "s")
PER_LAYER["grid.csv_bytes"] = "bytes"
_declare("functional.gradient", "calls", "s", "self_s")
_declare("functional.energy", "calls", "s", "self_s")
_declare("fibering.retract", "calls", "s", "self_s")
PER_LAYER["solver.armijo.accept_ratio"] = "ratio"
_declare("reports.write_json", "calls", "s")
_declare("reports.validate", "calls", "s")
PER_LAYER["trace.ops"] = "count"
PER_LAYER["trace.overhead_s"] = "s"
PER_LAYER["trace.overhead_frac"] = "ratio"

# the counters that must repeat exactly for one seed
EXACT_COUNTERS = (
    "grid.laplacian_matvec.calls",
    "solver.descent.nplus.iterations",
    "solver.descent.nminus.iterations",
    "solver.positivity_rescale.iterations",
    "fibering.retract.calls",
    "functional.gradient.calls",
    "functional.energy.calls",
    "solver.factorize.calls",
    "solver.linear_solve.calls",
    "threshold.estimate_s4.calls",
)


def _iterations(args, kwargs, report):
    return {"iterations": report.iterations, "branch": report.branch}


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


class _Factor:
    """A scipy SuperLU factor whose ``solve`` is counted."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.aggregate_wrapper("solver.linear_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Wrap every layer function at every site that binds it."""
    spans = [
        ("nehari.threshold", "estimate_s4", None),
        ("nehari.solver", "minimize", _iterations),
        ("nehari.solver", "positivity_rescale", _iterations),
        ("nehari.solver", "verify_solution", None),
        ("nehari.grid", "pair_to_csv", _csv_bytes),
        ("nehari.grid", "pair_from_csv", _csv_bytes),
        ("nehari.reports", "write_json", None),
        ("nehari.reports", "validate", None),
        ("nehari.cli", "resolve_problem", None),
    ]
    for module, attr, hook in spans:
        if module not in sys.modules:
            continue  # the library workload never imports cli or reports
        name = f"{module.split('.')[1]}.{attr}"
        tracer.patch(module, attr, lambda fn, n=name, h=hook: tracer.span_wrapper(n, fn, h))
    for module, attr in (
        ("nehari.grid", "laplacian_matvec"),
        ("nehari.functional", "gradient"),
        ("nehari.functional", "energy"),
        ("nehari.fibering", "retract"),
    ):
        name = f"{module.split('.')[1]}.{attr}"
        tracer.patch(module, attr, lambda fn, n=name: tracer.aggregate_wrapper(n, fn))

    def factorize(splu):
        timed = tracer.span_wrapper("solver.factorize", splu)
        return lambda *a, **k: _Factor(timed(*a, **k), tracer)

    tracer.patch("scipy.sparse.linalg", "splu", factorize)


def metrics(tracer: Tracer, op_ids, import_s: float, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer metrics, each a mean over the traced operations ``op_ids``."""
    ops = set(op_ids)
    spans = [s for s in tracer.spans if s.op in ops]
    by_id = {s.id: s for s in spans}
    total = defaultdict(float)

    def add(name, calls, secs, self_secs=None):
        total[f"{name}.calls"] += calls
        total[f"{name}.s"] += secs
        if self_secs is not None:
            total[f"{name}.self_s"] += self_secs

    def under(span, name):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    minimize_iterations = 0
    for s in spans:
        name = s.name
        if name.startswith("op."):
            name = "op"
        elif name in ("cli.solve", "cli.check"):
            # these only split a solve-check operation in two; what they
            # do outside the wrapped layers is the operation's own time
            total["op.self_s"] += s.self_seconds
            continue
        elif name == "solver.minimize":
            minimize_iterations += s.info["iterations"]
            if under(s, "solver.positivity_rescale"):
                continue  # counted by the enclosing rescale span
            name = "solver.descent." + ("nplus" if s.info["branch"] == "N+" else "nminus")
            total[f"{name}.iterations"] += s.info["iterations"]
        elif name == "solver.positivity_rescale":
            total[f"{name}.iterations"] += s.info["iterations"]
        elif name in ("grid.pair_to_csv", "grid.pair_from_csv"):
            total["grid.csv_bytes"] += s.info["bytes"]
        add(name, 1, s.seconds, s.self_seconds)

    for (name, parent), (calls, secs, self_secs) in tracer.aggregates.items():
        if parent not in by_id:
            continue
        add(name, calls, secs, self_secs)
        if name == "grid.laplacian_matvec":
            layer = by_id[parent].name.split(".")[0]
            if layer in ("threshold", "solver"):
                add(f"{name}.under_{layer}", calls, secs)

    n = len(ops)
    out = {name: total.get(name, 0.0) / n for name in PER_LAYER}
    out["cli.import_s"] = import_s
    out["threshold.estimate_s4.share"] = (
        total["threshold.estimate_s4.s"] / total["op.s"] if total["op.s"] else 0.0
    )
    retracts = total["fibering.retract.calls"]
    out["solver.armijo.accept_ratio"] = minimize_iterations / retracts if retracts else 0.0
    out["trace.ops"] = n
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_frac"] = overhead_s / untraced_s if untraced_s else 0.0
    return out
