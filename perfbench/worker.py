"""One fresh process of a benchmark run: set up, then run operations in a closed loop.

    python3 perfbench/worker.py SPEC.json RESULT.json

The spec (written by run.py) names the workload, the problem config, the
inputs drawn from the seed, the seconds to measure and whether to trace.
With ``"mode": "setup"`` the process only sets up and reports when it was
ready, which is how run.py samples set-up time several times per run.

One caller runs one operation at a time.  Outputs are read back after each
operation, outside its timing, with the untraced reports functions, and the
operation's output directory is then removed.  In a traced run every input
runs twice, once untraced and once traced, in alternating order, so the run
measures its own tracing overhead and checks that tracing leaves theta+ and
theta- bit-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter


def _failing(checks_doc: dict) -> list[str]:
    return sorted(
        f"{part}:{c['name']}"
        for part in ("ground_state", "bound_state", "cross")
        for c in checks_doc.get(part, [])
        if not c["passed"]
    )


class _CliWorkload:
    """Shared set-up of the workloads that go through ``nehari.cli.main``."""

    def setup(self, spec):
        t0 = perf_counter()
        from nehari import cli
        from nehari.reports import load_schema, validate

        self.import_s = perf_counter() - t0
        self.cli = cli
        self.load_schema, self.validate = load_schema, validate
        self.config_path = spec["config_path"]
        self.cfg_seed = spec["cfg_seed"]

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def read_solve_dir(self, out_dir) -> dict:
        """theta+, theta-, failing checks and schema errors of one solve."""
        docs, errors = {}, []
        for stem, schema in (
            ("threshold", "threshold_report"),
            ("ground_state", "solve_report"),
            ("bound_state", "solve_report"),
            ("checks", "checks"),
        ):
            path = os.path.join(out_dir, f"{stem}.json")
            if not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as fh:
                docs[stem] = json.load(fh)
            try:
                self.validate(docs[stem], self.load_schema(schema))
            except ValueError as exc:
                errors.append(f"{stem}: {exc}")
        theta = None
        if "ground_state" in docs and "bound_state" in docs:
            theta = [docs["ground_state"]["theta"], docs["bound_state"]["theta"]]
        return {
            "theta": theta,
            "failing": _failing(docs["checks"]) if "checks" in docs else ["missing:checks"],
            "schema_errors": errors,
        }


class SolveCheck(_CliWorkload):
    """``nehari solve`` then ``nehari check`` on the same output directory."""

    def run(self, inp, out_dir, span):
        args = ["--config", self.config_path, "--out", out_dir, "--beta", repr(inp["beta"])]
        t0 = perf_counter()
        with span("cli.solve"):
            solve = self.main(["solve"] + args)
        t1 = perf_counter()
        with span("cli.check"):
            check = self.main(["check"] + args)
        t2 = perf_counter()
        return {"solve_s": t1 - t0, "check_s": t2 - t1}, (solve, check)

    def outcomes(self, inp, out_dir, raw):
        (solve_code, _), (check_code, check_text) = raw
        solved = self.read_solve_dir(out_dir)
        check_failing = sorted(
            line.split(":")[0].replace(" ", ":")
            for line in check_text.splitlines()
            if ": FAIL (" in line
        )
        key = (self.cfg_seed, inp["beta"])
        return [
            dict(what="solve", key=key, code=solve_code, **solved),
            dict(what="check", key=key, code=check_code, theta=None,
                 failing=check_failing, schema_errors=[]),
        ]


class Sweep(_CliWorkload):
    """``nehari sweep --parameter beta --jobs 1`` over several values."""

    def run(self, inp, out_dir, span):
        values = ",".join(repr(b) for b in inp["betas"])
        argv = ["sweep", "--config", self.config_path, "--out", out_dir,
                "--parameter", "beta", f"--values={values}", "--jobs", "1"]
        t0 = perf_counter()
        result = self.main(argv)
        return {"sweep_s": perf_counter() - t0}, result

    def outcomes(self, inp, out_dir, raw):
        out = []
        for beta in inp["betas"]:
            solved = self.read_solve_dir(os.path.join(out_dir, f"sweep_beta_{beta:.17g}"))
            code = 0 if not solved["failing"] else 5
            out.append(dict(what="value", key=(self.cfg_seed, beta), code=code, **solved))
        return out


class CouplingApi:
    """A library loop like demos/coupling_sweep.py: both branches per coupling value.

    ``estimate_s4`` runs once in set-up; every operation builds the
    coupling's threshold and autoscaled sources, minimizes N+ and N-,
    re-minimizes from the absolute values and verifies with the set-up s4.
    """

    def setup(self, spec):
        t0 = perf_counter()
        import numpy as np

        from nehari import fibering, functional, grid, solver, threshold

        self.import_s = perf_counter() - t0
        self.fibering, self.functional, self.solver, self.threshold = (
            fibering, functional, solver, threshold,
        )
        cfg = spec["config"]
        co = cfg["coefficients"]
        self.co = co
        self.rho = cfg["sources"]["autoscale"]["rho"]
        self.cfg_seed = spec["cfg_seed"]
        gs = cfg["grid"]
        self.grid = grid.Grid(gs["dim"], tuple(gs["extents"]), tuple(gs["points"]))
        fspec, gspec = cfg["sources"]["f"], cfg["sources"]["g"]
        self.f = grid.first_eigenvector(self.grid).scaled(fspec["amplitude"])
        r2 = sum((c - gspec["center"][k]) ** 2 for k, c in enumerate(self.grid.node_coords()))
        self.g = grid.Field(
            self.grid, gspec["amplitude"] * np.exp(-r2 / (2.0 * gspec["width"] ** 2))
        )
        self.source_norm = max(grid.l43_norm(self.f), grid.l43_norm(self.g))
        self.s4 = threshold.estimate_s4(
            self.grid, min(co["lam1"], co["lam2"]), seed=self.cfg_seed
        )

    def run(self, inp, out_dir, span):
        fn, solver, co = self.functional, self.solver, self.co
        coeffs = (co["lam1"], co["lam2"], co["mu1"], co["mu2"], inp["beta"])
        t0 = perf_counter()
        probe = fn.Params(*coeffs, self.f, self.g)
        lam_threshold = self.threshold.compute_threshold(probe, self.grid, self.s4).lambda_threshold
        scale = self.rho * lam_threshold / self.source_norm
        params = fn.Params(*coeffs, self.f.scaled(scale), self.g.scaled(scale))
        cfg = solver.SolverConfig(seed=self.cfg_seed)
        reports, checks = {}, {}
        for branch, stem in ((self.fibering.N_PLUS, "ground_state"),
                             (self.fibering.N_MINUS, "bound_state")):
            rep = solver.minimize(branch, params, self.grid, cfg)
            if rep.converged:
                rep = solver.positivity_rescale(rep, params)
            reports[stem] = rep
            checks[stem] = solver.verify_solution(rep, params, s4=self.s4, seed=self.cfg_seed)
        plus, minus = reports["ground_state"].theta, reports["bound_state"].theta
        t1 = perf_counter()
        converged = all(r.converged for r in reports.values())
        doc = {stem: [{"name": c.name, "passed": c.passed} for c in cs]
               for stem, cs in checks.items()}
        doc["cross"] = [{"name": "theta_plus_negative", "passed": plus < 0.0},
                        {"name": "theta_order", "passed": plus < minus}]
        return {"pair_s": t1 - t0}, (converged, doc, [plus, minus])

    def outcomes(self, inp, out_dir, raw):
        converged, doc, theta = raw
        failing = _failing(doc)
        code = 4 if not converged else (5 if failing else 0)
        return [dict(what="pair", key=(self.cfg_seed, inp["beta"]), code=code,
                     theta=theta, failing=failing, schema_errors=[])]


@contextlib.contextmanager
def _no_span(name):
    yield


WORKLOADS = {"solve-check": SolveCheck, "sweep": Sweep, "coupling": CouplingApi}


def run_one(wl, inp, index, out_root, tracer=None):
    """Run one input once; returns its times and outcomes."""
    out_dir = os.path.join(out_root, f"op{index}-{'t' if tracer else 'u'}")
    if tracer is not None:
        import layers

        tracer.op = index
        layers.install(tracer)
    try:
        if tracer is not None:
            with tracer.span(f"op.{type(wl).__name__}"):
                times, raw = wl.run(inp, out_dir, tracer.span)
        else:
            times, raw = wl.run(inp, out_dir, _no_span)
        outcomes = None
    except Exception as exc:  # an operation that raises is a failed operation
        times = {}
        outcomes = [dict(what="error", key=(wl.cfg_seed, inp.get("beta")),
                         code=f"exception:{type(exc).__name__}: {exc}",
                         theta=None, failing=[], schema_errors=[])]
    finally:
        if tracer is not None:
            tracer.uninstall()
    if outcomes is None:
        outcomes = wl.outcomes(inp, out_dir, raw)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"index": index, "traced": tracer is not None, "times": times,
            "outcomes": outcomes}


def run_loop(wl, spec) -> dict:
    from tracing import Tracer

    tracer = Tracer() if spec["trace"] else None
    seconds = spec["seconds"]
    limit = math.inf if seconds is None else seconds
    ops = []
    start = perf_counter()
    for index, inp in enumerate(spec["inputs"]):
        if perf_counter() - start >= limit:
            break
        if tracer is None:
            ops.append(run_one(wl, inp, index, spec["out_root"]))
        else:
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
            for tr in order:
                ops.append(run_one(wl, inp, index, spec["out_root"], tr))
    result = {"ops": ops}
    if tracer is not None:
        import layers

        timed = [o for o in ops if o["times"]]
        traced = {o["index"]: sum(o["times"].values()) for o in timed if o["traced"]}
        untraced = {o["index"]: sum(o["times"].values()) for o in timed if not o["traced"]}
        both = sorted(set(traced) & set(untraced))
        overhead = statistics.median(traced[k] - untraced[k] for k in both) if both else 0.0
        base = statistics.median(untraced[k] for k in both) if both else 0.0
        result["layers"] = layers.metrics(tracer, list(traced), wl.import_s, overhead, base)
        if spec.get("trace_path"):
            tracer.dump(spec["trace_path"])
    return result


def main(spec_path, result_path) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[spec["kind"]]()
    wl.setup(spec)
    result = {"ready": perf_counter(), "import_s": wl.import_s}
    if spec["mode"] == "loop":
        result.update(run_loop(wl, spec))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
