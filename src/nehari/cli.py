"""Command-line front end: solve, threshold, fibering, sweep, check.

The problem lives in a single JSON config file (schema shipped at
nehari/schemas/problem_config.schema.json); flags override the seed, the
autoscale target rho, and the coupling beta.  Exit codes are stable so
scripts can branch on the failure class:

    0  success
    2  config error (parse or validation)
    3  source hypothesis not satisfied (smallness or zero source)
    4  solver failure (non-convergence, lost branch)
    5  verification failure
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .fibering import N_MINUS, N_PLUS, analyze_direction
from .functional import Params
from .grid import (
    Field,
    Grid,
    Pair,
    field_from_csv,
    first_eigenvector,
    l43_norm,
    pair_from_csv,
    pair_to_csv,
)
from .reports import SchemaError, dumps, load_schema, validate, write_json
from .solver import (
    SolveReport,
    SolverConfig,
    minimize_over_seeds,
    positivity_rescale,
    verify_solution,
)
from .threshold import ThresholdReport, compute_threshold, estimate_s4

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_THRESHOLD = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5


class ConfigError(Exception):
    pass


@dataclass
class Problem:
    grid: Grid
    params: Params
    solver_cfg: SolverConfig
    seed: int
    s4: float
    threshold: ThresholdReport
    branch_seeds: tuple[int, ...]


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        validate(cfg, load_schema("problem_config"))
    except SchemaError as exc:
        raise ConfigError(f"config does not match schema: {exc}") from exc
    return cfg


def _build_source(grid: Grid, spec: dict, where: str) -> Field:
    kind = spec.get("kind")
    if kind == "constant":
        if "value" not in spec:
            raise ConfigError(f"{where}: constant source needs a 'value'")
        return Field(grid, np.full(grid.size, float(spec["value"])))
    if kind == "gaussian":
        for key in ("center", "width", "amplitude"):
            if key not in spec:
                raise ConfigError(f"{where}: gaussian source needs '{key}'")
        center = np.atleast_1d(np.asarray(spec["center"], dtype=float))
        if center.shape != (grid.dim,):
            raise ConfigError(f"{where}: gaussian center must have {grid.dim} entries")
        width = float(spec["width"])
        if width <= 0:
            raise ConfigError(f"{where}: gaussian width must be positive")
        coords = grid.node_coords()
        r2 = sum((c - center[k]) ** 2 for k, c in enumerate(coords))
        return Field(grid, float(spec["amplitude"]) * np.exp(-r2 / (2.0 * width**2)))
    if kind == "eigen":
        if "amplitude" not in spec:
            raise ConfigError(f"{where}: eigen source needs an 'amplitude'")
        return first_eigenvector(grid).scaled(float(spec["amplitude"]))
    if kind == "csv":
        if "path" not in spec:
            raise ConfigError(f"{where}: csv source needs a 'path'")
        try:
            return field_from_csv(grid, spec["path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}: unknown source kind {kind!r} "
        "(expected constant, gaussian, eigen or csv)"
    )


def _config_grid(cfg: dict) -> Grid:
    gspec = cfg["grid"]
    try:
        return Grid(gspec["dim"], tuple(gspec["extents"]), tuple(gspec["points"]))
    except ValueError as exc:
        raise ConfigError(f"config error at grid: {exc}") from exc


def resolve_problem(
    cfg: dict,
    seed: int | None = None,
    rho: float | None = None,
    beta: float | None = None,
    force: bool = False,
    s4: float | None = None,
) -> Problem:
    """Build the fully resolved problem a subcommand runs against.

    ``s4`` is estimated from the config unless given; it depends on the grid,
    min(lam1, lam2) and the seed only, so a caller that resolves several
    problems on one grid, lam and seed estimates it once.
    """
    grid = _config_grid(cfg)
    f = _build_source(grid, cfg["sources"]["f"], "sources.f")
    g = _build_source(grid, cfg["sources"]["g"], "sources.g")
    with np.errstate(over="ignore"):  # the isfinite check below reports it
        current = max(l43_norm(f), l43_norm(g))
    if not math.isfinite(current):
        raise ConfigError("config error at sources: the L^{4/3} norm of a source overflows")

    co = cfg["coefficients"]
    try:
        params = Params(
            float(co["lam1"]), float(co["lam2"]), float(co["mu1"]), float(co["mu2"]),
            float(co["beta"]) if beta is None else float(beta), f, g,
        )
    except ValueError as exc:
        raise ConfigError(f"config error at coefficients: {exc}") from exc

    seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
    autoscale = cfg["sources"].get("autoscale")
    if rho is None and autoscale is not None:
        rho = autoscale["rho"]
    if rho is not None:
        rho = float(rho)
        if rho <= 0:
            raise ConfigError("config error at sources.autoscale.rho: must be positive")
        if rho >= 1 and not force:
            raise ConfigError(
                f"config error at sources.autoscale.rho: rho = {rho} must lie "
                "in (0, 1); pass --force to scale past the threshold deliberately"
            )
        if current == 0.0:
            raise ConfigError("config error at sources: cannot autoscale zero sources")

    try:
        solver_cfg = SolverConfig(**cfg.get("solver", {}), seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config error at solver: {exc}") from exc

    branch_seeds = tuple(int(s) for s in cfg.get("branch_seeds", [seed]))
    if not branch_seeds:
        raise ConfigError("config error at branch_seeds: need at least one seed")

    # every config rule is checked above, so a config error never pays for this
    if s4 is None:
        s4 = estimate_s4(grid, min(params.lam1, params.lam2), seed=seed)
    if rho is not None:
        scale = rho * compute_threshold(params, grid, s4).lambda_threshold / current
        params = replace(params, f=f.scaled(scale), g=g.scaled(scale))

    report = compute_threshold(params, grid, s4)
    return Problem(grid, params, solver_cfg, seed, s4, report, branch_seeds)


# --- report serialization ----------------------------------------------------


# the saved fields of a SolveReport; the state goes to its own CSV file
_SAVED = tuple(
    f.name for f in fields(SolveReport) if f.name != "state" and not f.name.endswith("_history")
)


def solve_report_to_dict(rep: SolveReport, state_csv: str, seed_disagreement: bool = False) -> dict:
    doc = {"branch": rep.branch, "seed_disagreement": seed_disagreement}
    doc.update((name, getattr(rep, name)) for name in _SAVED)  # "branch" keeps its place
    doc.update(config=asdict(rep.config), state_csv=state_csv)
    return doc


def solve_report_from_dict(d: dict, state: Pair) -> SolveReport:
    """The report saved as d, with its state; the histories are not saved."""
    saved = {name: d[name] for name in _SAVED}
    saved.update(
        state=state,
        positive=tuple(bool(b) for b in d["positive"]),
        config=SolverConfig(**d["config"]),
    )
    return SolveReport(**saved)


def fibering_to_dict(ana) -> dict:
    return {
        "norm_sq": ana.norm_sq,
        "A": ana.quartic,
        "B": ana.source,
        "t_turn": ana.t_turn,
        "psi_max": ana.psi_max,
        "roots": [{"t": r.t, "class": r.branch} for r in ana.roots],
    }


def _write_validated(obj: dict, schema_name: str, path) -> None:
    validate(obj, load_schema(schema_name))
    write_json(obj, path)


# --- the solve pipeline (shared by solve and sweep) ---------------------------


def run_solve(problem: Problem, out_dir, force: bool = False) -> tuple[int, dict]:
    """Run both branches, verify, write all reports; returns (exit, summary)."""
    os.makedirs(out_dir, exist_ok=True)
    summary: dict = {
        "satisfied": problem.threshold.satisfied,
        "lambda_threshold": problem.threshold.lambda_threshold,
        "theta_plus": math.nan,
        "theta_minus": math.nan,
        "converged_plus": False,
        "converged_minus": False,
        "positive_plus": (False, False),
        "positive_minus": (False, False),
    }
    _write_validated(
        asdict(problem.threshold),
        "threshold_report",
        os.path.join(out_dir, "threshold.json"),
    )
    if problem.threshold.degenerate_sources:
        print(
            "error: the two-solution statement assumes both source terms are "
            "nonzero; at least one of f, g is identically zero",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD, summary
    if not problem.threshold.satisfied and not force:
        print(
            f"error: max(|f|_4/3, |g|_4/3) = "
            f"{max(problem.threshold.f_norm, problem.threshold.g_norm):.6g} is not "
            f"below the threshold {problem.threshold.lambda_threshold:.6g}; "
            "pass --force to solve anyway",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD, summary

    params = problem.params
    nonneg = params.f.values.min() >= 0 and params.g.values.min() >= 0
    reports: dict[str, SolveReport] = {}
    checks: dict[str, list] = {}
    for branch, stem in ((N_PLUS, "ground_state"), (N_MINUS, "bound_state")):
        try:
            rep, disagree = minimize_over_seeds(
                branch, params, problem.grid, problem.solver_cfg,
                seeds=problem.branch_seeds,
            )
            if nonneg and rep.converged:
                rep = positivity_rescale(rep, params)
        except RuntimeError as exc:
            # BranchVanished, SemiTrivialCollapse, or a rescale that raised the energy
            print(f"error: {branch} solve failed: {exc}", file=sys.stderr)
            return EXIT_SOLVER, summary
        reports[stem] = rep
        pair_to_csv(rep.state, os.path.join(out_dir, f"{stem}.csv"))
        _write_validated(
            solve_report_to_dict(rep, f"{stem}.csv", seed_disagreement=disagree),
            "solve_report",
            os.path.join(out_dir, f"{stem}.json"),
        )
        checks[stem] = verify_solution(rep, params, s4=problem.s4, seed=problem.seed)

    plus, minus = reports["ground_state"], reports["bound_state"]
    cross = [
        {
            "name": "theta_plus_negative",
            "passed": plus.theta < 0.0,
            "detail": f"theta+ = {plus.theta:.6g}",
        },
        {
            "name": "theta_order",
            "passed": plus.theta < minus.theta,
            "detail": f"theta+ = {plus.theta:.6g} < theta- = {minus.theta:.6g}",
        },
    ]
    all_passed = (
        all(c.passed for cs in checks.values() for c in cs)
        and all(c["passed"] for c in cross)
    )
    _write_validated(
        {
            "ground_state": [asdict(c) for c in checks["ground_state"]],
            "bound_state": [asdict(c) for c in checks["bound_state"]],
            "cross": cross,
            "all_passed": all_passed,
        },
        "checks",
        os.path.join(out_dir, "checks.json"),
    )

    summary.update(
        theta_plus=plus.theta,
        theta_minus=minus.theta,
        converged_plus=plus.converged,
        converged_minus=minus.converged,
        positive_plus=plus.positive,
        positive_minus=minus.positive,
    )
    if not (plus.converged and minus.converged):
        print("error: solver did not converge on both branches", file=sys.stderr)
        return EXIT_SOLVER, summary
    if not all_passed:
        failed = [
            f"{stem}:{c.name}" for stem, cs in checks.items() for c in cs if not c.passed
        ] + [c["name"] for c in cross if not c["passed"]]
        print(f"error: verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY, summary
    return EXIT_OK, summary


# --- subcommands --------------------------------------------------------------


def _resolve(args, cfg: dict) -> Problem:
    """The problem of a config with the common command-line overrides applied."""
    return resolve_problem(cfg, seed=args.seed, rho=args.rho, beta=args.beta, force=args.force)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem = _resolve(args, cfg)
    out_dir = args.out or cfg.get("output_dir", "out")
    code, _ = run_solve(problem, out_dir, force=args.force)
    return code


def cmd_threshold(args) -> int:
    problem = _resolve(args, load_config(args.config))
    doc = asdict(problem.threshold)
    validate(doc, load_schema("threshold_report"))
    sys.stdout.write(dumps(doc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(doc, os.path.join(args.out, "threshold.json"))
    return EXIT_OK


def cmd_fibering(args) -> int:
    problem = _resolve(args, load_config(args.config))
    grid, params = problem.grid, problem.params
    if args.direction == "sources":
        direction = Pair(params.f, params.g)
    elif args.direction == "eigen":
        e = first_eigenvector(grid)
        direction = Pair(e, e)
    else:
        if not (args.u and args.v):
            raise ConfigError("csv direction needs --u and --v field files")
        direction = Pair(field_from_csv(grid, args.u), field_from_csv(grid, args.v))
    try:
        ana = analyze_direction(direction, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    doc = fibering_to_dict(ana)
    validate(doc, load_schema("fibering_analysis"))
    sys.stdout.write(dumps(doc))
    return EXIT_OK


def _sweep_slug(parameter: str, value: float) -> str:
    return f"sweep_{parameter}_{format(value, '.17g')}"


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid sweep values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")

    # every value is resolved, and so validated, before any is solved; no
    # swept parameter enters s4, so the first value's estimate serves them all
    overrides = {"seed": args.seed, "rho": args.rho, "beta": args.beta, "force": args.force}
    problems = []
    for v in values:
        s4 = problems[0].s4 if problems else None
        problems.append(resolve_problem(cfg, **{**overrides, args.parameter: v}, s4=s4))

    out_dir = args.out or cfg.get("output_dir", "out")
    out_dirs = [os.path.join(out_dir, _sweep_slug(args.parameter, v)) for v in values]
    forces = [args.force] * len(values)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_solve, problems, out_dirs, forces))
    else:
        results = list(map(run_solve, problems, out_dirs, forces))

    fmt = "%.17g"
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(
            "value,satisfied,lambda_threshold,theta_plus,theta_minus,"
            "converged_plus,converged_minus,positive_plus_u,positive_plus_v,"
            "positive_minus_u,positive_minus_v\n"
        )
        for value, (_code, s) in zip(values, results):
            flags = (s["converged_plus"], s["converged_minus"], *s["positive_plus"],
                     *s["positive_minus"])
            row = [
                fmt % value,
                str(bool(s["satisfied"])).lower(),
                *(fmt % s[k] for k in ("lambda_threshold", "theta_plus", "theta_minus")),
                *(str(bool(b)).lower() for b in flags),
            ]
            fh.write(",".join(row) + "\n")
    return max(code for code, _s in results)


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    problem = _resolve(args, cfg)
    out_dir = args.out or cfg.get("output_dir", "out")
    all_ok = True
    found = False
    for stem in ("ground_state", "bound_state"):
        jpath = os.path.join(out_dir, f"{stem}.json")
        if not os.path.exists(jpath):
            continue
        found = True
        with open(jpath, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        validate(doc, load_schema("solve_report"))
        state = pair_from_csv(problem.grid, os.path.join(out_dir, doc["state_csv"]))
        rep = solve_report_from_dict(doc, state)
        checks = verify_solution(rep, problem.params, s4=problem.s4, seed=problem.seed)
        for c in checks:
            mark = "pass" if c.passed else "FAIL"
            print(f"{stem} {c.name}: {mark} ({c.detail})")
        all_ok = all_ok and all(c.passed for c in checks)
    if not found:
        raise ConfigError(f"no saved solve reports under {out_dir}")
    return EXIT_OK if all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nehari",
        description="Two-branch variational solver for a coupled cubic system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="problem config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--rho", type=float, default=None, help="override autoscale rho")
        p.add_argument("--beta", type=float, default=None, help="override coupling beta")
        p.add_argument(
            "--force",
            action="store_true",
            help="continue past an unsatisfied smallness threshold",
        )

    p = sub.add_parser("solve", help="solve both branches and verify")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("threshold", help="print the smallness threshold report")
    common(p)
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("fibering", help="print the fibering analysis of a direction")
    common(p)
    p.add_argument(
        "--direction",
        choices=("sources", "eigen", "csv"),
        default="sources",
        help="ray direction to analyze",
    )
    p.add_argument("--u", default=None, help="u component CSV (csv direction)")
    p.add_argument("--v", default=None, help="v component CSV (csv direction)")
    p.set_defaults(fn=cmd_fibering)

    p = sub.add_parser("sweep", help="solve across a list of parameter values")
    common(p)
    p.add_argument("--parameter", choices=("beta", "rho"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("check", help="re-verify saved solve outputs")
    common(p)
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
