"""Command-line front end: solve, threshold, fibering, sweep, check.

The problem lives in a single JSON config file (schema shipped at
nehari/schemas/problem_config.schema.json); flags override the seed, the
autoscale target rho, and the coupling beta.  ``check`` replays the
verification of ``solve`` (``verify_run``) on both saved reports.  Exit
codes are stable so scripts can branch on the failure class:

    0  success
    2  config error, or a file that cannot be read or written (a missing
       field file, solve report or state CSV), or a config or saved report
       that is not UTF-8, not JSON or not valid under its schema
    3  source hypothesis not satisfied (smallness or zero source)
    4  solver failure (non-convergence, lost branch, a state past float range)
    5  verification failure
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
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
from .reports import dumps, read_json, write_json
from .solver import (
    CheckResult,
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
    params: Params  # its grid is params.grid
    solver_cfg: SolverConfig  # its seed is the problem's seed
    threshold: ThresholdReport  # its s4 is the problem's estimate
    branch_seeds: tuple[int, ...]
    force: bool  # solve past an unsatisfied threshold (--force)


def load_config(path) -> dict:
    return read_json(path, "problem_config")


# the numbers each computed source kind needs
_SOURCE_NUMBERS = {
    "constant": ("value",),
    "gaussian": ("center", "width", "amplitude"),
    "eigen": ("amplitude",),
}


def _build_source(grid: Grid, spec: dict, where: str) -> Field:
    # the schema gives each key its type and kind its four values, read_json
    # every number a finite float
    kind = spec["kind"]
    if kind == "csv":
        if "path" not in spec:
            raise ConfigError(f"config error at {where}.path: a csv source needs a path")
        try:
            return field_from_csv(grid, spec["path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config error at {where}.path: {exc}") from exc
    num = {}
    for key in _SOURCE_NUMBERS[kind]:
        if key not in spec:
            raise ConfigError(f"config error at {where}.{key}: required for a {kind} source")
        num[key] = np.asarray(spec[key], dtype=float)
    if kind == "constant":
        return Field(grid, np.full(grid.size, float(num["value"])))
    if kind == "eigen":
        return first_eigenvector(grid).scaled(float(num["amplitude"]))
    center, width = np.atleast_1d(num["center"]), float(num["width"])
    if center.shape != (grid.dim,):
        raise ConfigError(f"config error at {where}.center: must have {grid.dim} entries")
    # numpy squares as float ** 2 does, but overflows to inf where float ** 2 raises
    with np.errstate(over="ignore"):
        two_var = 2.0 * np.float64(width) ** 2
    if not (width > 0 and two_var > 0):
        raise ConfigError(f"config error at {where}.width: {width} or its square is not positive")
    with np.errstate(over="ignore"):  # exp(-inf) = 0: a Gaussian far narrower than the mesh
        r2 = sum((c - center[k]) ** 2 for k, c in enumerate(grid.node_coords()))
        return Field(grid, float(num["amplitude"]) * np.exp(-r2 / two_var))


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

    ``s4`` is estimated from the config unless given; it depends on the grid
    and min(lam1, lam2) only, so a caller that resolves several problems on
    one grid and lam estimates it once.
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
        if not 0 < rho < math.inf:
            raise ConfigError(
                f"config error at sources.autoscale.rho: must be positive and finite, got {rho}"
            )
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
    for key, seeds in (("seed", (seed,)), ("branch_seeds", branch_seeds)):
        if min(seeds) < 0:
            raise ConfigError(f"config error at {key}: seeds must not be negative, got {min(seeds)}")

    # every config rule is checked above, so a config error never pays for this
    if s4 is None:
        s4 = estimate_s4(grid, min(params.lam1, params.lam2))
    if rho is not None:
        scale = rho * compute_threshold(params, grid, s4).lambda_threshold / current
        params = replace(params, f=f.scaled(scale), g=g.scaled(scale))

    return Problem(params, solver_cfg, compute_threshold(params, grid, s4), branch_seeds, force)


# --- report serialization ----------------------------------------------------


# the saved fields of a SolveReport; the state goes to its own CSV file
_SAVED = tuple(f.name for f in fields(SolveReport) if f.name not in ("state", "history"))


def solve_report_to_dict(rep: SolveReport, state_csv: str, seed_disagreement: bool = False) -> dict:
    doc = {"branch": rep.branch, "seed_disagreement": seed_disagreement}
    doc.update((name, getattr(rep, name)) for name in _SAVED)  # "branch" keeps its place
    doc.update(config=asdict(rep.config), state_csv=state_csv)
    return doc


def solve_report_from_dict(d: dict, state: Pair, config: SolverConfig) -> SolveReport:
    """The report saved as d, with its state and config; d["config"] is not read."""
    saved = {name: d[name] for name in _SAVED}
    saved.update(state=state, positive=tuple(bool(b) for b in d["positive"]), config=config)
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


# --- the solve pipeline (shared by solve and sweep) and its verification -----


def verify_run(problem: Problem, reports: dict) -> dict[str, list[CheckResult]]:
    """The checks of each report (ground_state, then bound_state), then the
    cross checks of the pair under "cross"; solve and check both run this."""
    params, s4, seed = problem.params, problem.threshold.s4, problem.solver_cfg.seed
    # a saved state past float range fails its checks; numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        checks = {stem: verify_solution(rep, params, s4=s4, seed=seed)
                  for stem, rep in reports.items()}
    plus, minus = reports["ground_state"].theta, reports["bound_state"].theta
    checks["cross"] = [
        CheckResult("theta_plus_negative", plus < 0.0, f"theta+ = {plus:.6g}"),
        CheckResult("theta_order", plus < minus, f"theta+ = {plus:.6g} < theta- = {minus:.6g}"),
    ]
    return checks


def _named_checks(checks: dict, sep: str = ":") -> list[tuple[str, CheckResult]]:
    """(name, check) pairs; a branch check is named "<branch><sep><name>", a cross check bare."""
    return [
        (c.name if part == "cross" else f"{part}{sep}{c.name}", c)
        for part, cs in checks.items() for c in cs
    ]


def run_solve(problem: Problem, out_dir) -> tuple[int, dict]:
    """Run both branches, verify, write all reports; returns (exit, reports).

    reports maps ground_state and bound_state to their SolveReports; it is
    empty when the run stops before both branches are solved.
    """
    os.makedirs(out_dir, exist_ok=True)
    threshold = problem.threshold
    write_json(asdict(threshold), "threshold_report", os.path.join(out_dir, "threshold.json"))
    if threshold.degenerate_sources:
        print(
            "error: the two-solution statement assumes both source terms are "
            "nonzero; at least one of f, g is identically zero",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD, {}
    if not threshold.satisfied and not problem.force:
        print(
            f"error: max(|f|_4/3, |g|_4/3) = "
            f"{max(threshold.f_norm, threshold.g_norm):.6g} is not "
            f"below the threshold {threshold.lambda_threshold:.6g}; "
            "pass --force to solve anyway",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD, {}

    params, solver_cfg, seeds = problem.params, problem.solver_cfg, problem.branch_seeds
    nonneg = params.f.values.min() >= 0 and params.g.values.min() >= 0
    reports: dict[str, SolveReport] = {}
    for branch, stem in ((N_PLUS, "ground_state"), (N_MINUS, "bound_state")):
        try:
            # a state past float range raises a ValueError; numpy stays quiet
            with np.errstate(over="ignore", invalid="ignore"):
                rep, disagree = minimize_over_seeds(branch, params, solver_cfg, seeds)
                if nonneg and rep.converged:
                    rep = positivity_rescale(rep, params)
        except (RuntimeError, ValueError) as exc:
            # BranchVanished, a rescale that raised the energy
            print(f"error: {branch} solve failed: {exc}", file=sys.stderr)
            return EXIT_SOLVER, {}
        reports[stem] = rep
        pair_to_csv(rep.state, os.path.join(out_dir, f"{stem}.csv"))
        saved = solve_report_to_dict(rep, f"{stem}.csv", seed_disagreement=disagree)
        write_json(saved, "solve_report", os.path.join(out_dir, f"{stem}.json"))

    checks = verify_run(problem, reports)
    failed = [name for name, c in _named_checks(checks) if not c.passed]
    doc = {part: [asdict(c) for c in cs] for part, cs in checks.items()}
    doc["all_passed"] = not failed
    write_json(doc, "checks", os.path.join(out_dir, "checks.json"))

    if not all(rep.converged for rep in reports.values()):
        print("error: solver did not converge on both branches", file=sys.stderr)
        return EXIT_SOLVER, reports
    if failed:
        print(f"error: verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY, reports
    return EXIT_OK, reports


# --- subcommands --------------------------------------------------------------


def _resolve(args, cfg: dict) -> Problem:
    """The problem of a config with the common command-line overrides applied."""
    return resolve_problem(cfg, seed=args.seed, rho=args.rho, beta=args.beta, force=args.force)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem = _resolve(args, cfg)
    out_dir = args.out or cfg.get("output_dir", "out")
    return run_solve(problem, out_dir)[0]


def cmd_threshold(args) -> int:
    doc = asdict(_resolve(args, load_config(args.config)).threshold)
    sys.stdout.write(dumps(doc, "threshold_report"))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(doc, "threshold_report", os.path.join(args.out, "threshold.json"))
    return EXIT_OK


def cmd_fibering(args) -> int:
    if args.direction == "csv" and not (args.u and args.v):
        raise ConfigError("csv direction needs --u and --v field files")
    if args.direction != "csv" and (args.u, args.v) != (None, None):
        raise ConfigError("--u and --v need --direction csv")
    params = _resolve(args, load_config(args.config)).params
    if args.direction == "sources":
        direction = Pair(params.f, params.g)
    elif args.direction == "eigen":
        e = first_eigenvector(params.grid)
        direction = Pair(e, e)
    else:
        direction = Pair(field_from_csv(params.grid, args.u), field_from_csv(params.grid, args.v))
    doc = fibering_to_dict(analyze_direction(direction, params))  # main maps a ValueError to 2
    sys.stdout.write(dumps(doc, "fibering_analysis"))
    return EXIT_OK


def _sweep_slug(parameter: str, value: float) -> str:
    return f"sweep_{parameter}_{format(value, '.17g')}"


def _sweep_row(value: float, code: int, threshold: ThresholdReport, reports: dict) -> str:
    """One sweep.csv line, exit code last; a value without both reports keeps nan and false."""
    if reports:
        plus, minus = reports["ground_state"], reports["bound_state"]
        thetas = (plus.theta, minus.theta)
        flags = (plus.converged, minus.converged, *plus.positive, *minus.positive)
    else:
        thetas, flags = (math.nan, math.nan), (False,) * 6
    fmt = "%.17g"
    row = [
        fmt % value,
        str(bool(threshold.satisfied)).lower(),
        *(fmt % x for x in (threshold.lambda_threshold, *thetas)),
        *(str(bool(b)).lower() for b in flags),
        str(code),
    ]
    return ",".join(row) + "\n"


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid --values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"--values needs at least one value, got {args.values!r}")
    if len(set(values)) < len(values):  # one directory per value, so each value once
        raise ConfigError(f"sweep values must not repeat, got {args.values!r}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if getattr(args, args.parameter) is not None:  # each swept value would replace it
        name = args.parameter
        raise ConfigError(f"--{name} cannot be combined with --parameter {name}")

    # every value is resolved, and so validated, before any is solved; no
    # swept parameter enters s4, so the first value's estimate serves them all
    overrides = {"seed": args.seed, "rho": args.rho, "beta": args.beta, "force": args.force}
    problems = []
    for v in values:
        s4 = problems[0].threshold.s4 if problems else None
        problems.append(resolve_problem(cfg, **{**overrides, args.parameter: v}, s4=s4))

    out_dir = args.out or cfg.get("output_dir", "out")
    out_dirs = [os.path.join(out_dir, _sweep_slug(args.parameter, v)) for v in values]
    # each row is built as its value's result arrives, so no report outlives it
    codes, rows = [], []
    workers = min(args.jobs, len(values))  # never more workers than values
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # loaded before the pool starts, so forked workers inherit it instead of each loading it
        import scipy.sparse.linalg  # noqa: F401
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(run_solve, problems, out_dirs)
        for value, problem, (code, reports) in zip(values, problems, results):
            codes.append(code)
            rows.append(_sweep_row(value, code, problem.threshold, reports))

    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(
            "value,satisfied,lambda_threshold,theta_plus,theta_minus,"
            "converged_plus,converged_minus,positive_plus_u,positive_plus_v,"
            "positive_minus_u,positive_minus_v,code\n"
        )
        fh.writelines(rows)
    return max(codes)


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    problem = _resolve(args, cfg)
    out_dir = args.out or cfg.get("output_dir", "out")
    reports = {}
    for stem in ("ground_state", "bound_state"):
        doc = read_json(os.path.join(out_dir, f"{stem}.json"), "solve_report")
        state = pair_from_csv(problem.params.grid, os.path.join(out_dir, doc["state_csv"]))
        reports[stem] = solve_report_from_dict(doc, state, problem.solver_cfg)
    named = _named_checks(verify_run(problem, reports), sep=" ")
    for name, c in named:
        print(f"{name}: {'pass' if c.passed else 'FAIL'} ({c.detail})")
    return EXIT_OK if all(c.passed for _, c in named) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nehari",
        description="Two-branch variational solver for a coupled cubic system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, out=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True, help="problem config JSON")
        if out:  # fibering only prints
            p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--rho", type=float, default=None, help="override autoscale rho")
        p.add_argument("--beta", type=float, default=None, help="override coupling beta")
        p.add_argument(
            "--force",
            action="store_true",
            help="continue past an unsatisfied smallness threshold",
        )
        return p

    command("solve", cmd_solve, "solve both branches and verify")
    command("threshold", cmd_threshold, "print the smallness threshold report")
    p = command("fibering", cmd_fibering, "print the fibering analysis of a direction", out=False)
    p.add_argument(
        "--direction",
        choices=("sources", "eigen", "csv"),
        default="sources",
        help="ray direction to analyze",
    )
    p.add_argument("--u", default=None, help="u component CSV (csv direction)")
    p.add_argument("--v", default=None, help="v component CSV (csv direction)")
    p = command("sweep", cmd_sweep, "solve across a list of parameter values")
    p.add_argument("--parameter", choices=("beta", "rho"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    command("check", cmd_check, "re-verify saved solve outputs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
