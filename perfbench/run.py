"""Benchmark of the nehari solver: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each run draws its inputs from ``--seed``, starts fresh worker
processes (worker.py) one after another, checks every operation's outputs
against the seed-commit reference (reference.json) and prints a readable
summary followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several fresh processes of the time from process start to the first
operation), ``op_s`` (median wall time of one closed-loop operation) and
``peak_rss_mb`` of the measuring process.  ``--trace 1`` reports the
per-layer metrics of layers.py instead.  The full result, with the
environment record and every operation's outcome, is written under
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

# Inputs come from a fixed lattice so that every operation has a
# seed-commit reference outcome: couplings in [-0.5, 1.0] in steps of 1/8,
# and the config seed folded onto four classes.
BETAS = tuple(-0.5 + 0.125 * i for i in range(13))
CFG_SEEDS = 4
THETA_RTOL = 1e-6  # the solver's own seed-disagreement level
TIMEOUT_S = 170.0

WORKLOADS = {
    "solve-check-2d127": {"kind": "solve-check", "dim": 2, "points": 127, "setups": 5},
    "sweep-beta-1d799": {"kind": "sweep", "dim": 1, "points": 799, "values": 8, "setups": 5},
    # set-up estimates s4 at 127^2 (about 4.5 s), so it is sampled less often
    "coupling-api-2d127": {"kind": "coupling", "dim": 2, "points": 127, "setups": 3},
}

# the per-workload name of one operation's time, for the readable summary
NAMED_TIMES = {"solve-check": ("solve_s", "check_s"), "sweep": ("sweep_s",),
               "coupling": ("pair_s",)}


def problem_config(dim: int, points: int, cfg_seed: int) -> dict:
    """The README config at rho = 0.5, with the Gaussian g centred in the box."""
    return {
        "grid": {"dim": dim, "extents": [1.0] * dim, "points": [points] * dim},
        "coefficients": {"lam1": 1.0, "lam2": 1.0, "mu1": 1.0, "mu2": 1.0, "beta": 0.5},
        "sources": {
            "f": {"kind": "eigen", "amplitude": 1.0},
            "g": {"kind": "gaussian", "center": [0.5] * dim, "width": 0.1,
                  "amplitude": 1.0},
            "autoscale": {"rho": 0.5},
        },
        "solver": {"grad_tol": 1e-8},
        "seed": cfg_seed,
        "branch_seeds": [cfg_seed],
        "output_dir": "out",
    }


def draw_inputs(workload: dict, seed: int, count: int = 400) -> list[dict]:
    """The operation inputs of one run, a pure function of the seed.

    Operation time depends on the coupling, and a 2D solve-check run fits
    only three operations, so couplings are dealt in rounds that take one
    value from each third of the lattice, in shuffled order: every run
    sees the same mix of cheap and dear couplings.  A sweep takes its
    values from the lattice at random, sorted.
    """
    rng = random.Random(seed)
    if workload["kind"] == "sweep":
        return [{"betas": sorted(rng.sample(BETAS, workload["values"]))}
                for _ in range(count)]
    strata = (BETAS[:4], BETAS[4:8], BETAS[8:])
    decks: list[list[float]] = [[] for _ in strata]
    betas: list[float] = []
    while len(betas) < count:
        for i in rng.sample(range(len(strata)), len(strata)):
            if not decks[i]:
                decks[i] = rng.sample(strata[i], len(strata[i]))
            betas.append(decks[i].pop())
    return [{"beta": b} for b in betas[:count]]


def spawn_worker(spec: dict, tag: str, run_dir: str, deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; returns (result, spawn time)."""
    spec_path = os.path.join(run_dir, f"{tag}.spec.json")
    result_path = os.path.join(run_dir, f"{tag}.result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t_spawn = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
        cwd=ROOT, env=env,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {tag} did not finish in time")
    if code != 0:
        raise RuntimeError(f"worker {tag} exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), t_spawn


def tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it, if >= p50."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return f"p{p}", sorted(samples)[rank - 1]


def judge(outcome: dict, reference: dict) -> tuple[bool, bool, str]:
    """(correct, verify_failed, reason) of one operation against its reference.

    ``verify_failed`` is the program's own verdict: a nonzero exit or a
    failing check.  It is an output like theta, compared with the
    reference's verdict, and does not by itself make the operation wrong.
    """
    cfg_seed, beta = outcome["key"]
    ref = reference.get(f"{outcome['what']}|{cfg_seed}|{beta!r}")
    verify_failed = outcome["code"] != 0 or bool(outcome["failing"])
    if ref is None:
        return False, verify_failed, "no reference outcome"
    if outcome["schema_errors"]:
        return False, verify_failed, "schema: " + "; ".join(outcome["schema_errors"])
    if ref["theta"] is not None:
        if outcome["theta"] is None:
            return False, verify_failed, "no theta"
        for got, want in zip(outcome["theta"], ref["theta"]):
            if not abs(got - want) <= THETA_RTOL * (1.0 + abs(want)):
                return False, verify_failed, f"theta {got!r} vs reference {want!r}"
    if not set(outcome["failing"]) <= set(ref["failing"]):
        new = sorted(set(outcome["failing"]) - set(ref["failing"]))
        return False, verify_failed, f"new failing checks {new}"
    fixed = outcome["code"] == 0 and not outcome["failing"]
    if outcome["code"] != ref["code"] and not fixed:
        return False, verify_failed, f"exit {outcome['code']} vs reference {ref['code']}"
    return True, verify_failed, ""


def twins_agree(ops: list[dict]) -> list[str]:
    """Differences between the traced and untraced run of each input."""
    runs: dict[int, dict[bool, list]] = {}
    for op in ops:
        runs.setdefault(op["index"], {})[op["traced"]] = op["outcomes"]
    problems = []
    for index, pair in sorted(runs.items()):
        if len(pair) == 2 and pair[True] != pair[False]:
            problems.append(f"input {index}: traced and untraced outcomes differ")
    return problems


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nehari")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int, cfg_seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "config_seed": cfg_seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = perf_counter()
    deadline = t_start + TIMEOUT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "nehari", "__init__.py")):
        print(f"error: no nehari package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["outcomes"]

    workload = WORKLOADS[args.workload]
    cfg_seed = args.seed % CFG_SEEDS
    run_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    config = problem_config(workload["dim"], workload["points"], cfg_seed)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    spec = {
        "kind": workload["kind"],
        "config": config,
        "config_path": config_path,
        "cfg_seed": cfg_seed,
        "inputs": draw_inputs(workload, args.seed),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "out_root": run_dir,
        "trace_path": os.path.join(
            OUT, "results", f"{args.workload}-s{args.seed}.trace.jsonl"
        ) if args.trace else None,
    }

    try:
        setups = []
        if not args.trace:
            for i in range(workload["setups"] - 1):
                probe, t_spawn = spawn_worker(dict(spec, mode="setup"), f"setup{i}",
                                              run_dir, deadline)
                setups.append(probe["ready"] - t_spawn)
        loop, t_spawn = spawn_worker(dict(spec, mode="loop"), "loop", run_dir, deadline)
        setups.append(loop["ready"] - t_spawn)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = loop["ops"]
    if not any(op["times"] for op in ops):
        print("error: no operation completed", file=sys.stderr)
        return 1
    judged = [
        (o, *judge(o, reference)) for op in ops if not op["traced"] for o in op["outcomes"]
    ]
    problems = [f"{o['what']} beta={o['key'][1]!r}: {why}" for o, ok, _v, why in judged if not ok]
    problems += twins_agree(ops)
    attempted = len(judged)
    failed = sum(1 for _o, ok, _v, _why in judged if not ok)
    verify_failed = sum(1 for _o, _ok, v, _why in judged if v)
    correct = attempted > 0 and not problems

    samples: dict[str, list[float]] = {}
    for op in ops:
        if op["times"] and not op["traced"]:
            samples.setdefault("op_s", []).append(sum(op["times"].values()))
            for name, secs in op["times"].items():
                samples.setdefault(name, []).append(secs)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in _per_layer(loop["layers"])}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(samples["op_s"]), "unit": "s"},
            "peak_rss_mb": {"value": loop["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }

    env = environment(args.seed, cfg_seed)
    summary = _summary_lines(args, env, setups, samples, workload, attempted, failed,
                             verify_failed, loop["peak_rss_kb"] / 1024.0, problems)
    if args.trace:
        summary += [f"{name:48s} {value:.6g} {unit}"
                    for name, value, unit in _per_layer(loop["layers"])]
    print("\n".join(summary))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, verify_failed=verify_failed, environment=env,
                  workload=args.workload, setups_s=setups,
                  samples=samples, problems=problems, ops=ops,
                  wall_s=perf_counter() - t_start)
    path = os.path.join(OUT, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def _per_layer(values: dict):
    for name, unit in layers.PER_LAYER.items():
        yield name, values[name], unit


def _summary_lines(args, env, setups, samples, workload, attempted, failed, verify_failed,
                   rss, problems):
    lines = [
        f"workload {args.workload}  seed {args.seed}  config seed {env['config_seed']}  "
        f"trace {args.trace}  seconds {args.seconds:g}",
        "environment " + json.dumps(env),
    ]
    if setups:
        lines.append(f"{'setup_s':12s} {statistics.median(setups):.4f} s   median of "
                     f"{len(setups)} fresh processes")
    for name in ("op_s",) + NAMED_TIMES[workload["kind"]]:
        vals = samples.get(name, [])
        if not vals:
            continue
        t = tail(vals)
        tail_text = f"{name}.{t[0]} {t[1]:.4f} s" if t else "no tail (fewer than 20 samples)"
        lines.append(f"{name:12s} {statistics.median(vals):.4f} s   median, n={len(vals)}, "
                     f"{tail_text}")
    for name, count, what in (("failed_frac", failed, "wrong against the reference"),
                              ("verify_failed_frac", verify_failed,
                               "failed the program's own verification")):
        frac = count / attempted if attempted else float("nan")
        lines.append(f"{name:12s} {frac:.4f}     {count} of {attempted} operations {what}")
    lines.append(f"{'peak_rss_mb':12s} {rss:.1f} MB")
    lines += [f"output check: {p}" for p in problems]
    return lines


if __name__ == "__main__":
    sys.exit(main())
