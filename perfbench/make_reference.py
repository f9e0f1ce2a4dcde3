"""Record the reference outcome of every input the benchmark can draw.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once over the whole coupling lattice for each of the
config-seed classes, untraced, and writes theta+, theta-, the exit code
and the failing check names of every operation to reference.json.  Run it
at the commit whose outputs are the reference; later runs are compared
against the file at run.THETA_RTOL.  Takes about ten minutes on two cores,
most of it in the 2D solve-check workload.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from time import perf_counter

import run


def reference_outcomes(name: str) -> dict:
    workload = run.WORKLOADS[name]
    found = {}
    for cfg_seed in range(run.CFG_SEEDS):
        run_dir = os.path.join(run.OUT, f"reference-{name}-{cfg_seed}")
        os.makedirs(run_dir, exist_ok=True)
        config = run.problem_config(workload["dim"], workload["points"], cfg_seed)
        config_path = os.path.join(run_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        if workload["kind"] == "sweep":
            inputs = [{"betas": list(run.BETAS)}]
        else:
            inputs = [{"beta": b} for b in run.BETAS]
        spec = {"kind": workload["kind"], "config": config, "config_path": config_path,
                "cfg_seed": cfg_seed, "inputs": inputs, "seconds": None, "trace": False,
                "out_root": run_dir, "mode": "loop"}
        try:
            result, _ = run.spawn_worker(spec, "reference", run_dir, perf_counter() + 3600)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        for op in result["ops"]:
            for o in op["outcomes"]:
                seed, beta = o["key"]
                found[f"{o['what']}|{seed}|{beta!r}"] = {
                    "code": o["code"], "failing": o["failing"], "theta": o["theta"],
                }
        print(f"{name} config seed {cfg_seed}: {len(found)} outcomes", flush=True)
    return found


def main(names) -> int:
    path = os.path.join(run.HERE, "reference.json")
    doc = {"theta_rtol": run.THETA_RTOL, "outcomes": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    for name in names or sorted(run.WORKLOADS):
        doc["outcomes"].update(reference_outcomes(name))
    doc["outcomes"] = dict(sorted(doc["outcomes"].items()))
    doc["environment"] = run.environment(seed=None, cfg_seed=None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
