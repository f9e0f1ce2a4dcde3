"""Summarise the run results under .perfbench_out/results into baseline.json.

    python3 perfbench/baseline.py

For every workload: the median and quartiles over runs of each end-to-end
metric (untraced runs), the median over runs of each per-layer metric
(traced runs), the share of ``nehari solve`` time spent in ``estimate_s4``
(from the traced runs' spans), the fraction of operations that fail the
program's own verification and the environment.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import run


def _stats(values):
    if len(values) < 2:
        return {"median": values[0], "runs": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def s4_share_of_solve(trace_paths) -> float | None:
    """Seconds in estimate_s4 under ``nehari solve`` over the seconds of the solves."""
    s4 = solve = 0.0
    for path in trace_paths:
        with open(path, encoding="utf-8") as fh:
            spans = [json.loads(line)["span"] for line in fh if line.startswith('{"span"')]
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            if s["name"] == "cli.solve":
                solve += s["end"] - s["start"]
            elif s["name"] == "threshold.estimate_s4":
                parent = s["parent"]
                while parent is not None and by_id[parent]["name"] != "cli.solve":
                    parent = by_id[parent]["parent"]
                if parent is not None:
                    s4 += s["end"] - s["start"]
    return s4 / solve if solve else None


def main() -> int:
    out = {"workloads": {}}
    for name in run.WORKLOADS:
        e2e, layer, env, verify_failed, attempted = {}, {}, None, 0, 0
        for path in sorted(glob.glob(os.path.join(run.OUT, "results", f"{name}-s*-t*.json"))):
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            env = rec["environment"]
            target = layer if path.endswith("-t1.json") else e2e
            for metric, value in rec["metrics"].items():
                target.setdefault(metric, []).append(value["value"])
            if target is e2e:
                verify_failed += rec["verify_failed"]
                attempted += rec["attempted"]
                for sample, vals in rec["samples"].items():
                    e2e.setdefault(f"{sample}.per_run_median", []).append(
                        statistics.median(vals))
        if not e2e:
            continue
        env = {k: v for k, v in env.items() if k not in ("seed", "config_seed")}
        traces = glob.glob(os.path.join(run.OUT, "results", f"{name}-s*.trace.jsonl"))
        out["workloads"][name] = {
            "s4_share_of_solve": s4_share_of_solve(traces),
            "end_to_end": {k: _stats(v) for k, v in e2e.items()},
            "per_layer_median": {k: statistics.median(v) for k, v in layer.items()},
            "verify_failed_frac": verify_failed / attempted,
            "environment": env,
        }
    with open(os.path.join(run.HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
