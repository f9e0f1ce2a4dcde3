"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py WORKLOAD SEED [SEED ...]

Runs run.py once per seed, one run at a time, and prints for every
end-to-end metric its median over the runs and the distance between the
first and third quartiles as a share of that median, next to the metric's
bound in BENCHMARK.json.  A benchmark is steady when each share (set-up
time excepted) stays below a third of its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv) -> int:
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{k}={v:.4f}" for k, v in row.items()),
              flush=True)
        for name in values:
            values[name].append(row[name])
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{m['name']:12s} median {statistics.median(vals):.4f} {m['unit']}  "
              f"spread {share:.4f} of median  bound {m['bound']}  "
              f"{'ok' if share < m['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
