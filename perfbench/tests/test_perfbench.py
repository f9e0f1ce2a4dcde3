"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest perfbench/tests -q

They check that the traced run's counters repeat exactly, that tracing
leaves theta+ and theta- bit-identical, that the wrappers reach every
import site and are removed again, and that BENCHMARK.json names exactly
the metrics run.py prints.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

TINY = {"solve-check": (2, 15), "sweep": (1, 49), "coupling": (2, 15)}
BETAS = (-0.5, 1.0)


def _loop(kind, tmp_path, trace):
    dim, points = TINY[kind]
    os.makedirs(tmp_path, exist_ok=True)
    config = run.problem_config(dim, points, 1)
    config_path = os.path.join(tmp_path, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    inputs = [{"betas": list(BETAS)}] if kind == "sweep" else [{"beta": b} for b in BETAS]
    spec = {"kind": kind, "config": config, "config_path": config_path, "cfg_seed": 1,
            "inputs": inputs, "seconds": None, "trace": trace, "out_root": str(tmp_path),
            "mode": "loop"}
    wl = worker.WORKLOADS[kind]()
    wl.setup(spec)
    return worker.run_loop(wl, spec)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_counters_repeat_exactly(kind, tmp_path):
    first = _loop(kind, tmp_path / "a", True)["layers"]
    second = _loop(kind, tmp_path / "b", True)["layers"]
    assert {k: first[k] for k in layers.EXACT_COUNTERS} == {
        k: second[k] for k in layers.EXACT_COUNTERS
    }
    for name in ("grid.laplacian_matvec.calls", "fibering.retract.calls",
                 "functional.gradient.calls", "functional.energy.calls",
                 "solver.factorize.calls", "solver.linear_solve.calls",
                 "solver.descent.nplus.iterations", "solver.descent.nminus.iterations"):
        assert first[name] > 0, name


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tracing_leaves_theta_bit_identical(kind, tmp_path):
    ops = _loop(kind, tmp_path, True)["ops"]
    theta = {}
    for op in ops:
        theta[(op["index"], op["traced"])] = [o["theta"] for o in op["outcomes"] if o["theta"]]
    indices = {op["index"] for op in ops}
    assert len(ops) == 2 * len(indices)
    for index in indices:
        assert theta[(index, True)], "no theta read back"
        assert theta[(index, True)] == theta[(index, False)]
    assert run.twins_agree(ops) == []


def test_wrappers_reach_every_import_site_and_are_removed(tmp_path):
    import nehari.cli
    import nehari.grid
    import nehari.solver
    import nehari.threshold

    originals = (nehari.threshold.estimate_s4, nehari.grid.laplacian_matvec)
    result = _loop("solve-check", tmp_path, True)["layers"]
    # solve and check each estimate s4 once, through the binding in cli
    assert result["threshold.estimate_s4.calls"] == 2
    assert result["grid.laplacian_matvec.under_threshold.calls"] > 0
    assert result["grid.laplacian_matvec.under_solver.calls"] > 0
    assert result["grid.pair_from_csv.calls"] == 2
    assert nehari.cli.estimate_s4 is nehari.solver.estimate_s4 is originals[0]
    assert nehari.solver.laplacian_matvec is originals[1]


def test_coupling_keeps_s4_out_of_the_operation(tmp_path):
    result = _loop("coupling", tmp_path, True)["layers"]
    assert result["threshold.estimate_s4.calls"] == 0
    assert result["grid.csv_bytes"] == 0


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "op_s", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER


def test_inputs_are_a_function_of_the_seed():
    for name, workload in run.WORKLOADS.items():
        a = run.draw_inputs(workload, 7)
        assert a == run.draw_inputs(workload, 7)
        assert a != run.draw_inputs(workload, 8)
        betas = [b for inp in a for b in inp.get("betas", [inp.get("beta")])]
        assert set(betas) <= set(run.BETAS), name


def test_judge_against_reference():
    ref = {"solve|1|0.5": {"code": 5, "failing": ["bound_state:weak_form"],
                           "theta": [-1.0, 20.0]}}
    same = {"what": "solve", "key": [1, 0.5], "code": 5,
            "failing": ["bound_state:weak_form"], "theta": [-1.0, 20.0 + 1e-9],
            "schema_errors": []}
    assert run.judge(same, ref) == (True, True, "")
    fixed = dict(same, code=0, failing=[])
    assert run.judge(fixed, ref) == (True, False, "")
    moved = dict(same, theta=[-1.0, 20.001])
    assert run.judge(moved, ref)[0] is False
    worse = dict(same, failing=["bound_state:weak_form", "ground_state:coercivity"])
    assert run.judge(worse, ref)[0] is False
    assert run.judge(dict(same, key=[2, 0.5]), ref)[0] is False


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    name, value = run.tail([float(i) for i in range(30)])
    assert name == "p66"
    assert sum(1 for i in range(30) if i > value) == 10


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    code = run.main(["--workload", "sweep-beta-1d799", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert "correct" not in capsys.readouterr().out
