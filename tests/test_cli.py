import concurrent.futures
import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nehari import cli, solver
from nehari.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_THRESHOLD,
    EXIT_VERIFY,
    main,
)
from nehari.fibering import N_MINUS, N_PLUS
from nehari.grid import Field, Grid, Pair, field_to_csv, first_eigenvector
from nehari.reports import dumps, load_schema, validate, write_json
from nehari.solver import SolveReport, SolverConfig
from nehari.threshold import estimate_s4


def write_config(path, **overrides):
    cfg = {
        "grid": {"dim": 1, "extents": [1.0], "points": [99]},
        "coefficients": {"lam1": 1.0, "lam2": 1.0, "mu1": 1.0, "mu2": 1.0, "beta": 0.5},
        "sources": {
            "f": {"kind": "eigen", "amplitude": 1.0},
            "g": {"kind": "eigen", "amplitude": 1.0},
            "autoscale": {"rho": 0.5},
        },
        "seed": 0,
    }
    cfg.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


@pytest.fixture
def config(tmp_path):
    return str(write_config(tmp_path / "config.json"))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_solve_reference_config(config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    names = sorted(os.listdir(out))
    assert names == [
        "bound_state.csv",
        "bound_state.json",
        "checks.json",
        "ground_state.csv",
        "ground_state.json",
        "threshold.json",
    ]
    checks = load_json(os.path.join(out, "checks.json"))
    assert checks["all_passed"]
    order = [c for c in checks["cross"] if c["name"] == "theta_order"][0]
    assert order["passed"]
    gs = load_json(os.path.join(out, "ground_state.json"))
    bs = load_json(os.path.join(out, "bound_state.json"))
    assert gs["theta"] < 0.0 < bs["theta"] - gs["theta"]
    assert gs["positive"] == [True, True] and bs["positive"] == [True, True]


def assert_key_order(doc, schema, root=None):
    """Every object in doc lists its keys in the order of its schema's required list."""
    root = root or schema
    if "$ref" in schema:
        schema = root["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    if isinstance(doc, dict):
        assert list(doc) == schema["required"]
        for key, value in doc.items():
            assert_key_order(value, schema["properties"][key], root)
    elif isinstance(doc, list):
        for item in doc:
            assert_key_order(item, schema["items"], root)


def test_reports_validate_against_schemas(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    assert main(["fibering", "--config", config]) == EXIT_OK
    fibering = json.loads(capsys.readouterr().out)
    for doc, name in (
        (load_json(os.path.join(out, "threshold.json")), "threshold_report"),
        (load_json(os.path.join(out, "ground_state.json")), "solve_report"),
        (load_json(os.path.join(out, "bound_state.json")), "solve_report"),
        (load_json(os.path.join(out, "checks.json")), "checks"),
        (fibering, "fibering_analysis"),
    ):
        schema = load_schema(name)
        validate(doc, schema)
        assert_key_order(doc, schema)


def test_zero_sources_rejected_naming_hypothesis(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "zero.json",
        sources={
            "f": {"kind": "constant", "value": 0.0},
            "g": {"kind": "constant", "value": 0.0},
        },
    )
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_THRESHOLD
    err = capsys.readouterr().err
    assert "nonzero" in err


def test_beta_validation_exit_code(config, tmp_path, capsys):
    code = main(["solve", "--config", config, "--out", str(tmp_path / "o"), "--beta", "-1.01"])
    assert code == EXIT_CONFIG
    assert "beta" in capsys.readouterr().err


def count_s4_estimates(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate_s4(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_s4", counted)
    return calls


@pytest.mark.parametrize("rho", ["1.2", "0"])
@pytest.mark.parametrize("command", ["solve", "threshold"])
def test_rho_requires_force_past_one(config, tmp_path, monkeypatch, command, rho):
    # the rho range is a config rule, checked before the costly s4 estimate
    calls = count_s4_estimates(monkeypatch)
    argv = [command, "--config", config, "--out", str(tmp_path / "o"), "--rho", rho]
    assert main(argv) == EXIT_CONFIG
    assert calls == []


def test_threshold_not_satisfied_without_force(tmp_path, capsys):
    # explicit big sources, no autoscale
    cfg = write_config(
        tmp_path / "big.json",
        sources={
            "f": {"kind": "eigen", "amplitude": 50.0},
            "g": {"kind": "eigen", "amplitude": 50.0},
        },
    )
    out = str(tmp_path / "o")
    code = main(["solve", "--config", str(cfg), "--out", out])
    assert code == EXIT_THRESHOLD
    rep = load_json(os.path.join(out, "threshold.json"))
    assert not rep["satisfied"]
    assert "--force" in capsys.readouterr().err


def test_autoscale_satisfies_threshold(config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["threshold", "--config", config, "--out", out]) == EXIT_OK
    rep = load_json(os.path.join(out, "threshold.json"))
    assert rep["satisfied"] is True
    assert max(rep["f_norm"], rep["g_norm"]) == pytest.approx(
        0.5 * rep["lambda_threshold"], rel=1e-12
    )


def test_the_threshold_report_does_not_depend_on_the_seed(tmp_path, capsys):
    # on this long box a smooth probe of seed 17 used to beat the eigenvector
    # ascent, and lambda_threshold read 0.000540 against 0.000548 at seed 0
    cfg = str(write_config(
        tmp_path / "long_box.json",
        grid={"dim": 1, "extents": [100.0], "points": [99]},
        coefficients={"lam1": 1e-3, "lam2": 1e-3, "mu1": 1.0, "mu2": 1.0, "beta": 0.5},
        sources={
            "f": {"kind": "eigen", "amplitude": 1.0},
            "g": {"kind": "gaussian", "center": [50.0], "width": 10.0, "amplitude": 1.0},
            "autoscale": {"rho": 0.5},
        },
    ))
    reports = []
    for seed in ("0", "17"):
        assert main(["threshold", "--config", cfg, "--seed", seed]) == EXIT_OK
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["lambda_threshold"] == pytest.approx(0.000548, abs=5e-7)


def test_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG
    assert "line 2" in capsys.readouterr().err


def test_fibering_subcommand_json(config, capsys):
    assert main(["fibering", "--config", config, "--direction", "eigen"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    validate(doc, load_schema("fibering_analysis"))
    assert set(doc) == {"norm_sq", "A", "B", "t_turn", "psi_max", "roots"}
    assert [r["class"] for r in doc["roots"]] == ["N+", "N-"]
    # the three canonical analyze cases, driven end to end through B scaling
    assert doc["B"] < doc["psi_max"]


def test_fibering_no_sources_single_root(tmp_path, capsys):
    # zero sources make B = 0 along every ray: exactly one root, class N-
    cfg = write_config(
        tmp_path / "nosrc.json",
        sources={
            "f": {"kind": "constant", "value": 0.0},
            "g": {"kind": "constant", "value": 0.0},
        },
    )
    assert main(["fibering", "--config", str(cfg), "--direction", "eigen"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["B"] == 0.0
    assert [r["class"] for r in doc["roots"]] == ["N-"]


def test_fibering_zero_direction_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "zero.json",
        sources={
            "f": {"kind": "constant", "value": 0.0},
            "g": {"kind": "constant", "value": 0.0},
        },
    )
    assert main(["fibering", "--config", str(cfg), "--direction", "sources"]) == EXIT_CONFIG


def test_fibering_csv_direction(config, tmp_path, capsys):
    g = Grid(1, (1.0,), (99,))
    e = first_eigenvector(g)
    up, vp = str(tmp_path / "u.csv"), str(tmp_path / "v.csv")
    field_to_csv(e, up)
    field_to_csv(e.scaled(0.5), vp)
    assert main(
        ["fibering", "--config", config, "--direction", "csv", "--u", up, "--v", vp]
    ) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["roots"]


def test_gaussian_and_constant_sources(tmp_path):
    cfg = write_config(
        tmp_path / "mix.json",
        sources={
            "f": {"kind": "gaussian", "center": [0.5], "width": 0.1, "amplitude": 1.0},
            "g": {"kind": "constant", "value": 1.0},
            "autoscale": {"rho": 0.4},
        },
    )
    out = str(tmp_path / "o")
    assert main(["solve", "--config", str(cfg), "--out", out]) == EXIT_OK
    rep = load_json(os.path.join(out, "checks.json"))
    assert rep["all_passed"]


def test_solve_2d_config(tmp_path):
    cfg = write_config(
        tmp_path / "2d.json",
        grid={"dim": 2, "extents": [1.0, 1.0], "points": [15, 15]},
    )
    out = str(tmp_path / "o")
    assert main(["solve", "--config", str(cfg), "--out", out]) == EXIT_OK
    header = Path(out, "ground_state.csv").read_text().splitlines()[0]
    assert header == "i,j,x,y,u,v"
    assert load_json(os.path.join(out, "checks.json"))["all_passed"]


def test_determinism_byte_identical(config, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["solve", "--config", config, "--out", a]) == EXIT_OK
    assert main(["solve", "--config", config, "--out", b]) == EXIT_OK
    for name in os.listdir(a):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_single_value_sweep_matches_solve(config, tmp_path):
    solve_out = str(tmp_path / "solve")
    sweep_out = str(tmp_path / "sweep")
    assert main(["solve", "--config", config, "--out", solve_out]) == EXIT_OK
    assert main(
        ["sweep", "--config", config, "--out", sweep_out, "--parameter", "beta", "--values", "0.5"]
    ) == EXIT_OK
    sub = [d for d in os.listdir(sweep_out) if d.startswith("sweep_beta_")]
    assert len(sub) == 1
    for name in os.listdir(solve_out):
        pa = os.path.join(solve_out, name)
        pb = os.path.join(sweep_out, sub[0], name)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_rho_sweep_records_rows(config, tmp_path):
    out = str(tmp_path / "sw")
    assert main(
        ["sweep", "--config", config, "--out", out, "--parameter", "rho",
         "--values", "0.1,0.5,0.9", "--jobs", "2"]
    ) == EXIT_OK
    lines = Path(out, "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[:5] == ["value", "satisfied", "lambda_threshold", "theta_plus", "theta_minus"]
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    # no monotonicity asserted for theta vs rho; rows are merely recorded
    assert [float(r["value"]) for r in rows] == [0.1, 0.5, 0.9]
    assert all(r["satisfied"] == "true" for r in rows)
    assert all(r["converged_plus"] == "true" and r["converged_minus"] == "true" for r in rows)


def test_beta_sweep_crossing_zero_stays_satisfied(config, tmp_path):
    out = str(tmp_path / "sw")
    assert main(
        ["sweep", "--config", config, "--out", out, "--parameter", "beta",
         "--values=-0.25,0.0,0.25"]
    ) == EXIT_OK
    lines = Path(out, "sweep.csv").read_text().strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[1] == "true" for r in rows)


@pytest.mark.parametrize("parameter, values, flags", [
    pytest.param("beta", "0.5,-1.5", [], id="beta-below-floor"),
    pytest.param("rho", "0.5,1.5", [], id="rho-past-one-without-force"),
    pytest.param("rho", "0.5,0", ["--force"], id="rho-zero-with-force"),
])
def test_sweep_rejects_invalid_value_before_running(config, tmp_path, parameter, values, flags):
    out = tmp_path / "sw"
    assert main(
        ["sweep", "--config", config, "--out", str(out), "--parameter", parameter,
         "--values", values, *flags]
    ) == EXIT_CONFIG
    assert not (out / "sweep.csv").exists()
    assert not list(out.glob("sweep_*"))


def test_sweep_jobs_write_the_same_bytes(config, tmp_path):
    outs = [tmp_path / "j1", tmp_path / "j2"]
    for jobs, out in zip(("1", "2"), outs):
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--parameter", "beta",
             "--values", "0.25,0.75", "--jobs", jobs]
        ) == EXIT_OK
    names = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert len(names) == 1 + 2 * 6
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("jobs", ["3", "99999999999999999999"])
def test_sweep_starts_no_more_workers_than_values(tmp_path, monkeypatch, jobs):
    # two values get two workers whatever --jobs asks for, and the bytes of --jobs 1
    cfg = str(readme_config(tmp_path / "c.json"))
    real, pools = concurrent.futures.ProcessPoolExecutor, []

    def pool(workers):
        pools.append(workers)
        return real(workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    outs = [tmp_path / "j1", tmp_path / "jn"]
    for n, out in zip(("1", jobs), outs):
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--parameter", "beta",
             "--values", "0.25,0.75", "--jobs", n]
        ) == EXIT_OK
    assert pools == [2]
    names = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert len(names) == 1 + 2 * 6
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_row_of_a_failing_value_keeps_nan_and_false(tmp_path, jobs):
    # no autoscale: beta = 40 shrinks Lambda below the source norms, so that value exits 3
    eigen = {"kind": "eigen", "amplitude": 3.0}
    cfg = write_config(tmp_path / "c.json", sources={"f": eigen, "g": eigen})
    out = tmp_path / "sw"
    assert main(
        ["sweep", "--config", str(cfg), "--out", str(out), "--parameter", "beta",
         "--values", "0.5,40", "--jobs", jobs]
    ) == EXIT_THRESHOLD
    ok, bad = out / "sweep_beta_0.5", out / "sweep_beta_40"
    assert not (bad / "ground_state.json").exists()
    lam_ok, lam_bad = (load_json(d / "threshold.json")["lambda_threshold"] for d in (ok, bad))
    plus, minus = (load_json(ok / f"{s}.json")["theta"] for s in ("ground_state", "bound_state"))
    assert (out / "sweep.csv").read_text() == (
        "value,satisfied,lambda_threshold,theta_plus,theta_minus,"
        "converged_plus,converged_minus,positive_plus_u,positive_plus_v,"
        "positive_minus_u,positive_minus_v,code\n"
        f"0.5,true,{lam_ok:.17g},{plus:.17g},{minus:.17g},true,true,true,true,true,true,0\n"
        f"40,false,{lam_bad:.17g},nan,nan,false,false,false,false,false,false,3\n"
    )


def test_branch_seeds_config(tmp_path):
    cfg = write_config(tmp_path / "seeds.json", branch_seeds=[0, 1])
    out = str(tmp_path / "o")
    assert main(["solve", "--config", str(cfg), "--out", out]) == EXIT_OK
    gs = load_json(os.path.join(out, "ground_state.json"))
    assert gs["seed_disagreement"] is False


def test_check_subcommand_roundtrip(config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    assert main(["check", "--config", config, "--out", out]) == EXIT_OK


def test_check_detects_tampering(config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    path = os.path.join(out, "ground_state.csv")
    lines = Path(path).read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "%.17g" % (float(cells[-1]) + 0.05)
    cells[-2] = "%.17g" % (float(cells[-2]) + 0.05)
    lines[1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")
    assert main(["check", "--config", config, "--out", out]) == 5


def _truncate_first_row(path):
    lines = Path(path).read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    Path(path).write_text("\n".join(lines) + "\n")


def test_check_rejects_truncated_state_row(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    _truncate_first_row(os.path.join(out, "ground_state.csv"))
    capsys.readouterr()
    assert main(["check", "--config", config, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_check_rejects_state_row_with_extra_column(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    path = os.path.join(out, "ground_state.csv")
    lines = Path(path).read_text().splitlines()
    lines[1] += ",9"
    Path(path).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--config", config, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_check_rejects_state_rows_out_of_order(config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    path = os.path.join(out, "bound_state.csv")
    lines = Path(path).read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    Path(path).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--config", config, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "index columns" in err and "Traceback" not in err


def test_rescale_that_raises_the_energy_is_a_solver_failure(config, tmp_path, monkeypatch, capsys):
    # the descent's state gets a negative component, so the rescale
    # re-minimises; that re-minimisation is made to land higher, so
    # positivity_rescale raises its RuntimeError
    real = solver.minimize

    def higher(*args, init=None, **kwargs):
        rep = real(*args, init=init, **kwargs)
        if init is None:
            return replace(rep, state=Pair(rep.state.u, rep.state.v.scaled(-1.0)))
        return replace(rep, theta=rep.theta + 1.0)

    monkeypatch.setattr(solver, "minimize", higher)
    assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "raised the energy" in err and "Traceback" not in err


@pytest.mark.parametrize("lam2, factors", [(1.0, 1), (2.0, 2)])
def test_solve_factors_shifted_laplacian_once_per_problem(tmp_path, monkeypatch, lam2, factors):
    # both branches, both seeds and both positivity rescales share one factor per lam
    cfg = write_config(
        tmp_path / "c.json",
        grid={"dim": 2, "extents": [1.0, 1.0], "points": [15, 15]},
        coefficients={"lam1": 1.0, "lam2": lam2, "mu1": 1.0, "mu2": 1.0, "beta": 0.5},
        branch_seeds=[0, 1],
    )
    splu = scipy.sparse.linalg.splu
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(calls) == factors


def test_csv_source_with_truncated_row_is_config_error(tmp_path):
    grid = Grid(1, (1.0,), (99,))
    src = str(tmp_path / "f.csv")
    field_to_csv(first_eigenvector(grid), src)
    _truncate_first_row(src)
    cfg = write_config(
        tmp_path / "c.json",
        sources={
            "f": {"kind": "csv", "path": src},
            "g": {"kind": "eigen", "amplitude": 1.0},
            "autoscale": {"rho": 0.5},
        },
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_csv_source_path_is_relative_to_the_working_directory(tmp_path, monkeypatch, capsys):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    field_to_csv(first_eigenvector(Grid(1, (1.0,), (99,))), cfg_dir / "f.csv")
    sources = {"f": {"kind": "csv", "path": "f.csv"}, "g": {"kind": "eigen", "amplitude": 1.0}}
    cfg = str(write_config(cfg_dir / "c.json", sources=sources))
    monkeypatch.chdir(tmp_path)  # f.csv sits next to the config, not here
    assert main(["threshold", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_CONFIG
    assert "sources.f" in capsys.readouterr().err
    monkeypatch.chdir(cfg_dir)
    assert main(["threshold", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK


def test_sweep_estimates_s4_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.json", grid={"dim": 1, "extents": [1.0], "points": [31]})
    calls = count_s4_estimates(monkeypatch)
    assert main(
        ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
         "--parameter", "beta", "--values", "0.25,0.5,0.75"]
    ) == EXIT_OK
    assert len(calls) == 1


def test_sweep_rejects_repeated_values_before_running(config, tmp_path, monkeypatch):
    # one directory per value: a repeat would solve twice into it
    calls = count_s4_estimates(monkeypatch)
    out = tmp_path / "sw"
    assert main(
        ["sweep", "--config", config, "--out", str(out), "--parameter", "beta",
         "--values", "0.5,0.25,0.50"]
    ) == EXIT_CONFIG
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one_before_running(config, tmp_path, monkeypatch, capsys, jobs):
    calls = count_s4_estimates(monkeypatch)
    out = tmp_path / "sw"
    assert main(
        ["sweep", "--config", config, "--out", str(out), "--parameter", "beta",
         "--values", "0.25,0.5", "--jobs", jobs]
    ) == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("parameter, flag", [("beta", "0.25"), ("rho", "0.4")])
def test_sweep_rejects_a_flag_that_its_swept_values_replace(
    config, tmp_path, monkeypatch, capsys, parameter, flag
):
    calls = count_s4_estimates(monkeypatch)
    out = tmp_path / "sw"
    assert main(
        ["sweep", "--config", config, "--out", str(out), "--parameter", parameter,
         "--values", "0.5", f"--{parameter}", flag]
    ) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--{parameter} " in err and f"--parameter {parameter}" in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("direction", ["sources", "eigen"])
@pytest.mark.parametrize("files", [["--u", "u.csv", "--v", "v.csv"], ["--u", "u.csv"],
                                   ["--v", "v.csv"]])
def test_fibering_rejects_field_files_without_the_csv_direction(config, capsys, direction, files):
    # the files would be ignored, so they are refused before any is opened
    assert main(["fibering", "--config", config, "--direction", direction, *files]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--u and --v need --direction csv" in captured.err and captured.out == ""


def test_fibering_takes_no_out(config, capsys):
    # fibering only prints, so an --out would do nothing
    with pytest.raises(SystemExit) as exc:
        main(["fibering", "--config", config, "--out", "o"])
    assert exc.value.code == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err


def readme_config(path, grad_tol=1e-8, max_iters=None, points=49, **coefficients):
    """The README config at 1D 49: eigen f, gaussian g, autoscaled to rho 0.5."""
    co = {"lam1": 1.0, "lam2": 1.0, "mu1": 1.0, "mu2": 1.0, "beta": 0.5, **coefficients}
    solver = {"grad_tol": grad_tol} if max_iters is None else {"grad_tol": grad_tol,
                                                               "max_iters": max_iters}
    return write_config(
        path,
        grid={"dim": 1, "extents": [1.0], "points": [points]},
        coefficients=co,
        sources={
            "f": {"kind": "eigen", "amplitude": 1.0},
            "g": {"kind": "gaussian", "center": [0.5], "width": 0.1, "amplitude": 1.0},
            "autoscale": {"rho": 0.5},
        },
        solver=solver,
    )


def test_reports_carry_the_descent_iterations(tmp_path):
    # a positive state is its own absolute value: the rescale keeps the descent's report
    cfg, out = str(readme_config(tmp_path / "c.json")), str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    for stem in ("ground_state", "bound_state"):
        assert load_json(os.path.join(out, f"{stem}.json"))["iterations"] > 0, stem


def test_check_of_a_zeroed_bound_state_fails_its_branch_sign(tmp_path, capsys):
    # N = A = B = 0: the N- indicator is 0, not negative, and the norms vanish;
    # the checks fail, they do not raise
    cfg, out = str(readme_config(tmp_path / "c.json")), str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    path = os.path.join(out, "bound_state.csv")
    lines = Path(path).read_text().splitlines()
    lines[1:] = [",".join(row.split(",")[:2] + ["0", "0"]) for row in lines[1:]]
    Path(path).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--out", out]) == EXIT_VERIFY
    printed = capsys.readouterr().out
    for name in ("state_nontrivial", "branch_sign"):
        assert f"bound_state {name}: FAIL" in printed, name


def test_check_of_an_overflowing_state_fails_without_a_warning(tmp_path, capsys):
    # v = 1e160 at one node overflows the quartic terms: the ground state fails
    # its checks and check exits 5, even where every warning is an error
    cfg, out = str(readme_config(tmp_path / "c.json")), str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    path = Path(out) / "ground_state.csv"
    lines = path.read_text().splitlines()
    lines[8] = ",".join(lines[8].split(",")[:2] + ["0", "1e160"])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--config", cfg, "--out", out]) == EXIT_VERIFY
    captured = capsys.readouterr()
    fails = [line for line in captured.out.splitlines() if ": FAIL (" in line]
    assert captured.err == ""
    assert fails and all(line.startswith("ground_state ") for line in fails)


def test_check_of_swapped_reports_fails_the_cross_checks(tmp_path, capsys):
    # each report still verifies on its own branch; only the pair shows the swap
    cfg, out = str(readme_config(tmp_path / "c.json")), tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    ground, bound = out / "ground_state.json", out / "bound_state.json"
    texts = ground.read_text(), bound.read_text()
    ground.write_text(texts[1])
    bound.write_text(texts[0])
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_VERIFY
    fails = [line for line in capsys.readouterr().out.splitlines() if ": FAIL (" in line]
    assert [line.split(":")[0] for line in fails] == ["theta_plus_negative", "theta_order"]


def test_check_fails_the_checks_that_solve_failed(tmp_path, capsys):
    # a loose stop fails four checks; check's FAIL lines, parsed the way
    # perfbench/worker.py parses them, name the failing checks of checks.json
    cfg, out = str(readme_config(tmp_path / "c.json", grad_tol=1e-3)), str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_VERIFY
    doc = load_json(os.path.join(out, "checks.json"))
    failed = sorted(
        c["name"] if part == "cross" else f"{part}:{c['name']}"
        for part in ("ground_state", "bound_state", "cross")
        for c in doc[part] if not c["passed"]
    )
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--out", out]) == EXIT_VERIFY
    parsed = sorted(
        line.split(":")[0].replace(" ", ":")
        for line in capsys.readouterr().out.splitlines() if ": FAIL (" in line
    )
    assert len(failed) == 4 and parsed == failed


def test_check_of_an_unconverged_solve_runs_every_check(tmp_path, capsys):
    # two iterations leave both branches far from a solution: solve calls it
    # a solver failure, and check fails the three convergence checks of each
    # branch instead of skipping them
    cfg, out = str(readme_config(tmp_path / "c.json", max_iters=2)), str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_SOLVER
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--out", out]) == EXIT_VERIFY
    fails = sorted(line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                   if ": FAIL (" in line)
    assert fails == [f"{stem} {name}" for stem in ("bound_state", "ground_state")
                     for name in ("gradient_norm", "pde_residual", "weak_form")]


def test_check_after_a_solve_on_another_grid_and_seed_prints_what_a_fresh_process_does(
    tmp_path, capsys
):
    # the weak-form test pairs a process drew for other solves, on this grid
    # with seed 1 (drawn first) and on 1D 49 with seed 1 (drawn last), must
    # not reach the check of 1D 99 with seed 0
    cfg, out = str(readme_config(tmp_path / "c.json", points=99)), str(tmp_path / "out")
    other = str(readme_config(tmp_path / "other.json"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "1"]) == EXIT_OK
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["solve", "--config", other, "--out", str(tmp_path / "o"), "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--out", out]) == EXIT_OK
    here = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(cli.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "nehari.cli", "check", "--config", cfg, "--out", out],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert fresh.returncode == EXIT_OK and "weak_form: pass" in here
    assert here == fresh.stdout


# the README config at 1D 49 meets the stop rule after this many steps per branch
_README_STEPS = {N_PLUS: 4, N_MINUS: 27}
_STOP_CHECKS = ("on_manifold", "branch_sign", "gradient_norm")


@pytest.fixture(scope="module")
def readme_problem(tmp_path_factory):
    return cli.resolve_problem(cli.load_config(readme_config(tmp_path_factory.mktemp("r") / "c.json")))


@pytest.mark.parametrize("branch", [N_PLUS, N_MINUS])
def test_a_run_that_stops_on_its_last_allowed_step_is_converged(readme_problem, branch):
    params = readme_problem.params
    free = solver.minimize(branch, params, params.grid)
    assert free.converged and free.iterations == _README_STEPS[branch]
    capped = solver.minimize(
        branch, params, params.grid, SolverConfig(max_iters=_README_STEPS[branch])
    )
    assert capped.converged and capped.iterations == free.iterations
    for w in ("u", "v"):
        got, want = (getattr(r.state, w).values for r in (capped, free))
        assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(max_iters=st.integers(1, 40), branch=st.sampled_from((N_PLUS, N_MINUS)))
def test_converged_is_the_stop_rule_of_the_final_state(readme_problem, max_iters, branch):
    params = readme_problem.params
    rep = solver.minimize(branch, params, params.grid, SolverConfig(max_iters=max_iters))
    checks = solver.verify_solution(rep, params, s4=readme_problem.threshold.s4)
    assert rep.converged == all(c.passed for c in checks if c.name in _STOP_CHECKS)
    assert rep.iterations == len(rep.history) - 1
    assert rep.converged == (max_iters >= _README_STEPS[branch])


def test_a_line_search_with_no_acceptable_step_stops_the_descent(tmp_path, monkeypatch):
    # with no energy-noise slack and grad_tol 1e-12, N- at beta 0 and seed 0
    # finds no step that lowers J after 25 steps, short of grad_tol: it stops
    # there, unconverged
    monkeypatch.setattr(solver, "_ENERGY_NOISE_REL", 0.0)
    cfg = cli.load_config(readme_config(tmp_path / "c.json", grad_tol=1e-12, beta=0.0))
    problem = cli.resolve_problem(cfg, seed=0)
    params, solver_cfg = problem.params, problem.solver_cfg
    rep = solver.minimize(N_MINUS, params, params.grid, solver_cfg)
    assert (rep.iterations, len(rep.history), rep.converged) == (25, 26, False)
    assert rep.grad_norm == pytest.approx(6.2563e-11, rel=1e-4)

    def state_bytes(max_iters):
        capped = solver.minimize(
            N_MINUS, params, params.grid, replace(solver_cfg, max_iters=max_iters)
        )
        return capped.state.u.values.tobytes() + capped.state.v.values.tobytes()

    assert state_bytes(25) == rep.state.u.values.tobytes() + rep.state.v.values.tobytes()
    assert state_bytes(24) != state_bytes(25)
    checks = solver.verify_solution(rep, params, s4=problem.threshold.s4, seed=0)
    assert [c.name for c in checks if not c.passed] == ["gradient_norm"]


@pytest.mark.parametrize("max_iters, solve_code, check_code", [
    (27, EXIT_OK, EXIT_OK), (26, EXIT_SOLVER, EXIT_VERIFY),
])
def test_solve_and_check_agree_at_the_iteration_cap(tmp_path, max_iters, solve_code, check_code):
    cfg = str(readme_config(tmp_path / "c.json", max_iters=max_iters))
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == solve_code
    assert main(["check", "--config", cfg, "--out", out]) == check_code


@pytest.mark.parametrize("points, lam", [(49, 1e150), (15, 1e100)])
def test_a_state_past_float_range_is_a_solver_failure(tmp_path, capsys, points, lam):
    # the descent leaves float range; no numpy warning (an error under this
    # suite's filterwarnings) and no exit 2, and a sweep writes its table
    cfg = str(readme_config(tmp_path / "c.json", points=points, lam1=lam, lam2=lam))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out / "solve")]) == EXIT_SOLVER
    assert "error: N+ solve failed: " in capsys.readouterr().err
    args = ["--parameter", "beta", "--values", "0.25,0.5", "--out", str(out / "sweep")]
    assert main(["sweep", "--config", cfg, *args]) == EXIT_SOLVER
    rows = (out / "sweep" / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    assert all(row.split(",")[3:5] == ["nan", "nan"] for row in rows)


def _nan_value(lines):
    lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"


def _wrong_header(lines):
    lines[0] = lines[0].replace(",u,", ",w,")


def _dropped_row(lines):
    del lines[-1]


def _text_cell(lines):
    lines[1] = lines[1].rsplit(",", 1)[0] + ",abc"


@pytest.mark.parametrize("corrupt", [_nan_value, _wrong_header, _dropped_row, _text_cell])
def test_check_names_a_malformed_state_csv(tmp_path, capsys, corrupt):
    cfg, out = str(readme_config(tmp_path / "c.json")), str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    path = Path(out, "bound_state.csv")
    lines = path.read_text().splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bound_state.csv" in err and "Traceback" not in err


def test_check_takes_its_tolerances_from_the_config(tmp_path, capsys):
    # a setting edited into a saved report, even one no config may hold,
    # changes no check and no line: check never reads the saved settings
    cfg, out = str(readme_config(tmp_path / "c.json")), str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--out", out]) == EXIT_OK
    before = capsys.readouterr().out
    path = os.path.join(out, "bound_state.json")
    for key, value in (("grad_tol", 1.0), ("max_iters", 0)):
        doc = load_json(path)
        doc["config"][key] = value
        write_json(doc, "solve_report", path)
        assert main(["check", "--config", cfg, "--out", out]) == EXIT_OK, key
        assert capsys.readouterr().out == before, key
    # reports of older formats, whose config still carries nehari_tol or which
    # still carry noise_injected or a norm bound; write_json refuses them, so
    # each is written as plain JSON
    doc = load_json(path)
    for key, old in (("nehari_tol", {"config": {**doc["config"], "nehari_tol": 1e-10}}),
                     ("noise_injected", {"noise_injected": False}),
                     ("norm_min", {"norm_min": 0.5}), ("norm_max", {"norm_max": 2.0}),
                     ("tau_bound", {"tau_bound": None})):
        Path(path).write_text(json.dumps({**doc, **old}), encoding="utf-8")
        assert main(["check", "--config", cfg, "--out", out]) == EXIT_CONFIG, key
        assert key in capsys.readouterr().err, key


def test_load_schema_returns_a_fresh_dict_of_text_read_once():
    from nehari import reports

    first = load_schema("checks")
    first["required"].append("mutated")
    assert "mutated" not in load_schema("checks")["required"]
    assert reports._schema_text("checks") is reports._schema_text("checks")


def test_huge_mu1_reports_a_failed_branch_sign(tmp_path, capsys):
    # the states are so small that mu1*u^3 underflows and A comes out 0;
    # neither branch meets its constraint tolerance, so this is a solver failure,
    # and with A = 0 the N- indicator 2N - B cannot be negative
    cfg, out = str(readme_config(tmp_path / "c.json", mu1=1e300)), str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_SOLVER
    assert "did not converge" in capsys.readouterr().err
    sign = [c for c in load_json(os.path.join(out, "checks.json"))["bound_state"]
            if c["name"] == "branch_sign"]
    assert sign and not sign[0]["passed"]


@pytest.mark.parametrize("command", ["threshold", "solve", "check"])
def test_huge_lam_is_config_error(tmp_path, capsys, command):
    # s4 shrinks like lam^(-1/2), so at lam 1e200 its fourth power underflows
    # and no threshold can be formed
    cfg = str(readme_config(tmp_path / "c.json", lam1=1e200, lam2=1e200))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lam1 = 1e+200, lam2 = 1e+200" in err
    assert not out.exists()


@pytest.mark.parametrize("extent", [1e200, 1e-200])
def test_grid_with_unrepresentable_mesh_width_is_config_error(tmp_path, capsys, extent):
    cfg = write_config(tmp_path / "c.json", grid={"dim": 1, "extents": [extent], "points": [49]})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "h^2 and 1/h^2 must be finite and positive" in capsys.readouterr().err


def test_source_with_overflowing_norm_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        sources={
            "f": {"kind": "eigen", "amplitude": 1e300},
            "g": {"kind": "eigen", "amplitude": 1.0},
            "autoscale": {"rho": 0.5},
        },
    )
    for command in ("solve", "threshold"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "L^{4/3} norm of a source overflows" in capsys.readouterr().err
        # the config error reports alone, with no numpy overflow warning before it
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def solve_reports(draw):
    grid = Grid(1, (1.0,), (3,))
    state = Pair(Field(grid, [0.1, 0.2, 0.3]), Field(grid, [0.3, 0.2, 0.1]))
    config = SolverConfig(
        max_iters=draw(st.integers(1, 10**9)), grad_tol=draw(_POSITIVE),
        seed=draw(st.integers(0, 2**64)),
    )
    return SolveReport(
        branch=draw(st.sampled_from((N_PLUS, N_MINUS))), state=state,
        theta=draw(_FINITE), grad_norm=draw(_FINITE), nehari_residual=draw(_FINITE),
        classification_value=draw(_FINITE), pde_residual=draw(_FINITE),
        pde_scale=draw(_FINITE), positive=(draw(st.booleans()), draw(st.booleans())),
        iterations=draw(st.integers(0, 10**9)), converged=draw(st.booleans()), config=config,
    )


@settings(max_examples=300, deadline=None)
@given(rep=solve_reports(), disagree=st.booleans())
def test_solve_report_json_round_trip(rep, disagree):
    text = dumps(cli.solve_report_to_dict(rep, "state.csv", disagree), "solve_report")
    doc = json.loads(text)
    # check verifies with its own settings, but the saved config must read back as written
    back = cli.solve_report_from_dict(doc, rep.state, SolverConfig(**doc["config"]))
    saved = [f.name for f in fields(SolveReport) if f.name in doc]
    assert {f.name for f in fields(SolveReport)} - set(saved) == {"state", "history"}
    for name in saved:
        want, got = getattr(rep, name), getattr(back, name)
        assert got == want, name
        assert type(got) is type(want), name  # 1.0 must not come back as the int 1
        if isinstance(want, float):
            assert math.copysign(1.0, got) == math.copysign(1.0, want), name
    for f in fields(SolverConfig):
        want, got = getattr(rep.config, f.name), getattr(back.config, f.name)
        assert type(got) is type(want), f"config.{f.name}"
    assert back.state is rep.state
    assert dumps(cli.solve_report_to_dict(back, "state.csv", disagree), "solve_report") == text


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_dumps_rejects_non_finite_floats(readme_problem, x, tmp_path):
    # NaN and infinities are not JSON; a report must not hide them as null.
    # The report is valid under its schema, so the float is what raises
    doc = {**asdict(readme_problem.threshold), "s4": x}
    with pytest.raises(ValueError, match="JSON compliant"):
        dumps(doc, "threshold_report")
    # nor leave an empty file behind
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(doc, "threshold_report", path)
    assert not path.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_iters", 0),
        ("max_iters", -3),
        ("armijo_factor", 0.5),
        ("armijo_slope", 1e-4),
        ("initial_step", 1.0),
        ("nehari_tol", 1e-10),
        ("seed", 0),
    ],
)
def test_bad_solver_settings_are_config_errors(tmp_path, monkeypatch, capsys, key, value):
    # a cap below one iteration, or a key the solver has no setting for
    cfg = write_config(tmp_path / "c.json", solver={key: value})
    calls = count_s4_estimates(monkeypatch)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize(
    "command, edit, flags, key",
    [
        ("threshold", ('"lam1": 1.0', '"lam1": Infinity'), [], "lam1"),
        ("solve", ('"lam1": 1.0', '"lam1": Infinity'), [], "lam1"),
        ("solve", ('"mu2": 1.0', '"mu2": Infinity'), [], "mu2"),
        ("threshold", None, ["--beta", "inf"], "beta"),
        ("solve", None, ["--rho", "nan"], "rho"),
        ("solve", None, ["--rho", "inf", "--force"], "rho"),
        ("solve", ('"width": 0.1', '"width": NaN'), [], "width"),
    ],
    ids=["threshold-lam1-inf", "solve-lam1-inf", "solve-mu2-inf", "threshold-beta-inf",
         "solve-rho-nan", "solve-rho-inf-force", "solve-width-nan"],
)
def test_non_finite_config_numbers_are_config_errors(
    tmp_path, monkeypatch, capsys, command, edit, flags, key
):
    # Python's json reads Infinity and NaN, and argparse's float reads inf and nan
    cfg = readme_config(tmp_path / "c.json")
    if edit:
        text = cfg.read_text()
        assert edit[0] in text
        cfg.write_text(text.replace(edit[0], edit[1]))
    calls = count_s4_estimates(monkeypatch)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(cfg), "--out", str(out), *flags])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert calls == [] and not out.exists()
    assert caught == []


@pytest.mark.parametrize(
    "g, key",
    [
        ({"kind": "constant", "value": math.inf}, "value"),
        ({"kind": "gaussian", "center": [math.inf], "width": 0.1, "amplitude": 1.0}, "center"),
        ({"kind": "gaussian", "center": [0.5], "width": math.inf, "amplitude": 1.0}, "width"),
        ({"kind": "gaussian", "center": [0.5], "width": 0.1, "amplitude": math.nan}, "amplitude"),
        ({"kind": "eigen", "amplitude": -math.inf}, "amplitude"),
        ({"kind": "constant", "value": [1.0, 2.0]}, "value"),
        ({"kind": "csv", "path": 0}, "path"),
        ({"kind": "csv", "path": None}, "path"),
        ({"kind": ["eigen"], "amplitude": 1.0}, "kind"),
        ({"kind": "gaussian", "center": [0.5], "width": {}, "amplitude": 1.0}, "width"),
        ({"kind": "gaussian", "center": [0.5], "width": "abc", "amplitude": 1.0}, "width"),
        ({"kind": "eigen", "amplitude": True}, "amplitude"),
        ({"kind": "csv"}, "path"),
        ({"kind": "gaussian", "center": [0.5], "width": 0.1}, "amplitude"),
        ({"kind": "gaussian", "center": [0.5, 0.5], "width": 0.1, "amplitude": 1.0}, "center"),
        ({"kind": "gaussian", "center": [0.5], "width": 0.0, "amplitude": 1.0}, "width"),
        ({"kind": "gaussian", "center": [0.5], "width": -0.1, "amplitude": 1.0}, "width"),
        ({"kind": "gaussian", "center": [0.5], "width": 1e-300, "amplitude": 1.0}, "width"),
    ],
    ids=["constant-value", "gaussian-center", "gaussian-width", "gaussian-amplitude",
         "eigen-amplitude", "constant-value-list", "csv-path-int", "csv-path-null",
         "eigen-kind-list", "gaussian-width-object", "gaussian-width-string",
         "eigen-amplitude-bool", "csv-no-path", "gaussian-no-amplitude",
         "gaussian-center-length", "gaussian-width-zero", "gaussian-width-negative",
         "gaussian-width-square-underflows"],
)
@pytest.mark.parametrize("command", ["solve", "threshold"])
def test_bad_source_numbers_are_config_errors(
    tmp_path, monkeypatch, capsys, command, g, key
):
    # json.dump writes Infinity and NaN, which Python's json reads back; a list
    # where one number belongs ended in a TypeError traceback
    f = {"kind": "eigen", "amplitude": 1.0}
    cfg = write_config(tmp_path / "c.json", sources={"f": f, "g": g})
    calls = count_s4_estimates(monkeypatch)
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if g.get("path") == 0:
        # an integer path is a file descriptor: 0 would read the CSV from
        # stdin, so this case runs in a subprocess on an empty stdin
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "nehari.cli", *argv], stdin=subprocess.DEVNULL,
            capture_output=True, text=True, env=env, timeout=120,
        )
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and f"sources.g.{key}" in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("width, nonzero", [(1e-160, 1), (1e200, 49)])
def test_gaussian_far_narrower_or_wider_than_the_mesh(tmp_path, width, nonzero):
    # the narrow one is a spike on its center node, the wide one a constant;
    # the square of neither is a positive normal float
    cfg = readme_config(tmp_path / "c.json")
    cfg.write_text(cfg.read_text().replace('"width": 0.1', f'"width": {width!r}'))
    assert main(["threshold", "--config", str(cfg)]) == EXIT_OK
    g = cli.resolve_problem(cli.load_config(cfg)).params.g.values
    assert np.count_nonzero(g) == nonzero and g.max() == g[24] > 0
    assert nonzero == 1 or np.ptp(g) == 0


@pytest.mark.parametrize("command", ["solve", "threshold"])
def test_unknown_source_key_is_config_error(tmp_path, monkeypatch, capsys, command):
    f = {"kind": "eigen", "amplitude": 1.0}
    g = {**f, "amplitud": -5.0}  # a misspelt key
    cfg = write_config(tmp_path / "c.json", sources={"f": f, "g": g})
    calls = count_s4_estimates(monkeypatch)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sources.g" in err and "'amplitud'" in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize(
    "edit, flags, key",
    [({"seed": -1}, [], "seed"), ({}, ["--seed", "-5"], "seed"),
     ({"branch_seeds": [0, -3]}, [], "branch_seeds"), ({"branch_seeds": []}, [], "branch_seeds")],
    ids=["config-seed", "flag-seed", "branch-seeds", "branch-seeds-empty"],
)
def test_negative_seeds_are_config_errors(tmp_path, monkeypatch, capsys, edit, flags, key):
    cfg = write_config(tmp_path / "c.json", **edit)
    calls = count_s4_estimates(monkeypatch)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out), *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: config error at {key}:")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize(
    "edit, argv, name",
    [
        ({}, ["solve", "--config", "missing.json"], "missing.json"),
        ({"sources": {"f": {"kind": "constant", "value": 0.0},
                      "g": {"kind": "constant", "value": 0.0},
                      "autoscale": {"rho": 0.5}}}, ["solve"], "at sources:"),
        ({}, ["fibering", "--direction", "csv"], "--u and --v"),
        ({}, ["fibering", "--direction", "csv", "--u", "u.csv"], "--u and --v"),
        ({}, ["sweep", "--parameter", "beta", "--values", "0.5,abc"], "--values"),
        ({}, ["sweep", "--parameter", "beta", "--values", " , "], "--values"),
    ],
    ids=["missing-config", "autoscale-zero-sources", "fibering-csv-no-files",
         "fibering-csv-no-v", "sweep-values-unparsable", "sweep-values-empty"],
)
def test_config_and_flag_errors_stop_before_any_work(
    tmp_path, monkeypatch, capsys, edit, argv, name
):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "c.json", **edit)
    if "--config" not in argv:
        argv = [argv[0], "--config", "c.json", *argv[1:]]
    calls = count_s4_estimates(monkeypatch)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert calls == [] and os.listdir(tmp_path) == ["c.json"]


def test_missing_direction_file_is_exit_2(config, tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    argv = ["fibering", "--config", config, "--direction", "csv", "--u", missing, "--v", missing]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.csv" in err


@pytest.mark.parametrize("name", ["bound_state.csv", "bound_state.json"])
def test_check_with_a_deleted_file_is_exit_2(config, tmp_path, capsys, name):
    # check verifies the pair, so it needs both reports and both states
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == EXIT_OK
    (out / name).unlink()
    capsys.readouterr()
    assert main(["check", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


# --- JSON inputs that are not UTF-8, not JSON or not valid name their file ---

_DROP = object()


def _invalid_edits(doc, schema, root, at=()):
    """(path, value) edits of doc that its schema rejects; the value _DROP deletes the key."""
    if "$ref" in schema:
        schema = root["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    if isinstance(doc, dict):
        edits = [(at + (key,), _DROP) for key in schema.get("required", [])]
        edits.append((at + ("unknown",), 1.0))  # every object of the config schema is closed
        for key, value in doc.items():
            edits += _invalid_edits(value, schema["properties"][key], root, at + (key,))
        return edits
    if isinstance(doc, list):
        return [e for i, v in enumerate(doc)
                for e in _invalid_edits(v, schema["items"], root, at + (i,))]
    if isinstance(doc, str):  # a number, or a kind outside the enum
        return [(at, 1.0)] + ([(at, "sine")] if "enum" in schema else [])
    wrong = [str(doc), True]  # a string or true for a number
    if isinstance(doc, int):
        wrong.append(float(doc))  # a float for an integer
    if "enum" in schema:
        wrong.append(max(schema["enum"]) + 1)
    return [(at, v) for v in wrong]


def _edited(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _main_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_config_that_is_not_valid_json_names_its_file(data):
    schema = load_schema("problem_config")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = readme_config(Path(tmp, "broken_config.json"))
        text = path.read_bytes()
        cfg = json.loads(text)
        path.write_bytes(data.draw(st.one_of(
            st.sampled_from(_invalid_edits(cfg, schema, schema)).map(
                lambda edit: json.dumps(_edited(cfg, *edit)).encode()
            ),
            st.integers(0, len(text) - 1).map(lambda k: text[:k]),  # cut before the last "}"
            st.integers(0x80, 0xFF).map(lambda b: bytes([b]) + text),  # not UTF-8
        )))
        calls = []
        mp.setattr(cli, "estimate_s4", lambda *args, **kwargs: calls.append(args))
        out = Path(tmp, "out")
        code, err = _main_stderr(["solve", "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1 and "broken_config.json" in err
        assert calls == [] and not out.exists()


@pytest.fixture(scope="module")
def solved_readme(tmp_path_factory):
    """The config and output directory of one solve of the README config at 1D 49."""
    tmp = tmp_path_factory.mktemp("solved")
    cfg, out = str(readme_config(tmp / "c.json")), tmp / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    return cfg, out


def test_checks_json_lists_every_check_in_order(solved_readme):
    # no check may appear or vanish unnoticed
    branch = ["state_nontrivial", "on_manifold", "branch_sign", "gradient_norm",
              "theta_matches_energy", "coercivity", "pde_residual", "weak_form",
              "positivity_flags"]
    doc = load_json(solved_readme[1] / "checks.json")
    names = {part: [c["name"] for c in cs] for part, cs in doc.items() if part != "all_passed"}
    assert names == {"ground_state": branch, "bound_state": branch,
                     "cross": ["theta_plus_negative", "theta_order"]}


def _broken_reports(text):
    doc = json.loads(text)
    return st.one_of(
        st.integers(0, len(text.rstrip()) - 1).map(lambda k: text[:k]),  # cut before the last "}"
        st.sampled_from(load_schema("solve_report")["required"]).map(
            lambda key: json.dumps(_edited(doc, (key,), _DROP))
        ),
        st.sampled_from([(), ("config",)]).map(
            lambda at: json.dumps(_edited(doc, at + ("unknown",), 1.0))
        ),
        st.just(json.dumps(_edited(doc, ("theta",), str(doc["theta"])))),
    )


@settings(max_examples=40, deadline=None)
@given(stem=st.sampled_from(["ground_state", "bound_state"]), data=st.data())
def test_check_names_a_saved_report_that_is_not_valid_json(solved_readme, stem, data):
    cfg, solved = solved_readme
    with tempfile.TemporaryDirectory() as tmp:
        out = shutil.copytree(solved, Path(tmp, "out"))
        path = out / f"{stem}.json"
        path.write_text(data.draw(_broken_reports(path.read_text())), encoding="utf-8")
        code, err = _main_stderr(["check", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{stem}.json" in err


# Python's json reads NaN, Infinity and -Infinity, 1e400 as inf and a long
# integer literal as an int that no float holds
_NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1" + "0" * 400]


@pytest.mark.parametrize("token", _NON_FINITE)
def test_check_names_a_saved_report_with_a_non_finite_number(solved_readme, tmp_path, token):
    cfg, solved = solved_readme
    out = shutil.copytree(solved, tmp_path / "out")
    path = out / "ground_state.json"
    text = path.read_text()
    theta = f'"theta": {json.dumps(json.loads(text)["theta"])},'
    assert text.count(theta) == 1
    path.write_text(text.replace(theta, f'"theta": {token},'))
    code, err = _main_stderr(["check", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert err == f"error: {path}: $.theta: non-finite number\n"


@pytest.mark.parametrize("token", _NON_FINITE)
@pytest.mark.parametrize(
    "old, new, at",
    [
        ('"lam1": 1.0', '"lam1": {}', "$.coefficients.lam1"),
        ('"center": [0.5]', '"center": [{}]', "$.sources.g.center[0]"),
        ('"grad_tol": 1e-08', '"grad_tol": {}', "$.solver.grad_tol"),
    ],
)
def test_a_config_with_a_non_finite_number_names_its_file_and_path(
    tmp_path, monkeypatch, capsys, token, old, new, at
):
    cfg = readme_config(tmp_path / "c.json")
    text = cfg.read_text()
    assert text.count(old) == 1
    cfg.write_text(text.replace(old, new.format(token)))
    calls = count_s4_estimates(monkeypatch)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {cfg}: {at}: non-finite number\n"
    assert calls == [] and not out.exists()
