import json
import math
import os

import numpy as np
import pytest

from nehari import cli, solver
from nehari.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_THRESHOLD,
    main,
)
from nehari.grid import Grid, field_to_csv, first_eigenvector
from nehari.reports import load_schema, validate
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


def read_json(path):
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
    checks = read_json(os.path.join(out, "checks.json"))
    assert checks["all_passed"]
    order = [c for c in checks["cross"] if c["name"] == "theta_order"][0]
    assert order["passed"]
    gs = read_json(os.path.join(out, "ground_state.json"))
    bs = read_json(os.path.join(out, "bound_state.json"))
    assert gs["theta"] < 0.0 < bs["theta"] - gs["theta"]
    assert gs["positive"] == [True, True] and bs["positive"] == [True, True]


def test_reports_validate_against_schemas(config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    for name, schema in (
        ("threshold.json", "threshold_report"),
        ("ground_state.json", "solve_report"),
        ("bound_state.json", "solve_report"),
        ("checks.json", "checks"),
    ):
        validate(read_json(os.path.join(out, name)), load_schema(schema))


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


def test_rho_requires_force_past_one(config, tmp_path):
    assert main(["solve", "--config", config, "--out", str(tmp_path / "o"), "--rho", "1.2"]) == EXIT_CONFIG


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
    rep = read_json(os.path.join(out, "threshold.json"))
    assert not rep["satisfied"]
    assert "--force" in capsys.readouterr().err


def test_autoscale_satisfies_threshold(config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["threshold", "--config", config, "--out", out]) == EXIT_OK
    rep = read_json(os.path.join(out, "threshold.json"))
    assert rep["satisfied"] is True
    assert max(rep["f_norm"], rep["g_norm"]) == pytest.approx(
        0.5 * rep["lambda_threshold"], rel=1e-12
    )


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
    rep = read_json(os.path.join(out, "checks.json"))
    assert rep["all_passed"]


def test_solve_2d_config(tmp_path):
    cfg = write_config(
        tmp_path / "2d.json",
        grid={"dim": 2, "extents": [1.0, 1.0], "points": [15, 15]},
    )
    out = str(tmp_path / "o")
    assert main(["solve", "--config", str(cfg), "--out", out]) == EXIT_OK
    header = open(os.path.join(out, "ground_state.csv")).readline().strip()
    assert header == "i,j,x,y,u,v"
    assert read_json(os.path.join(out, "checks.json"))["all_passed"]


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
    lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
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
    lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[1] == "true" for r in rows)


def test_sweep_rejects_invalid_value_before_running(config, tmp_path):
    out = str(tmp_path / "sw")
    assert main(
        ["sweep", "--config", config, "--out", out, "--parameter", "beta",
         "--values", "0.5,-1.5"]
    ) == EXIT_CONFIG
    assert not os.path.exists(os.path.join(out, "sweep.csv"))


def test_branch_seeds_config(tmp_path):
    cfg = write_config(tmp_path / "seeds.json", branch_seeds=[0, 1])
    out = str(tmp_path / "o")
    assert main(["solve", "--config", str(cfg), "--out", out]) == EXIT_OK
    gs = read_json(os.path.join(out, "ground_state.json"))
    assert gs["seed_disagreement"] is False


def test_check_subcommand_roundtrip(config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    assert main(["check", "--config", config, "--out", out]) == EXIT_OK


def test_check_detects_tampering(config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["solve", "--config", config, "--out", out]) == EXIT_OK
    path = os.path.join(out, "ground_state.csv")
    lines = open(path).read().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "%.17g" % (float(cells[-1]) + 0.05)
    cells[-2] = "%.17g" % (float(cells[-2]) + 0.05)
    lines[1] = ",".join(cells)
    open(path, "w").write("\n".join(lines) + "\n")
    assert main(["check", "--config", config, "--out", out]) == 5


def _truncate_first_row(path):
    lines = open(path).read().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    open(path, "w").write("\n".join(lines) + "\n")


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
    lines = open(path).read().splitlines()
    lines[1] += ",9"
    open(path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--config", config, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("lam2, factors", [(1.0, 1), (2.0, 2)])
def test_solve_factors_shifted_laplacian_once_per_problem(tmp_path, monkeypatch, lam2, factors):
    # both branches, both seeds and both positivity rescales share one factor per lam
    cfg = write_config(
        tmp_path / "c.json",
        grid={"dim": 2, "extents": [1.0, 1.0], "points": [15, 15]},
        coefficients={"lam1": 1.0, "lam2": lam2, "mu1": 1.0, "mu2": 1.0, "beta": 0.5},
        branch_seeds=[0, 1],
    )
    splu = solver.spla.splu
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", counted)
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


def test_sweep_estimates_s4_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.json", grid={"dim": 1, "extents": [1.0], "points": [31]})
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate_s4(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_s4", counted)
    assert main(
        ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
         "--parameter", "beta", "--values", "0.25,0.5,0.75"]
    ) == EXIT_OK
    assert len(calls) == 1
