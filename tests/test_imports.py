import importlib
import json
import os
import subprocess
import sys

import pytest

import nehari

# the README config at 1D 49
CONFIG = {
    "grid": {"dim": 1, "extents": [1.0], "points": [49]},
    "coefficients": {"lam1": 1.0, "lam2": 1.0, "mu1": 1.0, "mu2": 1.0, "beta": 0.5},
    "sources": {
        "f": {"kind": "eigen", "amplitude": 1.0},
        "g": {"kind": "gaussian", "center": [0.5], "width": 0.1, "amplitude": 1.0},
        "autoscale": {"rho": 0.5},
    },
    "solver": {"grad_tol": 1e-8},
    "seed": 0,
    "branch_seeds": [0],
}


def fresh(code, cwd=None) -> list[str]:
    """The lines code prints, run in a fresh interpreter that finds nehari."""
    src = os.path.dirname(os.path.dirname(nehari.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        cwd=cwd, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def loaded_by_import(module, names) -> list[str]:
    """Which of names are in sys.modules after a fresh interpreter imports module."""
    (line,) = fresh(f"import sys, {module}; print(*(m for m in {names!r} if m in sys.modules))")
    return line.split()


@pytest.mark.parametrize(
    "module",
    ["nehari.grid", "nehari.functional", "nehari.fibering", "nehari.threshold", "nehari.reports"],
)
def test_library_modules_load_neither_the_solver_nor_scipy(module):
    # the package root imports no submodule, so a library module pulls in
    # only what it imports itself; a fresh interpreter shows what that is
    assert loaded_by_import(module, ("nehari.solver", "scipy")) == []


@pytest.mark.parametrize("module", ["nehari.solver", "nehari.cli"])
def test_solver_and_cli_load_neither_scipy_nor_the_process_pool(module):
    # scipy is imported at the first factorisation, the pool by a parallel sweep
    assert loaded_by_import(module, ("scipy", "concurrent.futures.process")) == []


def run_main(argv, cwd) -> tuple[int, bool]:
    """cli.main(argv) in a fresh interpreter: its exit code, and whether scipy was loaded."""
    lines = fresh(
        f"import sys; from nehari.cli import main; code = main({argv!r}); "
        "print(code, 'scipy' in sys.modules)",
        cwd,
    )
    code, scipy = lines[-1].split()
    return int(code), scipy == "True"


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A directory with the config and the reports of a fresh solve process, and
    that process's exit code and whether it loaded scipy."""
    tmp = tmp_path_factory.mktemp("run")
    (tmp / "c.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    return tmp, run_main(["solve", "--config", "c.json", "--out", "out"], tmp)


def test_solve_loads_scipy(solved):
    # the deferral is real: the commands below leave scipy out because they never factor
    assert solved[1] == (0, True)


@pytest.mark.parametrize(
    "argv",
    [["threshold", "--config", "c.json"],
     ["fibering", "--config", "c.json", "--direction", "sources"],
     ["check", "--config", "c.json", "--out", "out"]],
    ids=lambda argv: argv[0],
)
def test_commands_that_never_factor_leave_scipy_unloaded(solved, argv):
    assert run_main(argv, solved[0]) == (0, False)


@pytest.mark.parametrize(
    "module",
    ["grid", "functional", "fibering", "threshold", "solver", "reports", "cli"],
)
def test_all_names_what_the_module_defines(module):
    # a library module's __all__ is its list of public names: each must exist,
    # so a star import works; cli declares none, so it needs only the import
    mod = importlib.import_module(f"nehari.{module}")
    names = getattr(mod, "__all__", ()) if module == "cli" else mod.__all__
    assert [name for name in names if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from nehari.{module} import *", namespace)
    assert set(names) <= set(namespace)
