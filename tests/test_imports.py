import importlib
import os
import subprocess
import sys

import pytest

import nehari


@pytest.mark.parametrize(
    "module",
    ["nehari.grid", "nehari.functional", "nehari.fibering", "nehari.threshold", "nehari.reports"],
)
def test_library_modules_load_neither_the_solver_nor_scipy(module):
    # the package root imports no submodule, so a library module pulls in
    # only what it imports itself; a fresh interpreter shows what that is
    src = os.path.dirname(os.path.dirname(nehari.__file__))
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in ('nehari.solver', 'scipy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
