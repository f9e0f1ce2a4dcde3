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
