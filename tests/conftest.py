"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the dense
Laplacian is assembled as an explicit matrix, fibering roots are found by a
sign-change scan plus bisection, and expected integrals come from closed
forms or brute-force summation.
"""

import math
import sys

import numpy as np
import pytest

from nehari import grid as grid_module
from nehari.functional import Params
from nehari.grid import Field, Grid, Pair, first_eigenvector, l43_norm, zero_field
from nehari.threshold import compute_threshold, estimate_s4

# --- dense stencil oracle ----------------------------------------------------


def dense_neg_laplacian(grid: Grid) -> np.ndarray:
    """-Delta as an explicit dense matrix on the flattened interior nodes."""
    mats = []
    for n, h in zip(grid.points, grid.spacing):
        m = np.zeros((n, n))
        np.fill_diagonal(m, 2.0 / h**2)
        idx = np.arange(n - 1)
        m[idx, idx + 1] = -1.0 / h**2
        m[idx + 1, idx] = -1.0 / h**2
        mats.append(m)
    if grid.dim == 1:
        return mats[0]
    eye0 = np.eye(grid.points[0])
    eye1 = np.eye(grid.points[1])
    return np.kron(mats[0], eye1) + np.kron(eye0, mats[1])


def count_stencil_calls(monkeypatch) -> list:
    """Count laplacian_matvec calls through every nehari module that binds it."""
    original = grid_module.laplacian_matvec
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("nehari") and getattr(module, "laplacian_matvec", None) is original:
            monkeypatch.setattr(module, "laplacian_matvec", counted)
    return calls


# --- fibering root oracle ----------------------------------------------------


def _bisect(fn, lo, hi, iters=100):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_roots(norm_sq: float, a: float, b: float, num: int = 20_001):
    """Positive roots of norm_sq*t - a*t^3 - b by dense sign-change scan.

    The scan is split at the turning point, where the cubic's two simple
    roots must straddle, so no grid resolution can merge them into one cell.
    Returns [(t, "N+"/"N-")] sorted by t.
    """

    def q(t):
        return norm_sq * t - a * t**3 - b

    t_turn = math.sqrt(norm_sq / (3.0 * a))
    upper = math.sqrt(norm_sq / a) + (abs(b) / a) ** (1.0 / 3.0) + 1.0
    found = []
    for lo, hi, cls in ((0.0, t_turn, "N+"), (t_turn, upper, "N-")):
        ts = np.linspace(lo, hi, max(num // 2, 3))
        qs = norm_sq * ts - a * ts**3 - b
        crossings = np.nonzero(qs[:-1] * qs[1:] < 0.0)[0]
        for i in crossings:
            found.append((_bisect(q, float(ts[i]), float(ts[i + 1])), cls))
        exact = np.nonzero(qs == 0.0)[0]
        for i in exact:
            t = float(ts[i])
            if t > 0.0 and all(abs(t - r) > 1e-12 for r, _ in found):
                found.append((t, cls))
    return sorted(found)


# --- problem builders ----------------------------------------------------------

def build_problem(
    n: int = 199,
    beta: float = 0.5,
    rho: float = 0.5,
    lam: float = 1.0,
    mu: float = 1.0,
    dim: int = 1,
    seed: int = 0,
):
    """Symmetric reference problem: eigen-shaped sources autoscaled to rho.

    Returns (grid, params, s4, threshold_report).
    """
    if dim == 1:
        grid = Grid(1, (1.0,), (n,))
    else:
        grid = Grid(2, (1.0, 1.0), (n, n))
    s4 = estimate_s4(grid, lam, seed=seed)
    e = first_eigenvector(grid)
    zero = zero_field(grid)
    probe = Params(lam, lam, mu, mu, beta, zero, zero)
    lam_threshold = compute_threshold(probe, grid, s4).lambda_threshold
    eps = rho * lam_threshold / l43_norm(e)
    f = e.scaled(eps)
    params = Params(lam, lam, mu, mu, beta, f, f)
    return grid, params, s4, compute_threshold(params, grid, s4)


def random_pair(grid: Grid, rng: np.random.Generator, scale: float = 1.0) -> Pair:
    return Pair(
        Field(grid, scale * rng.standard_normal(grid.size)),
        Field(grid, scale * rng.standard_normal(grid.size)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid_1d():
    return Grid(1, (1.0,), (49,))


@pytest.fixture
def grid_2d():
    return Grid(2, (1.0, 1.5), (9, 7))


@pytest.fixture
def zero_params(grid_1d):
    z = zero_field(grid_1d)
    return Params(1.0, 1.0, 1.0, 1.0, 0.5, z, z)
