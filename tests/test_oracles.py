"""Oracles that do not come from the solver.

Exchange: swapping f with g, lam1 with lam2 and mu1 with mu2 swaps the
states and keeps theta on both branches.  Mesh order: the stencil is second
order, so on nested grids (2n + 1 points per axis for n) successive theta
differences shrink by four.  Neither test reads a pinned number.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nehari.cli import resolve_problem
from nehari.fibering import N_MINUS, N_PLUS
from nehari.solver import minimize

BETAS = tuple(-0.5 + 0.125 * i for i in range(13))


def readme_problem(dim, points, beta=0.5, lam=(1.0, 1.0), mu=(1.0, 1.0), swap=False):
    """The README config on a dim-dimensional grid of points per axis, or its exchange."""
    sources = [{"kind": "eigen", "amplitude": 1.0},
               {"kind": "gaussian", "center": [0.5] * dim, "width": 0.1, "amplitude": 1.0}]
    order = slice(None, None, -1 if swap else 1)
    (lam1, lam2), (mu1, mu2), (f, g) = lam[order], mu[order], sources[order]
    cfg = {
        "grid": {"dim": dim, "extents": [1.0] * dim, "points": [points] * dim},
        "coefficients": {"lam1": lam1, "lam2": lam2, "mu1": mu1, "mu2": mu2, "beta": beta},
        "sources": {"f": f, "g": g, "autoscale": {"rho": 0.5}},
    }
    return resolve_problem(cfg).params


def thetas(params):
    return {b: minimize(b, params, params.grid).theta for b in (N_PLUS, N_MINUS)}


@settings(max_examples=20, deadline=None)
@given(
    shape=st.sampled_from(((1, 49), (2, 15))),
    beta=st.sampled_from(BETAS),
    lam_mu=st.sampled_from(((1.0, 1.0), (2.0, 1.5), (0.5, 3.0))),
)
def test_exchanging_the_components_swaps_the_states_and_keeps_theta(shape, beta, lam_mu):
    lam2, mu2 = lam_mu
    problems = [readme_problem(*shape, beta, (1.0, lam2), (1.0, mu2), swap=s) for s in (False, True)]
    for branch in (N_PLUS, N_MINUS):
        rep, swapped = (minimize(branch, params, params.grid) for params in problems)
        assert rep.converged and swapped.converged
        assert abs(swapped.theta - rep.theta) <= 1e-12 * abs(rep.theta)
        state = np.stack((rep.state.u.values, rep.state.v.values))
        back = np.stack((swapped.state.v.values, swapped.state.u.values))
        assert np.abs(back - state).max() <= 1e-12 * np.abs(state).max()


@pytest.mark.parametrize("beta", [-0.5, 0.5, 1.0])
@pytest.mark.parametrize("dim, ladder", [(1, (49, 99, 199, 399)), (2, (15, 31, 63))])
def test_theta_converges_at_second_order_on_nested_grids(dim, ladder, beta):
    runs = [thetas(readme_problem(dim, n, beta)) for n in ladder]
    for branch in (N_PLUS, N_MINUS):
        diffs = [fine[branch] - coarse[branch] for coarse, fine in zip(runs, runs[1:])]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert 3.5 <= coarse / fine <= 4.5, (branch, diffs)
