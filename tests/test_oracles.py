"""Oracles that do not come from the solver.

Exchange: swapping f with g, lam1 with lam2 and mu1 with mu2 swaps the
states and keeps theta on both branches.  Mesh order: the stencil is second
order, so on nested grids (2n + 1 points per axis for n) successive theta
differences shrink by four.  Two changes of units map the discrete problem
onto itself exactly.  Amplitude s: (s f, s g, mu/s^2, beta/s^2) scales the
states by s, theta by s^2, and Lambda and the source norms by s.  Box kappa:
the box kappa*L with every coefficient and source divided by kappa^2 keeps
the nodal states; theta scales by kappa^(dim - 2) and s4 by
kappa^(1 - dim/4).  Tested here are the parts that hold: the threshold's
amplitude scaling, and the 2D box scaling of s4 and of the solver.  The
solver's absolute stop breaks its amplitude and 1D box scaling, and the 1D
s4 estimate its box scaling.  No test reads a pinned number.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nehari.fibering import N_MINUS, N_PLUS
from nehari.functional import Params
from nehari.grid import Field, Grid
from nehari.solver import minimize
from nehari.threshold import compute_threshold, estimate_s4

from conftest import LATTICE_BETAS as BETAS
from conftest import build_readme_problem


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
    problems = [build_readme_problem(*shape, beta, (1.0, lam2), (1.0, mu2), swap=s).params
                for s in (False, True)]
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
    runs = [thetas(build_readme_problem(dim, n, beta).params) for n in ladder]
    for branch in (N_PLUS, N_MINUS):
        diffs = [fine[branch] - coarse[branch] for coarse, fine in zip(runs, runs[1:])]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert 3.5 <= coarse / fine <= 4.5, (branch, diffs)


_SHAPES = st.sampled_from(((1, 49), (2, 15)))


@settings(max_examples=30, deadline=None)
@given(shape=_SHAPES, beta=st.sampled_from(BETAS), log_s=st.floats(-3.0, 3.0),
       rho=st.sampled_from((0.5, 1.0, 3.0, 5.0)))
def test_the_threshold_scales_with_the_amplitude(shape, beta, log_s, rho):
    # rho scales the README sources (autoscaled to 0.5 of Lambda) away from the threshold
    problem = build_readme_problem(*shape, beta)
    s4, p = problem.threshold.s4, problem.params
    p = replace(p, f=p.f.scaled(rho), g=p.g.scaled(rho))
    s = 10.0**log_s
    scaled = replace(p, mu1=p.mu1 / s**2, mu2=p.mu2 / s**2, beta=p.beta / s**2,
                     f=p.f.scaled(s), g=p.g.scaled(s))
    want, got = (compute_threshold(q, p.grid, s4) for q in (p, scaled))
    for name in ("lambda_threshold", "f_norm", "g_norm"):
        assert math.isclose(getattr(got, name), s * getattr(want, name), rel_tol=1e-12), name
    assert got.satisfied == want.satisfied


@settings(max_examples=20, deadline=None)
@given(log_kappa=st.floats(-2.0, 2.0), lam=st.sampled_from((0.5, 1.0, 4.0)),
       seed=st.integers(0, 3))
def test_the_2d_s4_estimate_is_covariant_under_box_scaling(log_kappa, lam, seed):
    kappa = 10.0**log_kappa
    unit = estimate_s4(Grid(2, (1.0, 1.0), (15, 15)), lam, seed)
    box = estimate_s4(Grid(2, (kappa, kappa), (15, 15)), lam / kappa**2, seed)
    assert math.isclose(box, math.sqrt(kappa) * unit, rel_tol=1e-12)


@settings(max_examples=10, deadline=None)
@given(beta=st.sampled_from(BETAS), log_kappa=st.floats(-2.0, 2.0))
def test_the_2d_solver_is_covariant_under_box_scaling(beta, log_kappa):
    # in 2D theta scales by kappa^0: the same steps to the same energies
    p = build_readme_problem(2, 15, beta).params
    kappa = 10.0**log_kappa
    k2 = kappa**2
    grid = Grid(2, (kappa, kappa), p.grid.points)
    box = Params(p.lam1 / k2, p.lam2 / k2, p.mu1 / k2, p.mu2 / k2, p.beta / k2,
                 Field(grid, p.f.values / k2), Field(grid, p.g.values / k2))
    for branch in (N_PLUS, N_MINUS):
        want, got = minimize(branch, p, p.grid), minimize(branch, box, grid)
        assert got.iterations == want.iterations, branch
        assert math.isclose(got.theta, want.theta, rel_tol=1e-12), branch
