"""The verification checks folded into the stop rule, kept here as oracles.

verify_solution no longer runs ground_energy_negative, bound_state_norm_floor,
energy_identity or norm_bounds.  Each predicate below is one of them as it
read, and each test asserts that wherever it fails, a kept check that implies
it fails too.  With c = N - A - B, on_manifold bounds |c| by 1e-10 N:

- ground_energy_negative: J = -N/2 + 3A/4 + c and the branch indicator is
  N - 3A + c, so a positive indicator gives J < -N/4 + 5c/4 < 0 for N > 0.
- bound_state_norm_floor: ||p|| > N/sqrt(3A) is 3A > N, and a negative
  indicator gives 3A > N + c; the two differ only in the band
  N + c < 3A <= N, within |c| of the fold.
- energy_identity: J - (N/4 - 3B/4) = c/4, so on_manifold implies it
  wherever N <= 400 (1 + |J|).
- norm_bounds: the extremes of a descent's iterates include its final state.

The states are directions between the sources and white noise, retracted
onto either branch, scaled by 1 + delta or 1 - delta (delta 0 or
log-uniform in [1e-13, 1e-5]) and checked as a state of either branch.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nehari.fibering import N_MINUS, N_PLUS, NoSuchBranch, retract
from nehari.grid import Field, Pair
from nehari.solver import BranchVanished, SolveReport, SolverConfig, minimize, verify_solution

from conftest import LATTICE_BETAS, build_readme_problem, ray


def ground_energy_negative(rd):
    return rd.energy < 0.0 and math.isfinite(rd.energy)


def bound_state_norm_floor(rd):
    nsq, a = rd.norm_sq, rd.quartic
    tau = nsq / math.sqrt(3.0 * a) if a > 0 else None
    return (tau is not None and nsq < 3.0 * a and math.sqrt(nsq) > tau * (1.0 - 1e-12)
            and math.isfinite(nsq) and math.isfinite(a))


def energy_identity(rd):
    res = abs(rd.energy - (0.25 * rd.norm_sq - 0.75 * rd.source))
    return res <= 1e-8 * (1.0 + abs(rd.energy)) and math.isfinite(res)


def norm_bounds(norm_min, norm, norm_max):
    slack = 1e-12 * (1.0 + norm)
    return (0.0 < norm_min <= norm + slack and norm <= norm_max + slack
            and all(map(math.isfinite, (norm_min, norm, norm_max))))


_SHAPES = st.sampled_from(((1, 49), (2, 15)))
_BRANCHES = st.sampled_from((N_PLUS, N_MINUS))


@st.composite
def directions(draw):
    """(problem, direction): a mix of the sources and seeded white noise, as a Pair."""
    problem = build_readme_problem(*draw(_SHAPES), draw(st.sampled_from(LATTICE_BETAS)))
    params = problem.params
    src = np.stack((params.f.values, params.g.values))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(src.shape)
    mix = draw(st.floats(0.0, 1.0))
    d = (1.0 - mix) * src / np.linalg.norm(src) + mix * noise / np.linalg.norm(noise)
    return problem, Pair(Field(params.grid, d[0]), Field(params.grid, d[1]))


@st.composite
def checked_states(draw):
    """(rd, checks, claimed branch) of a retracted, rescaled state checked as either branch."""
    problem, d = draw(directions())
    params = problem.params
    if ray(d, params).source < 0:
        d = d.scaled(-1.0)  # the N+ root needs a positive source pairing
    try:
        p = retract(d, params, draw(_BRANCHES))
    except NoSuchBranch:
        assume(False)
    delta = draw(st.just(0.0) | st.floats(-13.0, -5.0).map(lambda x: 10.0**x))
    p = p.scaled(1.0 + draw(st.sampled_from((1.0, -1.0))) * delta)
    rd = ray(p, params)
    branch = draw(_BRANCHES)
    rep = SolveReport(
        branch=branch, state=p, theta=rd.energy, grad_norm=rd.grad_norm,
        nehari_residual=rd.nehari_residual, classification_value=rd.indicator,
        pde_residual=0.0, pde_scale=0.0, positive=(True, True), iterations=0,
        converged=False, config=SolverConfig(),
    )
    checks = {c.name: c.passed for c in verify_solution(rep, params, s4=problem.threshold.s4)}
    return rd, checks, branch


@settings(max_examples=150, deadline=None)
@given(state=checked_states())
def test_a_ground_state_that_passes_its_stop_rule_has_negative_energy(state):
    rd, checks, branch = state
    if branch == N_PLUS and not ground_energy_negative(rd):
        assert not (checks["state_nontrivial"] and checks["on_manifold"] and checks["branch_sign"])


@settings(max_examples=150, deadline=None)
@given(state=checked_states())
def test_a_bound_state_that_passes_its_stop_rule_clears_its_norm_floor(state):
    rd, checks, branch = state
    near_fold = abs(rd.norm_sq - 3.0 * rd.quartic) <= 1e-10 * rd.norm_sq
    if branch == N_MINUS and not bound_state_norm_floor(rd) and not near_fold:
        assert not (checks["on_manifold"] and checks["branch_sign"])


@settings(max_examples=150, deadline=None)
@given(state=checked_states())
def test_a_state_on_the_manifold_meets_the_energy_identity(state):
    rd, checks, _branch = state
    if not energy_identity(rd) and rd.norm_sq <= 400.0 * (1.0 + abs(rd.energy)):
        assert not checks["on_manifold"]


@settings(max_examples=30, deadline=None)
@given(start=directions(), branch=_BRANCHES, max_iters=st.integers(1, 40))
def test_a_descent_state_lies_within_its_iterates_norm_bounds(start, branch, max_iters):
    problem, d = start
    params = problem.params
    try:
        rep = minimize(branch, params, params.grid, SolverConfig(max_iters=max_iters), init=d)
    except BranchVanished:
        assume(False)
    norms = [row[1] for row in rep.history]
    if not norm_bounds(min(norms), math.sqrt(ray(rep.state, params).norm_sq), max(norms)):
        checks = {c.name: c.passed for c in verify_solution(rep, params, s4=problem.threshold.s4)}
        assert not checks["state_nontrivial"]
