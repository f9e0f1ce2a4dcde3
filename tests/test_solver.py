import gc
import math
import operator
import re
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval as np_polyval

from nehari.fibering import N_MINUS, N_PLUS, N_ZERO, NoSuchBranch, retract
from nehari.functional import (
    Params,
    energy,
    evaluate,
    gradient,
    max_norm,
    polyval,
    residual_terms,
)
from nehari.grid import (
    Field,
    Grid,
    Pair,
    first_eigenvector,
    l43_norm,
    laplacian_matvec,
    sine_modes,
    zero_field,
)
from nehari.solver import (
    BranchVanished,
    SolverConfig,
    _line_polynomials,
    _line_trial,
    _riesz_solve,
    auto_init,
    minimize,
    pde_residual_scale,
    positivity_rescale,
    verify_solution,
    weak_form_residual,
)
from nehari.threshold import compute_threshold, estimate_s4

from nehari import solver

from conftest import (
    build_problem,
    count_stencil_calls,
    dense_neg_laplacian,
    random_pair,
    ray,
)


@pytest.fixture(scope="module")
def small_problem():
    return build_problem(n=99)


@pytest.fixture(scope="module")
def solved(small_problem):
    grid, params, s4, rep = small_problem
    plus = minimize(N_PLUS, params, grid)
    minus = minimize(N_MINUS, params, grid)
    return grid, params, s4, plus, minus


def test_both_branches_converge(solved):
    _grid, params, _s4, plus, minus = solved
    for rep in (plus, minus):
        assert rep.converged
        assert rep.grad_norm <= rep.config.grad_tol
        assert rep.nehari_residual <= solver._NEHARI_TOL
        assert rep.pde_residual <= 1e-6 * rep.pde_scale
    assert plus.classification_value > 0.0
    assert minus.classification_value < 0.0
    assert plus.theta < 0.0
    assert plus.theta < minus.theta


def test_symmetric_problem_gives_symmetric_states(solved):
    _grid, _params, _s4, plus, minus = solved
    for rep in (plus, minus):
        gap = np.abs(rep.state.u.values - rep.state.v.values).max()
        assert gap <= 1e-8 * np.abs(rep.state.u.values).max()


def test_energy_history_monotone(solved):
    # non-increasing within 1e-12 slack, read relative to the energy scale
    _grid, _params, _s4, plus, minus = solved
    for rep in (plus, minus):
        hist = np.array([row[0] for row in rep.history])
        assert np.all(np.diff(hist) <= 1e-12 * (1.0 + np.abs(hist[:-1])))


def test_branch_sign_along_iterates(solved):
    _grid, _params, _s4, plus, minus = solved
    assert all(row[3] > 0.0 for row in plus.history)
    assert all(row[3] < 0.0 for row in minus.history)


def test_manifold_identity_along_iterates(solved):
    # J = ||p||^2/4 - 3B/4 at every accepted retracted iterate
    _grid, _params, _s4, plus, minus = solved
    for rep in (plus, minus):
        for j, norm, b, _indicator in rep.history:
            assert abs(j - (0.25 * norm**2 - 0.75 * b)) <= 1e-8 * (1.0 + abs(j))


def test_norm_bounds_reported(solved):
    _grid, params, _s4, plus, minus = solved
    for rep in (plus, minus):
        norm = math.sqrt(ray(rep.state, params).norm_sq)
        assert 0.0 < rep.norm_min <= norm * (1.0 + 1e-12)
        assert norm <= rep.norm_max * (1.0 + 1e-12)


def test_bound_state_stays_away_from_origin(solved):
    _grid, params, _s4, _plus, minus = solved
    rd = ray(minus.state, params)
    nsq, a = rd.norm_sq, rd.quartic
    assert nsq < 3.0 * a
    assert minus.tau_bound is not None
    assert math.sqrt(nsq) > minus.tau_bound * (1.0 - 1e-12)
    assert min(row[1] for row in minus.history) > 0.0


def test_converged_gradient_below_tolerance(solved):
    grid, params, _s4, plus, _minus = solved
    g = gradient(plus.state, params)
    assert max(np.abs(g.u.values).max(), np.abs(g.v.values).max()) <= plus.config.grad_tol


def test_minimality_against_random_retractions(solved, rng):
    grid, params, _s4, plus, minus = solved
    for _ in range(50):
        p = random_pair(grid, rng)
        if ray(p, params).source <= 0:
            p = p.scaled(-1.0)
        assert plus.theta <= energy(retract(p, params, N_PLUS), params) + 1e-10
        assert minus.theta <= energy(retract(p, params, N_MINUS), params) + 1e-10


def test_positivity_rescale_fixed_point(solved):
    _grid, params, _s4, plus, _minus = solved
    again = positivity_rescale(plus, params)
    assert again.theta <= plus.theta + solver._NEHARI_TOL
    assert again.positive == (True, True)
    gap = np.abs(again.state.u.values - plus.state.u.values).max()
    assert gap <= 1e-6 * np.abs(plus.state.u.values).max()


def test_positivity_rescale_flipped_component(small_problem):
    grid, params, _s4, _rep = small_problem
    # converge, flip the sign of one component, retract back, re-run
    base = minimize(N_MINUS, params, grid)
    flipped = Pair(base.state.u, base.state.v.scaled(-1.0))
    start = retract(flipped, params, N_MINUS)
    rep = minimize(N_MINUS, params, grid, init=start)
    out = positivity_rescale(rep, params)
    assert out.positive == (True, True)
    assert out.theta <= rep.theta + solver._NEHARI_TOL


def test_positivity_rescale_requires_nonnegative_sources(solved, grid_1d):
    grid, params, _s4, plus, _minus = solved
    signed = Params(
        params.lam1, params.lam2, params.mu1, params.mu2, params.beta,
        params.f.scaled(-1.0), params.g,
    )
    with pytest.raises(ValueError):
        positivity_rescale(plus, signed)


def test_auto_init_source_direction(small_problem):
    _grid, params, _s4, _rep = small_problem
    init = auto_init(N_PLUS, params, seed=0)
    assert ray(init, params).source > 0.0
    assert ray(init, params).norm_sq == pytest.approx(1.0, rel=1e-12)


def test_auto_init_rejects_zero_sources(zero_params):
    with pytest.raises(ValueError):
        auto_init(N_PLUS, zero_params, seed=0)
    # the bound-state branch start always exists
    init = auto_init(N_MINUS, zero_params, seed=0)
    retract(init, zero_params, N_MINUS)


def _one_step(params):
    return minimize(N_MINUS, params, params.grid, SolverConfig(max_iters=1))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda p: SolverConfig(grad_tol=0.0), "grad_tol must be positive, got 0.0",
                 id="grad-tol-zero"),
    pytest.param(lambda p: SolverConfig(grad_tol=-1.0), "grad_tol must be positive, got -1.0",
                 id="grad-tol-negative"),
    pytest.param(lambda p: SolverConfig(grad_tol=math.nan), "grad_tol must be positive, got nan",
                 id="grad-tol-nan"),
    pytest.param(lambda p: auto_init(N_ZERO, p, seed=0), "branch must be 'N+' or 'N-', got 'N0'",
                 id="auto-init-branch"),
    pytest.param(lambda p: minimize(N_PLUS, p, Grid(1, (1.0,), (49,))),
                 "params sources do not live on the given grid", id="minimize-grid"),
    pytest.param(lambda p: positivity_rescale(_one_step(p), p),
                 "positivity rescale requires a converged report", id="rescale-unconverged"),
])
def test_library_guards_raise_value_error(small_problem, call, message):
    params = small_problem[1]  # nonnegative sources, so the rescale reaches its convergence guard
    with pytest.raises(ValueError, match=re.escape(message)):
        call(params)


def test_seeds_agree_on_bound_state_energy():
    grid, params, _s4, _rep = build_problem(n=199)
    a = minimize(N_MINUS, params, grid, SolverConfig(seed=0))
    b = minimize(N_MINUS, params, grid, SolverConfig(seed=1))
    assert a.converged and b.converged
    gap = np.abs(auto_init(N_MINUS, params, 0).u.values
                 - auto_init(N_MINUS, params, 1).u.values).max()
    assert gap > 0.0  # the starts genuinely differ
    assert b.theta == pytest.approx(a.theta, rel=1e-6)


def test_minimize_over_seeds_runs_nplus_once(small_problem, monkeypatch):
    # auto_init(N+) ignores the seed, so a second seed could not change the result
    _grid, params, _s4, _rep = small_problem
    real, calls = solver.minimize, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "minimize", counted)
    best, disagree = solver.minimize_over_seeds(N_PLUS, params, seeds=(0, 1, 2))
    assert len(calls) == 1
    assert best.config.seed == 0 and not disagree


def test_minimize_over_seeds_returns_best_without_disagreement(small_problem):
    from nehari.solver import minimize_over_seeds

    grid, params, _s4, _rep = small_problem
    best, disagree = minimize_over_seeds(N_MINUS, params, seeds=(0, 1))
    assert not disagree
    singles = [
        minimize(N_MINUS, params, grid, SolverConfig(seed=s)).theta for s in (0, 1)
    ]
    assert best.theta == min(singles)


def test_symmetry_breaking_lowers_bound_state_at_strong_repulsion():
    # near the coupling floor the symmetric bound state is a saddle; the
    # descent amplifies rounding-level asymmetry and lands strictly lower
    grid, params, s4, rep = build_problem(n=99, beta=-0.75)
    assert rep.satisfied
    out = minimize(N_MINUS, params, grid)
    assert out.converged
    gap = np.abs(out.state.u.values - out.state.v.values).max()
    assert gap > 0.1 * np.abs(out.state.u.values).max()
    checks = verify_solution(out, params, s4=s4)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_iteration_cap_reports_unconverged(small_problem):
    grid, params, _s4, _rep = small_problem
    rep = minimize(N_MINUS, params, grid, SolverConfig(max_iters=1, grad_tol=1e-14))
    assert not rep.converged
    assert rep.iterations == 1


def test_branch_vanished_past_threshold():
    # push the sources far past the threshold and aim for the ground branch
    grid, params, s4, rep = build_problem(n=99, beta=1.0, rho=1.2)
    assert not rep.satisfied
    with pytest.raises(BranchVanished):
        minimize(N_PLUS, params, grid)


def _collapsing_start():
    """A g = 0 problem whose start has v = 0: grid, params and init."""
    grid = Grid(1, (1.0,), (99,))
    e = first_eigenvector(grid)
    params = Params(1.0, 1.0, 1.0, 1.0, 0.1, e.scaled(0.5), zero_field(grid))
    return grid, params, Pair(e, zero_field(grid))


def test_a_vanishing_component_fails_only_state_nontrivial():
    # v = 0 stays 0 along the descent: the state is reported, converged, and
    # verification rejects it by the one check that names a vanishing component
    grid, params, init = _collapsing_start()
    rep = minimize(N_PLUS, params, grid, init=init)
    assert rep.converged and rep.iterations == 1
    assert not rep.state.v.values.any()
    checks = verify_solution(rep, params, s4=estimate_s4(grid, 1.0))
    assert [c.name for c in checks if not c.passed] == ["state_nontrivial"]


def test_a_vanishing_component_on_the_bound_branch_fails_only_state_nontrivial():
    # the N- descent from the same start takes several steps, none of which
    # revives v; the state is reported as it is, not kicked or refused
    grid, params, init = _collapsing_start()
    rep = minimize(N_MINUS, params, grid, init=init)
    assert rep.converged and rep.iterations > 1
    assert not rep.state.v.values.any() and rep.state.u.values.any()
    checks = verify_solution(rep, params, s4=estimate_s4(grid, 1.0))
    assert [c.name for c in checks if not c.passed] == ["state_nontrivial"]


@pytest.fixture(scope="module")
def problem_49():
    return build_problem(n=49)


def test_trial_steps_that_lose_the_root_are_shortened(problem_49, monkeypatch):
    # a trial that loses the branch root is halved like one that raises the
    # energy: losing eta = 1 and 0.5 on every step still converges
    grid, params, s4, _rep = problem_49
    real, lost = solver._line_trial, []

    def trial(branch, polys, eta):
        if eta > 0.3:
            lost.append(eta)
            raise NoSuchBranch(f"no {branch} root along this direction")
        return real(branch, polys, eta)

    monkeypatch.setattr(solver, "_line_trial", trial)
    for branch, steps in ((N_PLUS, 41), (N_MINUS, 83)):
        lost.clear()
        rep = minimize(branch, params, grid)
        assert rep.converged and rep.iterations == steps
        assert lost == [1.0, 0.5] * steps
        checks = verify_solution(rep, params, s4=s4)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_a_line_search_that_loses_every_root_is_branch_vanished(problem_49, monkeypatch):
    grid, params, _s4, _rep = problem_49

    def trial(branch, polys, eta):
        raise NoSuchBranch(f"no {branch} root along this direction")

    monkeypatch.setattr(solver, "_line_trial", trial)
    with pytest.raises(BranchVanished, match=r"every trial step lost the N\+ root"):
        minimize(N_PLUS, params, grid)


@pytest.mark.parametrize("branch", [N_PLUS, N_MINUS])
def test_positivity_rescale_reminimizes_a_sign_flipped_state(problem_49, branch):
    # |(-u, v)| is the converged state itself, so the re-minimisation takes no step
    grid, params, s4, _rep = problem_49
    rep = minimize(branch, params, grid)
    flipped = replace(rep, state=Pair(rep.state.u.scaled(-1.0), rep.state.v))
    out = positivity_rescale(flipped, params)
    assert out is not flipped
    assert out.converged and out.iterations == 0 and out.positive == (True, True)
    assert out.theta == pytest.approx(rep.theta, rel=1e-12)
    checks = verify_solution(out, params, s4=s4)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_small_2d_solve():
    grid, params, _s4, rep = build_problem(n=15, dim=2)
    assert rep.satisfied
    out = minimize(N_PLUS, params, grid)
    assert out.converged
    assert out.theta < 0.0
    gap = np.abs(out.state.u.values - out.state.v.values).max()
    assert gap <= 1e-8 * np.abs(out.state.u.values).max()


def test_factor_memo_does_not_keep_its_problem_alive():
    grid, params, _s4, _rep = build_problem(n=31)
    minimize(N_PLUS, params, grid)
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None


def test_verify_solution_all_pass(solved):
    _grid, params, s4, plus, minus = solved
    for rep in (plus, minus):
        checks = verify_solution(rep, params, s4=s4)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_verify_solution_rejects_zero_state(solved):
    grid, params, s4, plus, _minus = solved
    zero_state = Pair(zero_field(grid), zero_field(grid))
    fake = replace(plus, state=zero_state)
    checks = {c.name: c.passed for c in verify_solution(fake, params, s4=s4)}
    assert not checks["state_nontrivial"]
    assert not checks["branch_sign"]


def test_verify_solution_refuses_a_state_on_another_grid(solved):
    # same node count, twice the extent: the checks would compare unlike quadratures
    grid, params, s4, plus, _minus = solved
    other = Grid(1, (2.0,), grid.points)
    moved = replace(params, f=Field(other, params.f.values), g=Field(other, params.g.values))
    with pytest.raises(ValueError, match="grid"):
        verify_solution(plus, moved, s4=s4)


def test_verify_solution_detects_perturbation(solved, rng):
    grid, params, s4, plus, _minus = solved
    noisy = Pair(
        Field(grid, plus.state.u.values + 1e-3 * rng.standard_normal(grid.size)),
        Field(grid, plus.state.v.values + 1e-3 * rng.standard_normal(grid.size)),
    )
    fake = replace(plus, state=noisy)
    checks = {c.name: c.passed for c in verify_solution(fake, params, s4=s4)}
    assert not checks["weak_form"]


def test_verify_solution_applies_the_stencil_twice_per_component(solved, monkeypatch):
    # every check but the s4 estimate follows from one evaluation of the state
    # and, for pde_residual and weak_form, one stack of its terms
    _grid, params, s4, plus, _minus = solved
    calls = count_stencil_calls(monkeypatch)
    checks = verify_solution(plus, params, s4=s4)
    assert all(c.passed for c in checks)
    assert len(calls) == 4


def test_a_state_whose_terms_overflow_fails_the_checks_that_read_them():
    # u = 0 and v = 1e160 at one node are finite, so a Field and a state CSV
    # take them; -beta*u*v^2 is then 0*inf = NaN and the norm is inf
    grid, params, s4, _rep = build_problem(n=49)
    rep = minimize(N_PLUS, params, grid)
    u, v = rep.state.u.values.copy(), rep.state.v.values.copy()
    u[7], v[7] = 0.0, 1e160
    bad = replace(rep, state=Pair(Field(grid, u), Field(grid, v)))
    with np.errstate(over="ignore", invalid="ignore"):
        checks = {c.name: c for c in verify_solution(bad, params, s4=s4)}
    for name in ("weak_form", "norm_bounds", "pde_residual"):
        assert not checks[name].passed, checks[name].detail


@pytest.mark.parametrize("field, value, name", [("norm_sq", math.nan, "on_manifold"),
                                                 ("quartic", math.inf, "branch_sign")])
def test_a_stop_check_fails_on_a_non_finite_number_it_reads(solved, field, value, name):
    # a NaN N once read as a zero constraint residual, and an infinite A as
    # an indicator of the N- sign
    _grid, params, _s4, _plus, minus = solved
    rd = evaluate(params, minus.state.u.values, minus.state.v.values)
    for data, passed in ((rd, True), (rd._replace(**{field: value}), False)):
        checks = {c.name: c.passed for c in solver._stop_checks(data, minus.config, N_MINUS)}
        assert checks[name] is passed


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    points=st.one_of(st.tuples(st.integers(3, 12)),
                     st.tuples(st.integers(3, 6), st.integers(3, 6))),
    component=st.sampled_from((0, 1)),
    at=st.integers(0, 2**16),
)
def test_a_nan_in_either_component_reaches_every_reduction(seed, points, component, at):
    grid = Grid(len(points), (1.0,) * len(points), points)
    e = first_eigenvector(grid)
    params = Params(1.0, 1.0, 1.0, 1.0, 0.5, e, e.scaled(0.5))
    state = np.random.default_rng(seed).standard_normal((2, grid.size))
    state[component, at % grid.size] = math.nan
    u, v = state
    terms = residual_terms(params, u, v)
    assert math.isnan(max_norm(u, v)) and math.isnan(max_norm(v, u))
    res, scale = pde_residual_scale(evaluate(params, u, v), terms)
    assert math.isnan(res) and math.isnan(scale)
    assert math.isnan(weak_form_residual(terms, seed=0))


def test_descent_applies_the_stencil_once_per_component_per_step(monkeypatch):
    # trials come from the line polynomials; only accepted points see the stencil
    grid, params, _s4, _rep = build_problem(n=15, dim=2)
    calls = count_stencil_calls(monkeypatch)
    out = minimize(N_MINUS, params, grid)
    assert out.converged and out.iterations > 10
    assert len(calls) <= 2 * out.iterations + 20


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((1, 2)),
    beta=st.floats(-0.9, 1.5),
    log_eta=st.floats(-4.0, 0.3),
)
def test_line_polynomials_match_explicit_retraction(seed, dim, beta, log_eta):
    # N, A, B and the trial energy along p - eta*d, against retract and energy
    # on the explicit Pair.  Each is compared relative to the size of its
    # terms, the scale at which the polynomial evaluation rounds.
    grid = Grid(1, (1.0,), (15,)) if dim == 1 else Grid(2, (1.0, 1.5), (5, 7))
    rng = np.random.default_rng(seed)
    e = first_eigenvector(grid).values
    f, g = (Field(grid, rng.uniform(0.0, 3.0) * e) for _ in range(2))
    params = Params(1.0, 2.5, 1.0, 1.5, beta, f, g)
    u, v = (rng.uniform(0.1, 10.0) * e * (1.0 + 0.3 * rng.standard_normal(grid.size))
            for _ in range(2))
    rd = evaluate(params, u, v)
    du, dv = _riesz_solve(params)(residual_terms(params, u, v).sum(axis=1))
    polys, _slope = _line_polynomials(rd, du, dv, params)
    eta = 10.0**log_eta
    q = Pair(Field(grid, u - eta * du), Field(grid, v - eta * dv))
    rd_q = ray(q, params)
    direct = (rd_q.norm_sq, rd_q.quartic, rd_q.source)
    scale_n, scale_a, scale_b = (np_polyval(eta, np.abs(c)) for c in polys)
    for coefs, want, scale in zip(polys, direct, (scale_n, scale_a, scale_b)):
        assert abs(np_polyval(eta, coefs) - want) <= 1e-12 * scale
    for branch in (N_PLUS, N_MINUS):
        try:
            t, j = _line_trial(branch, polys, eta)
        except (NoSuchBranch, ValueError):
            with pytest.raises((NoSuchBranch, ValueError)):
                retract(q, params, branch)
            continue
        ref = energy(retract(q, params, branch), params)
        assert abs(j - ref) <= 1e-12 * (t * t * scale_n / 2 + t**4 * scale_a / 4 + t * scale_b)


def _numpy_line_polynomials(rd, du, dv, params):
    # the line polynomials as whole-array numpy: 36 dot products of the six
    # rows, then the antidiagonal sums as traces of the flipped matrix; the
    # eta coefficients of N and B pair d with (-lap + lam) w, the first two
    # stacked residual terms, and with the sources
    vol = rd.vol
    terms = residual_terms(params, rd.u, rd.v)
    ru, rv = (t.sum(axis=0) for t in terms)
    eu, ev = (t[:2].sum(axis=0) for t in terms)
    slope = float(vol * (ru @ du + rv @ dv))
    u, v = rd.u, rd.v
    rows = (u * u, -2.0 * u * du, du * du, v * v, -2.0 * v * dv, dv * dv)
    gram = np.array([[a @ b for b in rows] for a in rows])
    m = params.mu1 * gram[:3, :3] + params.mu2 * gram[3:, 3:] + 2.0 * params.beta * gram[:3, 3:]
    quartic = vol * np.array([np.fliplr(m).trace(2 - k) for k in range(5)])
    norm_sq = (rd.norm_sq, -2.0 * vol * (eu @ du + ev @ dv), slope)
    source = (rd.source, -vol * (params.f.values @ du + params.g.values @ dv))
    return (norm_sq, quartic, source), slope


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((1, 2)),
    beta=st.floats(-0.99, 2.0),
    mus=st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
    log_scales=st.tuples(st.floats(-8.0, 3.0), st.floats(-8.0, 3.0)),
    zero=st.sampled_from(("none", "du", "dv", "entries")),
)
def test_line_polynomials_equal_the_numpy_expression(seed, dim, beta, mus, log_scales, zero):
    # the float algebra on 21 dot products gives the whole-array expression's
    # bits, including the signs of zero coefficients
    grid = Grid(1, (1.0,), (31,)) if dim == 1 else Grid(2, (1.0, 1.5), (7, 9))
    rng = np.random.default_rng(seed)
    mu1, mu2 = mus
    beta = max(beta, -0.99 * math.sqrt(mu1 * mu2))
    f, g = (Field(grid, rng.uniform(0.0, 3.0) * rng.random(grid.size)) for _ in range(2))
    params = Params(1.0, 2.5, mu1, mu2, beta, f, g)
    rd = evaluate(params, *(rng.uniform(0.1, 10.0) * rng.standard_normal(grid.size)
                            for _ in range(2)))
    du, dv = (10.0**s * rng.standard_normal(grid.size) for s in log_scales)
    if zero == "du":
        du = np.zeros(grid.size)
    elif zero == "dv":
        dv = np.zeros(grid.size)
    elif zero == "entries":
        du[rng.random(grid.size) < 0.5] = 0.0
        dv[rng.random(grid.size) < 0.5] = -0.0
    got, got_slope = _line_polynomials(rd, du, dv, params)
    want, want_slope = _numpy_line_polynomials(rd, du, dv, params)
    assert _bits(got_slope) == _bits(want_slope)
    for g_c, w_c in zip(got, want):
        assert _bits(g_c) == _bits(w_c)


_COEF = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e-6, 1e-6, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(coefs=st.lists(_COEF, min_size=1, max_size=5), log_eta=st.floats(-12.0, 2.0))
def test_float_horner_equals_polyval(coefs, log_eta):
    eta = 10.0**log_eta
    want = _bits(np_polyval(eta, coefs))
    # floats in the descent's line search, an array in the s4 ascent's
    assert _bits(polyval(tuple(coefs), eta)) == want == _bits(polyval(np.array(coefs), eta))


def test_line_trial_evaluates_like_polyval(small_problem):
    # the trial on float Horner values equals the trial on polyval's values
    grid, params, _s4, _rep = small_problem
    p = auto_init(N_MINUS, params, 3)
    rd = evaluate(params, p.u.values, p.v.values)
    polys, _slope = _line_polynomials(rd, *_riesz_solve(params)(rd.residual), params)
    for eta in 2.0 ** -np.arange(0, 40, 3):
        n, a, b = (float(np_polyval(eta, c)) for c in polys)
        t = solver.branch_root(solver.analyze(n, a, b), N_MINUS)
        want = t * t * (0.5 * n - 0.25 * t * t * a) - t * b
        assert _line_trial(N_MINUS, polys, eta) == (t, want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((1, 2)),
    log_scale=st.floats(-150.0, 150.0),
)
def test_grad_norm_equals_the_max_norm_of_the_gradient(seed, dim, log_scale):
    grid = Grid(1, (2.0,), (41,)) if dim == 1 else Grid(2, (1.0, 0.3), (9, 13))
    rng = np.random.default_rng(seed)
    f, g = (Field(grid, rng.standard_normal(grid.size)) for _ in range(2))
    params = Params(1.5, 0.5, 1.0, 2.0, -0.5, f, g)
    rd = evaluate(params, *(10.0**(log_scale / 3) * rng.standard_normal(grid.size)
                            for _ in range(2)))
    assert _bits(rd.grad_norm) == _bits(max_norm(*rd.gradient))


@pytest.mark.parametrize("rows", [None, 1, 2])
def test_1d_solve_equals_the_identity_basis_path(monkeypatch, rows):
    # in 1D the line system is the whole problem: the solve is the factor's
    # own, bit for bit what products with the 1x1 identity basis give
    grid = Grid(1, (1.0,), (799,))
    splu, factors = scipy.sparse.linalg.splu, []

    def capture(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", capture)
    solve = solver._shift_solve(grid, 1.0)
    (lu,) = factors
    rng = np.random.default_rng(11)
    r = rng.standard_normal(grid.size if rows is None else (rows, grid.size))
    basis = np.eye(1)
    lines = r.reshape(-1, 1, grid.size)
    modes = lu.solve((basis @ lines).reshape(len(lines), -1).T).T
    want = (basis @ modes.reshape(lines.shape)).reshape(r.shape)
    got = solve(r)
    assert got.tobytes() == want.tobytes() and got.flags.c_contiguous


def test_weak_form_residual_matches_per_pair_reference(rng):
    grid, params, _s4, _rep = build_problem(n=15, dim=2)
    p = random_pair(grid, rng)
    u, v = p.u.values, p.v.values
    rd = evaluate(params, u, v)
    got = weak_form_residual(residual_terms(params, u, v), seed=7)

    # the stencil applied to every test function, one pair at a time
    draws = np.random.default_rng(7)
    vol = grid.cell_volume
    worst = 0.0
    for _ in range(20):
        tu = draws.standard_normal(grid.size)
        tv = draws.standard_normal(grid.size)
        pairings = [
            float((u * laplacian_matvec(grid, tu)).sum() * vol),
            params.lam1 * float((u * tu).sum() * vol),
            -params.mu1 * float((u**3 * tu).sum() * vol),
            -params.beta * float((u * v**2 * tu).sum() * vol),
            -float((params.f.values * tu).sum() * vol),
            float((v * laplacian_matvec(grid, tv)).sum() * vol),
            params.lam2 * float((v * tv).sum() * vol),
            -params.mu2 * float((v**3 * tv).sum() * vol),
            -params.beta * float((u**2 * v * tv).sum() * vol),
            -float((params.g.values * tv).sum() * vol),
        ]
        worst = max(worst, abs(sum(pairings)) / sum(abs(t) for t in pairings))
    assert worst > 1e-3  # a random state is far from solving the system
    assert got == pytest.approx(worst, rel=1e-12)


def _weak_form_reference(terms, seed):
    """Worst weak-form ratio with tu, then tv, drawn per pair from a fresh default_rng(seed)."""
    terms_u, terms_v = terms
    draws = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        tu = draws.standard_normal(terms_u.shape[1])
        tv = draws.standard_normal(terms_u.shape[1])
        pairings = np.concatenate((terms_u @ tu, terms_v @ tv))
        worst = max(worst, float(abs(pairings.sum()) / np.abs(pairings).sum()))
    return worst


def _random_terms(dim, n, rng):
    grid = Grid(dim, (1.0,) * dim, (n,) * dim)
    e = first_eigenvector(grid)
    p = random_pair(grid, rng)
    return residual_terms(Params(1.0, 1.0, 1.0, 1.0, 0.5, e, e.scaled(0.5)), p.u.values, p.v.values)


@pytest.mark.parametrize("dim, n", [(1, 799), (2, 15), (2, 127)])
def test_weak_form_test_pairs_are_drawn_once_with_the_same_bits(dim, n, rng):
    terms, other = _random_terms(dim, n, rng), _random_terms(dim, n + 2, rng)
    for seed in range(4):
        want = _weak_form_reference(terms, seed)
        solver._test_pairs.cache_clear()
        assert weak_form_residual(terms, seed) == want  # the first call draws
        # an odd node count puts every tv row 8 bytes off 16-byte alignment
        pairs = solver._test_pairs(seed, n**dim)
        assert {tv.ctypes.data % 16 for _tu, tv in pairs} == {8}
        assert weak_form_residual(terms, seed) == want  # a memo hit
        assert solver._test_pairs.cache_info().misses == 1
        # fills for another seed and for another node count in between
        weak_form_residual(terms, seed + 1)
        weak_form_residual(other, seed)
        assert weak_form_residual(terms, np.int64(seed)) == want


def test_weak_form_test_pairs_are_read_only():
    pairs = solver._test_pairs(0, 7)
    assert pairs.shape == (20, 2, 7) and not pairs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pairs[0, 0, 0] = 1.0


def _weak_form_per_pair(terms, seed):
    """weak_form_residual as one loop step per held test pair: the oracle of its bits."""
    terms_u, terms_v = terms
    worst = 0.0
    for tu, tv in solver._test_pairs(operator.index(seed), terms_u.shape[1]):
        pairings = np.concatenate((terms_u @ tu, terms_v @ tv))
        tscale = np.abs(pairings).sum()
        if tscale != 0:  # a NaN pairing makes tscale, and so the worst ratio, NaN
            worst = np.maximum(worst, abs(pairings.sum()) / tscale)
    return float(worst)


def _same(got, want) -> bool:
    # ratios are never -0.0, so == is bit equality for every finite result
    return got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("dim, n", [(1, 49), (2, 15), (1, 799), (2, 127)])
def test_weak_form_residual_equals_the_per_pair_loop(dim, n, rng):
    terms = _random_terms(dim, n, rng)
    for seed in range(3):
        got = weak_form_residual(terms, seed)
        assert got == _weak_form_per_pair(terms, seed) and got > 1e-3
    for component in (0, 1):
        bad = terms.copy()
        bad[component, 2, bad.shape[-1] // 3] = math.nan
        got = weak_form_residual(bad, 0)
        assert math.isnan(got) and _same(got, _weak_form_per_pair(bad, 0))


def test_weak_form_residual_skips_a_test_pair_whose_pairings_all_vanish(monkeypatch, rng):
    terms = _random_terms(2, 15, rng)
    pairs = np.random.default_rng(0).standard_normal((20, 2, terms.shape[-1]))
    pairs[5] = 0.0  # its ten pairings are zero: the ratio 0/0 is skipped
    monkeypatch.setattr(solver, "_test_pairs", lambda seed, size: pairs)
    got = weak_form_residual(terms, 0)
    assert got == _weak_form_per_pair(terms, 0) and 0.0 < got < math.inf
    # a NaN term pairs to NaN even with the zero pair, so it is not skipped
    for component in (0, 1):
        bad = terms.copy()
        bad[component, 0, 7] = math.nan
        assert math.isnan(weak_form_residual(bad, 0))
        assert _same(weak_form_residual(bad, 0), _weak_form_per_pair(bad, 0))
    pairs[:] = 0.0  # every pair skipped: the worst over none is 0
    assert weak_form_residual(terms, 0) == 0.0 == _weak_form_per_pair(terms, 0)


def test_verify_solution_needs_an_integer_seed(solved):
    # default_rng(None) draws fresh entropy, which the held test pairs would freeze
    _grid, params, s4, plus, _minus = solved
    for seed in (None, 1.0):
        with pytest.raises(TypeError):
            verify_solution(plus, params, s4=s4, seed=seed)
    assert verify_solution(plus, params, s4=s4, seed=np.int64(3)) == verify_solution(
        plus, params, s4=s4, seed=3
    )


def test_unequal_lams_solve_with_two_factors_and_verify():
    grid = Grid(2, (1.0, 1.0), (31, 31))
    s4 = estimate_s4(grid, 1.0)
    e = first_eigenvector(grid)
    probe = Params(1.0, 2.0, 1.0, 1.0, 0.5, e, e)
    eps = 0.5 * compute_threshold(probe, grid, s4).lambda_threshold / l43_norm(e)
    params = Params(1.0, 2.0, 1.0, 1.0, 0.5, e.scaled(eps), e.scaled(eps))
    # each row goes through the factor of its own lam
    r = np.random.default_rng(0).standard_normal((2, grid.size))
    for d, lam, row in zip(_riesz_solve(params)(r), (1.0, 2.0), r):
        assert np.array_equal(d, solver._shift_solve(grid, lam)(row))
    plus = minimize(N_PLUS, params, grid)
    minus = minimize(N_MINUS, params, grid)
    assert plus.theta < 0.0 and plus.theta < minus.theta
    for rep in (plus, minus):
        assert rep.converged
        checks = verify_solution(rep, params, s4=s4)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(st.integers(3, 40), min_size=1, max_size=2),
    extents=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=2),
    log_lam=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_shift_solve_inverts_the_shifted_stencil(points, extents, log_lam, seed):
    # normwise backward error against the dense operator, on square and
    # non-square grids; two rows at once match two single solves
    grid = Grid(len(points), tuple(extents[: len(points)]), tuple(points))
    lam = 10.0**log_lam
    op = dense_neg_laplacian(grid) + lam * np.eye(grid.size)
    solve = solver._shift_solve(grid, lam)
    r = np.random.default_rng(seed).standard_normal((2, grid.size))
    for x, row in zip(solve(r), r):
        resid = np.abs(op @ x - row).max()
        assert resid <= 1e-13 * np.abs(op).sum(axis=1).max() * np.abs(x).max()
        single = solve(row)
        assert np.abs(x - single).max() <= 1e-14 * np.abs(single).max()


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    log_lam=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_two_row_solve_equals_two_one_row_solves(dim, log_lam, seed):
    # to 1e-14 of the solution's size, on a 1D and a non-square 2D grid; every
    # returned row is contiguous
    grid = Grid(1, (1.0,), (31,)) if dim == 1 else Grid(2, (1.0, 1.5), (9, 13))
    solve = solver._shift_solve(grid, 10.0**log_lam)
    r = np.random.default_rng(seed).standard_normal((2, grid.size))
    both = solve(r)
    assert both.shape == r.shape and both.flags.c_contiguous
    for k in range(2):
        one = solve(r[k : k + 1])
        assert one.shape == (1, grid.size) and one.flags.c_contiguous
        assert np.abs(both[k] - one[0]).max() <= 1e-14 * np.abs(one).max()


def test_shift_factor_has_no_fill(monkeypatch):
    # a tridiagonal factor per line: L and U hold at most two entries a row
    grid = Grid(2, (1.0, 2.0), (31, 17))
    splu, factors = scipy.sparse.linalg.splu, []

    def capture(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", capture)
    solver._shift_solve(grid, 1.0)
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz <= 4 * grid.size


@settings(max_examples=60, deadline=None)
@given(
    points=st.tuples(st.integers(3, 70), st.integers(3, 20)),
    extents=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
    log_lam=st.floats(-3.0, 3.0),
    rows=st.sampled_from((None, 1, 2)),
    seed=st.integers(0, 2**32 - 1),
)
def test_folded_sine_solve_matches_the_dense_products(points, extents, log_lam, rows, seed):
    # odd and even leading-axis counts on non-square boxes: the folded solve
    # agrees with dense DST-I products around the same factor, whose lines
    # take the modes of odd number first, and inverts the shifted stencil
    grid, lam = Grid(2, extents, points), 10.0**log_lam
    splu, factors = scipy.sparse.linalg.splu, []

    def capture(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    with mock.patch.object(scipy.sparse.linalg, "splu", capture):
        solve = solver._shift_solve(grid, lam)
    (lu,) = factors
    r = np.random.default_rng(seed).standard_normal(
        grid.size if rows is None else (rows, grid.size))
    got = solve(r)
    assert got.shape == r.shape and got.flags.c_contiguous

    basis, _shift = sine_modes(grid, 0)
    order = np.r_[0 : points[0] : 2, 1 : points[0] : 2]  # the factor's line order
    lines = r.reshape(-1, *points)
    spec = (basis @ lines)[:, order]
    modes = np.empty_like(spec)
    modes[:, order] = lu.solve(spec.reshape(len(lines), -1).T).T.reshape(spec.shape)
    want = (basis @ modes).reshape(r.shape)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    # normwise backward error of the stencil, against its infinity norm
    op_norm = sum(4.0 / h**2 for h in grid.spacing) + lam
    for x, row in zip(got.reshape(-1, grid.size), r.reshape(-1, grid.size)):
        resid = np.abs(laplacian_matvec(grid, x) + lam * x - row).max()
        assert resid <= 1e-14 * op_norm * np.abs(x).max()
