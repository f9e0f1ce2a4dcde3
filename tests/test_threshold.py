import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nehari import threshold
from nehari.fibering import N_ZERO, analyze_direction
from nehari.functional import Params
from nehari.grid import (
    Field,
    Grid,
    Pair,
    first_eigenvector,
    l4_norm4,
    l43_norm,
    laplacian_matvec,
    weighted_norm_sq,
    zero_field,
)
from nehari.threshold import compute_threshold, estimate_s4

from conftest import build_problem, count_stencil_calls, random_pair, ray


def check_source_bound(p, params):
    """Whether B(p) < 2/3 * sqrt(1/(3*A(p))) for a unit-norm pair.

    When the threshold report is satisfied this must hold for every unit
    direction, which the tests below probe.
    """
    rd = ray(p, params)
    if abs(math.sqrt(rd.norm_sq) - 1.0) > 1e-10:
        raise ValueError("check_source_bound expects a unit-norm pair")
    return rd.source < (2.0 / 3.0) * math.sqrt(1.0 / (3.0 * rd.quartic))


def ratio(grid, vals, lam):
    w = Field(grid, vals)
    return l4_norm4(w) ** 0.25 / math.sqrt(weighted_norm_sq(w.grid, w.values, lam))


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_estimate_s4_needs_a_positive_lam(lam):
    with pytest.raises(ValueError, match=f"lam must be positive, got {lam}"):
        estimate_s4(Grid(1, (1.0,), (9,)), lam)


def test_s4_dominates_trial_function():
    g = Grid(1, (1.0,), (99,))
    s4 = estimate_s4(g, 1.0)
    (x,) = g.node_coords()
    assert s4 >= ratio(g, x * (1.0 - x), 1.0)
    assert s4 >= ratio(g, np.sin(math.pi * x), 1.0)


def test_s4_monotone_in_lambda():
    g = Grid(1, (1.0,), (99,))
    assert estimate_s4(g, 1.0) >= estimate_s4(g, 10.0)


def test_s4_stable_across_seeds_and_refinement():
    g = Grid(1, (1.0,), (199,))
    a = estimate_s4(g, 1.0, seed=0)
    b = estimate_s4(g, 1.0, seed=1)
    assert b == pytest.approx(a, rel=1e-3)  # 3 significant digits
    fine = estimate_s4(Grid(1, (1.0,), (399,)), 1.0, seed=0)
    assert fine == pytest.approx(a, rel=0.02)


def test_s4_deterministic():
    g = Grid(1, (1.0,), (99,))
    assert estimate_s4(g, 1.0, seed=0) == estimate_s4(g, 1.0, seed=0)


def test_s4_warns_on_iteration_cap(monkeypatch):
    g = Grid(1, (1.0,), (49,))
    monkeypatch.setattr(threshold, "_MAX_ASCENT_ITERS", 2)
    with pytest.warns(RuntimeWarning):
        val = estimate_s4(g, 1.0, seed=0)
    assert val > 0.0  # best-so-far is still returned


_PINNED = [
    # the pow-based ascent with the 1,000-probe white-noise guard
    (Grid(1, (1.0,), (199,)), 1.0, 0.33839493841794804),
    (Grid(2, (1.0, 1.0), (63, 63)), 1.0, 0.27868208723539084),
    # the benchmark grids, from the ascent with 8 white-noise restarts
    (Grid(2, (1.0, 1.0), (127, 127)), 1.0, 0.2786419586700857),
    (Grid(1, (1.0,), (799,)), 1.0, 0.3383912717843826),
    (Grid(2, (1.0, 1.0), (127, 127)), 25.0, 0.20039009856885753),
]


@pytest.mark.parametrize(
    "grid, lam, expected",
    _PINNED,
    ids=[f"grid{i}-{expected!r}" for i, (_, _, expected) in enumerate(_PINNED)],
)
def test_s4_pinned_values(grid, lam, expected):
    # Lambda must not move when the estimator gets cheaper.  rel 1e-12, not
    # equality: at 2D the last bits depend on the BLAS thread count
    assert estimate_s4(grid, lam, seed=0) == pytest.approx(expected, rel=1e-12)


# the two inputs where seeded smooth probes, since removed, beat the ascent:
# seed 17 took s4 to 7.957396 and seed 19 to 0.367055
_PROBE_WINS = [(Grid(1, (100.0,), (99,)), 1e-3), (Grid(1, (1.0,), (3,)), 1e-3)]


@pytest.mark.parametrize("grid, lam", _PROBE_WINS, ids=["1d99-box100", "1d3"])
def test_s4_is_the_eigenvector_ascent_for_every_seed(grid, lam):
    eigen = threshold._ascend(grid, lam, first_eigenvector(grid).values)[0]
    assert [estimate_s4(grid, lam, seed=seed) for seed in range(32)] == [eigen] * 32


def test_ascent_applies_the_stencil_only_on_accepted_steps(monkeypatch):
    # a trial step is scalar arithmetic, and only the eigenvector start is
    # ascended; one estimate at 31^2 made 785 applications with a stencil
    # per trial, 209 with 8 more ascents from white noise and 23 with the
    # smooth-probe guard
    calls = count_stencil_calls(monkeypatch)
    estimate_s4(Grid(2, (1.0, 1.0), (31, 31)), 1.0, seed=0)
    assert 0 < len(calls) <= 10


@pytest.mark.parametrize("seed", [0, 17])
def test_one_ascent_from_the_eigenvector_for_any_seed(monkeypatch, seed):
    starts = []
    ascend = threshold._ascend

    def counted(*args):
        starts.append(args[2])
        return ascend(*args)

    monkeypatch.setattr(threshold, "_ascend", counted)
    g = Grid(1, (1.0,), (49,))
    s4 = estimate_s4(g, 1.0, seed=seed)
    assert len(starts) == 1
    assert np.array_equal(starts[0], first_eigenvector(g).values)
    assert s4 == ascend(g, 1.0, starts[0])[0]


@settings(max_examples=100, deadline=None)
@given(
    points=st.one_of(st.tuples(st.integers(3, 49)), st.tuples(st.integers(3, 15), st.integers(3, 15))),
    log_extents=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    log_lam=st.floats(-4.0, 4.0),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
)
def test_the_ascent_never_ends_below_its_start(points, log_extents, log_lam, seeds):
    # what the probe guard rescued at run time: an ascent that ends below
    # where it began; and the estimate reads no seed
    dim = len(points)
    g = Grid(dim, tuple(10.0**x for x in log_extents[:dim]), points)
    lam = 10.0**log_lam
    starts = [first_eigenvector(g).values, np.random.default_rng(seeds[0]).standard_normal(g.size)]
    for start in starts:
        assert threshold._ascend(g, lam, start)[0] >= (1.0 - 1e-12) * ratio(g, start, lam)
    assert estimate_s4(g, lam, seed=seeds[0]) == estimate_s4(g, lam, seed=seeds[1])


@pytest.mark.parametrize("lam", [0.1, 25.0])
@pytest.mark.parametrize(
    "grid",
    [
        Grid(1, (1.0,), (49,)),
        Grid(1, (1.0,), (199,)),
        Grid(2, (1.0, 1.0), (15, 15)),
        Grid(2, (1.0, 1.0), (31, 31)),
        Grid(2, (1.0, 2.0), (15, 31)),
    ],
)
def test_white_noise_ascents_end_far_below_s4(grid, lam):
    # why estimate_s4 ascends from no white-noise start: the best of 8 such
    # ascents, drawn as restarts used to be, never comes near the estimate
    for seed in range(4):
        rng = np.random.default_rng(seed)
        noise = max(
            threshold._ascend(grid, lam, rng.standard_normal(grid.size))[0]
            for _ in range(8)
        )
        assert noise < 0.7 * estimate_s4(grid, lam, seed=seed), seed


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((1, 2)),
    lam=st.floats(0.1, 10.0),
    log_scale=st.floats(-2.0, 1.0),
    log_step=st.floats(-12.0, 2.0),
)
def test_ascent_line_ratio_matches_explicit_step(seed, dim, lam, log_scale, log_step):
    g = Grid(dim, (1.0,) * dim, (23,) * dim)
    rng = np.random.default_rng(seed)
    w = 10.0**log_scale * (rng.standard_normal(g.size) + rng.uniform(-1.0, 1.0))
    step = 10.0**log_step
    mass, norm, *_ = threshold._ascent_line(g, lam, w, laplacian_matvec(g, w))
    trial = w + step * (w * w * w)
    explicit = threshold._l4(trial, g.cell_volume) / math.sqrt(weighted_norm_sq(g, trial, lam))
    assert threshold._line_ratio(mass, norm, step) == pytest.approx(explicit, rel=1e-13)


def test_threshold_closed_form():
    # chain vs closed form at mu1 = mu2 = beta = 1
    g = Grid(1, (1.0,), (49,))
    z = zero_field(g)
    params = Params(1.0, 1.0, 1.0, 1.0, 1.0, z, z)
    s4 = 0.337  # any positive value; the identity is algebraic
    rep = compute_threshold(params, g, s4)
    closed = (2.0 / 3.0) * (3.0 * s4**4) ** (-0.5) / (math.sqrt(2.0) * s4)
    assert rep.lambda_threshold == pytest.approx(closed, rel=1e-15)
    assert rep.sup_A_bound == s4**4
    assert rep.alpha == pytest.approx((2.0 / 3.0) * math.sqrt(1.0 / (3.0 * s4**4)), rel=1e-15)


def test_compute_threshold_refuses_a_grid_that_is_not_the_sources():
    a, b = Grid(1, (1.0,), (49,)), Grid(1, (2.0,), (49,))
    e = first_eigenvector(a)
    with pytest.raises(ValueError, match="grid"):
        compute_threshold(Params(1.0, 1.0, 1.0, 1.0, 0.5, e, e), b, 0.34)


def test_threshold_beta_sign_switch():
    g = Grid(1, (1.0,), (49,))
    z = zero_field(g)
    s4 = 0.34
    pos = compute_threshold(Params(1.0, 1.0, 1.0, 1.0, 3.0, z, z), g, s4)
    neg = compute_threshold(Params(1.0, 1.0, 1.0, 1.0, -0.5, z, z), g, s4)
    assert pos.sup_A_bound == 3.0 * s4**4  # beta dominates when positive
    assert neg.sup_A_bound == 1.0 * s4**4  # cross term dropped when negative


@pytest.mark.parametrize("beta", [-0.99, -0.5, 0.0, 0.5, 1.0, 2.0])
def test_coupling_constant_equals_the_two_armed_reference(beta):
    # the reference drops a nonpositive beta, whose cross term is nonpositive
    g = Grid(1, (1.0,), (49,))
    z = zero_field(g)
    s4 = 0.34
    c = max(1.0, 2.0, beta) if beta > 0 else max(1.0, 2.0)
    sup_a = c * s4**4
    alpha = (2.0 / 3.0) * math.sqrt(1.0 / (3.0 * sup_a))
    rep = compute_threshold(Params(1.0, 1.0, 1.0, 2.0, beta, z, z), g, s4)
    assert (rep.sup_A_bound, rep.alpha, rep.lambda_threshold) == (
        sup_a, alpha, alpha / (math.sqrt(2.0) * s4)
    )


def test_threshold_zero_sources_are_degenerate():
    g = Grid(1, (1.0,), (49,))
    z = zero_field(g)
    rep = compute_threshold(Params(1.0, 1.0, 1.0, 1.0, 0.5, z, z), g, 0.34)
    assert rep.degenerate_sources
    assert not rep.satisfied
    # one zero component is enough to violate the hypothesis
    (x,) = g.node_coords()
    f = Field(g, np.sin(math.pi * x))
    rep = compute_threshold(Params(1.0, 1.0, 1.0, 1.0, 0.5, f, z), g, 0.34)
    assert rep.degenerate_sources and not rep.satisfied


def test_threshold_scaling_in_sources():
    g = Grid(1, (1.0,), (49,))
    (x,) = g.node_coords()
    f = Field(g, np.sin(math.pi * x))
    s4 = estimate_s4(g, 1.0)
    big = compute_threshold(Params(1.0, 1.0, 1.0, 1.0, 0.5, f.scaled(100.0), f.scaled(100.0)), g, s4)
    small = compute_threshold(Params(1.0, 1.0, 1.0, 1.0, 0.5, f.scaled(1e-3), f.scaled(1e-3)), g, s4)
    assert big.lambda_threshold == small.lambda_threshold  # bit-identical
    assert big.f_norm == pytest.approx(1e5 * small.f_norm, rel=1e-12)
    assert not big.satisfied
    assert small.satisfied


def test_lambda_depends_only_on_coefficients(rng):
    g = Grid(1, (1.0,), (49,))
    s4 = estimate_s4(g, 1.0)
    f1 = Field(g, rng.standard_normal(g.size))
    g1 = Field(g, rng.standard_normal(g.size))
    f2 = Field(g, rng.standard_normal(g.size))
    g2 = Field(g, rng.standard_normal(g.size))
    rep1 = compute_threshold(Params(1.0, 2.0, 1.5, 0.5, 0.7, f1, g1), g, s4)
    rep2 = compute_threshold(Params(1.0, 2.0, 1.5, 0.5, 0.7, f2, g2), g, s4)
    assert rep1.lambda_threshold == rep2.lambda_threshold
    assert rep1.alpha == rep2.alpha and rep1.sup_A_bound == rep2.sup_A_bound


def test_discrete_sobolev_inequality_on_random_fields():
    g = Grid(1, (1.0,), (99,))
    s4 = estimate_s4(g, 1.0)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        vals = rng.standard_normal(g.size)
        w = Field(g, vals)
        assert l4_norm4(w) ** 0.25 <= (1.0 + 1e-9) * s4 * math.sqrt(
            weighted_norm_sq(w.grid, w.values, 1.0)
        )


def test_source_bound_no_sources(grid_1d, zero_params, rng):
    p = random_pair(grid_1d, rng)
    unit = p.scaled(1.0 / math.sqrt(ray(p, zero_params).norm_sq))
    assert check_source_bound(unit, zero_params)


def test_source_bound_requires_unit_norm(grid_1d, zero_params, rng):
    with pytest.raises(ValueError):
        check_source_bound(random_pair(grid_1d, rng).scaled(3.0), zero_params)


def test_source_bound_under_smallness(rng):
    grid, params, _s4, rep = build_problem(n=99)
    assert rep.satisfied
    for _ in range(500):
        p = random_pair(grid, rng)
        unit = p.scaled(1.0 / math.sqrt(ray(p, params).norm_sq))
        assert check_source_bound(unit, params)


def test_source_bound_sharpness_past_threshold():
    # scale the sources up until the aligned direction violates the bound
    grid, params, s4, rep = build_problem(n=99, beta=1.0, rho=0.5)
    e = first_eigenvector(grid)
    aligned = Pair(e, e)
    unit = aligned.scaled(1.0 / math.sqrt(ray(aligned, params).norm_sq))
    violated = False
    scale = 1.0
    for _ in range(8):
        scale *= 2.0
        boosted = Params(
            params.lam1, params.lam2, params.mu1, params.mu2, params.beta,
            params.f.scaled(scale), params.g.scaled(scale),
        )
        boosted_rep = compute_threshold(boosted, grid, s4)
        if not check_source_bound(unit, boosted):
            assert not boosted_rep.satisfied
            violated = True
            break
    assert violated


def test_no_degenerate_roots_under_smallness(rng):
    grid, params, _s4, rep = build_problem(n=99)
    assert rep.satisfied
    for _ in range(500):
        p = random_pair(grid, rng)
        ana = analyze_direction(p, params)
        assert all(r.branch != N_ZERO for r in ana.roots)
        assert len(ana.roots) >= 1
