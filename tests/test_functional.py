import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nehari.fibering import NoSuchBranch, analyze_direction, retract, N_MINUS, N_PLUS
from nehari.functional import Params, energy, gradient
from nehari.grid import (
    Field,
    Pair,
    Grid,
    integrate,
    l4_norm4,
    l43_norm,
    zero_field,
)

from nehari.solver import SolverConfig, minimize

from conftest import build_problem, random_pair, ray


def zero_pair(grid):
    return Pair(zero_field(grid), zero_field(grid))


def test_params_validation(grid_1d):
    z = zero_field(grid_1d)
    with pytest.raises(ValueError):
        Params(0.0, 1.0, 1.0, 1.0, 0.5, z, z)
    with pytest.raises(ValueError):
        Params(1.0, 1.0, -1.0, 1.0, 0.5, z, z)
    with pytest.raises(ValueError):
        Params(1.0, 1.0, 1.0, 1.0, -1.0, z, z)  # exactly the floor
    Params(1.0, 1.0, 1.0, 1.0, -0.999, z, z)
    other = Grid(1, (1.0,), (50,))
    with pytest.raises(ValueError):
        Params(1.0, 1.0, 1.0, 1.0, 0.5, z, zero_field(other))


def test_quartic_zero_and_single_component(grid_1d, zero_params, rng):
    assert ray(zero_pair(grid_1d), zero_params).quartic == 0.0
    u = Field(grid_1d, rng.standard_normal(grid_1d.size))
    p = Pair(u, zero_field(grid_1d))
    assert ray(p, zero_params).quartic == pytest.approx(
        zero_params.mu1 * l4_norm4(u), rel=1e-14
    )


def test_quartic_near_floor_equality_case(grid_1d, rng):
    # mu1 = mu2 = 1 and v = u hits the equality case of the lower bound:
    # A = 0.2 * |u|_4^2 * |v|_4^2 at beta = -1 + 0.1
    z = zero_field(grid_1d)
    params = Params(1.0, 1.0, 1.0, 1.0, -0.9, z, z)
    u = Field(grid_1d, rng.standard_normal(grid_1d.size))
    p = Pair(u, u)
    a = ray(p, params).quartic
    assert a == pytest.approx(0.2 * l4_norm4(u) ** 0.5 * l4_norm4(u) ** 0.5, rel=1e-12)
    assert a > 0.0
    # direct summation cross-check
    vol = grid_1d.cell_volume
    direct = (
        (u.values**4).sum() * vol
        + (u.values**4).sum() * vol
        + 2.0 * (-0.9) * (u.values**2 * u.values**2).sum() * vol
    )
    assert a == pytest.approx(direct, rel=1e-12)


def test_quartic_remark_lower_bound(grid_1d, rng):
    # A >= 2*(sqrt(mu1*mu2) - |beta|) * |u|_4^2 * |v|_4^2 for negative beta
    z = zero_field(grid_1d)
    params = Params(1.0, 1.0, 2.0, 0.5, -0.6, z, z)
    floor_coef = 2.0 * (math.sqrt(2.0 * 0.5) - 0.6)
    for _ in range(50):
        p = random_pair(grid_1d, rng)
        a = ray(p, params).quartic
        bound = floor_coef * math.sqrt(l4_norm4(p.u)) * math.sqrt(l4_norm4(p.v))
        assert a >= bound - 1e-12
        assert a > 0.0


def test_source_pairing(grid_1d, rng):
    g = Grid(1, (1.0,), (99,))
    ones = Field(g, np.ones(g.size))
    params = Params(1.0, 1.0, 1.0, 1.0, 0.5, ones, ones)
    assert ray(zero_pair(g), params).source == 0.0
    p = Pair(ones, ones)
    assert ray(p, params).source == pytest.approx(1.98, rel=1e-14)
    q = random_pair(g, rng)
    assert ray(q.scaled(5.0), params).source == pytest.approx(
        5.0 * ray(q, params).source, rel=1e-13
    )


def test_energy_zero_state(zero_params):
    p = zero_pair(zero_params.grid)
    rd = ray(p, zero_params)
    assert energy(p, zero_params) == 0.0
    assert rd.norm_sq == 0.0 and rd.quartic == 0.0 and rd.source == 0.0


def test_energy_breakdown_identity(grid_1d, zero_params, rng):
    p = random_pair(grid_1d, rng)
    rd = ray(p, zero_params)
    assert energy(p, zero_params) == 0.5 * rd.norm_sq - 0.25 * rd.quartic - rd.source


def test_energy_on_manifold_no_sources(grid_1d, zero_params, rng):
    # with B = 0, any retracted state has J = ||p||^2 / 4
    p = retract(random_pair(grid_1d, rng), zero_params, N_MINUS)
    e = energy(p, zero_params)
    assert e == pytest.approx(0.25 * ray(p, zero_params).norm_sq, rel=1e-10)


def test_energy_matches_independent_quadrature(grid_1d, rng):
    # oracle: term-by-term re-summation with raw numpy
    f = Field(grid_1d, rng.standard_normal(grid_1d.size))
    g = Field(grid_1d, rng.standard_normal(grid_1d.size))
    params = Params(1.3, 0.7, 2.0, 1.1, -0.4, f, g)
    p = random_pair(grid_1d, rng)
    vol = grid_1d.cell_volume
    from nehari.grid import laplacian_matvec

    u, v = p.u.values, p.v.values
    quad = 0.5 * (
        (u * laplacian_matvec(grid_1d, u)).sum() * vol
        + 1.3 * (u**2).sum() * vol
        + (v * laplacian_matvec(grid_1d, v)).sum() * vol
        + 0.7 * (v**2).sum() * vol
    )
    quart = 0.25 * (
        2.0 * (u**4).sum() * vol
        + 1.1 * (v**4).sum() * vol
        + 2.0 * (-0.4) * (u**2 * v**2).sum() * vol
    )
    src = (f.values * u).sum() * vol + (g.values * v).sum() * vol
    expected = quad - quart - src
    assert energy(p, params) == pytest.approx(expected, rel=1e-12)
    # each part on its own: N, A and B of the evaluator
    rd = ray(p, params)
    assert 0.5 * rd.norm_sq == pytest.approx(quad, rel=1e-12)
    assert 0.25 * rd.quartic == pytest.approx(quart, rel=1e-12)
    assert rd.source == pytest.approx(src, rel=1e-12)


def test_gradient_at_zero_state(grid_1d, rng):
    f = Field(grid_1d, rng.standard_normal(grid_1d.size))
    g = Field(grid_1d, rng.standard_normal(grid_1d.size))
    params = Params(1.0, 1.0, 1.0, 1.0, 0.5, f, g)
    gr = gradient(zero_pair(grid_1d), params)
    vol = grid_1d.cell_volume
    assert np.allclose(gr.u.values, -vol * f.values, rtol=0, atol=1e-18)
    assert np.allclose(gr.v.values, -vol * g.values, rtol=0, atol=1e-18)


def test_gradient_matches_finite_differences(grid_1d, rng):
    # oracle: central differences of the energy
    f = Field(grid_1d, rng.standard_normal(grid_1d.size))
    g = Field(grid_1d, rng.standard_normal(grid_1d.size))
    params = Params(1.0, 2.0, 1.5, 1.0, -0.3, f, g)
    eps = 1e-6
    for _ in range(10):
        p = random_pair(grid_1d, rng)
        q = random_pair(grid_1d, rng)
        gr = gradient(p, params)
        pairing = float(gr.u.values @ q.u.values + gr.v.values @ q.v.values)
        plus = Pair(
            Field(grid_1d, p.u.values + eps * q.u.values),
            Field(grid_1d, p.v.values + eps * q.v.values),
        )
        minus = Pair(
            Field(grid_1d, p.u.values - eps * q.u.values),
            Field(grid_1d, p.v.values - eps * q.v.values),
        )
        fd = (energy(plus, params) - energy(minus, params)) / (2.0 * eps)
        assert pairing == pytest.approx(fd, rel=1e-5)


def test_nehari_constraint(grid_1d, zero_params, rng):
    assert ray(zero_pair(grid_1d), zero_params).constraint == 0.0
    p = random_pair(grid_1d, rng)
    rd = ray(p, zero_params)
    nsq, a = rd.norm_sq, rd.quartic
    t_star = math.sqrt(nsq / a)
    scaled = p.scaled(t_star)
    phi = ray(scaled, zero_params).constraint
    assert abs(phi) <= 1e-10 * ray(scaled, zero_params).norm_sq


def test_constraint_equals_gradient_pairing(grid_1d, rng):
    f = Field(grid_1d, rng.standard_normal(grid_1d.size))
    g = Field(grid_1d, rng.standard_normal(grid_1d.size))
    params = Params(0.8, 1.4, 1.0, 2.0, 0.3, f, g)
    for _ in range(10):
        p = random_pair(grid_1d, rng)
        gr = gradient(p, params)
        pairing = float(gr.u.values @ p.u.values + gr.v.values @ p.v.values)
        rd = ray(p, params)
        phi = rd.constraint
        scale = rd.norm_sq + abs(phi)
        assert abs(pairing - phi) <= 1e-12 * scale


def test_branch_indicator_zero_state(grid_1d, zero_params):
    assert ray(zero_pair(grid_1d), zero_params).indicator == 0.0


def test_branch_indicator_on_manifold_identity(rng):
    # on the manifold the indicator reduces to ||p||^2 - 3A
    grid, params, _s4, _rep = build_problem(n=49)
    for _ in range(20):
        direction = random_pair(grid, rng)
        p = retract(direction, params, N_MINUS)
        rd = ray(p, params)
        lhs = rd.indicator
        rhs = rd.norm_sq - 3.0 * rd.quartic
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_energy_identity_on_manifold(rng):
    # J = ||p||^2/4 - 3B/4 whenever the constraint holds
    grid, params, _s4, _rep = build_problem(n=49)
    for _ in range(50):
        direction = random_pair(grid, rng)
        for branch in (N_PLUS, N_MINUS):
            try:
                p = retract(direction, params, branch)
            except NoSuchBranch:
                p = retract(direction.scaled(-1.0), params, branch)
            rd = ray(p, params)
            assert abs(rd.constraint) <= 1e-10 * rd.norm_sq
            j = energy(p, params)
            rhs = 0.25 * rd.norm_sq - 0.75 * rd.source
            assert abs(j - rhs) <= 1e-8 * (1.0 + abs(j))


def test_coercivity_bound_on_manifold(rng):
    grid, params, s4, _rep = build_problem(n=49)
    coef = 0.75 * math.sqrt(2.0) * s4 * max(l43_norm(params.f), l43_norm(params.g))
    for _ in range(50):
        p = retract(random_pair(grid, rng), params, N_MINUS)
        j = energy(p, params)
        norm = math.sqrt(ray(p, params).norm_sq)
        assert j >= 0.25 * norm**2 - coef * norm - 1e-9 * (1.0 + abs(j))


def test_homogeneity(grid_1d, rng):
    f = Field(grid_1d, rng.standard_normal(grid_1d.size))
    g = Field(grid_1d, rng.standard_normal(grid_1d.size))
    params = Params(1.0, 1.0, 1.0, 1.0, 0.5, f, g)
    p = random_pair(grid_1d, rng)
    for t in (0.3, 2.0, 7.5):
        assert ray(p.scaled(t), params).quartic == pytest.approx(
            t**4 * ray(p, params).quartic, rel=1e-12
        )
        assert ray(p.scaled(t), params).source == pytest.approx(
            t * ray(p, params).source, rel=1e-12
        )
        assert ray(p.scaled(t), params).norm_sq == pytest.approx(
            t**2 * ray(p, params).norm_sq, rel=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((1, 2)),
    beta=st.floats(-0.9, 1.5),
    log_scale=st.floats(-2.0, 2.0),
)
def test_every_functional_is_the_evaluators_value(seed, dim, beta, log_scale):
    # bit for bit, so a second formula for any of them cannot creep back
    grid = Grid(1, (1.0,), (31,)) if dim == 1 else Grid(2, (1.0, 1.5), (7, 9))
    rng = np.random.default_rng(seed)
    f, g = (Field(grid, rng.standard_normal(grid.size)) for _ in range(2))
    params = Params(1.3, 0.7, 2.0, 1.1, beta, f, g)
    p = random_pair(grid, rng, scale=10.0**log_scale)
    rd = ray(p, params)
    assert energy(p, params) == rd.energy
    gr = gradient(p, params)
    assert np.array_equal(gr.u.values, rd.gradient[0])
    assert np.array_equal(gr.v.values, rd.gradient[1])
    ana = analyze_direction(p, params)
    assert (ana.norm_sq, ana.quartic, ana.source) == (rd.norm_sq, rd.quartic, rd.source)
    rep = minimize(N_MINUS, params, grid, SolverConfig(max_iters=2), init=p)
    final = ray(rep.state, params)
    assert rep.theta == final.energy
    assert rep.classification_value == final.indicator
    assert rep.grad_norm == final.grad_norm
    assert rep.nehari_residual == final.nehari_residual
