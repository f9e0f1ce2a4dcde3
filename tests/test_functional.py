import math

import numpy as np
import pytest

from nehari.fibering import NoSuchBranch, retract, N_MINUS, N_PLUS
from nehari.functional import (
    Params,
    branch_indicator,
    energy,
    gradient,
    nehari_constraint,
    quartic_interaction,
    source_pairing,
)
from nehari.grid import (
    Field,
    Pair,
    Grid,
    integrate,
    l4_norm4,
    l43_norm,
    pair_norm_sq,
    zero_field,
)

from conftest import build_problem, random_pair


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
    assert quartic_interaction(zero_pair(grid_1d), zero_params) == 0.0
    u = Field(grid_1d, rng.standard_normal(grid_1d.size))
    p = Pair(u, zero_field(grid_1d))
    assert quartic_interaction(p, zero_params) == pytest.approx(
        zero_params.mu1 * l4_norm4(u), rel=1e-14
    )


def test_quartic_near_floor_equality_case(grid_1d, rng):
    # mu1 = mu2 = 1 and v = u hits the equality case of the lower bound:
    # A = 0.2 * |u|_4^2 * |v|_4^2 at beta = -1 + 0.1
    z = zero_field(grid_1d)
    params = Params(1.0, 1.0, 1.0, 1.0, -0.9, z, z)
    u = Field(grid_1d, rng.standard_normal(grid_1d.size))
    p = Pair(u, u)
    a = quartic_interaction(p, params)
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
        a = quartic_interaction(p, params)
        bound = floor_coef * math.sqrt(l4_norm4(p.u)) * math.sqrt(l4_norm4(p.v))
        assert a >= bound - 1e-12
        assert a > 0.0


def test_source_pairing(grid_1d, rng):
    g = Grid(1, (1.0,), (99,))
    ones = Field(g, np.ones(g.size))
    params = Params(1.0, 1.0, 1.0, 1.0, 0.5, ones, ones)
    assert source_pairing(zero_pair(g), params) == 0.0
    p = Pair(ones, ones)
    assert source_pairing(p, params) == pytest.approx(1.98, rel=1e-14)
    q = random_pair(g, rng)
    assert source_pairing(q.scaled(5.0), params) == pytest.approx(
        5.0 * source_pairing(q, params), rel=1e-13
    )


def test_energy_zero_state(zero_params):
    e = energy(zero_pair(zero_params.grid), zero_params)
    assert e.total == 0.0 and e.quadratic == 0.0 and e.quartic == 0.0 and e.source == 0.0


def test_energy_breakdown_identity(grid_1d, zero_params, rng):
    p = random_pair(grid_1d, rng)
    e = energy(p, zero_params)
    assert e.total == e.quadratic - e.quartic - e.source


def test_energy_on_manifold_no_sources(grid_1d, zero_params, rng):
    # with B = 0, any retracted state has J = ||p||^2 / 4
    p = retract(random_pair(grid_1d, rng), zero_params, N_MINUS)
    e = energy(p, zero_params)
    assert e.total == pytest.approx(0.25 * pair_norm_sq(p, zero_params), rel=1e-10)


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
    assert energy(p, params).total == pytest.approx(expected, rel=1e-12)


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
        fd = (energy(plus, params).total - energy(minus, params).total) / (2.0 * eps)
        assert pairing == pytest.approx(fd, rel=1e-5)


def test_nehari_constraint(grid_1d, zero_params, rng):
    assert nehari_constraint(zero_pair(grid_1d), zero_params) == 0.0
    p = random_pair(grid_1d, rng)
    nsq = pair_norm_sq(p, zero_params)
    a = quartic_interaction(p, zero_params)
    t_star = math.sqrt(nsq / a)
    scaled = p.scaled(t_star)
    phi = nehari_constraint(scaled, zero_params)
    assert abs(phi) <= 1e-10 * pair_norm_sq(scaled, zero_params)


def test_constraint_equals_gradient_pairing(grid_1d, rng):
    f = Field(grid_1d, rng.standard_normal(grid_1d.size))
    g = Field(grid_1d, rng.standard_normal(grid_1d.size))
    params = Params(0.8, 1.4, 1.0, 2.0, 0.3, f, g)
    for _ in range(10):
        p = random_pair(grid_1d, rng)
        gr = gradient(p, params)
        pairing = float(gr.u.values @ p.u.values + gr.v.values @ p.v.values)
        phi = nehari_constraint(p, params)
        scale = pair_norm_sq(p, params) + abs(phi)
        assert abs(pairing - phi) <= 1e-12 * scale


def test_branch_indicator_zero_state(grid_1d, zero_params):
    assert branch_indicator(zero_pair(grid_1d), zero_params) == 0.0


def test_branch_indicator_on_manifold_identity(rng):
    # on the manifold the indicator reduces to ||p||^2 - 3A
    grid, params, _s4, _rep = build_problem(n=49)
    for _ in range(20):
        direction = random_pair(grid, rng)
        p = retract(direction, params, N_MINUS)
        lhs = branch_indicator(p, params)
        rhs = pair_norm_sq(p, params) - 3.0 * quartic_interaction(p, params)
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
            assert abs(nehari_constraint(p, params)) <= 1e-10 * pair_norm_sq(p, params)
            j = energy(p, params).total
            b = source_pairing(p, params)
            rhs = 0.25 * pair_norm_sq(p, params) - 0.75 * b
            assert abs(j - rhs) <= 1e-8 * (1.0 + abs(j))


def test_coercivity_bound_on_manifold(rng):
    grid, params, s4, _rep = build_problem(n=49)
    coef = 0.75 * math.sqrt(2.0) * s4 * max(l43_norm(params.f), l43_norm(params.g))
    for _ in range(50):
        p = retract(random_pair(grid, rng), params, N_MINUS)
        j = energy(p, params).total
        norm = math.sqrt(pair_norm_sq(p, params))
        assert j >= 0.25 * norm**2 - coef * norm - 1e-9 * (1.0 + abs(j))


def test_homogeneity(grid_1d, rng):
    f = Field(grid_1d, rng.standard_normal(grid_1d.size))
    g = Field(grid_1d, rng.standard_normal(grid_1d.size))
    params = Params(1.0, 1.0, 1.0, 1.0, 0.5, f, g)
    p = random_pair(grid_1d, rng)
    for t in (0.3, 2.0, 7.5):
        assert quartic_interaction(p.scaled(t), params) == pytest.approx(
            t**4 * quartic_interaction(p, params), rel=1e-12
        )
        assert source_pairing(p.scaled(t), params) == pytest.approx(
            t * source_pairing(p, params), rel=1e-12
        )
        assert pair_norm_sq(p.scaled(t), params) == pytest.approx(
            t**2 * pair_norm_sq(p, params), rel=1e-12
        )
