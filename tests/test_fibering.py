import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nehari.fibering import (
    _TANGENT_WINDOW,
    N_MINUS,
    N_PLUS,
    N_ZERO,
    NoSuchBranch,
    analyze,
    analyze_direction,
    retract,
)
from nehari.functional import energy
from nehari.grid import Grid

from conftest import build_problem, random_pair, ray, scan_roots


def test_analyze_validates_inputs():
    with pytest.raises(ValueError):
        analyze(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        analyze(1.0, -1.0, 0.1)


def test_unit_cubic_no_source():
    ana = analyze(1.0, 1.0, 0.0)
    assert len(ana.roots) == 1
    root = ana.roots[0]
    assert root.branch == N_MINUS
    assert root.t == pytest.approx(1.0, rel=1e-14)
    assert ana.t_turn == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    assert ana.psi_max == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), rel=1e-15)


def test_unit_cubic_two_roots():
    # oracle: bisection on t - t^3 = 0.2 refined to 1e-12
    ana = analyze(1.0, 1.0, 0.2)
    assert [r.branch for r in ana.roots] == [N_PLUS, N_MINUS]
    t1, t2 = ana.roots[0].t, ana.roots[1].t
    assert 0.20 < t1 < 0.22
    assert 0.87 < t2 < 0.88
    expected = scan_roots(1.0, 1.0, 0.2, num=40_001)
    assert len(expected) == 2
    assert t1 == pytest.approx(expected[0][0], abs=1e-12)
    assert t2 == pytest.approx(expected[1][0], abs=1e-12)


def test_unit_cubic_tangency():
    b = 2.0 / (3.0 * math.sqrt(3.0))
    ana = analyze(1.0, 1.0, b)
    assert len(ana.roots) == 1
    assert ana.roots[0].branch == N_ZERO
    assert ana.roots[0].t == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)


def test_no_roots_past_tangency():
    assert analyze(1.0, 1.0, 0.5).roots == ()


def test_root_count_trichotomy_vs_scan_oracle():
    # dense 1e6-point sign-change scan on a modest batch
    rng = np.random.default_rng(7)
    for _ in range(60):
        norm_sq = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.1, 10.0)
        psi_max = (2.0 / 3.0) * norm_sq * math.sqrt(norm_sq / (3.0 * a))
        b = rng.uniform(-1.0, 1.5 * psi_max)
        ana = analyze(norm_sq, a, b)
        expected = scan_roots(norm_sq, a, b, num=1_000_000)
        assert len(ana.roots) == len(expected)
        for got, (t_ref, cls_ref) in zip(ana.roots, expected):
            assert got.branch == cls_ref
            assert got.t == pytest.approx(t_ref, rel=1e-9, abs=1e-11)
        # case analysis is exactly the B vs psi_max trichotomy
        if b <= 0:
            assert [r.branch for r in ana.roots] == [N_MINUS]
        elif b < psi_max:
            assert [r.branch for r in ana.roots] == [N_PLUS, N_MINUS]
        else:
            assert ana.roots == ()


def test_root_residual_tolerance():
    rng = np.random.default_rng(11)
    for _ in range(500):
        norm_sq = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.1, 10.0)
        psi_max = (2.0 / 3.0) * norm_sq * math.sqrt(norm_sq / (3.0 * a))
        b = rng.uniform(-1.0, 1.5 * psi_max)
        ana = analyze(norm_sq, a, b)
        for root in ana.roots:
            if root.branch == N_ZERO:
                continue
            q = norm_sq * root.t - a * root.t**3 - b
            assert abs(q) <= 1e-12 * (norm_sq + abs(b))


def test_roots_resolved_just_outside_tangency_window():
    # B within (1.1e-12 .. 1e-6) of psi_max in natural units: the two roots
    # are nearly merged but must still be found, classified and accurate
    rng = np.random.default_rng(17)
    for _ in range(200):
        norm_sq = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.1, 10.0)
        scale = norm_sq**1.5 / math.sqrt(a)
        psi_max = (2.0 / 3.0) * norm_sq * math.sqrt(norm_sq / (3.0 * a))
        gap = scale * 10.0 ** rng.uniform(-11.9, -6.0)
        for b in (psi_max - gap, psi_max + gap):
            ana = analyze(norm_sq, a, b)
            if b > psi_max:
                assert ana.roots == ()
                continue
            assert [r.branch for r in ana.roots] == [N_PLUS, N_MINUS]
            t1, t2 = ana.roots[0].t, ana.roots[1].t
            assert t1 < ana.t_turn < t2
            for t in (t1, t2):
                q = norm_sq * t - a * t**3 - b
                assert abs(q) <= 1e-12 * (norm_sq + abs(b))


def test_tangency_window_classifies_degenerate():
    rng = np.random.default_rng(19)
    for _ in range(50):
        norm_sq = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.1, 10.0)
        scale = norm_sq**1.5 / math.sqrt(a)
        psi_max = (2.0 / 3.0) * norm_sq * math.sqrt(norm_sq / (3.0 * a))
        b = psi_max + scale * rng.uniform(-0.9e-12, 0.9e-12)
        ana = analyze(norm_sq, a, b)
        assert [r.branch for r in ana.roots] == [N_ZERO]
        assert ana.roots[0].t == ana.t_turn


@settings(max_examples=300, deadline=None)
@given(
    log_norm_sq=st.floats(-2.0, 2.0),
    log_a=st.floats(-2.0, 2.0),
    # |B - psi_max| from 0.5x to 1e6x the window, clear of its edge at 1x
    log_gap=st.floats(math.log10(0.5), 6.0).filter(lambda x: abs(x) > 0.05),
    below=st.booleans(),
)
def test_tangency_band_classification(log_norm_sq, log_a, log_gap, below):
    norm_sq, a = 10.0**log_norm_sq, 10.0**log_a
    window = _TANGENT_WINDOW * norm_sq**1.5 / math.sqrt(a)
    psi_max = (2.0 / 3.0) * norm_sq * math.sqrt(norm_sq / (3.0 * a))
    gap = window * 10.0**log_gap
    b = psi_max - gap if below else psi_max + gap
    ana = analyze(norm_sq, a, b)
    if gap < window:
        assert [r.branch for r in ana.roots] == [N_ZERO]
        assert ana.roots[0].t == ana.t_turn
    elif not below:
        assert ana.roots == ()
    else:
        assert [r.branch for r in ana.roots] == [N_PLUS, N_MINUS]
        t1, t2 = ana.roots[0].t, ana.roots[1].t
        assert t1 < ana.t_turn < t2
        for t in (t1, t2):
            assert abs(norm_sq * t - a * t**3 - b) <= 1e-12 * (norm_sq + abs(b))


def test_root_classes_follow_turning_point():
    rng = np.random.default_rng(3)
    for _ in range(200):
        norm_sq = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.1, 10.0)
        psi_max = (2.0 / 3.0) * norm_sq * math.sqrt(norm_sq / (3.0 * a))
        b = rng.uniform(-1.0, 0.999 * psi_max)
        ana = analyze(norm_sq, a, b)
        for root in ana.roots:
            if root.branch == N_PLUS:
                assert root.t < ana.t_turn
            elif root.branch == N_MINUS:
                assert root.t > ana.t_turn


def test_direction_scale_invariance(rng):
    grid, params, _s4, _rep = build_problem(n=49)
    p = random_pair(grid, rng)
    base = analyze_direction(p, params)
    # root count and classes never depend on the norm of the direction
    for delta in (0.1, 1.0, 10.0):
        ana = analyze_direction(p.scaled(delta), params)
        assert [r.branch for r in ana.roots] == [r.branch for r in base.roots]
    # and the roots themselves scale like 1/delta
    ana2 = analyze_direction(p.scaled(2.0), params)
    for r2, r1 in zip(ana2.roots, base.roots):
        assert r2.t == pytest.approx(r1.t / 2.0, rel=1e-10)


def test_direction_zero_rejected(zero_params):
    from nehari.grid import Pair, zero_field

    p = Pair(zero_field(zero_params.grid), zero_field(zero_params.grid))
    with pytest.raises(ValueError):
        analyze_direction(p, zero_params)


def test_direction_no_sources_single_root(grid_1d, zero_params, rng):
    for _ in range(5):
        p = random_pair(grid_1d, rng)
        ana = analyze_direction(p, zero_params)
        assert [r.branch for r in ana.roots] == [N_MINUS]
        t_expected = math.sqrt(ana.norm_sq / ana.quartic)
        assert ana.roots[0].t == pytest.approx(t_expected, rel=1e-12)


def test_direction_roots_satisfy_constraint(rng):
    grid = Grid(1, (1.0,), (5,))
    from nehari.functional import Params
    from nehari.grid import Field

    f = Field(grid, rng.standard_normal(grid.size))
    g = Field(grid, rng.standard_normal(grid.size))
    params = Params(1.0, 1.0, 1.0, 1.0, 0.5, f, g)
    for _ in range(20):
        p = random_pair(grid, rng)
        ana = analyze_direction(p, params)
        assert ana.roots
        for root in ana.roots:
            scaled = p.scaled(root.t)
            phi = ray(scaled, params).constraint
            assert abs(phi) <= 1e-10 * root.t**2 * ana.norm_sq


def test_retract_no_sources(grid_1d, zero_params, rng):
    p = random_pair(grid_1d, rng)
    out = retract(p, zero_params, N_MINUS)
    rd = ray(p, zero_params)
    t_expected = math.sqrt(rd.norm_sq / rd.quartic)
    assert np.allclose(out.u.values, t_expected * p.u.values, rtol=1e-12)
    with pytest.raises(NoSuchBranch):
        retract(p, zero_params, N_PLUS)


def test_retract_ground_branch_negative_energy(rng):
    # with 0 < B < psi_max the small root has negative energy
    grid, params, _s4, _rep = build_problem(n=49)
    done = 0
    for _ in range(50):
        p = random_pair(grid, rng)
        if ray(p, params).source <= 0:
            p = p.scaled(-1.0)
        out = retract(p, params, N_PLUS)
        assert energy(out, params) < 0.0
        assert ray(out, params).indicator > 0.0
        done += 1
    assert done == 50


def test_retract_bound_branch_indicator_negative(rng):
    grid, params, _s4, _rep = build_problem(n=49)
    for _ in range(20):
        p = random_pair(grid, rng)
        out = retract(p, params, N_MINUS)
        rd = ray(out, params)
        assert rd.indicator < 0.0
        # equivalent form: the retracted norm exceeds the turning scale
        assert rd.norm_sq < 3.0 * rd.quartic


def test_retract_error_carries_ray_data(grid_1d, zero_params, rng):
    p = random_pair(grid_1d, rng)
    with pytest.raises(NoSuchBranch) as excinfo:
        retract(p, zero_params, N_PLUS)
    assert f"norm_sq={ray(p, zero_params).norm_sq:.6g}," in str(excinfo.value)
    with pytest.raises(ValueError):
        retract(p, zero_params, "N0")


@settings(max_examples=400, deadline=None)
@given(
    log_norm_sq=st.floats(-20.0, 20.0),
    log_t_scale=st.floats(-60.0, 40.0),  # log10 sqrt(norm_sq/A)
    b_ratio=st.floats(-2.0, 0.999, exclude_max=True),  # B/psi_max
)
# subnormal B and roots: one step of t moves N*t by 4.9e-323, 1e-12 relative underflows
@example(log_norm_sq=1.0, log_t_scale=-35.0, b_ratio=1.452819793351834e-278)
def test_roots_accurate_and_classified_at_every_scale(log_norm_sq, log_t_scale, b_ratio):
    norm_sq = 10.0**log_norm_sq
    a = norm_sq / 10.0 ** (2.0 * log_t_scale)
    psi_max = (2.0 / 3.0) * norm_sq * math.sqrt(norm_sq / (3.0 * a))
    b = b_ratio * psi_max
    assume(abs(b - psi_max) > 2.0 * _TANGENT_WINDOW * norm_sq**1.5 / math.sqrt(a))
    ana = analyze(norm_sq, a, b)
    assert ana.roots
    for root in ana.roots:
        t = root.t
        q = norm_sq * t - a * t**3 - b
        # the rounding of the terms and of t itself, below 1e-12 relative for normal inputs
        resolution = 4 * math.ulp(max(norm_sq * t, a * t**3, abs(b)))
        resolution += abs(norm_sq - 3 * a * t * t) * math.ulp(t)
        assert abs(q) <= 1e-12 * (norm_sq * t + a * t**3 + abs(b)) + resolution
        if root.branch == N_PLUS:
            assert t < ana.t_turn
        else:
            assert root.branch == N_MINUS and t > ana.t_turn
