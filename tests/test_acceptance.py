"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nehari.cli import EXIT_CONFIG, main, resolve_problem
from nehari.fibering import (
    N_MINUS,
    N_PLUS,
    N_ZERO,
    analyze,
    analyze_direction,
    retract,
)
from nehari.functional import Params, energy, gradient
from nehari.grid import Field, Grid, Pair, l43_norm, laplacian_matvec
from nehari.solver import minimize, positivity_rescale, verify_solution

from conftest import build_problem, random_pair, ray, scan_roots


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"
        )
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num} {name}: FAIL ({elapsed:.2f}s)")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def reference_problem():
    # 1D box, n=199, lam1=lam2=1, mu1=mu2=1, beta=0.5, sources autoscaled to
    # half the smallness threshold
    return build_problem(n=199, beta=0.5, rho=0.5)


_SOLUTION_CACHE: dict = {}


def reference_solutions(reference_problem):
    """Both branch solves of the reference problem, computed once.

    A plain cache rather than a fixture so the first caller (criterion 4)
    pays the solve cost inside its own timed block.
    """
    if not _SOLUTION_CACHE:
        grid, params, _s4, _rep = reference_problem
        for branch in (N_PLUS, N_MINUS):
            rep = minimize(branch, params, grid)
            _SOLUTION_CACHE[branch] = positivity_rescale(rep, params)
    return _SOLUTION_CACHE


def test_criterion_1_fibering_trichotomy():
    with criterion(1, "fibering-trichotomy", 5.0):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            norm_sq = rng.uniform(0.1, 10.0)
            quartic = rng.uniform(0.1, 10.0)
            psi_max = (2.0 / 3.0) * norm_sq * math.sqrt(norm_sq / (3.0 * quartic))
            source = rng.uniform(-1.0, 1.5 * psi_max)
            ana = analyze(norm_sq, quartic, source)
            # the case analysis, exactly
            if source <= 0.0:
                expected_classes = [N_MINUS]
            elif source < psi_max:
                expected_classes = [N_PLUS, N_MINUS]
            else:
                expected_classes = []
            assert [r.branch for r in ana.roots] == expected_classes
            # cross-validated against the dense sign-change scan
            oracle = scan_roots(norm_sq, quartic, source, num=20_001)
            assert len(oracle) == len(ana.roots)
            for got, (t_ref, cls_ref) in zip(ana.roots, oracle):
                assert got.branch == cls_ref
                assert got.t == pytest.approx(t_ref, rel=1e-9, abs=1e-11)


def test_criterion_2_gradient_consistency():
    with criterion(2, "gradient-consistency", 10.0):
        grid = Grid(1, (1.0,), (49,))
        rng = np.random.default_rng(7)
        f = Field(grid, rng.standard_normal(grid.size))
        g = Field(grid, rng.standard_normal(grid.size))
        params = Params(1.0, 1.0, 1.0, 1.0, 0.5, f, g)
        eps = 1e-6
        for _ in range(100):
            p = random_pair(grid, rng)
            q = random_pair(grid, rng)
            gr = gradient(p, params)
            pairing = float(gr.u.values @ q.u.values + gr.v.values @ q.v.values)
            plus = Pair(
                Field(grid, p.u.values + eps * q.u.values),
                Field(grid, p.v.values + eps * q.v.values),
            )
            minus = Pair(
                Field(grid, p.u.values - eps * q.u.values),
                Field(grid, p.v.values - eps * q.v.values),
            )
            fd = (energy(plus, params) - energy(minus, params)) / (2 * eps)
            assert abs(pairing - fd) < 1e-5 * max(abs(fd), 1e-30)


def test_criterion_3_manifold_identities(reference_problem):
    with criterion(3, "manifold-identities", 30.0):
        grid, params, s4, _rep = reference_problem
        rng = np.random.default_rng(11)
        coef = 0.75 * math.sqrt(2.0) * s4 * max(l43_norm(params.f), l43_norm(params.g))
        done = 0
        for _ in range(500):
            direction = random_pair(grid, rng)
            branch = N_PLUS if done % 2 == 0 else N_MINUS
            if branch == N_PLUS and ray(direction, params).source <= 0:
                direction = direction.scaled(-1.0)
            p = retract(direction, params, branch)
            rd = ray(p, params)
            nsq, b = rd.norm_sq, rd.source
            j = energy(p, params)
            # on-manifold energy identity
            assert abs(j - (0.25 * nsq - 0.75 * b)) < 1e-8 * (1.0 + abs(j))
            # coercivity lower bound
            norm = math.sqrt(nsq)
            assert j >= 0.25 * nsq - coef * norm - 1e-9 * (1.0 + abs(j))
            done += 1
        assert done == 500


def test_criterion_4_two_solution_reproduction(reference_problem):
    with criterion(4, "two-solution-reproduction", 60.0):
        _grid, params, s4, threshold = reference_problem
        assert threshold.satisfied
        solutions = reference_solutions(reference_problem)
        plus = solutions[N_PLUS]
        minus = solutions[N_MINUS]
        for rep in (plus, minus):
            assert rep.converged
            assert rep.grad_norm <= 1e-8
            assert rep.nehari_residual <= 1e-10
            assert rep.pde_residual <= 1e-6 * rep.pde_scale
            assert rep.positive == (True, True)
            checks = verify_solution(rep, params, s4=s4)
            assert all(c.passed for c in checks), [c for c in checks if not c.passed]
        assert plus.theta < 0.0
        assert plus.theta < minus.theta


def _directed_search_violation(params, start, iters=300):
    """Ascend B/psi_max over ray directions; stop once B > psi_max."""

    def score(pair):
        ana = analyze_direction(pair, params)
        return ana.source / ana.psi_max, ana

    grid = start.grid
    p = start.scaled(1.0 / math.sqrt(ray(start, params).norm_sq))
    val, ana = score(p)
    step = 0.1
    for _ in range(iters):
        if val > 1.0:
            return ana
        u, v = p.u.values, p.v.values
        rd = ray(p, params)
        a, b, nsq = rd.quartic, rd.source, rd.norm_sq
        if b <= 0:
            p = p.scaled(-1.0)
            val, ana = score(p)
            continue
        gu = (
            params.f.values / b
            + 2.0 * (params.mu1 * u**3 + params.beta * u * v**2) / a
            - 3.0 * (laplacian_matvec(grid, u) + params.lam1 * u) / nsq
        )
        gv = (
            params.g.values / b
            + 2.0 * (params.mu2 * v**3 + params.beta * u**2 * v) / a
            - 3.0 * (laplacian_matvec(grid, v) + params.lam2 * v) / nsq
        )
        trial = Pair(Field(grid, u + step * gu), Field(grid, v + step * gv))
        trial = trial.scaled(1.0 / math.sqrt(ray(trial, params).norm_sq))
        tval, tana = score(trial)
        if tval > val:
            p, val, ana = trial, tval, tana
            step *= 1.3
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return ana if val > 1.0 else None


def test_criterion_5_degenerate_set_empty_under_smallness(reference_problem):
    with criterion(5, "degenerate-set-emptiness", 30.0):
        grid, params, _s4, threshold = reference_problem
        assert threshold.satisfied
        rng = np.random.default_rng(23)
        for _ in range(500):
            ana = analyze_direction(random_pair(grid, rng), params)
            assert all(r.branch != N_ZERO for r in ana.roots)
            assert len(ana.roots) >= 1
        # past the threshold the guard must not be vacuous: at rho = 1.2
        # (forced) a directed search finds a direction with no roots at all
        cfg = {
            "grid": {"dim": 1, "extents": [1.0], "points": [199]},
            "coefficients": {
                "lam1": 1.0, "lam2": 1.0, "mu1": 1.0, "mu2": 1.0, "beta": 1.0,
            },
            "sources": {
                "f": {"kind": "eigen", "amplitude": 1.0},
                "g": {"kind": "eigen", "amplitude": 1.0},
                "autoscale": {"rho": 1.2},
            },
            "seed": 0,
        }
        problem = resolve_problem(cfg, force=True)
        assert not problem.threshold.satisfied
        start = Pair(problem.params.f, problem.params.g)
        found = _directed_search_violation(problem.params, start)
        assert found is not None, "no direction with B > psi_max found"
        assert found.source > found.psi_max
        assert found.roots == ()


def test_criterion_6_minimality(reference_problem):
    with criterion(6, "minimality-sanity", 60.0):
        grid, params, _s4, _rep = reference_problem
        solutions = reference_solutions(reference_problem)
        rng = np.random.default_rng(31)
        for branch in (N_PLUS, N_MINUS):
            theta = solutions[branch].theta
            best = math.inf
            for _ in range(200):
                direction = random_pair(grid, rng)
                if branch == N_PLUS and ray(direction, params).source <= 0:
                    direction = direction.scaled(-1.0)
                p = retract(direction, params, branch)
                best = min(best, energy(p, params))
            assert theta <= best + 1e-10


def test_criterion_7_symmetry(reference_problem):
    with criterion(7, "exchange-symmetry", 60.0):
        solutions = reference_solutions(reference_problem)
        for branch in (N_PLUS, N_MINUS):
            state = solutions[branch].state
            gap = np.abs(state.u.values - state.v.values).max()
            assert gap <= 1e-8 * np.abs(state.u.values).max()


def test_criterion_8_negative_beta_extension(tmp_path):
    with criterion(8, "negative-beta-extension", 60.0):
        grid, params, s4, threshold = build_problem(n=199, beta=-0.5, rho=0.5)
        assert params.beta == -0.5 and math.sqrt(params.mu1 * params.mu2) == 1.0
        assert threshold.satisfied
        reports = {}
        for branch in (N_PLUS, N_MINUS):
            rep = minimize(branch, params, grid)
            rep = positivity_rescale(rep, params)
            assert rep.converged
            assert rep.grad_norm <= 1e-8
            assert rep.nehari_residual <= 1e-10
            assert rep.pde_residual <= 1e-6 * rep.pde_scale
            assert rep.positive == (True, True)
            checks = verify_solution(rep, params, s4=s4)
            assert all(c.passed for c in checks), [c for c in checks if not c.passed]
            reports[branch] = rep
        assert reports[N_PLUS].theta < 0.0
        assert reports[N_PLUS].theta < reports[N_MINUS].theta
        # beta = -1.01 crosses the coupling floor and must fail validation
        import json

        cfg_path = tmp_path / "bad_beta.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "grid": {"dim": 1, "extents": [1.0], "points": [199]},
                    "coefficients": {
                        "lam1": 1.0, "lam2": 1.0, "mu1": 1.0, "mu2": 1.0,
                        "beta": -1.01,
                    },
                    "sources": {
                        "f": {"kind": "eigen", "amplitude": 1.0},
                        "g": {"kind": "eigen", "amplitude": 1.0},
                        "autoscale": {"rho": 0.5},
                    },
                }
            )
        )
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
