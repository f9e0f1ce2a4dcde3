"""Constrained energy minimization on the two manifold branches.

Each iteration takes a damped descent step with Armijo backtracking on the
energy, and retracts every trial point onto the requested branch (exact
fibering-root rescale).  The retraction is first order for curves on the
manifold, so the free-gradient slope is the correct Armijo model and the
accepted energies are strictly non-increasing.

The descent direction is the energy-space representative of the residual:
d = (-lap + lam)^(-1) r per component, where r is the strong-form residual.
A raw nodal step has mesh-dependent conditioning (the stencil's stiffness
grows like h^-2) and cannot reach tight gradient tolerances within a sane
iteration budget; one exact sine-transform solve of the shifted Laplacian per
step removes that mesh dependence, leaving the stationary points unchanged.
In 2D the sine products are folded in half by the symmetry of each mode
about the middle node, so they cost half the dense products.
A state is converged when it passes _stop_checks: on the manifold, on its
branch and with free nodal gradient below grad_tol, as a constrained critical
point on either branch has a vanishing multiplier and so is a free one.  No
check repeats what the stop rule implies: with c = N - A - B, the branch sign
gives J < 0 on N+ and N < 3A + |c| on N-, and J - (N/4 - 3B/4) is c/4.

Along a ray the energy is fixed by the ray data (N, A, B) = (squared norm,
quartic interaction, source pairing): J(t*p) = t^2*N/2 - t^4*A/4 - t*B.
Every number the descent uses is a reduction of one functional.evaluate of
the state (one stencil pass per component).  On the trial line p - eta*d
the ray data are polynomials in eta, built from that evaluation and 27 dot
products of nodal rows, so an Armijo trial is float arithmetic with no
array operation; the accepted point is evaluated directly, so rounding
cannot accumulate.  Only the report and the verification stack the
residual's terms (functional.residual_terms); the verification also
evaluates the state, so it applies the stencil twice per component.  It
reads the sources' held L^{4/3} norms, and pairs the terms with all the
weak-form test pairs, drawn once per (seed, node count), in one product.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .fibering import N_MINUS, N_PLUS, NoSuchBranch, analyze, branch_root, retract
from .functional import (Params, RayData, energy, evaluate, gradient, max_norm, polyval,
                         residual_terms)
from .grid import Field, Grid, Pair, first_eigenvector, l43_norm, sine_modes
# unused here (evaluate applies the stencil, verify_solution is given s4), but bound
# on purpose: perfbench's test_wrappers_reach_every_import_site_and_are_removed reads both
from .grid import laplacian_matvec  # noqa: F401
from .threshold import estimate_s4  # noqa: F401

__all__ = [
    "SolverConfig",
    "SolveReport",
    "CheckResult",
    "BranchVanished",
    "auto_init",
    "minimize",
    "minimize_over_seeds",
    "positivity_rescale",
    "verify_solution",
]

_NEHARI_TOL = 1e-10  # relative constraint residual |Phi|/||p||^2 of a converged state
_POSITIVITY_SLACK = 1e-10
_PDE_RESIDUAL_REL = 1e-6
_MAX_BACKTRACKS = 60
_INITIAL_STEP = 1.0
_ARMIJO_FACTOR = 0.5  # step shrink per backtrack
_ARMIJO_SLOPE = 1e-4  # sufficient-decrease fraction of the model slope
_ENERGY_NOISE_REL = 1e-13  # times 1 + |J|: absolute below |J| = 1, not scale-free, like grad_tol
_WEAK_FORM_PAIRS = 20


class BranchVanished(RuntimeError):
    """The descent direction left the region where the branch root exists.

    Possible only when the source-smallness condition is violated; reported
    instead of silently re-branching because results past the threshold have
    no guaranteed branch structure.
    """


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 50_000
    grad_tol: float = 1e-8  # absolute max-norm of the nodal gradient
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")


@dataclass(frozen=True)
class SolveReport:
    branch: str
    state: Pair
    theta: float
    grad_norm: float
    nehari_residual: float
    classification_value: float
    pde_residual: float
    pde_scale: float
    positive: tuple[bool, bool]
    iterations: int
    converged: bool
    config: SolverConfig
    # one (energy, norm, source pairing, branch indicator) row per iterate
    history: tuple[tuple[float, float, float, float], ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _shift_solve(grid: Grid, lam: float):
    """Prefactorized direct solve of (-lap + lam) on the interior nodes.

    The DST-I basis of the leading axis (symmetric, its own inverse) leaves one
    tridiagonal line system per sine mode (Buzbee, Golub & Nielson 1970): no
    fill in natural order, and one-column panels, as it has no supernodes.
    The sine products are folded in half (Cooley, Lewis & Welch 1970): a
    mode of odd number is even about the middle node and one of even number
    odd, so the forward transform applies two half-size blocks to the sums
    and the differences of mirrored lines, and the inverse rebuilds both
    halves from the two block products.  One path serves odd and even line
    counts: an odd count's middle line is its own mirror, so it is copied
    into the sums and back.
    The solve maps a nodal row (N,) or a C-ordered stack of rows (k, N) to
    the same shape; a stack reaches the factor as one F-ordered right-hand
    side, so each returned row is contiguous.
    """
    # scipy is imported on the first factorisation, so a process that never
    # solves (threshold, fibering, check) never loads it
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n, h = grid.points[-1], grid.spacing[-1]
    # 1D has no leading axis: its one line system is the whole problem; in 2D
    # the lines take the sine modes of odd number first, as the fold yields them
    basis, shift = sine_modes(grid, 0) if grid.dim == 2 else (None, np.zeros(1))
    main = np.repeat(np.concatenate((shift[0::2], shift[1::2])) + lam + 2.0 / h**2, n)
    off = np.where(np.arange(1, main.size) % n, -1.0 / h**2, 0.0)  # lines do not couple
    lines = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    lu = spla.splu(lines, permc_spec="NATURAL", panel_size=1)
    if basis is None:
        return lambda r: lu.solve(r.T).T

    # modes of odd number, of even number: a line count's upper and lower half
    n_odd, n_even = (len(basis) + 1) // 2, len(basis) // 2
    # the inverse blocks, a column per mode; their transposes are the forward ones
    inv_odd, inv_even = basis[:n_odd, 0::2].copy(), basis[:n_even, 1::2].copy()

    def solve(r: np.ndarray) -> np.ndarray:
        lines = r.reshape(-1, *grid.points)  # each row as (leading node, line node)
        mirror = lines[:, ::-1]
        fold = np.empty_like(lines)  # sums of mirrored lines, then their differences
        np.add(lines[:, :n_even], mirror[:, :n_even], out=fold[:, :n_even])
        fold[:, n_even:n_odd] = lines[:, n_even:n_odd]  # an odd count's middle line
        np.subtract(lines[:, :n_even], mirror[:, :n_even], out=fold[:, n_odd:])
        spec = np.empty_like(lines)
        np.matmul(inv_odd.T, fold[:, :n_odd], out=spec[:, :n_odd])
        np.matmul(inv_even.T, fold[:, n_odd:], out=spec[:, n_odd:])
        del fold  # so no more than two whole-grid arrays are live, as in a dense solve
        modes = lu.solve(spec.reshape(len(lines), -1).T).T.reshape(lines.shape)
        # the even part of each line's upper half, then its odd part
        np.matmul(inv_odd, modes[:, :n_odd], out=spec[:, :n_odd])
        np.matmul(inv_even, modes[:, n_odd:], out=spec[:, n_odd:])
        del modes
        x = np.empty_like(lines)
        np.add(spec[:, :n_even], spec[:, n_odd:], out=x[:, :n_even])
        np.subtract(spec[:, :n_even], spec[:, n_odd:], out=x[:, ::-1][:, :n_even])
        x[:, n_even:n_odd] = spec[:, n_even:n_odd]
        return x.reshape(r.shape)

    return solve


# one solve per problem, shared by both branches, every seed and the positivity
# rescale: a two-row solve of one factor when lam1 == lam2, one factor per
# component otherwise; weak keys, so it lives exactly as long as its Params
_RIESZ: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _riesz_solve(params: Params):
    """blockdiag(-lap + lam1, -lap + lam2)^-1 as one map of the (2, N) residual to (du, dv)."""
    if params not in _RIESZ:
        solve1 = _shift_solve(params.grid, params.lam1)
        if params.lam2 == params.lam1:
            _RIESZ[params] = solve1
        else:
            solve2 = _shift_solve(params.grid, params.lam2)
            _RIESZ[params] = lambda r: (solve1(r[0]), solve2(r[1]))
    return _RIESZ[params]


def pde_residual_scale(rd: RayData, terms: np.ndarray) -> tuple[float, float]:
    """Max-norm of the strong residual and of the scale of its terms (residual_terms of rd)."""
    return max_norm(*rd.residual), float(np.max([np.abs(t).sum(axis=0).max() for t in terms]))


def _stop_checks(rd: RayData, cfg: SolverConfig, branch: str) -> list[CheckResult]:
    """The stop rule: on the manifold, on the branch and below grad_tol."""
    on_branch = 0 < (rd.indicator if branch == N_PLUS else -rd.indicator) < math.inf
    return [
        CheckResult("on_manifold", rd.nehari_residual <= _NEHARI_TOL,
                    f"|Phi|/||p||^2 = {rd.nehari_residual:.3e} (tol {_NEHARI_TOL:.1e})"),
        CheckResult("branch_sign", on_branch, f"branch {branch} with indicator {rd.indicator:.6g}"),
        CheckResult("gradient_norm", rd.grad_norm <= cfg.grad_tol,
                    f"max nodal gradient {rd.grad_norm:.3e} (tol {cfg.grad_tol:.1e})"),
    ]


def _line_polynomials(rd: RayData, du, dv, params: Params):
    """Coefficients in eta, constant first, of N, A and B along p - eta*d.

    Also returns the slope <J', d> = r.d.  The eta coefficients of N and B
    pair d with the energy rows, (-lap + lam) w . dw, and with the sources.
    The eta^2 coefficient of N is the energy norm of d, which equals the
    slope when d solves (-lap + lam) d = r.
    """
    vol, (ru, rv), (eu, ev) = rd.vol, rd.residual, rd.energy_rows
    slope = float(vol * (ru @ du + rv @ dv))
    # per node (w - eta*dw)^2 = w^2 - 2*eta*w*dw + eta^2*dw^2, so the eta^k
    # coefficient of A sums a Gram matrix of these six rows over i + j = k: 21
    # dot products (a @ b is b @ a), then floats, i ascending as numpy sums
    (u, v), (uu, vv) = (rd.u, rd.v), rd.squares
    rows = (uu, -2.0 * u * du, du * du, vv, -2.0 * v * dv, dv * dv)
    gram = [[0.0] * 6 for _ in rows]
    for i, j in itertools.combinations_with_replacement(range(6), 2):
        gram[i][j] = gram[j][i] = float(rows[i] @ rows[j])
    mu1, mu2, beta2, quartic = params.mu1, params.mu2, 2.0 * params.beta, [0.0] * 5
    for i, j in itertools.product(range(3), range(3)):
        quartic[i + j] += mu1 * gram[i][j] + mu2 * gram[3 + i][3 + j] + beta2 * gram[i][3 + j]
    norm_sq = (rd.norm_sq, float(-2.0 * vol * (eu @ du + ev @ dv)), slope)
    source = (rd.source, float(-vol * (params.f.values @ du + params.g.values @ dv)))
    return (norm_sq, tuple(vol * c for c in quartic), source), slope


def _line_trial(branch: str, polys, eta: float) -> tuple[float, float]:
    """Root t and energy of t*(p - eta*d) on the branch; raises where retract would."""
    n, a, b = (polyval(c, eta) for c in polys)
    t = branch_root(analyze(n, a, b), branch)
    return t, t * t * (0.5 * n - 0.25 * t * t * a) - t * b


def _component_positive(values: np.ndarray) -> bool:
    return bool(values.min() >= -_POSITIVITY_SLACK * values.max())


def auto_init(branch: str, params: Params, seed: int) -> Pair:
    """Default starting direction for a branch.

    N+: the source direction (f, g), whose source pairing is automatically
    positive, so the N+ root exists under the smallness condition.  N-: the
    first Laplacian eigenvector on both components plus small seeded noise
    (shared between components, so exchange symmetry is preserved); every
    nonzero direction admits the N- root.
    """
    if branch == N_PLUS:
        nsq = evaluate(params, params.f.values, params.g.values).norm_sq
        if nsq == 0.0:
            raise ValueError(
                "cannot build an N+ start from zero sources: no direction "
                "with positive source pairing is guaranteed"
            )
        return Pair(params.f, params.g).scaled(1.0 / math.sqrt(nsq))
    if branch == N_MINUS:
        base = first_eigenvector(params.grid).values
        noise = np.random.default_rng(seed).standard_normal(base.size)
        w = base + 1e-2 * noise
        p = Pair(Field(params.grid, w), Field(params.grid, w))
        return p.scaled(1.0 / math.sqrt(evaluate(params, w, w).norm_sq))
    raise ValueError(f"branch must be {N_PLUS!r} or {N_MINUS!r}, got {branch!r}")


def minimize(
    branch: str,
    params: Params,
    grid: Grid,
    cfg: SolverConfig | None = None,
    init: Pair | None = None,
) -> SolveReport:
    """Minimize the energy over one manifold branch.

    Iterates retraction onto the branch followed by a preconditioned
    negative-gradient step with Armijo backtracking while the nodal gradient
    max-norm exceeds grad_tol, for at most max_iters steps or until no trial
    step lowers the energy; converged is the stop rule (_stop_checks) of the
    final state.  Raises BranchVanished if the branch root disappears along
    the way.  A state with a vanishing component is reported as it is;
    verify_solution's state_nontrivial check rejects it.
    """
    cfg = cfg or SolverConfig()
    if params.grid != grid:
        raise ValueError("params sources do not live on the given grid")
    if init is None:
        init = auto_init(branch, params, cfg.seed)
    solve = _riesz_solve(params)

    try:
        p = retract(init, params, branch)
    except NoSuchBranch as exc:
        raise BranchVanished(f"starting direction admits no {branch} root: {exc}") from exc

    rd = evaluate(params, p.u.values, p.v.values)
    hist = [_history(rd)]  # one row per iterate, so len(hist) - 1 steps taken

    while rd.grad_norm > cfg.grad_tol and len(hist) <= cfg.max_iters:
        du, dv = solve(rd.residual)
        polys, slope = _line_polynomials(rd, du, dv, params)

        j = rd.energy
        eta = _INITIAL_STEP
        saw_branch = False
        # near the minimizer the true per-step decrease drops below the
        # evaluation noise of J (stencil quadrature at stiffness 1/h^2);
        # allow that much so the contraction can finish, with the gradient
        # norm as the actual convergence arbiter
        slack = _ENERGY_NOISE_REL * (1.0 + abs(j))
        for _ in range(_MAX_BACKTRACKS):
            try:
                t, jt = _line_trial(branch, polys, eta)
            except (NoSuchBranch, ValueError):
                eta *= _ARMIJO_FACTOR
                continue
            saw_branch = True
            if jt <= j - _ARMIJO_SLOPE * eta * slope + slack:
                break
            eta *= _ARMIJO_FACTOR
        else:
            if not saw_branch:
                raise BranchVanished(
                    f"every trial step lost the {branch} root; the smallness "
                    "condition is violated along the current direction"
                )
            break  # energy is converged to rounding level; report as-is
        u, v = t * (rd.u - eta * du), t * (rd.v - eta * dv)
        rd = evaluate(params, u, v)
        hist.append(_history(rd))

    return _build_report(branch, rd, params, cfg, hist)


def _history(rd: RayData) -> tuple[float, float, float, float]:
    """Energy, norm, source pairing and branch indicator."""
    return rd.energy, math.sqrt(rd.norm_sq), rd.source, rd.indicator


def _build_report(branch, rd, params, cfg, hist) -> SolveReport:
    grid = params.grid
    p = Pair(Field(grid, rd.u), Field(grid, rd.v))
    # the public functions re-evaluate p; they equal rd's values bit for bit
    g = gradient(p, params)
    res, scale = pde_residual_scale(rd, residual_terms(params, rd.u, rd.v))
    return SolveReport(
        branch=branch,
        state=p,
        theta=energy(p, params),
        grad_norm=max_norm(g.u.values, g.v.values),
        nehari_residual=rd.nehari_residual,
        classification_value=rd.indicator,
        pde_residual=res,
        pde_scale=scale,
        positive=(_component_positive(rd.u), _component_positive(rd.v)),
        iterations=len(hist) - 1,
        converged=all(c.passed for c in _stop_checks(rd, cfg, branch)),
        config=cfg,
        history=tuple(hist),
    )


def minimize_over_seeds(
    branch: str,
    params: Params,
    cfg: SolverConfig | None = None,
    seeds: tuple[int, ...] = (0,),
) -> tuple[SolveReport, bool]:
    """Run minimize once per seed and keep the lowest-energy report.

    Distinct starts may land on distinct critical-point candidates of the
    same branch (nothing guarantees uniqueness within a branch); the second
    return value flags converged energies disagreeing by more than 1e-6
    relative, rather than asserting they coincide.
    """
    cfg = cfg or SolverConfig()
    # auto_init(N+) ignores the seed, so later N+ runs would repeat the first
    seeds = seeds[:1] if branch == N_PLUS else seeds
    reports = [minimize(branch, params, params.grid, replace(cfg, seed=int(s))) for s in seeds]
    best = min(reports, key=lambda r: r.theta)
    converged = [r.theta for r in reports if r.converged]
    disagree = False
    if len(converged) > 1:
        lo, hi = min(converged), max(converged)
        # absolute below |theta| = 1, so not scale-free; it sets a flag and fails no check
        disagree = (hi - lo) > 1e-6 * (1.0 + abs(lo))
    return best, disagree


def positivity_rescale(report: SolveReport, params: Params) -> SolveReport:
    """Re-minimize from (|u|, |v|) retracted onto the report's branch.

    For nonnegative sources the energy along the absolute-value ray never
    exceeds the original ray's, so the rescaled minimum cannot rise; the
    result has both components nonnegative.  A state with no negative entry
    is its own absolute value, so its report is returned as it is.
    """
    if params.f.values.min() < 0 or params.g.values.min() < 0:
        raise ValueError("positivity rescale requires nonnegative source fields")
    if not report.converged:
        raise ValueError("positivity rescale requires a converged report")
    if report.state.u.values.min() >= 0 and report.state.v.values.min() >= 0:
        return report
    grid = report.state.grid
    abs_pair = Pair(
        Field(grid, np.abs(report.state.u.values)),
        Field(grid, np.abs(report.state.v.values)),
    )
    new = minimize(report.branch, params, grid, report.config, init=abs_pair)
    # not scale-free: the relative constraint tolerance used as an absolute energy slack
    if new.theta > report.theta + _NEHARI_TOL:
        raise RuntimeError(
            f"positivity rescale raised the energy: {new.theta!r} vs "
            f"{report.theta!r}; this contradicts the absolute-value comparison"
        )
    return new


@functools.lru_cache(maxsize=1)
def _test_pairs(seed: int, size: int) -> np.ndarray:
    """The read-only (_WEAK_FORM_PAIRS, 2, size) rows tu, then tv, per pair of
    default_rng(seed), drawn once per (seed, size) for every verification."""
    pairs = np.random.default_rng(seed).standard_normal((_WEAK_FORM_PAIRS, 2, size))
    pairs.flags.writeable = False
    return pairs


def weak_form_residual(terms, seed: int) -> float:
    """Worst relative weak-form residual over _WEAK_FORM_PAIRS seeded random test pairs.

    For a test pair (tu, tv) the weak form is the sum of the ten pairings of
    the residual rows with the test functions; the stencil term is paired as
    (-lap u).tu, which equals u.(-lap tu) because the stencil is symmetric.
    The cell volume cancels from the ratio.  All pairs are paired at once, by
    one broadcast product per component that runs the same product per pair
    as terms_u @ tu, so every pairing keeps its bits.  A pair whose pairings
    all vanish is skipped; a NaN pairing makes the worst ratio NaN.  The seed
    must be an integer: a held draw of default_rng(None) would freeze its
    fresh entropy.
    """
    pairs = _test_pairs(operator.index(seed), terms[0].shape[1])
    # (pairs, 10): the five pairings of u's rows with tu, then v's with tv
    pairings = np.concatenate(
        [np.matmul(t[None], pairs[:, c, :, None])[..., 0] for c, t in enumerate(terms)], axis=1)
    tscale = np.abs(pairings).sum(axis=1)
    kept = tscale != 0  # NaN != 0, so a NaN pair is kept
    return float(np.max(np.abs(pairings[kept].sum(axis=1)) / tscale[kept], initial=0.0))


def verify_solution(
    report: SolveReport,
    params: Params,
    s4: float,
    seed: int = 0,
) -> list[CheckResult]:
    """Re-derive every report invariant from scratch; failures are listed.

    Recomputes all functionals with fresh quadrature and checks both components
    are nonzero, the stop rule, the reported energy, the coercivity lower bound
    (with the supplied Sobolev constant s4), the strong and weak forms and the
    positivity flags; what the stop rule implies is not checked again.  The
    tolerances are report.config's and the solver's; every check runs whatever
    report.converged says, and fails on any non-finite number it reads.
    """
    if report.state.grid != params.grid:
        raise ValueError("the report's state does not live on the grid of the params sources")
    checks: list[CheckResult] = []

    def add(name, passed, detail, *read):
        checks.append(CheckResult(name, bool(passed) and all(map(math.isfinite, read)), detail))

    p = report.state
    rd = evaluate(params, p.u.values, p.v.values)
    j, norm = rd.energy, math.sqrt(rd.norm_sq)
    nu, nv = (math.sqrt(rd.vol * (e @ w)) for e, w in zip(rd.energy_rows, (rd.u, rd.v)))
    add(
        "state_nontrivial",
        nu > 1e-6 * norm and nv > 1e-6 * norm,
        f"component norms ({nu:.6g}, {nv:.6g}) vs pair norm {norm:.6g}",
        nu, nv, norm,
    )

    checks += _stop_checks(rd, report.config, report.branch)

    # absolute below |J| = 1; need not scale, as a faithful report's theta is J bit for bit
    add(
        "theta_matches_energy",
        abs(j - report.theta) <= 1e-12 * (1.0 + abs(j)),
        f"recomputed J = {j!r}, reported theta = {report.theta!r}",
        j, report.theta,
    )

    coercive_floor = 0.25 * rd.norm_sq - (3.0 * math.sqrt(2.0) / 4.0) * s4 * max(
        l43_norm(params.f), l43_norm(params.g)
    ) * norm
    # absolute below |J| = 1, so looser at small amplitude; it tests s4, not the state
    add(
        "coercivity",
        j >= coercive_floor - 1e-9 * (1.0 + abs(j)),
        f"J = {j:.6g} >= floor {coercive_floor:.6g}",
        j, coercive_floor,
    )

    # the two checks that read the residual's terms one by one
    terms = residual_terms(params, p.u.values, p.v.values)
    res, scale = pde_residual_scale(rd, terms)
    add(
        "pde_residual",
        res <= _PDE_RESIDUAL_REL * scale,
        f"strong residual {res:.3e} vs {_PDE_RESIDUAL_REL:.0e} * scale {scale:.6g}",
        res, scale,
    )

    worst = weak_form_residual(terms, seed)
    add(
        "weak_form",
        worst <= 1e-6,
        f"worst relative weak-form residual {worst:.3e} over {_WEAK_FORM_PAIRS} pairs",
        worst,
    )

    pos_now = (_component_positive(rd.u), _component_positive(rd.v))
    add(
        "positivity_flags",
        pos_now == report.positive,
        f"recomputed {pos_now}, reported {report.positive}",
    )

    return checks
