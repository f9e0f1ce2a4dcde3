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
A state is converged when it passes _stop_checks: on the manifold, on its
branch and with free nodal gradient below grad_tol, as a constrained critical
point on either branch has a vanishing multiplier and so is a free one.

Along a ray the energy is fixed by the ray data (N, A, B) = (squared norm,
quartic interaction, source pairing): J(t*p) = t^2*N/2 - t^4*A/4 - t*B.
Every number the descent, its report and the verification use is a
reduction of one functional.evaluate of the state (one stencil pass per
component).  On the trial line p - eta*d the ray data are polynomials in
eta, built from that evaluation and 21 dot products against d, so an Armijo
trial is float arithmetic with no array operation; the accepted point is
evaluated directly, so rounding cannot accumulate.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fibering import N_MINUS, N_PLUS, NoSuchBranch, analyze, branch_root, retract
from .functional import Params, RayData, energy, evaluate, gradient, max_norm, polyval
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
    "SemiTrivialCollapse",
    "auto_init",
    "minimize",
    "minimize_over_seeds",
    "positivity_rescale",
    "verify_solution",
]

_NEHARI_TOL = 1e-10  # relative constraint residual |Phi|/||p||^2 of a converged state
_POSITIVITY_SLACK = 1e-10
_COLLAPSE_REL = 1e-8
_NOISE_REL = 1e-4
_PDE_RESIDUAL_REL = 1e-6
_MAX_BACKTRACKS = 60
_INITIAL_STEP = 1.0
_ARMIJO_FACTOR = 0.5  # step shrink per backtrack
_ARMIJO_SLOPE = 1e-4  # sufficient-decrease fraction of the model slope
_ENERGY_NOISE_REL = 1e-13
_WEAK_FORM_PAIRS = 20


class BranchVanished(RuntimeError):
    """The descent direction left the region where the branch root exists.

    Possible only when the source-smallness condition is violated; reported
    instead of silently re-branching because results past the threshold have
    no guaranteed branch structure.
    """


class SemiTrivialCollapse(RuntimeError):
    """A component collapsed to zero twice despite a noise restart."""


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
    norm_min: float  # min ||iterate|| over the run (the m of the norm bounds)
    norm_max: float  # max ||iterate|| over the run (the M)
    tau_bound: float | None  # N- only: norm_sq/sqrt(3A), the origin gap
    noise_injected: bool
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
    """
    n, h = grid.points[-1], grid.spacing[-1]
    # 1D has no leading axis: its one line system is the whole problem
    basis, shift = sine_modes(grid, 0) if grid.dim == 2 else (None, np.zeros(1))
    main = np.repeat(shift + lam + 2.0 / h**2, n)
    off = np.where(np.arange(1, main.size) % n, -1.0 / h**2, 0.0)  # lines do not couple
    lines = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    lu = spla.splu(lines, permc_spec="NATURAL", panel_size=1)
    if basis is None:
        return lu.solve

    def solve(r: np.ndarray) -> np.ndarray:  # one right-hand side or two
        modes = lu.solve((basis @ r.reshape(len(basis), -1)).reshape(r.shape))
        return (basis @ modes.reshape(len(basis), -1)).reshape(r.shape)

    return solve


# one factor pair per problem, shared by both branches, every seed and the
# positivity rescale; weak keys, so it lives exactly as long as its Params
_RIESZ: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _riesz_solves(params: Params):
    """The solves of (-lap + lam1) and (-lap + lam2) for params, factored once."""
    if params not in _RIESZ:
        solve1 = _shift_solve(params.grid, params.lam1)
        same = params.lam2 == params.lam1
        _RIESZ[params] = (solve1, solve1 if same else _shift_solve(params.grid, params.lam2))
    return _RIESZ[params]


def pde_residual_scale(rd: RayData) -> tuple[float, float]:
    """Max-norm of the strong residual and of the scale of its terms."""
    scale = max(np.abs(t).sum(axis=0).max() for t in (rd.terms_u, rd.terms_v))
    return max_norm(*rd.residual), float(scale)


def _stop_checks(rd: RayData, cfg: SolverConfig, branch: str) -> list[CheckResult]:
    """The stop rule: on the manifold, on the branch and below grad_tol."""
    on_branch = rd.indicator > 0 if branch == N_PLUS else rd.indicator < 0
    return [
        CheckResult("on_manifold", rd.nehari_residual <= _NEHARI_TOL,
                    f"|Phi|/||p||^2 = {rd.nehari_residual:.3e} (tol {_NEHARI_TOL:.1e})"),
        CheckResult("branch_sign", on_branch, f"branch {branch} with indicator {rd.indicator:.6g}"),
        CheckResult("gradient_norm", rd.grad_norm <= cfg.grad_tol,
                    f"max nodal gradient {rd.grad_norm:.3e} (tol {cfg.grad_tol:.1e})"),
    ]


def _line_polynomials(rd: RayData, du, dv, params: Params):
    """Coefficients in eta, constant first, of N, A and B along p - eta*d.

    Also returns the slope <J', d>.  The eta^2 coefficient of N is the
    energy norm of d, which equals the slope when d solves (-lap + lam) d = r.
    """
    vol = rd.vol
    pu, pv = rd.terms_u @ du, rd.terms_v @ dv
    slope = float(vol * (pu.sum() + pv.sum()))
    # per node (w - eta*dw)^2 = w^2 - 2*eta*w*dw + eta^2*dw^2, so the eta^k
    # coefficient of A sums a Gram matrix of these six rows over i + j = k: 21
    # dot products (a @ b is b @ a), then floats, i ascending as numpy sums
    u, v = rd.u, rd.v
    rows = (u * u, -2.0 * u * du, du * du, v * v, -2.0 * v * dv, dv * dv)
    gram = [[0.0] * 6 for _ in rows]
    for i, j in itertools.combinations_with_replacement(range(6), 2):
        gram[i][j] = gram[j][i] = float(rows[i] @ rows[j])
    mu1, mu2, beta2, quartic = params.mu1, params.mu2, 2.0 * params.beta, [0.0] * 5
    for i, j in itertools.product(range(3), range(3)):
        quartic[i + j] += mu1 * gram[i][j] + mu2 * gram[3 + i][3 + j] + beta2 * gram[i][3 + j]
    norm_sq = (rd.norm_sq, float(-2.0 * vol * (pu[0] + pu[1] + pv[0] + pv[1])), slope)
    source = (rd.source, float(vol * (pu[4] + pv[4])))
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
    the way, SemiTrivialCollapse if one component dies twice.
    """
    cfg = cfg or SolverConfig()
    if params.grid != grid:
        raise ValueError("params sources do not live on the given grid")
    if init is None:
        init = auto_init(branch, params, cfg.seed)

    solve1, solve2 = _riesz_solves(params)
    noise_rng = np.random.default_rng(cfg.seed + 1)

    try:
        p = retract(init, params, branch)
    except NoSuchBranch as exc:
        raise BranchVanished(f"starting direction admits no {branch} root: {exc}") from exc

    rd = evaluate(params, p.u.values, p.v.values)
    hist = [_history(rd)]  # one row per iterate, so len(hist) - 1 steps taken
    noise_injected = False

    while rd.grad_norm > cfg.grad_tol and len(hist) <= cfg.max_iters:
        ru, rv = rd.residual
        if solve1 is solve2:
            du, dv = solve1(np.column_stack((ru, rv))).T
        else:
            du, dv = solve1(ru), solve2(rv)
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

        # semi-trivial guard: a component collapsing to zero means the
        # iterate is drifting toward a state the system does not admit for
        # nonzero sources; kick it once, abort on a second collapse.
        nu, nv = (math.sqrt(float((w**2).sum() * grid.cell_volume)) for w in (u, v))
        scale = math.hypot(nu, nv)
        if scale > 0 and min(nu, nv) < _COLLAPSE_REL * scale:
            if noise_injected:
                raise SemiTrivialCollapse(
                    f"component norms ({nu:.3g}, {nv:.3g}) collapsed again "
                    "after a noise restart"
                )
            noise_injected = True
            amp = _NOISE_REL * max_norm(u, v)
            kick = noise_rng.standard_normal(grid.size)
            uu = u + (amp * kick if nu < nv else 0.0)
            vv = v + (amp * kick if nv <= nu else 0.0)
            try:
                p = retract(Pair(Field(grid, uu), Field(grid, vv)), params, branch)
            except NoSuchBranch as exc:
                raise BranchVanished(
                    f"noise restart left the {branch} root region: {exc}"
                ) from exc
            u, v = p.u.values, p.v.values

        rd = evaluate(params, u, v)
        hist.append(_history(rd))

    return _build_report(branch, rd, params, cfg, noise_injected, hist)


def _history(rd: RayData) -> tuple[float, float, float, float]:
    """Energy, norm, source pairing and branch indicator."""
    return rd.energy, math.sqrt(rd.norm_sq), rd.source, rd.indicator


def _build_report(branch, rd, params, cfg, noise_injected, hist) -> SolveReport:
    grid = params.grid
    p = Pair(Field(grid, rd.u), Field(grid, rd.v))
    # the public functions re-evaluate p; they equal rd's values bit for bit
    g = gradient(p, params)
    res, scale = pde_residual_scale(rd)
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
        norm_min=min(row[1] for row in hist),
        norm_max=max(row[1] for row in hist),
        tau_bound=rd.origin_gap if branch == N_MINUS else None,
        noise_injected=noise_injected,
        config=cfg,
        history=tuple(hist),
    )


def minimize_over_seeds(
    branch: str,
    params: Params,
    grid: Grid,
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
    reports = []
    for s in seeds:
        reports.append(minimize(branch, params, grid, replace(cfg, seed=int(s))))
        if branch == N_PLUS and not reports[-1].noise_injected:
            break  # auto_init(N+) ignores the seed: later runs would repeat this one
    best = min(reports, key=lambda r: r.theta)
    converged = [r.theta for r in reports if r.converged]
    disagree = False
    if len(converged) > 1:
        lo, hi = min(converged), max(converged)
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
    if new.theta > report.theta + _NEHARI_TOL:
        raise RuntimeError(
            f"positivity rescale raised the energy: {new.theta!r} vs "
            f"{report.theta!r}; this contradicts the absolute-value comparison"
        )
    return new


def weak_form_residual(terms, seed: int) -> float:
    """Worst relative weak-form residual over _WEAK_FORM_PAIRS seeded random test pairs.

    For a test pair (tu, tv) the weak form is the sum of the ten pairings of
    the residual rows with the test functions; the stencil term is paired as
    (-lap u).tu, which equals u.(-lap tu) because the stencil is symmetric.
    The cell volume cancels from the ratio.
    """
    terms_u, terms_v = terms
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(_WEAK_FORM_PAIRS):
        tu = rng.standard_normal(terms_u.shape[1])
        tv = rng.standard_normal(terms_u.shape[1])
        pairings = np.concatenate((terms_u @ tu, terms_v @ tv))
        tscale = np.abs(pairings).sum()
        if tscale > 0:
            worst = max(worst, float(abs(pairings.sum()) / tscale))
    return worst


def verify_solution(
    report: SolveReport,
    params: Params,
    s4: float,
    seed: int = 0,
) -> list[CheckResult]:
    """Re-derive every report invariant from scratch; failures are listed.

    Recomputes all functionals with fresh quadrature, checks both components
    are nonzero, the on-manifold energy identity, the coercivity lower bound
    (with the supplied Sobolev constant s4), and the weak form against random
    test pairs.  The tolerances are report.config's and the solver's;
    every check runs whatever report.converged says.
    """
    checks: list[CheckResult] = []

    def add(name, passed, detail):
        checks.append(CheckResult(name, bool(passed), detail))

    p = report.state
    # every number below but s4 follows from one evaluation of the state
    rd = evaluate(params, p.u.values, p.v.values)
    terms = rd.terms_u, rd.terms_v
    nsq, quartic, b, j = rd.norm_sq, rd.quartic, rd.source, rd.energy
    norm = math.sqrt(nsq)
    nu, nv = (math.sqrt(rd.vol * (t[:2] @ w).sum()) for t, w in zip(terms, (rd.u, rd.v)))
    add(
        "state_nontrivial",
        nu > 1e-6 * norm and nv > 1e-6 * norm,
        f"component norms ({nu:.6g}, {nv:.6g}) vs pair norm {norm:.6g}",
    )

    checks += _stop_checks(rd, report.config, report.branch)

    add(
        "theta_matches_energy",
        abs(j - report.theta) <= 1e-12 * (1.0 + abs(j)),
        f"recomputed J = {j!r}, reported theta = {report.theta!r}",
    )

    if report.branch == N_PLUS:
        add("ground_energy_negative", j < 0.0, f"theta+ = {j:.6g}")

    slack = 1e-12 * (1.0 + norm)
    add(
        "norm_bounds",
        0.0 < report.norm_min <= norm + slack and norm <= report.norm_max + slack,
        f"0 < {report.norm_min:.6g} <= {norm:.6g} <= {report.norm_max:.6g}",
    )

    if report.branch == N_MINUS:
        tau = rd.origin_gap
        add(
            "bound_state_norm_floor",
            tau is not None and nsq < 3.0 * quartic and norm > tau * (1.0 - 1e-12),
            f"||p||^2 = {nsq:.6g} < 3A = {3.0 * quartic:.6g}, "
            f"||p|| = {norm:.6g} > tau = {math.nan if tau is None else tau:.6g}",
        )

    identity_res = abs(j - (0.25 * nsq - 0.75 * b))
    add(
        "energy_identity",
        identity_res <= 1e-8 * (1.0 + abs(j)),
        f"|J - (||p||^2/4 - 3B/4)| = {identity_res:.3e}",
    )

    coercive_floor = 0.25 * nsq - (3.0 * math.sqrt(2.0) / 4.0) * s4 * max(
        l43_norm(params.f), l43_norm(params.g)
    ) * norm
    add(
        "coercivity",
        j >= coercive_floor - 1e-9 * (1.0 + abs(j)),
        f"J = {j:.6g} >= floor {coercive_floor:.6g}",
    )

    res, scale = pde_residual_scale(rd)
    add(
        "pde_residual",
        res <= _PDE_RESIDUAL_REL * scale,
        f"strong residual {res:.3e} vs {_PDE_RESIDUAL_REL:.0e} * scale {scale:.6g}",
    )

    worst = weak_form_residual(terms, seed)
    add(
        "weak_form",
        worst <= 1e-6,
        f"worst relative weak-form residual {worst:.3e} over {_WEAK_FORM_PAIRS} pairs",
    )

    pos_now = (_component_positive(rd.u), _component_positive(rd.v))
    add(
        "positivity_flags",
        pos_now == report.positive,
        f"recomputed {pos_now}, reported {report.positive}",
    )

    return checks
