"""Constrained energy minimization on the two manifold branches.

Each iteration retracts the current direction onto the requested branch
(exact fibering-root rescale), then takes a damped descent step with Armijo
backtracking on the energy.  The retraction is first order for curves on the
manifold, so the free-gradient slope is the correct Armijo model and the
accepted energies are strictly non-increasing.

The descent direction is the energy-space representative of the residual:
d = (-lap + lam)^(-1) r per component, where r is the strong-form residual.
A raw nodal step has mesh-dependent conditioning (the stencil's stiffness
grows like h^-2) and cannot reach tight gradient tolerances within a sane
iteration budget; solving the shifted Laplacian once per step removes that
mesh dependence while leaving the set of stationary points unchanged.
Convergence is declared on the free nodal gradient, because any constrained
stationary point on either branch has a vanishing multiplier and is
therefore a free critical point.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fibering import N_MINUS, N_PLUS, NoSuchBranch, retract
from .functional import (
    Params,
    branch_indicator,
    energy,
    gradient,
    nehari_constraint,
    quartic_interaction,
    source_pairing,
)
from .grid import (
    Field,
    Grid,
    Pair,
    first_eigenvector,
    h1_weighted_norm_sq,
    l43_norm,
    laplacian_matvec,
    pair_norm_sq,
)
from .threshold import estimate_s4

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

_POSITIVITY_SLACK = 1e-10
_COLLAPSE_REL = 1e-8
_NOISE_REL = 1e-4
_PDE_RESIDUAL_REL = 1e-6
_MAX_BACKTRACKS = 60
_ENERGY_NOISE_REL = 1e-13


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
    nehari_tol: float = 1e-10  # relative constraint residual |Phi|/||p||^2
    armijo_factor: float = 0.5
    armijo_slope: float = 1e-4
    initial_step: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (self.grad_tol > 0 and self.nehari_tol > 0 and self.initial_step > 0):
            raise ValueError("tolerances and initial step must be positive")
        if not (0.0 < self.armijo_factor < 1.0 and 0.0 < self.armijo_slope < 1.0):
            raise ValueError("armijo factor and slope must lie in (0, 1)")


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
    grad_tol: float
    nehari_tol: float
    noise_injected: bool
    config: SolverConfig
    energy_history: tuple[float, ...] = field(repr=False)
    norm_history: tuple[float, ...] = field(repr=False)
    source_history: tuple[float, ...] = field(repr=False)
    indicator_history: tuple[float, ...] = field(repr=False)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _shift_solve(grid: Grid, lam: float):
    """Prefactorized direct solve of (-lap + lam) on the interior nodes."""
    mats = []
    for n, h in zip(grid.points, grid.spacing):
        main = np.full(n, 2.0 / h**2)
        off = np.full(n - 1, -1.0 / h**2)
        mats.append(sp.diags([off, main, off], [-1, 0, 1]))
    op = functools.reduce(lambda a, b: sp.kronsum(b, a), mats)
    # minimum degree on A+A^T: about half the fill of the default COLAMD in 2D
    shifted = (op + lam * sp.identity(grid.size)).tocsc()
    return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A").solve


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


def strong_residuals(p: Pair, params: Params) -> tuple[np.ndarray, np.ndarray]:
    """Strong-form stencil residual per node, for each component."""
    u, v = p.u.values, p.v.values
    ru = (
        laplacian_matvec(p.grid, u)
        + params.lam1 * u
        - params.mu1 * u**3
        - params.beta * u * v**2
        - params.f.values
    )
    rv = (
        laplacian_matvec(p.grid, v)
        + params.lam2 * v
        - params.mu2 * v**3
        - params.beta * u**2 * v
        - params.g.values
    )
    return ru, rv


def pde_residual_scale(p: Pair, params: Params) -> tuple[float, float]:
    """Max-norm of the strong residual and the max-norm scale of its terms."""
    u, v = p.u.values, p.v.values
    ru, rv = strong_residuals(p, params)
    scale_u = (
        np.abs(laplacian_matvec(p.grid, u))
        + params.lam1 * np.abs(u)
        + params.mu1 * np.abs(u) ** 3
        + abs(params.beta) * np.abs(u) * v**2
        + np.abs(params.f.values)
    )
    scale_v = (
        np.abs(laplacian_matvec(p.grid, v))
        + params.lam2 * np.abs(v)
        + params.mu2 * np.abs(v) ** 3
        + abs(params.beta) * u**2 * np.abs(v)
        + np.abs(params.g.values)
    )
    res = max(np.abs(ru).max(), np.abs(rv).max())
    scale = max(scale_u.max(), scale_v.max())
    return float(res), float(scale)


def _component_positive(values: np.ndarray) -> bool:
    return bool(values.min() >= -_POSITIVITY_SLACK * values.max())


def auto_init(branch: str, params: Params, grid: Grid, seed: int) -> Pair:
    """Default starting direction for a branch.

    N+: the source direction (f, g), whose source pairing is automatically
    positive, so the N+ root exists under the smallness condition.  N-: the
    first Laplacian eigenvector on both components plus small seeded noise
    (shared between components, so exchange symmetry is preserved); every
    nonzero direction admits the N- root.
    """
    if branch == N_PLUS:
        p = Pair(params.f, params.g)
        nsq = pair_norm_sq(p, params)
        if nsq == 0.0:
            raise ValueError(
                "cannot build an N+ start from zero sources: no direction "
                "with positive source pairing is guaranteed"
            )
        return p.scaled(1.0 / math.sqrt(nsq))
    if branch == N_MINUS:
        base = first_eigenvector(grid).values
        noise = np.random.default_rng(seed).standard_normal(grid.size)
        vals = base + 1e-2 * noise
        w = Field(grid, vals)
        p = Pair(w, w)
        return p.scaled(1.0 / math.sqrt(pair_norm_sq(p, params)))
    raise ValueError(f"branch must be {N_PLUS!r} or {N_MINUS!r}, got {branch!r}")


def _component_l2(grid: Grid, values: np.ndarray) -> float:
    return math.sqrt(float((values**2).sum() * grid.cell_volume))


def minimize(
    branch: str,
    params: Params,
    grid: Grid,
    cfg: SolverConfig | None = None,
    init: Pair | None = None,
) -> SolveReport:
    """Minimize the energy over one manifold branch.

    Iterates retraction onto the branch followed by a preconditioned
    negative-gradient step with Armijo backtracking; stops when the nodal
    gradient max-norm drops below grad_tol or the iteration cap is hit
    (best-so-far report with converged=False).  Raises BranchVanished if the
    branch root disappears along the way, SemiTrivialCollapse if one
    component dies twice.
    """
    cfg = cfg or SolverConfig()
    if params.grid != grid:
        raise ValueError("params sources do not live on the given grid")
    if init is None:
        init = auto_init(branch, params, grid, cfg.seed)

    solve1, solve2 = _riesz_solves(params)
    vol = grid.cell_volume
    noise_rng = np.random.default_rng(cfg.seed + 1)

    try:
        p = retract(init, params, branch)
    except NoSuchBranch as exc:
        raise BranchVanished(f"starting direction admits no {branch} root: {exc}") from exc

    j = energy(p, params).total
    hist_j = [j]
    hist_norm = [math.sqrt(pair_norm_sq(p, params))]
    hist_src = [source_pairing(p, params)]
    hist_ind = [branch_indicator(p, params)]
    noise_injected = False
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iters + 1):
        g = gradient(p, params)
        grad_norm = max(np.abs(g.u.values).max(), np.abs(g.v.values).max())
        if grad_norm <= cfg.grad_tol:
            converged = True
            iterations -= 1
            break

        ru = g.u.values / vol
        rv = g.v.values / vol
        du = solve1(ru)
        dv = solve2(rv)
        slope = vol * float(ru @ du + rv @ dv)

        eta = cfg.initial_step
        accepted = False
        saw_branch = False
        # near the minimizer the true per-step decrease drops below the
        # evaluation noise of J (stencil quadrature at stiffness 1/h^2);
        # allow that much so the contraction can finish, with the gradient
        # norm as the actual convergence arbiter
        slack = _ENERGY_NOISE_REL * (1.0 + abs(j))
        for _ in range(_MAX_BACKTRACKS):
            qu = p.u.values - eta * du
            qv = p.v.values - eta * dv
            try:
                trial = retract(Pair(Field(grid, qu), Field(grid, qv)), params, branch)
            except (NoSuchBranch, ValueError):
                eta *= cfg.armijo_factor
                continue
            saw_branch = True
            jt = energy(trial, params).total
            if jt <= j - cfg.armijo_slope * eta * slope + slack:
                p, j = trial, jt
                accepted = True
                break
            eta *= cfg.armijo_factor

        if not accepted:
            if not saw_branch:
                raise BranchVanished(
                    f"every trial step lost the {branch} root; the smallness "
                    "condition is violated along the current direction"
                )
            break  # energy is converged to rounding level; report as-is

        # semi-trivial guard: a component collapsing to zero means the
        # iterate is drifting toward a state the system does not admit for
        # nonzero sources; kick it once, abort on a second collapse.
        nu = _component_l2(grid, p.u.values)
        nv = _component_l2(grid, p.v.values)
        scale = math.hypot(nu, nv)
        if scale > 0 and min(nu, nv) < _COLLAPSE_REL * scale:
            if noise_injected:
                raise SemiTrivialCollapse(
                    f"component norms ({nu:.3g}, {nv:.3g}) collapsed again "
                    "after a noise restart"
                )
            noise_injected = True
            amp = _NOISE_REL * max(np.abs(p.u.values).max(), np.abs(p.v.values).max())
            kick = noise_rng.standard_normal(grid.size)
            uu = p.u.values + (amp * kick if nu < nv else 0.0)
            vv = p.v.values + (amp * kick if nv <= nu else 0.0)
            try:
                p = retract(Pair(Field(grid, uu), Field(grid, vv)), params, branch)
            except NoSuchBranch as exc:
                raise BranchVanished(
                    f"noise restart left the {branch} root region: {exc}"
                ) from exc
            j = energy(p, params).total

        hist_j.append(j)
        hist_norm.append(math.sqrt(pair_norm_sq(p, params)))
        hist_src.append(source_pairing(p, params))
        hist_ind.append(branch_indicator(p, params))

    return _build_report(
        branch, p, params, cfg, iterations, converged, noise_injected,
        hist_j, hist_norm, hist_src, hist_ind,
    )


def _build_report(
    branch, p, params, cfg, iterations, converged, noise_injected,
    hist_j, hist_norm, hist_src, hist_ind,
) -> SolveReport:
    g = gradient(p, params)
    grad_norm = float(max(np.abs(g.u.values).max(), np.abs(g.v.values).max()))
    nsq = pair_norm_sq(p, params)
    phi = nehari_constraint(p, params)
    nehari_res = abs(phi) / nsq if nsq > 0 else 0.0
    indicator = branch_indicator(p, params)
    sign_ok = indicator > 0 if branch == N_PLUS else indicator < 0
    converged = converged and nehari_res <= cfg.nehari_tol and sign_ok
    res, scale = pde_residual_scale(p, params)
    quartic = quartic_interaction(p, params)
    tau = nsq / math.sqrt(3.0 * quartic) if branch == N_MINUS and quartic > 0 else None
    return SolveReport(
        branch=branch,
        state=p,
        theta=float(energy(p, params).total),
        grad_norm=grad_norm,
        nehari_residual=float(nehari_res),
        classification_value=float(indicator),
        pde_residual=res,
        pde_scale=scale,
        positive=(
            _component_positive(p.u.values),
            _component_positive(p.v.values),
        ),
        iterations=iterations,
        converged=converged,
        norm_min=float(min(hist_norm)),
        norm_max=float(max(hist_norm)),
        tau_bound=tau,
        grad_tol=cfg.grad_tol,
        nehari_tol=cfg.nehari_tol,
        noise_injected=noise_injected,
        config=cfg,
        energy_history=tuple(hist_j),
        norm_history=tuple(hist_norm),
        source_history=tuple(hist_src),
        indicator_history=tuple(hist_ind),
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
    from dataclasses import replace

    reports = [
        minimize(branch, params, grid, replace(cfg, seed=int(s))) for s in seeds
    ]
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
    result has both components nonnegative.
    """
    if params.f.values.min() < 0 or params.g.values.min() < 0:
        raise ValueError("positivity rescale requires nonnegative source fields")
    if not report.converged:
        raise ValueError("positivity rescale requires a converged report")
    grid = report.state.grid
    abs_pair = Pair(
        Field(grid, np.abs(report.state.u.values)),
        Field(grid, np.abs(report.state.v.values)),
    )
    new = minimize(report.branch, params, grid, report.config, init=abs_pair)
    if new.theta > report.theta + report.nehari_tol:
        raise RuntimeError(
            f"positivity rescale raised the energy: {new.theta!r} vs "
            f"{report.theta!r}; this contradicts the absolute-value comparison"
        )
    return new


def verify_solution(
    report: SolveReport,
    params: Params,
    s4: float | None = None,
    seed: int = 0,
    n_test_pairs: int = 20,
) -> list[CheckResult]:
    """Re-derive every report invariant from scratch; failures are listed.

    Recomputes all functionals with fresh quadrature, checks both components
    are nonzero, the on-manifold energy identity, the coercivity lower bound
    (with the supplied or freshly estimated Sobolev constant), and the weak
    form against random test pairs.
    """
    checks: list[CheckResult] = []

    def add(name, passed, detail):
        checks.append(CheckResult(name, bool(passed), detail))

    p = report.state
    grid = p.grid
    nsq = pair_norm_sq(p, params)
    norm = math.sqrt(nsq)
    nu = math.sqrt(h1_weighted_norm_sq(p.u, params.lam1))
    nv = math.sqrt(h1_weighted_norm_sq(p.v, params.lam2))
    add(
        "state_nontrivial",
        nu > 1e-6 * norm and nv > 1e-6 * norm,
        f"component norms ({nu:.6g}, {nv:.6g}) vs pair norm {norm:.6g}",
    )

    phi = nehari_constraint(p, params)
    nres = abs(phi) / nsq if nsq > 0 else 0.0
    add(
        "on_manifold",
        nres <= report.nehari_tol,
        f"|Phi|/||p||^2 = {nres:.3e} (tol {report.nehari_tol:.1e})",
    )

    indicator = branch_indicator(p, params)
    sign_ok = indicator > 0 if report.branch == N_PLUS else indicator < 0
    add(
        "branch_sign",
        sign_ok,
        f"branch {report.branch} with indicator {indicator:.6g}",
    )

    g = gradient(p, params)
    gn = float(max(np.abs(g.u.values).max(), np.abs(g.v.values).max()))
    add(
        "gradient_norm",
        (not report.converged) or gn <= report.grad_tol,
        f"max nodal gradient {gn:.3e} (tol {report.grad_tol:.1e})",
    )

    j = energy(p, params).total
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

    quartic = quartic_interaction(p, params)
    if report.branch == N_MINUS:
        tau = nsq / math.sqrt(3.0 * quartic)
        add(
            "bound_state_norm_floor",
            nsq < 3.0 * quartic and norm > tau * (1.0 - 1e-12),
            f"||p||^2 = {nsq:.6g} < 3A = {3.0 * quartic:.6g}, "
            f"||p|| = {norm:.6g} > tau = {tau:.6g}",
        )

    b = source_pairing(p, params)
    identity_res = abs(j - (0.25 * nsq - 0.75 * b))
    add(
        "energy_identity",
        identity_res <= 1e-8 * (1.0 + abs(j)),
        f"|J - (||p||^2/4 - 3B/4)| = {identity_res:.3e}",
    )

    if s4 is None:
        s4 = estimate_s4(grid, min(params.lam1, params.lam2), seed=seed)
    coercive_floor = 0.25 * nsq - (3.0 * math.sqrt(2.0) / 4.0) * s4 * max(
        l43_norm(params.f), l43_norm(params.g)
    ) * norm
    add(
        "coercivity",
        j >= coercive_floor - 1e-9 * (1.0 + abs(j)),
        f"J = {j:.6g} >= floor {coercive_floor:.6g}",
    )

    res, scale = pde_residual_scale(p, params)
    add(
        "pde_residual",
        (not report.converged) or res <= _PDE_RESIDUAL_REL * scale,
        f"strong residual {res:.3e} vs {_PDE_RESIDUAL_REL:.0e} * scale {scale:.6g}",
    )

    rng = np.random.default_rng(seed)
    worst = 0.0
    vol = grid.cell_volume
    u, v = p.u.values, p.v.values
    for _ in range(n_test_pairs):
        tu = rng.standard_normal(grid.size)
        tv = rng.standard_normal(grid.size)
        terms = [
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
        tscale = sum(abs(t) for t in terms)
        if tscale > 0:
            worst = max(worst, abs(sum(terms)) / tscale)
    add(
        "weak_form",
        (not report.converged) or worst <= 1e-6,
        f"worst relative weak-form residual {worst:.3e} over {n_test_pairs} pairs",
    )

    pos_now = (_component_positive(u), _component_positive(v))
    add(
        "positivity_flags",
        pos_now == report.positive,
        f"recomputed {pos_now}, reported {report.positive}",
    )

    return checks
