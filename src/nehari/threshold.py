"""Source-smallness threshold from a discrete Sobolev constant estimate.

The branch structure of the constraint set is clean whenever the L^{4/3}
norms of both sources stay below a threshold Lambda that depends only on the
coefficients and on the best constant s4 of the discrete embedding into L^4:

    sup A over the unit sphere  <=  c * s4^4,   c = max(mu1, mu2, beta^+),
    alpha  = 2/3 * sqrt(1 / (3 * sup A bound)),
    Lambda = alpha / (sqrt(2) * s4).

alpha is taken at its maximal admissible value so Lambda is the least
conservative choice this bound chain allows.  s4 is estimated with respect
to the lam-weighted single-component norm at lam = min(lam1, lam2): the
smaller weight gives the larger constant, so one estimate covers both
components conservatively.  The estimate is a projected gradient ascent from
the first eigenvector of -lap, guarded by seeded smooth probes; its trial
steps are evaluated from polynomials in the step length, so only an accepted
step applies the stencil.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .functional import Params, polyval
from .grid import Grid, first_eigenvector, l43_norm, laplacian_matvec, weighted_norm_sq

__all__ = ["ThresholdReport", "estimate_s4", "compute_threshold"]


_MAX_ASCENT_ITERS = 4000  # the iteration cap of one ascent
_PROBE_MODES = 4
_PROBES = 16


@dataclass(frozen=True)
class ThresholdReport:
    s4: float
    sup_A_bound: float
    alpha: float
    lambda_threshold: float
    f_norm: float
    g_norm: float
    satisfied: bool
    degenerate_sources: bool


def _l4(vals: np.ndarray, vol: float) -> float:
    return float((((vals * vals) ** 2).sum() * vol) ** 0.25)


def _ascent_line(grid: Grid, lam: float, w: np.ndarray, lw: np.ndarray):
    """Coefficients in s, constant first, along w + s*c with c = w^3.

    Given lw = -lap w, returns (mass, norm, c, -lap c): mass for |w + s*c|_4^4
    (all terms >= 0, as w + s*c = w*(1 + s*w^2)) and norm for the squared
    weighted norm vol*(<w,w> + 2s<w,c> + s^2<c,c>), <a,b> = a.(-lap b) + lam*a.b.
    """
    vol = grid.cell_volume
    w2 = w * w
    c, w4 = w2 * w, w2 * w2
    lc = laplacian_matvec(grid, c)
    w6 = c * c
    m4, m6 = w4.sum(), w6.sum()
    mass = vol * np.array((m4, 4.0 * m6, 6.0 * (w4 @ w4), 4.0 * (w4 @ w6), w6 @ w6))
    norm = vol * np.array((w @ lw + lam * w2.sum(), 2.0 * (c @ lw + lam * m4), c @ lc + lam * m6))
    return mass, norm, c, lc


def _line_ratio(mass, norm, s: float) -> float:
    """The ratio |w + s*c|_4 / |w + s*c|_{H,lam} from the _ascent_line polynomials."""
    return float(polyval(mass, s) ** 0.25 / math.sqrt(polyval(norm, s)))


def _ascend(grid: Grid, lam: float, start: np.ndarray) -> tuple[float, bool]:
    """Maximize |w|_4 on the unit sphere of the lam-weighted norm.

    Normalized projected gradient ascent: step along c = w^3, the nodal
    gradient of the L4 mass, renormalize, keep the step only if the objective
    improved.  Along w + s*c the L4 mass and the squared norm are polynomials
    in s (_ascent_line), so a trial step is scalar arithmetic and only an
    accepted step applies the stencil, to its new c; -lap w follows the step
    by linearity.  The returned ratio is that of the final w, evaluated
    directly.  Returns (ratio, hit_cap).
    """
    vol = grid.cell_volume
    lw = laplacian_matvec(grid, start)
    k = 1.0 / math.sqrt(vol * (start @ lw + lam * (start @ start)))
    w, lw = k * start, k * lw
    mass, norm, c, lc = _ascent_line(grid, lam, w, lw)
    obj = _line_ratio(mass, norm, 0.0)
    step, stalls, hit_cap = 1.0, 0, True
    for _ in range(_MAX_ASCENT_ITERS):
        tobj = _line_ratio(mass, norm, step)
        if tobj > obj:
            k = 1.0 / math.sqrt(polyval(norm, step))
            w, lw = k * (w + step * c), k * (lw + step * lc)
            mass, norm, c, lc = _ascent_line(grid, lam, w, lw)
            obj = tobj
            step *= 1.5
            stalls = 0
        else:
            step *= 0.5
            stalls += 1
            if stalls > 60 or step < 1e-18:
                hit_cap = False
                break
    return _l4(w, vol) / math.sqrt(weighted_norm_sq(grid, w, lam)), hit_cap


def _smooth_probes(grid: Grid, rng: np.random.Generator):
    """Random combinations of the first few sine modes per axis.

    Each probe is sum_jk c_jk sin(j pi x/L1)/j * sin(k pi y/L2)/k (one factor
    in 1D) with standard normal c, built from one sine table per axis.  The
    1/j weights keep the probes smooth, so their ratios come within reach
    of s4 (up to about 0.30 in 1D and 0.23 in 2D on the unit box at lam = 1,
    against s4 = 0.34 and 0.28), which white noise never does.
    """
    modes = np.arange(1, _PROBE_MODES + 1)
    tables = [
        np.sin(np.outer(modes, grid.axis_coords(k)) * (math.pi / grid.extents[k]))
        / modes[:, None]
        for k in range(grid.dim)
    ]
    for _ in range(_PROBES):
        coeffs = rng.standard_normal((_PROBE_MODES,) * grid.dim)
        if grid.dim == 1:
            yield coeffs @ tables[0]
        else:
            yield (tables[0].T @ coeffs @ tables[1]).ravel()


def estimate_s4(grid: Grid, lam: float, seed: int = 0) -> float:
    """Estimate of the best constant in |w|_4 <= s4 * |w|_{H,lam}.

    The ascent runs from the first eigenvector of -lap.  A guard then draws
    16 smooth probes from the seed, random combinations of the first 4 sine
    modes per axis: a probe whose ratio beats the ascent would mean the
    optimization missed badly, so the ascent is re-run from that probe.  The
    seed draws only the probes, so the result is deterministic given it.
    White-noise starts are not tried: their ascents end far below the
    eigenvector's (at most 0.65 of it on every grid and lam tested).

    A warning is emitted if an ascent hit the iteration cap; the best value
    found is still returned.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    best, capped = _ascend(grid, lam, first_eigenvector(grid).values)
    vol = grid.cell_volume
    for w in _smooth_probes(grid, np.random.default_rng(seed)):
        ratio = _l4(w, vol) / math.sqrt(weighted_norm_sq(grid, w, lam))
        if ratio > best:
            val, hit_cap = _ascend(grid, lam, w)
            capped = capped or hit_cap
            best = max(best, val, ratio)
    if capped:
        warnings.warn(
            "Sobolev-constant ascent hit its iteration cap; "
            "returning best ratio found so far",
            RuntimeWarning,
            stacklevel=2,
        )
    return best


def compute_threshold(params: Params, grid: Grid, s4: float) -> ThresholdReport:
    """Threshold report for the given coefficients, sources and s4 estimate.

    Lambda never depends on f or g; the norms and the satisfied flag do.
    Sources with either component identically zero are flagged as degenerate
    and never count as satisfied, since the two-solution statement assumes
    both sources nonzero.
    """
    if params.grid != grid:
        raise ValueError("params sources do not live on the given grid")
    # Params enforces mu1, mu2 > 0, so a nonpositive beta never wins the max
    c = max(params.mu1, params.mu2, params.beta)
    sup_a = c * s4**4  # s4 shrinks like lam^(-1/2): s4**4 underflows at lam 1e200
    if not (s4 > 0 and sup_a > 0):
        raise ValueError(
            f"no threshold at lam1 = {params.lam1:g}, lam2 = {params.lam2:g}, "
            f"mu1 = {params.mu1:g}, mu2 = {params.mu2:g}, beta = {params.beta:g}: "
            f"it needs s4 > 0 and c*s4^4 > 0, got s4 = {s4:g} and c*s4^4 = {sup_a:g}"
        )
    alpha = (2.0 / 3.0) * math.sqrt(1.0 / (3.0 * sup_a))
    lam_threshold = alpha / (math.sqrt(2.0) * s4)
    f_norm = l43_norm(params.f)
    g_norm = l43_norm(params.g)
    degenerate = f_norm == 0.0 or g_norm == 0.0
    satisfied = (not degenerate) and max(f_norm, g_norm) < lam_threshold
    return ThresholdReport(
        s4=s4,
        sup_A_bound=sup_a,
        alpha=alpha,
        lambda_threshold=lam_threshold,
        f_norm=f_norm,
        g_norm=g_norm,
        satisfied=satisfied,
        degenerate_sources=degenerate,
    )

