"""Exact stationary-point analysis of the energy along a fixed ray.

Along the ray t -> t*(u,v) the energy is the scalar polynomial

    phi(t) = t^2/2 * norm_sq - t^4/4 * A - t * B,

so stationary points are the positive roots of

    q(t) = norm_sq * t - A * t^3 - B.

The concave map psi(t) = norm_sq*t - A*t^3 rises from 0 to its maximum
psi_max at t_turn = sqrt(norm_sq/(3A)) and then falls to -infinity, which
forces the root trichotomy: two simple roots straddling t_turn for
0 < B < psi_max, exactly one root beyond t_turn for B <= 0, a double root at
t_turn for B = psi_max, and none for B > psi_max.  Roots left of t_turn are
local minima of phi (class N+), roots right of it are local maxima (class
N-).  The count and the classes are invariant under rescaling the ray
direction.

Roots are found by bracketed bisection with a safeguarded Newton polish.
Closed-form cubic formulas are deliberately avoided: they cancel
catastrophically near the tangency B ~ psi_max, while the brackets
[0, t_turn] and [t_turn, T] are guaranteed by the concavity of psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .functional import Params, quartic_interaction, source_pairing
from .grid import Pair, pair_norm_sq

__all__ = [
    "N_PLUS",
    "N_ZERO",
    "N_MINUS",
    "Root",
    "FiberingAnalysis",
    "NoSuchBranch",
    "analyze",
    "analyze_direction",
    "branch_root",
    "retract",
]

N_PLUS = "N+"
N_ZERO = "N0"
N_MINUS = "N-"

# |B - psi_max| below this times the natural scale norm_sq^{3/2}/sqrt(A) is
# treated as an exact tangency: the two roots are closer than root-separation
# resolution allows.
_TANGENT_WINDOW = 1e-12


class Root(NamedTuple):
    t: float
    branch: str


class NoSuchBranch(Exception):
    """The requested manifold branch has no root along this direction."""

    def __init__(self, target, norm_sq, quartic, source, psi_max):
        self.target = target
        self.norm_sq = norm_sq
        self.quartic = quartic
        self.source = source
        self.psi_max = psi_max
        super().__init__(
            f"no {target} root along this direction "
            f"(norm_sq={norm_sq:.6g}, A={quartic:.6g}, B={source:.6g}, "
            f"psi_max={psi_max:.6g})"
        )


@dataclass(frozen=True)
class FiberingAnalysis:
    """Stationary points of the energy along one ray, classified."""

    norm_sq: float
    quartic: float  # coefficient A of the cubic term of q
    source: float  # constant term B
    t_turn: float
    psi_max: float
    roots: tuple[Root, ...]


def _q(norm_sq, a, b, t):
    return norm_sq * t - a * t * t * t - b


def _bracketed_root(norm_sq, a, b, lo, hi) -> float:
    """Root of q on [lo, hi]; q must change sign across the bracket.

    Bisection narrows the bracket, a Newton step is taken whenever it lands
    strictly inside, and iteration stops once the bracket is a few ulps wide.
    """
    qlo = _q(norm_sq, a, b, lo)
    qhi = _q(norm_sq, a, b, hi)
    if qlo == 0.0:
        return lo
    if qhi == 0.0:
        return hi
    if (qlo > 0.0) == (qhi > 0.0):
        raise ValueError("root bracket does not change sign")
    t = 0.5 * (lo + hi)
    for _ in range(200):
        q = _q(norm_sq, a, b, t)
        if q == 0.0:
            return t
        if (q > 0.0) == (qlo > 0.0):
            lo, qlo = t, q
        else:
            hi = t
        if hi - lo <= 4.0 * math.ulp(hi):
            break
        dq = norm_sq - 3.0 * a * t * t
        tn = t - q / dq if dq != 0.0 else 0.5 * (lo + hi)
        if not (lo < tn < hi):
            tn = 0.5 * (lo + hi)
        if tn == t:
            break
        t = tn
    # keep whichever bracket end (or t) evaluates smallest in magnitude
    best, qbest = t, abs(_q(norm_sq, a, b, t))
    for cand in (lo, hi):
        qc = abs(_q(norm_sq, a, b, cand))
        if qc < qbest:
            best, qbest = cand, qc
    return best


def analyze(norm_sq: float, quartic: float, source: float) -> FiberingAnalysis:
    """All positive stationary points for ray data (norm_sq, A, B)."""
    if not norm_sq > 0:
        raise ValueError(f"norm_sq must be positive, got {norm_sq}")
    if not quartic > 0:
        raise ValueError(f"quartic coefficient must be positive, got {quartic}")
    t_turn = math.sqrt(norm_sq / (3.0 * quartic))
    psi_max = (2.0 / 3.0) * norm_sq * t_turn
    window = _TANGENT_WINDOW * norm_sq**1.5 / math.sqrt(quartic)
    upper = math.sqrt(norm_sq / quartic) + (abs(source) / quartic) ** (1.0 / 3.0) + 1.0

    if abs(source - psi_max) <= window:
        roots = (Root(t_turn, N_ZERO),)
    elif source > psi_max:
        roots = ()
    elif source <= 0.0:
        roots = (Root(_bracketed_root(norm_sq, quartic, source, t_turn, upper), N_MINUS),)
    else:
        t1 = _bracketed_root(norm_sq, quartic, source, 0.0, t_turn)
        t2 = _bracketed_root(norm_sq, quartic, source, t_turn, upper)
        roots = (Root(t1, N_PLUS), Root(t2, N_MINUS))
    return FiberingAnalysis(norm_sq, quartic, source, t_turn, psi_max, roots)


def analyze_direction(p: Pair, params: Params) -> FiberingAnalysis:
    """Fibering analysis along the ray through the (nonzero) state p."""
    norm_sq = pair_norm_sq(p, params)
    if norm_sq == 0.0:
        raise ValueError("cannot analyze the zero direction")
    return analyze(norm_sq, quartic_interaction(p, params), source_pairing(p, params))


def branch_root(ana: FiberingAnalysis, target: str) -> float:
    """The root t of the requested branch (N+ or N-) in a fibering analysis.

    Raises NoSuchBranch when the ray has no root of that class, e.g. target
    N+ with B <= 0, or B past the tangency value.
    """
    if target not in (N_PLUS, N_MINUS):
        raise ValueError(f"target must be {N_PLUS!r} or {N_MINUS!r}, got {target!r}")
    for root in ana.roots:
        if root.branch == target:
            return root.t
    raise NoSuchBranch(target, ana.norm_sq, ana.quartic, ana.source, ana.psi_max)


def retract(p: Pair, params: Params, target: str) -> Pair:
    """Rescale p onto the requested manifold branch (N+ or N-); see branch_root."""
    return p.scaled(branch_root(analyze_direction(p, params), target))
