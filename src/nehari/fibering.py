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

Each root is found by Newton's method started from the end of its bracket
on the far side of it: t = 0 for the N+ root, and for the N- root a scale-free
T = sqrt(2 norm_sq/A) + (2|B|/A)^(1/3) with q(T) <= 0.  Since q is concave,
the iterates approach the root monotonically from that side, so no bracket
has to be kept.  Closed-form cubic formulas are deliberately avoided: they
cancel catastrophically near the tangency B ~ psi_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .functional import Params, evaluate
from .grid import Pair

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

# Newton from either bracket end needs a few dozen steps at most, even for B
# just outside the tangency window, where the two roots nearly merge.
_MAX_NEWTON_ITERS = 100


class Root(NamedTuple):
    t: float
    branch: str


class NoSuchBranch(Exception):
    """The requested manifold branch has no root along this direction."""


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


def _newton_root(norm_sq, a, b, t) -> float:
    """The root of q that Newton's method reaches from a start t with q(t) <= 0.

    q is concave, so its tangent lies above it: from such a start every
    Newton iterate stays on the start's side of the nearest root and moves
    toward it.  The loop stops once a step no longer moves t that way.
    """
    for _ in range(_MAX_NEWTON_ITERS):
        q = _q(norm_sq, a, b, t)
        t_next = t - q / (norm_sq - 3.0 * a * t * t)
        if not q < 0.0 or t_next == t:
            break
        t = t_next
    return t


def analyze(norm_sq: float, quartic: float, source: float) -> FiberingAnalysis:
    """All positive stationary points for ray data (norm_sq, A, B)."""
    if not norm_sq > 0:
        raise ValueError(f"norm_sq must be positive, got {norm_sq}")
    if not quartic > 0:
        raise ValueError(f"quartic coefficient must be positive, got {quartic}")
    t_turn = math.sqrt(norm_sq / (3.0 * quartic))
    psi_max = (2.0 / 3.0) * norm_sq * t_turn
    window = _TANGENT_WINDOW * norm_sq**1.5 / math.sqrt(quartic)
    # A*upper^3 >= 2*norm_sq*upper and >= 2|B|, so q(upper) <= 0 for any B
    upper = math.sqrt(2.0 * norm_sq / quartic) + (2.0 * abs(source) / quartic) ** (1.0 / 3.0)

    if abs(source - psi_max) <= window:
        roots = (Root(t_turn, N_ZERO),)
    elif source > psi_max:
        roots = ()
    elif source <= 0.0:
        roots = (Root(_newton_root(norm_sq, quartic, source, upper), N_MINUS),)
    else:
        t1 = _newton_root(norm_sq, quartic, source, 0.0)
        t2 = _newton_root(norm_sq, quartic, source, upper)
        roots = (Root(t1, N_PLUS), Root(t2, N_MINUS))
    return FiberingAnalysis(norm_sq, quartic, source, t_turn, psi_max, roots)


def analyze_direction(p: Pair, params: Params) -> FiberingAnalysis:
    """Fibering analysis along the ray through the (nonzero) state p."""
    rd = evaluate(params, p.u.values, p.v.values)
    if rd.norm_sq == 0.0:
        raise ValueError("cannot analyze the zero direction")
    return analyze(rd.norm_sq, rd.quartic, rd.source)


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
    raise NoSuchBranch(
        f"no {target} root along this direction (norm_sq={ana.norm_sq:.6g}, "
        f"A={ana.quartic:.6g}, B={ana.source:.6g}, psi_max={ana.psi_max:.6g})"
    )


def retract(p: Pair, params: Params, target: str) -> Pair:
    """Rescale p onto the requested manifold branch (N+ or N-); see branch_root."""
    return p.scaled(branch_root(analyze_direction(p, params), target))
