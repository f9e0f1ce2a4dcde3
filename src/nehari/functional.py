"""Energy functional, its gradient, and the Nehari constraint.

The energy of a state (u, v) is

    J = 1/2 * ||(u,v)||^2 - 1/4 * A - B

with the quartic interaction A = mu1*|u|_4^4 + mu2*|v|_4^4 + 2*beta*int(u^2 v^2)
and the source pairing B = int(f*u + g*v).  All quadrature goes through the
grid module so the gradient below is the exact derivative of the discrete
energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, Pair, l4_norm4, laplacian_matvec, pair_norm_sq

__all__ = [
    "Params",
    "EnergyBreakdown",
    "quartic_interaction",
    "source_pairing",
    "energy",
    "residual_terms",
    "gradient",
    "nehari_constraint",
    "branch_indicator",
]


@dataclass(frozen=True)
class Params:
    """Coefficients and source terms of the coupled system.

    Validity: lam1, lam2, mu1, mu2 > 0 and beta > -sqrt(mu1*mu2).  The
    coupling may be negative down to that floor; the quartic interaction
    stays strictly positive for nonzero states on that whole range.
    """

    lam1: float
    lam2: float
    mu1: float
    mu2: float
    beta: float
    f: Field
    g: Field

    def __post_init__(self):
        for name in ("lam1", "lam2", "mu1", "mu2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        floor = -math.sqrt(self.mu1 * self.mu2)
        if not self.beta > floor:
            raise ValueError(
                f"beta must exceed -sqrt(mu1*mu2) = {floor:.6g}, got {self.beta}"
            )
        if self.f.grid != self.g.grid:
            raise ValueError("source fields f and g must share one grid")

    @property
    def grid(self) -> Grid:
        return self.f.grid


@dataclass(frozen=True)
class EnergyBreakdown:
    """The three parts of J, reported separately.

    total is stored as quadratic - quartic - source, exactly.
    """

    quadratic: float  # 1/2 * ||(u,v)||^2
    quartic: float  # 1/4 * A
    source: float  # B
    total: float


def quartic_interaction(p: Pair, params: Params) -> float:
    """A = mu1*|u|_4^4 + mu2*|v|_4^4 + 2*beta*int(u^2 v^2)."""
    u, v = p.u.values, p.v.values
    cross = float((u**2 * v**2).sum() * p.grid.cell_volume)
    return params.mu1 * l4_norm4(p.u) + params.mu2 * l4_norm4(p.v) + 2.0 * params.beta * cross


def source_pairing(p: Pair, params: Params) -> float:
    """B = int(f*u + g*v); linear in the state."""
    u, v = p.u.values, p.v.values
    s = (params.f.values * u).sum() + (params.g.values * v).sum()
    return float(s * p.grid.cell_volume)


def energy(p: Pair, params: Params) -> EnergyBreakdown:
    """J = 1/2*||(u,v)||^2 - 1/4*A - B, parts reported separately."""
    quadratic = 0.5 * pair_norm_sq(p, params)
    quartic = 0.25 * quartic_interaction(p, params)
    source = source_pairing(p, params)
    return EnergyBreakdown(quadratic, quartic, source, quadratic - quartic - source)


def residual_terms(params: Params, u, v, lu, lv) -> tuple[np.ndarray, np.ndarray]:
    """Signed terms of the strong residual of each component, one row each.

    Given the stencil values lu = -lap u and lv = -lap v, the u rows are
    (-lap u, lam1*u, -mu1*u^3, -beta*u*v^2, -f) and the v rows are the same
    with the roles swapped.  A column sum is the strong residual at a node.
    """
    # the two coupling products round differently even where u == v; that
    # rounding-level asymmetry is what lets a descent leave a symmetric saddle
    beta, f, g = params.beta, params.f.values, params.g.values
    return (
        np.stack((lu, params.lam1 * u, -params.mu1 * (u * u * u), -(beta * u * (v * v)), -f)),
        np.stack((lv, params.lam2 * v, -params.mu2 * (v * v * v), -(beta * (u * u) * v), -g)),
    )


def gradient(p: Pair, params: Params) -> Pair:
    """Nodal representative of J' scaled by the quadrature weight.

    The u component carries (-lap u + lam1*u - mu1*u^3 - beta*u*v^2 - f) * h^dim
    per node (v analogous), so the plain Euclidean dot product of the returned
    nodal values with any direction equals the directional derivative of
    energy() in that direction.
    """
    grid = p.grid
    u, v = p.u.values, p.v.values
    tu, tv = residual_terms(params, u, v, laplacian_matvec(grid, u), laplacian_matvec(grid, v))
    vol = grid.cell_volume
    return Pair(Field(grid, vol * tu.sum(axis=0)), Field(grid, vol * tv.sum(axis=0)))


def nehari_constraint(p: Pair, params: Params) -> float:
    """<J'(u,v),(u,v)> = ||(u,v)||^2 - A - B; zero exactly on the manifold."""
    return pair_norm_sq(p, params) - quartic_interaction(p, params) - source_pairing(p, params)


def branch_indicator(p: Pair, params: Params) -> float:
    """2*||(u,v)||^2 - 4*A - B.

    For a state on the manifold this equals ||(u,v)||^2 - 3*A and its sign
    classifies the state: positive on the ground-state branch, negative on
    the bound-state branch, zero on the degenerate set.
    """
    return (
        2.0 * pair_norm_sq(p, params)
        - 4.0 * quartic_interaction(p, params)
        - source_pairing(p, params)
    )
