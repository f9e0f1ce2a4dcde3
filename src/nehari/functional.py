"""Energy functional, its gradient and the one evaluator they reduce from.

The energy of a state (u, v) is

    J = 1/2 * N - 1/4 * A - B

with the squared energy norm N = ||(u,v)||^2, the quartic interaction
A = mu1*|u|_4^4 + mu2*|v|_4^4 + 2*beta*int(u^2 v^2) and the source pairing
B = int(f*u + g*v).  Along a ray J(t*p) = t^2*N/2 - t^4*A/4 - t*B, so the
energy, the constraint N - A - B and the branch indicator 2N - 4A - B are
algebra on the ray data (N, A, B).  evaluate() computes the strong residual
rows of a state with one stencil pass per component and gets N, A and B by
pairing those rows with the state; every public function below is a
reduction of its result.  All quadrature is the grid's rectangle rule, so
the gradient is the exact derivative of the discrete energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Field, Grid, Pair, laplacian_matvec

__all__ = ["Params", "EnergyBreakdown", "RayData", "evaluate", "energy", "gradient", "max_norm"]


@dataclass(frozen=True)
class Params:
    """Coefficients and source terms of the coupled system.

    Validity: lam1, lam2, mu1, mu2 > 0 and beta > -sqrt(mu1*mu2), all
    finite.  The coupling may be negative down to that floor; the quartic
    interaction stays strictly positive for nonzero states on that whole
    range.
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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        floor = -math.sqrt(self.mu1 * self.mu2)
        if not floor < self.beta < math.inf:
            raise ValueError(
                f"beta must be finite and exceed -sqrt(mu1*mu2) = {floor:.6g}, got {self.beta}"
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


class RayData(NamedTuple):
    """One evaluation of a state: strong residual rows and ray data."""

    u: np.ndarray
    v: np.ndarray
    terms_u: np.ndarray  # signed residual terms, one row each; see evaluate
    terms_v: np.ndarray
    residual: tuple[np.ndarray, np.ndarray]  # column sums of the terms
    vol: float  # quadrature weight of one node
    norm_sq: float  # N
    quartic: float  # A
    source: float  # B

    @property
    def energy(self) -> float:
        """J = N/2 - A/4 - B."""
        return 0.5 * self.norm_sq - 0.25 * self.quartic - self.source

    @property
    def constraint(self) -> float:
        """<J'(p), p> = N - A - B; zero exactly on the manifold."""
        return self.norm_sq - self.quartic - self.source

    @property
    def nehari_residual(self) -> float:
        """|N - A - B| / N, the relative constraint residual (0 for the zero state)."""
        return abs(self.constraint) / self.norm_sq if self.norm_sq > 0 else 0.0

    @property
    def indicator(self) -> float:
        """2N - 4A - B: on the manifold N - 3A, positive on N+, negative on N-."""
        return 2.0 * self.norm_sq - 4.0 * self.quartic - self.source

    @property
    def origin_gap(self) -> float | None:
        """tau = N / sqrt(3A), the norm below which no N- state lies; None unless A > 0."""
        return self.norm_sq / math.sqrt(3.0 * self.quartic) if self.quartic > 0 else None

    @property
    def gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodal gradient: the residual times the quadrature weight."""
        return self.vol * self.residual[0], self.vol * self.residual[1]

    @property
    def grad_norm(self) -> float:
        """Max-norm of the nodal gradient, exactly vol * max|residual| as rounding is monotone."""
        return self.vol * max_norm(*self.residual)


def evaluate(params: Params, u: np.ndarray, v: np.ndarray) -> RayData:
    """Evaluate the state (u, v) with one stencil pass per component.

    The u rows are (-lap u, lam1*u, -mu1*u^3, -beta*u*v^2, -f) and the v rows
    the same with the roles swapped; a column sum is the strong residual at a
    node.  N, A and B are pairings of the rows with the state itself:
    u.(-lap u) + lam1*|u|^2 is the u part of N, the two nonlinear rows give
    -A and the source row gives -B.
    """
    grid = params.grid
    # the two coupling products round differently even where u == v; that
    # rounding-level asymmetry is what lets a descent leave a symmetric saddle
    beta = params.beta
    terms_u = np.stack((laplacian_matvec(grid, u), params.lam1 * u, -params.mu1 * (u * u * u),
                        -(beta * u * (v * v)), -params.f.values))
    terms_v = np.stack((laplacian_matvec(grid, v), params.lam2 * v, -params.mu2 * (v * v * v),
                        -(beta * (u * u) * v), -params.g.values))
    su, sv = terms_u @ u, terms_v @ v
    vol = grid.cell_volume
    return RayData(
        u, v, terms_u, terms_v, (terms_u.sum(axis=0), terms_v.sum(axis=0)), vol,
        norm_sq=float(vol * (su[0] + su[1] + sv[0] + sv[1])),
        quartic=float(-vol * (su[2] + su[3] + sv[2] + sv[3])),
        source=float(-vol * (su[4] + sv[4])),
    )


def max_norm(*arrays: np.ndarray) -> float:
    """Largest absolute entry over the given nodal arrays."""
    return float(max(np.abs(a).max() for a in arrays))


def energy(p: Pair, params: Params) -> EnergyBreakdown:
    """J = 1/2*||(u,v)||^2 - 1/4*A - B, parts reported separately."""
    rd = evaluate(params, p.u.values, p.v.values)
    return EnergyBreakdown(0.5 * rd.norm_sq, 0.25 * rd.quartic, rd.source, rd.energy)


def gradient(p: Pair, params: Params) -> Pair:
    """Nodal representative of J' scaled by the quadrature weight.

    The u component carries (-lap u + lam1*u - mu1*u^3 - beta*u*v^2 - f) * h^dim
    per node (v analogous), so the plain Euclidean dot product of the returned
    nodal values with any direction equals the directional derivative of
    energy() in that direction.
    """
    gu, gv = evaluate(params, p.u.values, p.v.values).gradient
    return Pair(Field(p.grid, gu), Field(p.grid, gv))
