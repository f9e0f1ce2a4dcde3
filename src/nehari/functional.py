"""Energy functional, its gradient and the one evaluator they reduce from.

The energy of a state (u, v) is

    J = 1/2 * N - 1/4 * A - B

with the squared energy norm N = ||(u,v)||^2, the quartic interaction
A = mu1*|u|_4^4 + mu2*|v|_4^4 + 2*beta*int(u^2 v^2) and the source pairing
B = int(f*u + g*v).  Along a ray J(t*p) = t^2*N/2 - t^4*A/4 - t*B, so the
energy, the constraint N - A - B and the branch indicator 2N - 4A - B are
algebra on the ray data (N, A, B).  evaluate() applies the stencil once per
component, adds each component's five signed residual rows into its
residual in place, keeps the energy row (-lap + lam) w and the square w^2,
and takes N, A and B by dot products; residual_terms() stacks the rows for
the checks that read them one by one.  energy and gradient are reductions
of evaluate's result.  polyval is
the Horner rule of the line polynomials of the descent and of the s4
ascent.  All quadrature is the grid's rectangle rule, so the gradient is
the exact derivative of the discrete energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Field, Grid, Pair, laplacian_matvec

__all__ = ["Params", "RayData", "evaluate", "residual_terms", "energy", "gradient", "max_norm",
           "polyval"]


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


class RayData(NamedTuple):
    """One evaluation of a state: its residual, energy rows, squares and ray data."""

    u: np.ndarray
    v: np.ndarray
    residual: np.ndarray  # (2, N): the strong residual of u, then of v
    energy_rows: tuple[np.ndarray, np.ndarray]  # (-lap + lam1) u and (-lap + lam2) v
    squares: tuple[np.ndarray, np.ndarray]  # u*u and v*v
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
        """|N - A - B| / N, the relative constraint residual (0 for N = 0, NaN for N NaN)."""
        return abs(self.constraint) / self.norm_sq if self.norm_sq != 0 else 0.0

    @property
    def indicator(self) -> float:
        """2N - 4A - B: on the manifold N - 3A, positive on N+, negative on N-."""
        return 2.0 * self.norm_sq - 4.0 * self.quartic - self.source

    @property
    def gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodal gradient: the residual times the quadrature weight."""
        return self.vol * self.residual[0], self.vol * self.residual[1]

    @property
    def grad_norm(self) -> float:
        """Max-norm of the nodal gradient, exactly vol * max|residual| as rounding is monotone."""
        return self.vol * float(np.abs(self.residual).max())  # max_norm's bits, in one pass


def _signed_rows(params: Params, u, v, uu, vv):
    """Yield the five residual rows of u, then those of v, one at a time.

    The u rows are (-lap u, lam1*u, -mu1*u^3, -beta*u*v^2, f) and the v rows
    the same with the roles swapped; uu and vv are u*u and v*v.  Each row
    enters the residual with its sign but the source, which is subtracted.
    """
    grid, beta = params.grid, params.beta
    yield laplacian_matvec(grid, u)
    yield params.lam1 * u
    yield -params.mu1 * (uu * u)
    # the two coupling products round differently even where u == v; that
    # rounding-level asymmetry is what lets a descent leave a symmetric saddle
    yield -beta * u * vv
    yield params.f.values
    yield laplacian_matvec(grid, v)
    yield params.lam2 * v
    yield -params.mu2 * (vv * v)
    yield -beta * uu * v
    yield params.g.values


def residual_terms(params: Params, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The signed residual rows of (u, v) as a (2, 5, N) stack, u rows first.

    A column sum of either (5, N) half is the strong residual of its
    component at a node; see evaluate for the rows.
    """
    terms = np.empty((2, 5, u.size))
    for t, row in zip(terms.reshape(10, -1), _signed_rows(params, u, v, u * u, v * v)):
        t[...] = row
    np.negative(terms[:, 4], out=terms[:, 4])  # -f and -g
    return terms


def evaluate(params: Params, u: np.ndarray, v: np.ndarray) -> RayData:
    """Evaluate the state (u, v) with one stencil pass per component.

    Each component's five signed rows are added in order into its residual,
    with the bits of the column sums of residual_terms, and each row is
    dropped once added; the first two add up to the energy row (-lap + lam) w.
    The source is subtracted in place, as x - s == x + (-s) exactly.
    N pairs the energy rows with the state, A the squares with each other and
    B the sources with the state.
    """
    uu, vv = u * u, v * v
    rows = _signed_rows(params, u, v, uu, vv)
    residual, energy_rows = np.empty((2, u.size)), []
    for res in residual:
        energy_rows.append(next(rows) + next(rows))
        np.add(energy_rows[-1], next(rows), out=res)
        res += next(rows)
        res -= next(rows)
    (eu, ev), vol = energy_rows, params.grid.cell_volume
    mixed = params.mu1 * (uu @ uu) + params.mu2 * (vv @ vv) + 2.0 * params.beta * (uu @ vv)
    return RayData(
        u, v, residual, (eu, ev), (uu, vv), vol,
        norm_sq=float(vol * (eu @ u + ev @ v)),
        quartic=float(vol * mixed),
        source=float(vol * (params.f.values @ u + params.g.values @ v)),
    )


def max_norm(*arrays: np.ndarray) -> float:
    """Largest absolute entry over the given nodal arrays; NaN if any entry is NaN."""
    return float(np.max([np.abs(a).max() for a in arrays]))


def polyval(c, x: float) -> float:
    """Horner's rule for c[0] + c[1]*x + ..., in numpy's polyval order and bits."""
    y = c[-1] + x * 0.0
    for a in c[-2::-1]:
        y = a + y * x
    return y


def energy(p: Pair, params: Params) -> float:
    """J = 1/2*||(u,v)||^2 - 1/4*A - B; evaluate() gives the parts N, A and B."""
    return evaluate(params, p.u.values, p.v.values).energy


def gradient(p: Pair, params: Params) -> Pair:
    """Nodal representative of J' scaled by the quadrature weight.

    The u component carries (-lap u + lam1*u - mu1*u^3 - beta*u*v^2 - f) * h^dim
    per node (v analogous), so the plain Euclidean dot product of the returned
    nodal values with any direction equals the directional derivative of
    energy() in that direction.
    """
    gu, gv = evaluate(params, p.u.values, p.v.values).gradient
    return Pair(Field(p.grid, gu), Field(p.grid, gv))
