"""Uniform tensor-product grids with homogeneous Dirichlet boundaries.

Only interior nodes are stored.  A field is identically zero on the boundary
of the box, so the discrete Laplacian uses zero ghost values and the
quadrature is the plain interior rectangle rule with weight h1*...*hd.  The
Dirichlet energy is always evaluated through the stencil, as the quadrature
of w * (-lap w); summation by parts then holds exactly and the discrete
energy is an exact quadratic-quartic polynomial along every ray, which the
fibering analysis relies on.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "Pair",
    "l4_norm4",
    "l43_norm",
    "weighted_norm_sq",
    "zero_field",
    "first_eigenvector",
    "field_to_csv",
    "field_from_csv",
    "pair_to_csv",
    "pair_from_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid of interior nodes on the box (0, L1) x ... x (0, Ld).

    Attributes:
        dim: spatial dimension, 1 or 2.
        extents: box side length per axis.
        points: number of interior nodes per axis (>= 3 each).

    The spacing is never stored independently: it is derived from the frozen
    fields, once, as ``extents[k] / (points[k] + 1)``, so spacing*(points+1) ==
    extent cannot drift.  Node i along axis k sits at (i+1)*h_k.
    """

    dim: int
    extents: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        extents = tuple(float(L) for L in self.extents)
        points = tuple(int(n) for n in self.points)
        if len(extents) != self.dim or len(points) != self.dim:
            raise ValueError("extents and points must have one entry per axis")
        if any(L <= 0 for L in extents):
            raise ValueError(f"extents must be positive, got {extents}")
        if any(n < 3 for n in points):
            raise ValueError(f"need at least 3 interior nodes per axis, got {points}")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "points", points)
        for h in self.spacing:
            if not (0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
                raise ValueError(
                    f"mesh width {h:.3g}: h^2 and 1/h^2 must be finite and positive"
                )

    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        """Mesh width per axis, derived as L/(n+1)."""
        return tuple(L / (n + 1) for L, n in zip(self.extents, self.points))

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one interior node (product of spacings)."""
        return math.prod(self.spacing)

    @property
    def size(self) -> int:
        return math.prod(self.points)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Interior node coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(1, self.points[axis] + 1)) * h

    def node_coords(self) -> tuple[np.ndarray, ...]:
        """Coordinates of every interior node, flattened row-major.

        Returns one array of length ``size`` per axis.
        """
        axes = [self.axis_coords(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return tuple(m.ravel() for m in mesh)


@dataclass(frozen=True, eq=False)
class Field:
    """Real values at the interior nodes of a grid, row-major order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float).ravel()
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} nodal values, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def scaled(self, t: float) -> "Field":
        return Field(self.grid, t * self.values)

    @functools.cached_property
    def _l43_norm(self) -> float:
        # held: the field is frozen and its values read-only
        s = float((np.abs(self.values) ** (4.0 / 3.0)).sum() * self.grid.cell_volume)
        return s**0.75


@dataclass(frozen=True, eq=False)
class Pair:
    """A two-component state (u, v) on one shared grid."""

    u: Field
    v: Field

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("both components of a Pair must share one grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def scaled(self, t: float) -> "Pair":
        return Pair(self.u.scaled(t), self.v.scaled(t))


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.size))


@functools.lru_cache(maxsize=8)
def first_eigenvector(grid: Grid) -> Field:
    """First Dirichlet eigenvector of the box, product of axis sines.

    Sampled, not normalized; the nodal maximum is close to 1.  Built once
    per grid: equal grids share one read-only field.
    """
    coords = grid.node_coords()
    vals = np.ones(grid.size)
    for k, x in enumerate(coords):
        vals = vals * np.sin(math.pi * x / grid.extents[k])
    return Field(grid, vals)


def laplacian_matvec(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Apply -Delta (second-order centered stencil, zero Dirichlet ghosts)."""
    v = values.reshape(grid.points)
    for axis, h in enumerate(grid.spacing):
        nxt, prev = (np.s_[1:], np.s_[:-1]) if axis == 0 else (np.s_[:, 1:], np.s_[:, :-1])
        term = 2.0 * v
        term[nxt] -= v[prev]  # a zero ghost neighbour drops out: x - 0.0 == x
        term[prev] -= v[nxt]
        term /= h**2
        out = term if axis == 0 else np.add(out, term, out=out)
    return out.ravel()


def sine_modes(grid: Grid, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DST-I matrix of one axis and the eigenvalues of its -Delta stencil."""
    n, h = grid.points[axis], grid.spacing[axis]
    k = np.arange(1, n + 1)
    phase = math.pi / (n + 1) * (np.outer(k, k) % (2 * n + 2))  # j*k reduced exactly
    return math.sqrt(2.0 / (n + 1)) * np.sin(phase), (2.0 * np.sin(0.5 * phase[0]) / h) ** 2


def l4_norm4(w: Field) -> float:
    """Fourth power of the L4 norm: the rectangle-rule quadrature of w**4."""
    return float((w.values**4).sum() * w.grid.cell_volume)


def l43_norm(w: Field) -> float:
    """L^{4/3} norm: the quadrature of |w|^{4/3}, to the power 3/4.

    Computed on a field's first call and held by the field, which cannot
    change; Field.scaled makes a new field with a norm of its own.
    """
    return w._l43_norm


def weighted_norm_sq(grid: Grid, vals: np.ndarray, lam: float) -> float:
    """integral(|grad w|^2 + lam*w^2) of one component's nodal values.

    The gradient term is evaluated as the quadrature of w * (-lap w) so it
    stays exactly consistent with the stencil.
    """
    lap = laplacian_matvec(grid, vals)
    return float(((vals * lap).sum() + lam * (vals**2).sum()) * grid.cell_volume)


# --- CSV serialization -----------------------------------------------------
#
# One row per interior node, row-major: integer index per axis, coordinate per
# axis, then one column per field, each float as %.17g.  Header row included.
# Index and coordinate cells are formatted once per grid and axis and passed as
# %s arguments; per node the writer formats only the value columns.

_FMT = "%.17g"
_CSV_CHUNK = 4096


def _csv_header(grid: Grid, value_cols: tuple[str, ...]) -> str:
    idx = ("i",) if grid.dim == 1 else ("i", "j")
    xyz = ("x",) if grid.dim == 1 else ("x", "y")
    return ",".join(idx + xyz + value_cols)


@functools.lru_cache(maxsize=8)
def _axis_cells(grid: Grid) -> tuple[np.ndarray, ...]:
    """Read-only text cells: each axis's "i," index cells, then each axis's "x," coordinates."""
    cells = [["%d," % i for i in range(n)] for n in grid.points]
    cells += [[_FMT % x + "," for x in grid.axis_coords(k).tolist()] for k in range(grid.dim)]
    arrays = tuple(np.array(c, dtype=object) for c in cells)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _write_node_csv(grid: Grid, columns: dict[str, np.ndarray], path) -> None:
    cells = _axis_cells(grid)
    # one % call per chunk of whole leading-axis lines, and no whole-grid table
    values = [v.reshape(grid.points[0], -1) for v in columns.values()]
    step = max(1, _CSV_CHUNK // values[0].shape[1])
    row = "%s" * len(cells) + ",".join([_FMT] * len(values)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_header(grid, tuple(columns)) + "\n")
        for lo in range(0, grid.points[0], step):
            lines = slice(lo, lo + step)
            # leading-axis cells vary down the chunk, trailing-axis cells along each line
            parts = [a[lines, None] if c % grid.dim == 0 else a for c, a in enumerate(cells)]
            table = np.stack(np.broadcast_arrays(*parts, *(v[lines] for v in values)), axis=-1)
            fh.write((row * (table.size // table.shape[-1])) % tuple(table.ravel().tolist()))


def _read_node_csv(grid: Grid, path, value_cols: tuple[str, ...]) -> list[Field]:
    """The value columns of a node CSV as Fields; a malformed file's error names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            want = _csv_header(grid, value_cols).split(",")
            if header != want:
                raise ValueError(f"unexpected CSV header {header!r}, want {want!r}")
            with warnings.catch_warnings():
                # a header-only file is reported by the row-count check below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        if len(data) != grid.size:
            raise ValueError(f"expected {grid.size} rows, got {len(data)}")
        if data.shape[1] != len(want):
            raise ValueError(f"expected {len(want)} columns, got {data.shape[1]}")
        # a reordered or foreign-grid file must not load as if it were this grid's
        dim = grid.dim
        index = np.column_stack(np.unravel_index(np.arange(grid.size), grid.points))
        off = np.abs(data[:, dim : 2 * dim] - np.column_stack(grid.node_coords()))
        for what, wrong in (
            ("index", data[:, :dim] != index),
            ("coordinate", ~(off <= 1e-6 * np.array(grid.spacing))),  # NaN fails too
        ):
            rows = np.flatnonzero(wrong.any(axis=1))
            if rows.size:
                raise ValueError(
                    f"data row {rows[0] + 1}: {what} columns do not match node "
                    f"{tuple(int(i) for i in index[rows[0]])} of the grid"
                )
        return [Field(grid, vals) for vals in data[:, 2 * dim :].T]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def field_to_csv(w: Field, path) -> None:
    _write_node_csv(w.grid, {"value": w.values}, path)


def field_from_csv(grid: Grid, path) -> Field:
    (w,) = _read_node_csv(grid, path, ("value",))
    return w


def pair_to_csv(p: Pair, path) -> None:
    _write_node_csv(p.grid, {"u": p.u.values, "v": p.v.values}, path)


def pair_from_csv(grid: Grid, path) -> Pair:
    return Pair(*_read_node_csv(grid, path, ("u", "v")))
