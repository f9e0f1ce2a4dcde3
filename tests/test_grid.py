import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nehari import grid as grid_mod
from nehari.functional import Params
from nehari.grid import (
    Field,
    Grid,
    Pair,
    field_from_csv,
    field_to_csv,
    first_eigenvector,
    l4_norm4,
    l43_norm,
    laplacian_matvec,
    pair_from_csv,
    pair_to_csv,
    zero_field,
)

from conftest import dense_neg_laplacian, random_pair, ray


def quad(grid, vals):
    """The rectangle rule over the box: the nodal sum times the cell volume."""
    return float(vals.sum() * grid.cell_volume)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, (1.0, 1.0, 1.0), (5, 5, 5))
    with pytest.raises(ValueError):
        Grid(1, (0.0,), (9,))
    with pytest.raises(ValueError):
        Grid(1, (1.0,), (2,))
    with pytest.raises(ValueError):
        Grid(2, (1.0,), (5, 5))
    # the stencil divides by h^2: it must be finite and positive, and so must 1/h^2
    for extents in ((1e200,), (1e-200,), (1.0, 1e160), (1e-160, 1.0)):
        with pytest.raises(ValueError, match="h\\^2"):
            Grid(len(extents), extents, (49,) * len(extents))


def test_spacing_derived_exactly():
    g = Grid(2, (1.0, 2.5), (99, 39))
    for k in range(2):
        assert g.spacing[k] == g.extents[k] / (g.points[k] + 1)
    assert g.cell_volume == g.spacing[0] * g.spacing[1]
    assert g.spacing is g.spacing  # derived once per grid


def test_a_grid_survives_a_pickle_round_trip():
    # sweep --jobs sends its problems, grids included, to the workers by pickle
    g = Grid(2, (1.0, 2.5), (99, 39))
    spacing = g.spacing  # read first, so the pickle carries it
    back = pickle.loads(pickle.dumps(g))
    assert back == g == Grid(2, (1.0, 2.5), (99, 39))
    assert hash(back) == hash(g) and repr(back) == repr(g)
    assert back.spacing == spacing


def test_field_validation(grid_1d):
    with pytest.raises(ValueError):
        Field(grid_1d, np.zeros(grid_1d.size + 1))
    bad = np.zeros(grid_1d.size)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(grid_1d, bad)
    w = Field(grid_1d, np.ones(grid_1d.size))
    with pytest.raises(ValueError):
        w.values[0] = 2.0  # frozen storage


def test_pair_requires_shared_grid(grid_1d, grid_2d):
    with pytest.raises(ValueError):
        Pair(zero_field(grid_1d), zero_field(grid_2d))


def test_laplacian_zero_is_zero(grid_1d):
    out = laplacian_matvec(grid_1d, zero_field(grid_1d).values)
    assert np.all(out == 0.0)


def test_laplacian_1d_eigenvector():
    # oracle: dense eigendecomposition of the tridiagonal stencil matrix
    g = Grid(1, (2.0,), (39,))
    h = g.spacing[0]
    dense = dense_neg_laplacian(g)
    evals, evecs = np.linalg.eigh(dense)
    vec = evecs[:, 0]
    applied = laplacian_matvec(g, vec)
    floor = 100.0 * np.finfo(float).eps / h**2
    assert np.abs(applied - evals[0] * vec).max() <= floor
    # the analytic eigenvalue of the sampled sine matches the dense one
    mu_h = 2.0 / h**2 * (1.0 - math.cos(math.pi * h / g.extents[0]))
    assert evals[0] == pytest.approx(mu_h, rel=1e-12)
    (x,) = g.node_coords()
    sine = np.sin(math.pi * x / g.extents[0])
    applied = laplacian_matvec(g, sine)
    assert np.abs(applied - mu_h * sine).max() <= floor


def test_laplacian_2d_kronecker_sum(grid_2d, rng):
    # oracle: dense Kronecker-sum matrix
    dense = dense_neg_laplacian(grid_2d)
    vals = rng.standard_normal(grid_2d.size)
    applied = laplacian_matvec(grid_2d, vals)
    assert np.allclose(applied, dense @ vals, rtol=1e-12, atol=1e-9)
    # product of axis eigenvectors maps to the sum of the 1d eigenvalues
    x, y = grid_2d.node_coords()
    w = np.sin(math.pi * x / grid_2d.extents[0]) * np.sin(
        2.0 * math.pi * y / grid_2d.extents[1]
    )
    h0, h1 = grid_2d.spacing
    lam0 = 2.0 / h0**2 * (1.0 - math.cos(math.pi * h0 / grid_2d.extents[0]))
    lam1 = 2.0 / h1**2 * (1.0 - math.cos(2.0 * math.pi * h1 / grid_2d.extents[1]))
    applied = laplacian_matvec(grid_2d, w)
    floor = 100.0 * np.finfo(float).eps / min(h0, h1) ** 2
    assert np.abs(applied - (lam0 + lam1) * w).max() <= floor


def _padded_laplacian(grid, values):
    """The zero-ghost stencil written with np.pad, as a reference."""
    v = values.reshape(grid.points)
    out = np.zeros_like(v)
    for axis, h in enumerate(grid.spacing):
        pad = [(1, 1) if a == axis else (0, 0) for a in range(v.ndim)]
        p = np.pad(v, pad)
        lo = [slice(0, -2) if a == axis else slice(None) for a in range(v.ndim)]
        hi = [slice(2, None) if a == axis else slice(None) for a in range(v.ndim)]
        out += (2.0 * v - p[tuple(lo)] - p[tuple(hi)]) / h**2
    return out.ravel()


@pytest.mark.parametrize(
    "grid",
    [
        Grid(1, (1.0,), (3,)),
        Grid(1, (1.0,), (49,)),
        Grid(2, (1.0, 1.0), (3, 3)),
        Grid(2, (1.0, 1.0), (17, 17)),
        Grid(2, (1.0, 1.5), (3, 7)),
        Grid(2, (2.0, 0.5), (11, 3)),
    ],
)
def test_laplacian_matvec_matches_padded_reference(grid, rng):
    for _ in range(3):
        x = rng.standard_normal(grid.size) * 10.0 ** rng.integers(-100, 100, grid.size)
        assert laplacian_matvec(grid, x).tobytes() == _padded_laplacian(grid, x).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(st.integers(3, 40), min_size=1, max_size=2),
    extents=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_laplacian_matvec_equals_padded_formula_bit_for_bit(points, extents, seed):
    # ((2v - left) - right)/h^2 per axis on zero ghosts, axis 0 first
    grid = Grid(len(points), tuple(extents[: len(points)]), tuple(points))
    x = np.random.default_rng(seed).standard_normal(grid.size)
    assert np.array_equal(laplacian_matvec(grid, x), _padded_laplacian(grid, x))


def test_laplacian_symmetric_positive_definite(grid_1d, rng):
    for _ in range(5):
        a = rng.standard_normal(grid_1d.size)
        b = rng.standard_normal(grid_1d.size)
        ab = quad(grid_1d, a * laplacian_matvec(grid_1d, b))
        ba = quad(grid_1d, b * laplacian_matvec(grid_1d, a))
        assert ab == pytest.approx(ba, rel=1e-12, abs=1e-12)
        aa = quad(grid_1d, a * laplacian_matvec(grid_1d, a))
        assert aa > 0.0


def test_integrate_basics():
    g = Grid(1, (1.0,), (99,))
    assert quad(g, zero_field(g).values) == 0.0
    assert quad(g, np.ones(g.size)) == pytest.approx(0.99, rel=1e-14)


def test_integrate_quadratic_second_order():
    # oracle: exact integral of x(1-x) over (0,1) is 1/6
    errs = []
    for n in (24, 49, 99):
        g = Grid(1, (1.0,), (n,))
        (x,) = g.node_coords()
        errs.append(abs(quad(g, x * (1.0 - x)) - 1.0 / 6.0))
    # halving h divides the error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_quadrature_converges_to_box_volume():
    vols = []
    for n in (9, 19, 39, 79):
        g = Grid(2, (1.0, 2.0), (n, n))
        vols.append(quad(g, np.ones(g.size)))
    target = 2.0
    gaps = [abs(v - target) for v in vols]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.11


def test_l4_and_l43_norms():
    g = Grid(1, (1.0,), (99,))
    assert l4_norm4(zero_field(g)) == 0.0
    assert l43_norm(zero_field(g)) == 0.0
    c = 1.7
    w = Field(g, np.full(g.size, c))
    assert l4_norm4(w) == pytest.approx(c**4 * 0.99, rel=1e-14)
    rng = np.random.default_rng(5)
    w = Field(g, rng.standard_normal(g.size))
    assert l43_norm(w.scaled(-2.0)) == pytest.approx(2.0 * l43_norm(w), rel=1e-13)
    assert l4_norm4(w.scaled(-2.0)) == pytest.approx(16.0 * l4_norm4(w), rel=1e-13)


@pytest.mark.parametrize("grid", [Grid(1, (2.0,), (799,)), Grid(2, (1.0, 0.3), (31, 17))])
def test_held_l43_norm_is_the_fresh_quadrature(grid):
    def fresh(w):
        return float((np.abs(w.values) ** (4.0 / 3.0)).sum() * grid.cell_volume) ** 0.75

    w = Field(grid, np.random.default_rng(3).standard_normal(grid.size))
    held = l43_norm(w)
    assert held == fresh(w) and l43_norm(w) is held  # computed once, then held
    # a scaled field is a new field with a norm of its own
    for t in (-2.0, 0.5, 0.0):
        s = w.scaled(t)
        assert l43_norm(s) == fresh(s) and l43_norm(w) is held


def test_first_eigenvector_is_one_read_only_field_per_grid():
    e = first_eigenvector(Grid(2, (1.0, 2.0), (9, 5)))
    assert first_eigenvector(Grid(2, (1, 2), (9, 5))) is e
    assert not e.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        e.values[0] = 0.0
    other = first_eigenvector(Grid(2, (1.0, 2.0), (9, 7)))
    assert other is not e and other.values.size == 63


def test_pair_norm_zero_iff_zero(grid_1d, zero_params):
    p = Pair(zero_field(grid_1d), zero_field(grid_1d))
    assert ray(p, zero_params).norm_sq == 0.0
    q = random_pair(grid_1d, np.random.default_rng(1))
    assert ray(q, zero_params).norm_sq > 0.0


def test_pair_norm_eigenvector_value(zero_params):
    # oracle: the eigen example of the Laplacian
    g = zero_params.grid
    h = g.spacing[0]
    mu_h = 2.0 / h**2 * (1.0 - math.cos(math.pi * h))
    u = first_eigenvector(g)
    p = Pair(u, zero_field(g))
    mass = quad(g, u.values**2)
    assert ray(p, zero_params).norm_sq == pytest.approx((mu_h + 1.0) * mass, rel=1e-12)


def test_pair_norm_scaling(grid_1d, zero_params, rng):
    p = random_pair(grid_1d, rng)
    assert ray(p.scaled(3.0), zero_params).norm_sq == pytest.approx(
        9.0 * ray(p, zero_params).norm_sq, rel=1e-13
    )


def test_norm_triangle_inequality(grid_1d, zero_params, rng):
    for _ in range(20):
        p = random_pair(grid_1d, rng)
        q = random_pair(grid_1d, rng)
        s = Pair(
            Field(grid_1d, p.u.values + q.u.values),
            Field(grid_1d, p.v.values + q.v.values),
        )
        np_, nq, ns = (
            math.sqrt(ray(x, zero_params).norm_sq) for x in (p, q, s)
        )
        assert ns <= np_ + nq + 1e-12


def test_discrete_holder(grid_1d, rng):
    for _ in range(20):
        f = Field(grid_1d, rng.standard_normal(grid_1d.size))
        u = Field(grid_1d, rng.standard_normal(grid_1d.size))
        lhs = quad(grid_1d, f.values * u.values)
        rhs = l43_norm(f) * l4_norm4(u) ** 0.25
        assert lhs <= rhs + 1e-12


def test_field_csv_roundtrip(tmp_path, grid_2d, rng):
    w = Field(grid_2d, rng.standard_normal(grid_2d.size))
    path = tmp_path / "w.csv"
    field_to_csv(w, path)
    header = path.read_text().splitlines()[0]
    assert header == "i,j,x,y,value"
    back = field_from_csv(grid_2d, path)
    assert np.array_equal(back.values, w.values)


def test_pair_csv_roundtrip(tmp_path, grid_1d, rng):
    p = random_pair(grid_1d, rng)
    path = tmp_path / "p.csv"
    pair_to_csv(p, path)
    assert path.read_text().splitlines()[0] == "i,x,u,v"
    back = pair_from_csv(grid_1d, path)
    assert np.array_equal(back.u.values, p.u.values)
    assert np.array_equal(back.v.values, p.v.values)


def _per_row_node_csv(grid: Grid, columns: dict) -> bytes:
    """The CSV bytes of named value columns, one formatted row at a time, as a reference."""
    coords = grid.node_coords()
    indices = np.unravel_index(np.arange(grid.size), grid.points)
    names = ("i", "j")[: grid.dim] + ("x", "y")[: grid.dim] + tuple(columns)
    lines = [",".join(names)]
    for row in range(grid.size):
        cells = [str(int(ix[row])) for ix in indices]
        cells += ["%.17g" % c[row] for c in coords]
        cells += ["%.17g" % col[row] for col in columns.values()]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _per_row_csv(p: Pair) -> bytes:
    """The CSV bytes of a pair, one formatted row at a time, as a reference."""
    return _per_row_node_csv(p.grid, {"u": p.u.values, "v": p.v.values})


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(st.integers(3, 70), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
    extremes=st.lists(_finite, max_size=8),
)
def test_pair_csv_bytes_match_per_row_writer(tmp_path_factory, points, seed, extremes):
    grid = Grid(len(points), (1.0,) * len(points), tuple(points))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.size) * 10.0 ** rng.integers(-300, 300, grid.size)
    v = rng.standard_normal(grid.size)
    v[: len(extremes)] = extremes[: grid.size]
    p = Pair(Field(grid, u), Field(grid, v))
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    pair_to_csv(p, path)
    assert path.read_bytes() == _per_row_csv(p)
    back = pair_from_csv(grid, path)
    assert np.array_equal(back.u.values, u) and np.array_equal(back.v.values, v)


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(st.integers(3, 40), min_size=1, max_size=2),
    extents=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2),
    chunk=st.sampled_from([1, 7, 64, grid_mod._CSV_CHUNK]),
    seed=st.integers(0, 2**32 - 1),
)
def test_node_csv_bytes_match_per_row_writer(tmp_path_factory, points, extents, chunk, seed):
    # unequal extents and points per axis; chunks shorter than, near and above one line
    grid = Grid(len(points), tuple(extents[: len(points)]), tuple(points))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.size) * 10.0 ** rng.integers(-300, 300, grid.size)
    p = Pair(Field(grid, u), Field(grid, rng.standard_normal(grid.size)))
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    with mock.patch.object(grid_mod, "_CSV_CHUNK", chunk):
        field_to_csv(p.u, path)
        assert path.read_bytes() == _per_row_node_csv(grid, {"value": u})
        pair_to_csv(p, path)
        assert path.read_bytes() == _per_row_csv(p)


def test_csv_cells_belong_to_the_whole_grid(tmp_path, rng):
    # same points, other extents: the coordinate cells must not be reused
    a, b = Grid(2, (1.0, 2.0), (9, 13)), Grid(2, (3.0, 0.5), (9, 13))
    path = tmp_path / "p.csv"
    for grid in (a, b, a):
        p = random_pair(grid, rng)
        pair_to_csv(p, path)
        assert path.read_bytes() == _per_row_csv(p)


def test_pair_csv_write_memory_does_not_grow_with_the_grid(tmp_path):
    # the writer works in line-aligned chunks and builds no whole-grid table
    peaks = []
    for grid in (Grid(2, (1.0, 2.0), (63, 127)), Grid(2, (1.0, 1.0), (255, 255))):
        e = first_eigenvector(grid)
        p = Pair(e, e.scaled(0.5))
        tracemalloc.start()
        try:
            pair_to_csv(p, tmp_path / "p.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_csv_extra_column_rejected(tmp_path, grid_1d):
    path = tmp_path / "w.csv"
    field_to_csv(zero_field(grid_1d), path)
    lines = path.read_text().splitlines()
    wide = [lines[0]] + [line + ",9" for line in lines[1:]]
    for rows in (wide, lines[:1] + [wide[1]] + lines[2:]):  # every row, one row
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError):
            field_from_csv(grid_1d, path)


def test_csv_wrong_grid_rejected(tmp_path, grid_1d):
    w = zero_field(grid_1d)
    path = tmp_path / "w.csv"
    field_to_csv(w, path)
    with pytest.raises(ValueError):
        field_from_csv(Grid(1, (1.0,), (50,)), path)


def test_csv_swapped_rows_rejected(tmp_path, grid_2d, rng):
    path = tmp_path / "w.csv"
    field_to_csv(Field(grid_2d, rng.standard_normal(grid_2d.size)), path)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="data row 1: index columns"):
        field_from_csv(grid_2d, path)


def test_csv_foreign_coordinates_rejected(tmp_path, grid_1d):
    # same header, node count and indices, but the nodes of a longer box
    path = tmp_path / "w.csv"
    field_to_csv(zero_field(Grid(1, (1.5,), grid_1d.points)), path)
    with pytest.raises(ValueError, match="data row 1: coordinate columns"):
        field_from_csv(grid_1d, path)
    field_to_csv(zero_field(grid_1d), path)
    lines = path.read_text().splitlines()
    lines[3] = "2,nan,0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="data row 3: coordinate columns"):
        field_from_csv(grid_1d, path)


def test_csv_coordinates_rounded_to_nine_digits_load(tmp_path, grid_2d, rng):
    w = Field(grid_2d, rng.standard_normal(grid_2d.size))
    path = tmp_path / "w.csv"
    field_to_csv(w, path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    for row in rows[1:]:
        row[2:4] = ["%.9g" % float(c) for c in row[2:4]]
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    assert np.array_equal(field_from_csv(grid_2d, path).values, w.values)
