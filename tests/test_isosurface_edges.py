"""Iso vertices on grid edges: marching cubes numbering, the iso comparison, and
the joins of marching squares segments."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from arbfscaffold.grid import VoxelGrid, make_grid, make_grid_2d, sample_field, solid_fraction
from arbfscaffold.isosurface import SNAP_T, marching_cubes, marching_squares
from arbfscaffold.tpms import TpmsField


def lattice(dims, values):
    return VoxelGrid(origin=np.array([0.1, -0.3, 2.0]), spacing=np.array([0.5, 0.25, 0.3]),
                     dims=dims, values=np.asarray(values, dtype=np.float32))


def test_iso_is_compared_with_the_samples_in_float64():
    # iso lies 1e-12 above the float32 sample s and rounds to s in float32, so
    # a float32 comparison finds no sample below iso.  The other samples are
    # the next float32 above s: t = 1e-12 / ulp is far from a snap.
    s = np.float32(0.1)
    iso = float(s) + 1e-12
    above = np.nextafter(s, np.float32(1.0))
    assert np.float32(iso) == s and above > iso
    g = lattice((2, 2, 2), np.full(8, above))
    g.values[0] = s
    assert solid_fraction(g, iso) == 7 / 8
    soup = marching_cubes(g, iso)
    assert soup.triangles.tolist() == [[0, 2, 1]]   # TRI_TABLE[1]: edges x, z, y
    t = (iso - float(s)) / (float(above) - float(s))
    assert SNAP_T < t < 0.5
    assert np.array_equal(soup.vertices, g.origin + t * np.diag(g.spacing))


def crossed_grid_edges(g, iso):
    """Grid edges with one end below iso and one not, by a loop over samples."""
    nx, ny, nz = g.dims
    v = g.values_3d().astype(np.float64)
    count = 0
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                for di, dj, dk in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    if i + di < nx and j + dj < ny and k + dk < nz:
                        count += (v[k, j, i] < iso) != (v[k + dk, j + dj, i + di] < iso)
    return count


@given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5),
       st.integers(0, 2 ** 32 - 1), st.floats(-1.0, 1.0))
def test_without_a_snap_every_crossed_edge_is_one_vertex(nx, ny, nz, seed, iso):
    # Samples in [-1, 1], none within 2 * SNAP_T of iso: every t lies more than
    # SNAP_T from 0 and 1, so no vertex snaps to a sample.
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, nx * ny * nz)
    g = lattice((nx, ny, nz), values)
    assume(np.abs(g.values.astype(np.float64) - iso).min() > 2 * SNAP_T)
    soup = marching_cubes(g, iso)
    assert len(soup.vertices) == crossed_grid_edges(g, iso)
    tris = soup.triangles
    assert np.all((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                  & (tris[:, 2] != tris[:, 0]))
    assert len(np.unique(tris)) == len(soup.vertices)


# Samples on quarter steps, half the time, so that some equal the iso value.
quarter_or_not = st.booleans()
isos = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-0.5, 0.0, 0.25]))


def lattice_values(n, seed, quarters):
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    return np.round(values * 4) / 4 if quarters else values


def assert_vertices_on_grid_lines(g, iso):
    """At least two coordinates of every vertex are entries of grid.axes().

    A vertex with all three is a sample position.  One with exactly two lies
    inside the grid edge along the third axis; it did not snap, and it is
    p_lo + t * (p_hi - p_lo), from the edge's low sample.  Returns the number
    of vertices at sample positions.
    """
    soup = marching_cubes(g, iso)
    axes = g.axes()
    on = np.stack([np.isin(soup.vertices[:, a], axes[a]) for a in range(3)], axis=1)
    assert np.all(on.sum(axis=1) >= 2)
    inside = ~on.all(axis=1)
    v, axis = soup.vertices[inside], np.argmin(on[inside], axis=1)
    i, j, k = (np.searchsorted(axes[a], v[:, a], side="right") - 1 for a in range(3))
    nx, ny, _ = g.dims
    lo = i + nx * (j + ny * k)
    hi = lo + np.array([1, nx, nx * ny])[axis]
    v_lo = g.values[lo].astype(np.float64)
    t = (iso - v_lo) / (g.values[hi] - v_lo)
    assert np.all(np.minimum(t, 1 - t) > SNAP_T)
    rows = np.arange(len(v))
    p_lo, p_hi = g.positions(lo)[rows, axis], g.positions(hi)[rows, axis]
    assert np.array_equal(v[rows, axis], p_lo + t * (p_hi - p_lo))
    return int(np.count_nonzero(~inside))


@given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5),
       st.integers(0, 2 ** 32 - 1), quarter_or_not, isos)
def test_marching_cubes_vertices_lie_on_grid_lines(nx, ny, nz, seed, quarters, iso):
    g = lattice((nx, ny, nz), lattice_values(nx * ny * nz, seed, quarters))
    assert_vertices_on_grid_lines(g, iso)


def test_snapped_tpms_vertices_lie_on_grid_lines():
    # D at iso 0 has samples that are zero in exact arithmetic, so it snaps.
    vol = sample_field(TpmsField("d"), make_grid(np.zeros(3), np.full(3, 2.0 * np.pi), 40, 0.0))
    assert assert_vertices_on_grid_lines(vol, 0.0) > 0
    assert assert_vertices_on_grid_lines(vol, 0.2) == 0


def interior_open_ends(g, iso):
    """Segment ends strictly inside the slice that occur an odd number of times.

    An edge inside the slice borders two cells, and each emits one segment end
    on it when it is crossed, so every interior end pairs up, compared bit for
    bit.
    """
    xs, ys, _ = g.axes()
    polylines = marching_squares(g, iso).polylines
    ends = np.concatenate(polylines) if polylines else np.zeros((0, 3))
    inside = (xs[0] < ends[:, 0]) & (ends[:, 0] < xs[-1]) & (ys[0] < ends[:, 1]) & (ends[:, 1] < ys[-1])
    _, counts = np.unique(ends[inside].view(np.int64), axis=0, return_counts=True)
    return int(np.count_nonzero(counts % 2))


@pytest.mark.parametrize("kind", ["p", "d", "g", "iwp"])
def test_tpms_slice_contours_join_exactly(kind):
    plane = make_grid_2d(np.zeros(2), np.full(2, 2.0 * np.pi), 96)
    field = sample_field(TpmsField(kind), plane)
    for iso in (-0.5, 0.0, 0.3):
        assert interior_open_ends(field, iso) == 0


@given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2 ** 32 - 1), quarter_or_not, isos)
def test_lattice_contours_join_exactly(nx, ny, seed, quarters, iso):
    g = lattice((nx, ny, 1), lattice_values(nx * ny, seed, quarters))
    assert interior_open_ends(g, iso) == 0
