"""Marching cubes vertex numbering: the crossed grid edges and the iso comparison."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from arbfscaffold.grid import VoxelGrid, solid_fraction
from arbfscaffold.isosurface import SNAP_T, marching_cubes


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
