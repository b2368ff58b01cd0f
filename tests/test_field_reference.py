"""The sampled field against its definition, and under translation.

``evaluate_axes`` works on squared distances and never forms a distance.
The reference here does, in float64 and from the definitions alone:
distances to the points and to the clamped foot on each segment, the basis
as a function of r, then a weighted sum.  The bitwise self-consistency tests
of test_field_kernel.py cannot see a wrong squared distance in the tile walk
(a dropped clip, a wrong divisor, a missing axis), since both sides of them run
the same kernel; squared_distance_block runs it too, so it is checked
against the same definitions.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.distance import squared_distance_block
from arbfscaffold.grid import VoxelGrid, make_grid
from arbfscaffold.rbf import eval_basis

BASES = [("gaussian", 2.0), ("mq", 0.1), ("imq", 0.1), ("tps", 0.0)]
MODES = ["anisotropic", "isotropic"]
# |field - reference| <= REFERENCE_TOL * max|reference|.  Measured on these
# fits: at most 8.4e-13 (isotropic gaussian, condition estimate 6.6e6).
REFERENCE_TOL = 1e-10
EPS = float(np.finfo(np.float64).eps)


@functools.cache
def _mesh():
    return ax.perturb_mesh(samples.hex_block_mesh(2, 2, 2),
                           ax.PerturbSpec(magnitude=0.2, seed=3, vertex_fraction=0.7))


@functools.cache
def _fit(kind, c, mode):
    return ax.fit_mesh(_mesh(), ax.Basis(kind, c), mode)


def _grid(model, resolution):
    lo, hi = model.bbox()
    return make_grid(lo, hi, resolution, 0.1)


def _distances(q, centers):
    """(kernel distances, distances from the definitions) from the rows of q to the centers."""
    c = centers
    kernel = np.sqrt(squared_distance_block(q, c.points, c.seg_a, c.seg_b))
    rel = q[:, None, :] - c.seg_a[None]
    d = c.seg_b - c.seg_a
    t = np.clip((rel * d).sum(axis=2) / (d * d).sum(axis=1), 0.0, 1.0)
    to_foot = rel - t[..., None] * d
    defined = np.hstack([np.linalg.norm(q[:, None, :] - c.points[None], axis=2),
                         np.linalg.norm(to_foot, axis=2)])
    return kernel, defined


def _basis_of_r(basis, r):
    c = basis.c
    if basis.kind == "gaussian":
        return np.exp(-(c * r) ** 2)
    if basis.kind == "tps":
        return r * r * np.log(np.where(r > 0.0, r, 1.0))
    mq = np.sqrt(r * r + c * c)
    return mq if basis.kind == "mq" else 1.0 / mq


def _segment_probes():
    """Points on every anisotropic segment (t = 0.3, 0.5), beyond both ends and 1e-7 off it."""
    c = ax.assemble_center_set(_mesh(), "anisotropic")
    d = c.seg_b - c.seg_a
    off = np.cross(d, [0.267, 0.535, 0.802])
    off *= 1e-7 / np.linalg.norm(off, axis=1, keepdims=True)
    return np.vstack([c.seg_a + t * d for t in (0.3, 0.5, -0.25, 1.25)]
                     + [c.seg_a + 0.5 * d + off])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind,c", BASES)
def test_field_equals_basis_of_public_distances(kind, c, mode):
    model = _fit(kind, c, mode)[0]
    grid = _grid(model, 20)
    _, ny, nz = grid.dims
    xs, ys, zs = grid.axes()
    rows = np.arange(ny * nz)
    field = model.evaluate_axes(xs[None, :], ys[rows % ny, None], zs[rows // ny, None]).ravel()
    probes = _segment_probes()  # column operands: every tile builds its own tables
    field = np.concatenate([field, model.evaluate_many(probes)])
    kernel, defined = _distances(np.vstack([grid.positions(), probes]), model.centers)
    assert np.abs(kernel - defined).max() <= 1e-14  # 1e-7 off a segment is not on it
    ref = _basis_of_r(model.basis, defined) @ model.weights
    tol = REFERENCE_TOL * np.abs(ref).max()
    assert np.abs(field - ref).max() <= tol
    assert np.abs(eval_basis(model.basis, kernel) @ model.weights - ref).max() <= tol


@settings(max_examples=30)
@given(st.sampled_from(BASES), st.sampled_from(MODES),
       st.tuples(*[st.floats(-100.0, 100.0, allow_subnormal=False)] * 3))
def test_translated_mesh_gives_the_translated_field(basis, mode, shift):
    """|f'(x + t) - f(x)| <= 4 eps cond (1 + |t|_inf) max|f| on the translated grid.

    Translation moves every coordinate by a rounding of eps |t|, which the
    fit amplifies by up to its condition number.  Measured over 160 random
    shifts up to |t| = 1e3, the error stayed below 0.22 of this bound
    without the factor 4 (isotropic imq the closest).
    """
    model, report = _fit(*basis, mode)
    mesh, t = _mesh(), np.array(shift)
    moved = ax.fit_mesh(ax.VolumetricMesh(mesh.kind, mesh.vertices + t, mesh.cells),
                        ax.Basis(*basis), mode)[0]
    grid = _grid(model, 12)
    shifted = VoxelGrid(origin=grid.origin + t, spacing=grid.spacing,
                        dims=grid.dims, values=grid.values)
    f = model.evaluate_many(grid.positions())
    g = moved.evaluate_many(shifted.positions())
    bound = 4.0 * EPS * report.condition_estimate * (1.0 + np.abs(t).max())
    assert np.abs(g - f).max() <= bound * np.abs(f).max()
