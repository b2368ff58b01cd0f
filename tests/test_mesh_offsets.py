"""Mesh quantities that must not depend on where a mesh sits or on its size.

Derived centers are named by vertex indices, so moving or scaling a mesh
keeps its center set; hex volumes are taken relative to a corner.  No
length in the pipeline is absolute: the degenerate-cell floor and the
duplicate-center tolerance are relative to the bbox diagonal, taken in
units of a power of two.  So a mesh scaled by a power of two, with its
shape parameter c scaled to match (by the same power for mq and imq, by its
inverse for gaussian), gives the same volume bytes, condition estimate and
surface.
"""

import functools
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arbfscaffold import samples
from arbfscaffold.errors import ParseError, ValidationError
from arbfscaffold.grid import make_grid, sample_field
from arbfscaffold.isosurface import marching_cubes
from arbfscaffold.mesh import (MIN_DIAGONAL, VolumetricMesh, assemble_center_set, cell_measures,
                               load_mesh)
from arbfscaffold.rbf import Basis, fit_mesh

BASES = {
    "hex8": samples.hex_block_mesh,
    "tet1": samples.unit_tet_mesh,
    "icosa20": samples.icosahedron_tet_mesh,
}


@pytest.mark.parametrize("name", sorted(BASES))
@given(st.tuples(*[st.floats(-1.2e4, 1.2e4)] * 3), st.floats(-7.0, 4.0))
@example(offset=(1e4, 1e4, 1e4), log_extent=-7.0)
@example(offset=(3e10, 3e10, 3e10), log_extent=0.0)
def test_centers_do_not_depend_on_offset_or_scale(name, offset, log_extent):
    base = BASES[name]()
    scale, offset = 10.0 ** log_extent, np.asarray(offset)
    mesh = VolumetricMesh(base.kind, base.vertices * scale + offset, base.cells)
    # A center is a mean of at most 8 mapped corners: mapping, summing and the
    # reference's own mapping each round by a few eps of the largest magnitude.
    bound = 8 * np.finfo(float).eps * (np.abs(offset).max() + scale * np.abs(base.vertices).max())
    for mode in ("isotropic", "anisotropic"):
        ref, got = assemble_center_set(base, mode), assemble_center_set(mesh, mode)
        assert (len(got.points), len(got.seg_a)) == (len(ref.points), len(ref.seg_a))
        assert np.array_equal(got.point_values, ref.point_values)
        for moved, at_origin in ((got.points, ref.points), (got.seg_a, ref.seg_a),
                                 (got.seg_b, ref.seg_b)):
            assert np.all(np.abs(moved - (at_origin * scale + offset)) <= bound)


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_hex_volumes_do_not_depend_on_offset(offset):
    block = samples.hex_block_mesh(size=1e-3)
    moved = VolumetricMesh("hex", block.vertices + offset, block.cells)
    assert cell_measures(moved) == pytest.approx(np.full(8, 1.25e-10), rel=1e-6)


def test_flat_hex_far_from_origin_is_rejected():
    cube = samples.unit_hex_mesh()
    flat = cube.vertices * (1e-3, 1e-3, 0.0) + 1e4  # top quad on the bottom quad
    with pytest.raises(ValidationError, match="cell 0 is degenerate"):
        VolumetricMesh("hex", flat, cube.cells)


@pytest.mark.parametrize("name", sorted(samples.SAMPLE_BUILDERS))
@pytest.mark.parametrize("scale", [1e-110, 2.0 ** -360, 2.0 ** -500],
                         ids=["1e-110", "2^-360", "2^-500"])
def test_tiny_meshes_are_not_degenerate(name, scale):
    # their measures (and the floor) underflowed to 0 in mesh units
    base = samples.SAMPLE_BUILDERS[name]()
    mesh = VolumetricMesh(base.kind, base.vertices * scale, base.cells)
    if scale != 1e-110:  # a power of two scales the diagonal exactly
        assert mesh.bbox_diagonal() == base.bbox_diagonal() * scale


@pytest.mark.parametrize("k", [-509, -540, -600])
def test_meshes_below_the_smallest_diagonal_are_refused_by_name(tmp_path, k):
    # hex 2³ fit with every basis down to 2**-508; below, the tps solve gave a
    # NaN residual, then centers coincided or a segment met its cell center
    base = samples.hex_block_mesh()
    verts = base.vertices * 2.0 ** k
    text = re.escape(f"mesh bbox diagonal must be at least {MIN_DIAGONAL:g}, "
                     f"the smallest a fit can use, got {base.bbox_diagonal() * 2.0 ** k:g}")
    with pytest.raises(ValidationError, match="^" + text):
        VolumetricMesh("hex", verts, base.cells)
    path = tmp_path / "tiny.hexmesh"
    rows = [" ".join(map(repr, v)) for v in verts.tolist()]
    rows += [" ".join(map(str, c)) for c in base.cells.tolist()]
    path.write_text(f"HEX {len(verts)} {len(base.cells)}\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="tiny.hexmesh: " + text):
        load_mesh(str(path))


@pytest.mark.parametrize("k", [0, -300])
def test_degenerate_measure_is_reported_in_mesh_units(k):
    cube = samples.unit_hex_mesh()
    thin = cube.vertices * (1.0, 1.0, 1e-13) * 2.0 ** k  # volume 1e-13 * 2**3k, below the floor
    with pytest.raises(ValidationError, match=re.escape(f"(measure {1e-13 * 2.0 ** (3 * k):.3e})")):
        VolumetricMesh("hex", thin, cube.cells)


# The shape parameter of a mesh scaled by s: mq and imq are functions of r² + c², so c
# scales with the mesh, and gaussian of c²r², so c scales inversely.  tps has no c and
# changes at any scale.  Gaussian c = 0.1 is numerically singular on hex 2³; c = 4 fits.
_SCALED_C = {"imq": lambda s: 0.1 * s, "mq": lambda s: 0.1 * s, "gaussian": lambda s: 4.0 / s}


@functools.lru_cache(maxsize=None)
def _scaled_fit(mode, kind, k):
    """(volume bytes, condition estimate, iso-0 vertices / s) of hex 2³ scaled by s = 2**k."""
    s, base = 2.0 ** k, samples.hex_block_mesh()
    mesh = VolumetricMesh("hex", base.vertices * s, base.cells)
    model, report = fit_mesh(mesh, Basis(kind, _SCALED_C[kind](s)), mode)
    grid = sample_field(model, make_grid(*model.bbox(), 32, 0.05))
    return grid.values.tobytes(), report.condition_estimate, marching_cubes(grid, 0.0).vertices / s


@pytest.mark.parametrize("k", [-360, -40, -34, 300])
@pytest.mark.parametrize("kind", ["imq", "mq", "gaussian"])
@pytest.mark.parametrize("mode", ["isotropic", "anisotropic"])
def test_fit_does_not_depend_on_a_power_of_two_scale(mode, kind, k):
    # -360 was refused as degenerate, -40 as duplicate centers, and at -34 the
    # anisotropic field changed where an absolute tolerance snapped r² to 0
    volume, cond, vertices = _scaled_fit(mode, kind, k)
    ref_volume, ref_cond, ref_vertices = _scaled_fit(mode, kind, 0)
    assert volume == ref_volume
    assert cond == ref_cond
    assert np.array_equal(vertices, ref_vertices)
