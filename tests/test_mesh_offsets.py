"""Mesh quantities that must not depend on where a mesh sits or on its size.

Derived centers are named by vertex indices, so moving or scaling a mesh
keeps its center set; hex volumes are taken relative to a corner.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arbfscaffold import samples
from arbfscaffold.errors import ValidationError
from arbfscaffold.mesh import VolumetricMesh, assemble_center_set, cell_measures

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
