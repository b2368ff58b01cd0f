"""Row-locality of the tiled field kernel.

``evaluate_many`` fills each tile with elementwise distance and basis
arithmetic and reduces it per row, so a value must not depend on which
other rows share its call, its tile or its sampling chunk.  ``sample_field``
feeds sources with ``evaluate_axes`` per-axis coordinates instead of points,
which must not change a bit either.  These checks are bitwise, not within a
tolerance.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.distance import TILE_ELEMS
from arbfscaffold.errors import ValidationError
from arbfscaffold.grid import VoxelGrid, sample_field

MESHES = {
    "icosahedron": samples.icosahedron_tet_mesh,
    "perturbed-block": lambda: ax.perturb_mesh(
        samples.hex_block_mesh(), ax.PerturbSpec(magnitude=0.2, seed=3, vertex_fraction=0.7)),
}


def _fit(name, kind):
    return ax.fit_mesh(MESHES[name](), ax.Basis(kind, 0.1), "anisotropic")[0]


def _probe_points(model, n, seed):
    """Uniform points over the padded bbox plus points on and near every center."""
    rng = np.random.default_rng(seed)
    c = model.centers
    lo, hi = model.bbox()
    t = rng.uniform(-0.2, 1.2, size=(len(c.seg_a), 1))
    on_segments = c.seg_a + t * (c.seg_b - c.seg_a)
    special = np.vstack([c.points, c.seg_a, c.seg_b, on_segments,
                         on_segments + rng.normal(scale=1e-13, size=on_segments.shape)])
    pad = 0.1 * (hi - lo)
    uniform = rng.uniform(lo - pad, hi + pad, size=(n - len(special), 3))
    return np.vstack([special, uniform])


@pytest.mark.parametrize("kind", ["mq", "imq"])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_evaluate_equals_evaluate_many_bitwise(name, kind):
    model = _fit(name, kind)
    pts = _probe_points(model, 2000, seed=11)
    assert len(pts) > TILE_ELEMS // len(model.centers)  # several tiles, a partial last one
    many = model.evaluate_many(pts)
    single = np.array([model.evaluate(x) for x in pts])
    assert np.array_equal(single, many)


def test_sample_field_bytes_identical_for_any_worker_count():
    model = _fit("perturbed-block", "imq")
    lo, hi = model.bbox()
    dims = (29, 61, 7)  # 427 rows: 3 chunks of 142 rows (4118 voxels) and one of a single row
    grid = VoxelGrid(origin=lo, spacing=(hi - lo) / (np.array(dims) - 1.0), dims=dims,
                     values=np.zeros(int(np.prod(dims)), dtype=np.float32))
    chunk_rows = []

    class Recorded:
        def evaluate_axes(self, x, y, z):
            chunk_rows.append(np.broadcast_shapes(x.shape, y.shape, z.shape)[0])
            return model.evaluate_axes(x, y, z)

    volumes = [sample_field(Recorded(), grid, workers=w).values.tobytes() for w in (1, 2, 3)]
    assert 1 in chunk_rows
    assert volumes[0] == volumes[1] == volumes[2]
    whole = model.evaluate_many(grid.positions()).astype(np.float32)
    assert whole.tobytes() == volumes[0]


@functools.cache
def _icosahedron_model(mode, kind):
    c = 2.0 if kind == "gaussian" else 0.1  # the isotropic gaussian is singular at 0.1
    return ax.fit_mesh(samples.icosahedron_tet_mesh(), ax.Basis(kind, c), mode)[0]


FIELDS = [("rbf", mode, kind) for mode in ("anisotropic", "isotropic")
          for kind in ("gaussian", "mq", "imq", "tps")] + [("tpms", kind, "")
                                                           for kind in ("p", "d", "g", "iwp")]
coordinate = st.one_of(st.floats(-2.0, 2.0), st.floats(-2e4, 2e4))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: "-".join(filter(None, f)))
@settings(max_examples=20)
@given(st.tuples(*[st.floats(0.25, 4.0)] * 3), st.tuples(coordinate, coordinate, coordinate),
       st.tuples(*[st.floats(1e-4, 1.0)] * 3), st.integers(1, 40), st.integers(1, 24),
       st.one_of(st.just(1), st.integers(1, 12)), st.integers(0, 300), st.booleans())
def test_sample_field_axes_path_equals_evaluate_many(field, periods, origin, spacing,
                                                     nx, ny, nz, extra, long_rows):
    kind, name, basis = field
    source = (_icosahedron_model(name, basis) if kind == "rbf"
              else ax.TpmsField(name, periods))
    if long_rows:  # for a model, a grid row holds more voxels than one tile has rows
        n = len(source.centers) if kind == "rbf" else 1
        nx, ny, nz = max(500, TILE_ELEMS // n + 1) + extra, 1 + ny % 3, 1 + nz % 2
    grid = VoxelGrid(origin=np.array(origin), spacing=np.array(spacing), dims=(nx, ny, nz),
                     values=np.zeros(nx * ny * nz, dtype=np.float32))
    expected = source.evaluate_many(grid.positions()).astype(np.float32).tobytes()
    for workers in (1, 2, 3):
        assert sample_field(source, grid, workers=workers).values.tobytes() == expected


@pytest.mark.parametrize("source", ["rbf", "tpms"])
def test_evaluate_takes_one_point_and_rejects_other_shapes(source):
    field = _icosahedron_model("anisotropic", "imq") if source == "rbf" else ax.TpmsField("g")
    p = np.array([0.1, 0.2, 0.3])
    assert field.evaluate(p) == field.evaluate(p[None, :]) == field.evaluate_many(p)[0]
    for bad in ([0.1, 0.2, 0.3, 0.4], np.zeros((2, 3)), np.zeros((1, 1, 3))):
        with pytest.raises(ValidationError, match=r"^point must .*\(3,\)"):
            field.evaluate(bad)
