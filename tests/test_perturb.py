"""Seeded vertex jitter used to break scaffold regularity."""

import numpy as np
import pytest

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.errors import ValidationError
from arbfscaffold.mesh import _EDGES, cell_measures
from arbfscaffold.perturb import PerturbSpec, perturb_mesh, shortest_incident_edge


def test_spec_validation():
    PerturbSpec()  # defaults valid
    with pytest.raises(ValidationError):
        PerturbSpec(magnitude=0.31)
    with pytest.raises(ValidationError):
        PerturbSpec(magnitude=-0.01)
    with pytest.raises(ValidationError):
        PerturbSpec(vertex_fraction=1.5)
    with pytest.raises(ValidationError):
        PerturbSpec(seed=-1)


@pytest.mark.parametrize("seed", [2.0, 1.5, np.float64(3.0), "3", None])
def test_spec_rejects_a_seed_that_is_not_an_integer(seed):
    # 2.0 and 1.5 used to build, then fail in perturb_mesh with a raw TypeError;
    # "3" raised a raw TypeError
    with pytest.raises(ValidationError, match="seed must be an integer") as err:
        PerturbSpec(magnitude=0.1, seed=seed)
    assert str(err.value).endswith(f"got {seed!r}")


def test_spec_rejects_a_seed_past_64_bits():
    with pytest.raises(ValidationError, match=r"seed must fit in 64 bits, got 18446744073709551616"):
        PerturbSpec(seed=2**64)


@pytest.mark.parametrize("seed", [np.int64(7), np.int32(7), np.uint64(7), np.uint8(7)])
def test_spec_accepts_numpy_integer_seeds_as_python_ints(block_mesh, seed):
    spec = PerturbSpec(magnitude=0.2, seed=seed)
    assert type(spec.seed) is int and spec == PerturbSpec(magnitude=0.2, seed=7)
    expected = perturb_mesh(block_mesh, PerturbSpec(magnitude=0.2, seed=7)).vertices
    assert np.array_equal(perturb_mesh(block_mesh, spec).vertices, expected)


def shortest_incident_edge_loop(mesh):
    """Reference: the per-cell, per-edge loop that shortest_incident_edge vectorizes."""
    shortest = np.full(len(mesh.vertices), np.inf)
    for cell in mesh.cells:
        for e0, e1 in _EDGES[mesh.kind]:
            va, vb = cell[e0], cell[e1]
            length = float(np.linalg.norm(mesh.vertices[va] - mesh.vertices[vb]))
            if length < shortest[va]:
                shortest[va] = length
            if length < shortest[vb]:
                shortest[vb] = length
    return shortest


@pytest.mark.parametrize("name", sorted(samples.SAMPLE_BUILDERS))
def test_shortest_incident_edge_matches_loop_on_samples(name):
    mesh = samples.SAMPLE_BUILDERS[name]()
    assert np.array_equal(shortest_incident_edge(mesh), shortest_incident_edge_loop(mesh))


@pytest.mark.parametrize("seed", range(4))
def test_shortest_incident_edge_matches_loop_on_perturbed_blocks(seed):
    spec = PerturbSpec(magnitude=0.3, seed=seed, vertex_fraction=1.0)
    for mesh in (samples.hex_block_mesh(4, 3, 2), samples.icosahedron_tet_mesh()):
        moved = perturb_mesh(mesh, spec)
        assert np.array_equal(shortest_incident_edge(moved), shortest_incident_edge_loop(moved))


def test_shortest_incident_edge_unit_hex(hex_mesh):
    assert np.allclose(shortest_incident_edge(hex_mesh), 1.0)


def test_shortest_incident_edge_block(block_mesh):
    assert np.allclose(shortest_incident_edge(block_mesh), 0.5)


def test_same_spec_is_bit_identical(block_mesh):
    spec = PerturbSpec(magnitude=0.2, seed=77, vertex_fraction=0.6)
    a = perturb_mesh(block_mesh, spec)
    b = perturb_mesh(block_mesh, spec)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.cells, b.cells)


def test_different_seed_differs(block_mesh):
    a = perturb_mesh(block_mesh, PerturbSpec(seed=1))
    b = perturb_mesh(block_mesh, PerturbSpec(seed=2))
    assert not np.array_equal(a.vertices, b.vertices)


def test_zero_magnitude_is_identity(block_mesh):
    out = perturb_mesh(block_mesh, PerturbSpec(magnitude=0.0, vertex_fraction=1.0))
    assert np.array_equal(out.vertices, block_mesh.vertices)


def test_zero_fraction_is_identity(block_mesh):
    out = perturb_mesh(block_mesh, PerturbSpec(magnitude=0.3, vertex_fraction=0.0))
    assert np.array_equal(out.vertices, block_mesh.vertices)


def test_displacement_bound(block_mesh):
    spec = PerturbSpec(magnitude=0.25, seed=5, vertex_fraction=1.0)
    out = perturb_mesh(block_mesh, spec)
    moved = np.linalg.norm(out.vertices - block_mesh.vertices, axis=1)
    bound = spec.magnitude * shortest_incident_edge(block_mesh)
    assert np.all(moved <= bound + 1e-12)
    assert np.count_nonzero(moved) == len(block_mesh.vertices)


def test_fraction_selects_subset(block_mesh):
    out = perturb_mesh(block_mesh, PerturbSpec(magnitude=0.2, seed=3,
                                               vertex_fraction=0.5))
    moved = np.linalg.norm(out.vertices - block_mesh.vertices, axis=1)
    # floor(27 * 0.5) or round, but strictly between none and all
    assert 0 < np.count_nonzero(moved) < len(block_mesh.vertices)


def test_topology_and_validity_preserved(block_mesh):
    out = perturb_mesh(block_mesh, PerturbSpec(magnitude=0.3, seed=12,
                                               vertex_fraction=1.0))
    assert out.kind == block_mesh.kind
    assert np.array_equal(out.cells, block_mesh.cells)
    assert np.all(cell_measures(out) > 0)


def test_input_mesh_is_untouched(block_mesh):
    before = block_mesh.vertices.copy()
    perturb_mesh(block_mesh, PerturbSpec(magnitude=0.3, seed=4, vertex_fraction=1.0))
    assert np.array_equal(block_mesh.vertices, before)


def test_planar_mesh_stays_planar(tri_mesh):
    out = perturb_mesh(tri_mesh, PerturbSpec(magnitude=0.2, seed=6,
                                             vertex_fraction=1.0))
    assert np.all(out.vertices[:, 2] == 0.0)
    assert not np.array_equal(out.vertices[:, :2], tri_mesh.vertices[:, :2])


def test_unused_vertex_is_rejected():
    # vertex 4 belongs to no cell: it would be a stray +1 center, and it has
    # no edge to scale a displacement by
    tet = samples.unit_tet_mesh()
    with pytest.raises(ValidationError, match="vertex 4 is used by no cell"):
        ax.VolumetricMesh("tet", np.vstack([tet.vertices, [(5.0, 5.0, 5.0)]]), tet.cells)


def test_collapsed_cell_raises_degenerate_result():
    # A long second triangle reaches a far vertex and stretches the bbox, so
    # the degeneracy floor (1e-12 x diagonal^2) lies near the unit triangle's
    # area of 0.5: after the moves it is 0.45 for seed 0 and 0.24 for seed 3.
    # Seed 0 shrinks the unit triangle to 0.37 and seed 3 grows it to 0.64.
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (6.5e5, 0.0, 0.0)]
    mesh = ax.VolumetricMesh("tri2d", verts, [(0, 1, 2), (1, 3, 2)])
    grown = perturb_mesh(mesh, PerturbSpec(magnitude=0.3, seed=3, vertex_fraction=1.0))
    assert cell_measures(grown)[0] == pytest.approx(0.6356, abs=1e-4)
    with pytest.raises(ValidationError,
                       match=r"collapsed a cell \(seed 0, magnitude 0.3\): cell 0 is degenerate "
                             r"\(measure 3.709e-01\)"):
        perturb_mesh(mesh, PerturbSpec(magnitude=0.3, seed=0, vertex_fraction=1.0))


def test_downstream_fit_is_deterministic(hex_mesh):
    spec = PerturbSpec(magnitude=0.2, seed=42, vertex_fraction=1.0)
    fields = []
    for _ in range(2):
        mesh = perturb_mesh(hex_mesh, spec)
        model = ax.fit_mesh(mesh, ax.Basis("imq", 0.1), "anisotropic")[0]
        g = ax.make_grid(*model.bbox(), 8, 0.05)
        fields.append(ax.sample_field(model, g).values)
    assert np.array_equal(fields[0], fields[1])
