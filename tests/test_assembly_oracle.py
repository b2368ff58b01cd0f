"""Block assembly of the collocation matrix against a per-pair reference loop.

The reference walks every center pair (i < j) with one-entry blocks of
``squared_distance_block``, exactly as the assembly did before it was split
into point-point, point-segment and segment-segment blocks, and puts the
squared distances through the same basis step.  All three blocks must match
it bit for bit: the kernel uses elementwise arithmetic only, so a squared
distance rounds the same way whatever the block shape.
"""

import numpy as np
import pytest

import arbfscaffold as ax
from arbfscaffold import distance, samples
from arbfscaffold.distance import TILE_ELEMS, squared_distance_block
from arbfscaffold.errors import ValidationError
from arbfscaffold.mesh import CenterSet
from arbfscaffold.rbf import DUPLICATE_TOL, Basis, InterpolationModel, _fill_basis, assemble_matrix

BASES = [Basis(kind, 0.1) for kind in ("gaussian", "mq", "imq", "tps")]
NONE = np.empty((0, 3))


def basis_of_r2(basis, r2):
    """Basis values of the squared distances ``r2``, by the step assemble_matrix takes."""
    out = np.array(r2, dtype=np.float64)
    _fill_basis(basis, out)
    return out


def r2_point(p, q) -> float:
    return float(squared_distance_block(p, q, NONE, NONE)[0, 0])


def r2_segment(x, a, b) -> float:
    return float(squared_distance_block(x, NONE, a, b)[0, 0])


def reference_squared_distances(cs: CenterSet):
    """(squared distance matrix, first duplicate pair or None) from the per-pair loop.

    A pair is a duplicate within DUPLICATE_TOL times the centers' bbox diagonal.
    """
    centers = [("P", q) for q in cs.points]
    centers += [("S", (a, b)) for a, b in zip(cs.seg_a, cs.seg_b)]
    pos = np.vstack([cs.points, cs.seg_a, cs.seg_b])
    n, tol = len(centers), (DUPLICATE_TOL * np.linalg.norm(pos.max(0) - pos.min(0))) ** 2
    r2 = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            (ki, ci), (kj, cj) = centers[i], centers[j]
            if ki == "P" and kj == "P":
                d = r2_point(ci, cj)
                same = True
            elif ki == "S" and kj == "S":
                ends = [r2_point(x, y) for x, y in ((ci[0], cj[0]), (ci[1], cj[1]),
                                                    (ci[0], cj[1]), (ci[1], cj[0]))]
                d = min(ends)
                near = [e <= tol for e in ends]
                same = (near[0] and near[1]) or (near[2] and near[3])
            else:
                q, (a, b) = (ci, cj) if ki == "P" else (cj, ci)
                d = r2_segment(q, a, b)
                same = False
            if d <= tol and same:
                return None, (i, j)
            r2[i, j] = r2[j, i] = d
    return r2, None


@pytest.mark.parametrize("mode", ["isotropic", "anisotropic"])
@pytest.mark.parametrize("name", sorted(samples.SAMPLE_BUILDERS))
def test_blocks_match_reference_loop(name, mode):
    cs = ax.assemble_center_set(samples.SAMPLE_BUILDERS[name](), mode)
    r2, dup = reference_squared_distances(cs)
    assert dup is None
    p = len(cs.points)
    for basis in BASES:
        ref = basis_of_r2(basis, r2)
        a, rhs = assemble_matrix(cs, basis)
        assert np.array_equal(a[:p, :p], ref[:p, :p])
        assert np.array_equal(a[p:, p:], ref[p:, p:])
        assert np.array_equal(a[:p, p:], ref[:p, p:])
        assert np.array_equal(a[p:, :p], a[:p, p:].T)
        assert np.array_equal(rhs, cs.values)


@pytest.mark.parametrize("mode", ["isotropic", "anisotropic"])
def test_multi_tile_rows_equal_rows_built_alone(mode):
    mesh = ax.perturb_mesh(samples.hex_block_mesh(4, 4, 4),
                           ax.PerturbSpec(magnitude=0.2, seed=3, vertex_fraction=0.7))
    cs = ax.assemble_center_set(mesh, mode)
    pts, sa, sb = cs.points, cs.seg_a, cs.seg_b
    assert len(pts) * len(cs) > TILE_ELEMS  # the point rows span several tiles
    assert len(sa) == 0 or 2 * len(sa) ** 2 > TILE_ELEMS // 4  # so do the segment rows, if any
    rows = [squared_distance_block(q, pts, sa, sb)[0] for q in pts]
    for a, b in zip(sa, sb):
        ends = [squared_distance_block(e, f, NONE, NONE)[0] for e in (a, b) for f in (sa, sb)]
        rows.append(np.concatenate([squared_distance_block(pts, NONE, a, b)[:, 0],
                                    np.minimum.reduce(ends)]))
    for basis in BASES:
        matrix, _ = assemble_matrix(cs, basis)
        for i, row in enumerate(rows):
            assert np.array_equal(matrix[i], basis_of_r2(basis, row)), i


def _duplicate_cases():
    block = ax.assemble_center_set(samples.hex_block_mesh(), "anisotropic")
    pts, vals, sa, sb = block.points, block.point_values, block.seg_a, block.seg_b
    z, e = np.zeros((1, 3)), np.eye(3)
    return {
        "points-repeat": CenterSet(np.vstack([pts, pts[7:8]]), np.append(vals, -1.0), sa, sb),
        "segment-repeat": CenterSet(pts, vals, np.vstack([sa, sa[5:6]]), np.vstack([sb, sb[5:6]])),
        "segment-flipped": CenterSet(pts, vals, np.vstack([sa, sb[9:10]]), np.vstack([sb, sa[9:10]])),
        "two-pairs": CenterSet(np.vstack([pts, pts[3:4]]), np.append(vals, 1.0),
                               np.vstack([sa, sa[0:1]]), np.vstack([sb, sb[0:1]])),
        "point-on-segment-end": CenterSet(np.vstack([z, e[0:1]]), [1.0, -1.0], z, e[1:2]),
        "touching-segments": CenterSet(e[2:3], [1.0], np.vstack([z, z]), e[:2]),
        # a third center at distance 1 makes the bbox diagonal 1: the tolerance is relative
        "within-tol": CenterSet(np.vstack([z, z + 0.5 * DUPLICATE_TOL, e[0]]), [1.0, 1.0, -1.0]),
        "just-apart": CenterSet(np.vstack([z, z + 2 * DUPLICATE_TOL, e[0]]), [1.0, 1.0, -1.0]),
        "within-tol-2^-40": CenterSet(2.0 ** -40 * np.vstack([z, z + 0.5 * DUPLICATE_TOL, e[0]]),
                                      [1.0, 1.0, -1.0]),
        "just-apart-2^-40": CenterSet(2.0 ** -40 * np.vstack([z, z + 2 * DUPLICATE_TOL, e[0]]),
                                      [1.0, 1.0, -1.0]),
    }


# 2048 pairs make tiles of 3 point rows and 5 segment rows on the hex block
# cases, so every duplicate there lies in a later tile than the first
@pytest.mark.parametrize("elems", [distance.TILE_ELEMS, 2048])
@pytest.mark.parametrize("name", sorted(_duplicate_cases()))
def test_duplicates_match_reference_loop(name, elems, monkeypatch):
    monkeypatch.setattr(distance, "TILE_ELEMS", elems)
    cs = _duplicate_cases()[name]
    _, dup = reference_squared_distances(cs)
    apart = ("just-apart", "just-apart-2^-40", "point-on-segment-end", "touching-segments")
    assert (dup is None) == (name in apart)
    if dup is None:
        assemble_matrix(cs, BASES[2])
        return
    with pytest.raises(ValidationError, match=f"centers {dup[0]} and {dup[1]} coincide"):
        assemble_matrix(cs, BASES[2])


@pytest.mark.parametrize("kind", ["mq", "imq", "tps"])
@pytest.mark.parametrize("mode", ["isotropic", "anisotropic"])
@pytest.mark.parametrize("name", sorted(samples.SAMPLE_BUILDERS))
def test_point_rows_are_the_field_at_the_point_centers(name, mode, kind, rng):
    """The field at a point center is its row of A times the weights, bit for bit.

    Both take their squared distances from the one tile walk and apply the
    same basis step, and the weighted sum is an einsum on either side, so
    this holds for any weights.
    """
    cs = ax.assemble_center_set(samples.SAMPLE_BUILDERS[name](), mode)
    basis = Basis(kind, 0.1)
    model = InterpolationModel(cs, basis, 0.0, rng.standard_normal(len(cs)))
    a, _ = assemble_matrix(cs, basis)
    rows = np.einsum("pn,n->p", a[:len(cs.points)], model.weights)
    assert np.array_equal(model.evaluate_many(cs.points), rows)
