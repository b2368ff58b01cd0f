"""Block assembly of the collocation matrix against a per-pair reference loop.

The reference walks every center pair (i < j) with the scalar kernels of
``distance.py``, exactly as the assembly did before it was split into
point-point, point-segment and segment-segment blocks.  All three blocks
must match it bit for bit: the scalar kernels are one-entry views of the
batched ones, which use elementwise arithmetic only, so a distance rounds
the same way whatever the block shape.
"""

import numpy as np
import pytest

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.distance import dist_point_point, dist_point_segment, dist_segment_segment
from arbfscaffold.errors import DuplicateCenterError
from arbfscaffold.mesh import CenterSet
from arbfscaffold.rbf import DUPLICATE_TOL, Basis, assemble_matrix, eval_basis

BASES = [Basis(kind, 0.1) for kind in ("gaussian", "mq", "imq", "tps")]


def reference_distances(cs: CenterSet):
    """(distance matrix, first duplicate pair or None) from the per-pair loop."""
    centers = [("P", q) for q in cs.points]
    centers += [("S", (a, b)) for a, b in zip(cs.seg_a, cs.seg_b)]
    n = len(centers)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            (ki, ci), (kj, cj) = centers[i], centers[j]
            if ki == "P" and kj == "P":
                d = dist_point_point(ci, cj)
                same = True
            elif ki == "S" and kj == "S":
                d = dist_segment_segment(ci[0], ci[1], cj[0], cj[1])
                near = [dist_point_point(x, y) < DUPLICATE_TOL
                        for x, y in ((ci[0], cj[0]), (ci[1], cj[1]),
                                     (ci[0], cj[1]), (ci[1], cj[0]))]
                same = (near[0] and near[1]) or (near[2] and near[3])
            else:
                q, (a, b) = (ci, cj) if ki == "P" else (cj, ci)
                d = dist_point_segment(q, a, b)
                same = False
            if d < DUPLICATE_TOL and same:
                return None, (i, j)
            dist[i, j] = dist[j, i] = d
    return dist, None


@pytest.mark.parametrize("mode", ["isotropic", "anisotropic"])
@pytest.mark.parametrize("name", sorted(samples.SAMPLE_BUILDERS))
def test_blocks_match_reference_loop(name, mode):
    cs = ax.assemble_center_set(samples.SAMPLE_BUILDERS[name](), mode)
    dist, dup = reference_distances(cs)
    assert dup is None
    p = len(cs.points)
    for basis in BASES:
        ref = eval_basis(basis, dist)
        a, rhs = assemble_matrix(cs, basis)
        assert np.array_equal(a[:p, :p], ref[:p, :p])
        assert np.array_equal(a[p:, p:], ref[p:, p:])
        assert np.array_equal(a[:p, p:], ref[:p, p:])
        assert np.array_equal(a[p:, :p], a[:p, p:].T)
        assert np.array_equal(rhs, cs.values)


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
        "within-tol": CenterSet(np.vstack([z, z + 0.5 * DUPLICATE_TOL]), [1.0, 1.0]),
        "just-apart": CenterSet(np.vstack([z, z + 2 * DUPLICATE_TOL]), [1.0, 1.0]),
    }


@pytest.mark.parametrize("name", sorted(_duplicate_cases()))
def test_duplicates_match_reference_loop(name):
    cs = _duplicate_cases()[name]
    _, dup = reference_distances(cs)
    apart = ("just-apart", "point-on-segment-end", "touching-segments")
    assert (dup is None) == (name in apart)
    if dup is None:
        assemble_matrix(cs, BASES[2])
        return
    with pytest.raises(DuplicateCenterError, match=f"centers {dup[0]} and {dup[1]} coincide"):
        assemble_matrix(cs, BASES[2])
