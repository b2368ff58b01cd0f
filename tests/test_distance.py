"""The squared-distance kernel against known values, brute-force minima and a bit oracle.

``squared_distance_block`` is the one block kernel; its one-entry blocks,
``r2_point`` and ``r2_segment`` below, serve as the scalar kernels.  The
bit oracle, ``oracle_r2_segment``, evaluates the documented formula in
Python floats, so a reordered operation in the tile walk shows as a
changed bit.  Between two segment centers the distance is the collocation
matrix's endpoint-pair minimum, so those tests read it from
``assemble_matrix``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import arbfscaffold as ax
from arbfscaffold import distance, samples
from arbfscaffold.distance import distance_tiles, squared_distance_block
from arbfscaffold.errors import ValidationError
from arbfscaffold.mesh import CenterSet
from arbfscaffold.rbf import Basis, assemble_matrix

coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord, coord).map(np.array)
point_rows = st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=6).map(np.array)
NONE = np.empty((0, 3))
IMQ = Basis("imq", 0.1)


def r2_point(p, q) -> float:
    return float(squared_distance_block(p, q, NONE, NONE)[0, 0])


def r2_segment(x, a, b) -> float:
    return float(squared_distance_block(x, NONE, a, b)[0, 0])


def brute_point_segment(p, a, b, n=10_000):
    t = np.linspace(0.0, 1.0, n)[:, None]
    return float(np.linalg.norm(a + t * (b - a) - p, axis=1).min())


def test_point_point_known_values():
    assert r2_point(np.zeros(3), np.array([1.0, 0, 0])) == 1.0
    assert r2_point(np.zeros(3), np.array([1.0, 1.0, 0])) == 2.0
    assert r2_point(np.ones(3), np.ones(3)) == 0.0


def test_point_segment_perpendicular_case():
    a, b = np.zeros(3), np.array([1.0, 0, 0])
    assert r2_segment(np.array([0.5, 1.0, 0]), a, b) == 1.0
    assert r2_segment(np.array([0.25, 0, 2.0]), a, b) == 4.0


def test_point_segment_endpoint_case():
    a, b = np.zeros(3), np.array([1.0, 0, 0])
    # projection parameter outside [0, 1] falls back to nearest endpoint
    assert r2_segment(np.array([2.0, 0, 0]), a, b) == 1.0
    assert r2_segment(np.array([-3.0, 4.0, 0]), a, b) == 25.0


def test_point_on_segment_is_exactly_zero():
    a, b = np.zeros(3), np.array([1.0, 1.0, 1.0])
    for t in (0.0, 0.25, 0.5, 1.0):
        assert r2_segment(a + t * (b - a), a, b) == 0.0


def test_near_segment_residual_clamp():
    # no tolerance snaps a point near a segment onto it: 1e-13 off measures (1e-13)²
    a, b = np.zeros(3), np.array([1.0, 0, 0])
    p = np.array([0.5, 1e-13, 0.0])
    assert r2_segment(p, a, b) == 1e-13 * 1e-13


def has_length(seg_a, seg_b) -> bool:
    """Whether CenterSet takes the segments [seg_a, seg_b]: the kernel measures only those."""
    try:
        CenterSet(NONE, [], seg_a, seg_b)
    except ValidationError as exc:
        if "degenerate cell" not in str(exc):
            raise
        return False
    return True


def _segment_block(a, b, c, d):
    """The 2 x 2 segment block of A for the segments [a, b] and [c, d], or None on a duplicate."""
    try:
        return assemble_matrix(CenterSet(NONE, [], [a, c], [b, d]), IMQ)[0]
    except ValidationError as exc:
        if "centers 0 and 1 coincide" not in str(exc):
            raise
        return None


def test_segment_segment_is_endpoint_pair_minimum():
    # crossing segments: geometric gap is 1.0 but all endpoint pairs are 1.5
    a, b = np.zeros(3), np.array([1.0, 0, 0])
    c, d = np.array([0.5, -1.0, 1.0]), np.array([0.5, 1.0, 1.0])
    assert _segment_block(a, b, c, d)[0, 1] == 1.0 / np.sqrt(1.5 * 1.5 + IMQ.c * IMQ.c)
    # shared endpoint gives zero
    assert _segment_block(a, b, b, d)[0, 1] == 1.0 / np.sqrt(IMQ.c * IMQ.c)


def test_brute_force_agreement(rng):
    for _ in range(200):
        p, a, b = rng.standard_normal((3, 3))
        exact = np.sqrt(r2_segment(p, a, b))
        seglen = np.linalg.norm(b - a)
        assert abs(exact - brute_point_segment(p, a, b)) <= 1e-3 * seglen


@settings(max_examples=200, deadline=None)
@given(p=point, a=point, b=point)
def test_endpoint_swap_symmetry_is_bitwise(p, a, b):
    assume(has_length(a, b))
    assert r2_segment(p, a, b) == r2_segment(p, b, a)


@settings(max_examples=200, deadline=None)
@given(p=point, a=point, b=point)
def test_bounded_by_endpoint_distances(p, a, b):
    assume(has_length(a, b))
    r2 = r2_segment(p, a, b)
    assert r2 >= 0.0
    assert np.sqrt(r2) <= np.sqrt(min(r2_point(p, a), r2_point(p, b))) + 1e-12


def exact_r2_segment(x, a, b) -> Fraction:
    """The squared distance from x to the segment [a, b] in exact rational arithmetic."""
    x, a, b = ([Fraction(float(v)) for v in p] for p in (x, a, b))
    d = [bk - ak for ak, bk in zip(a, b)]
    diff = [xk - ak for xk, ak in zip(x, a)]
    dd = sum(dk * dk for dk in d)
    t = min(max(sum(ek * dk for ek, dk in zip(diff, d)) / dd, 0), 1)
    return sum((ek - t * dk) ** 2 for ek, dk in zip(diff, d))


@settings(max_examples=300, deadline=None)
@given(a=point, b=point, u=st.floats(-0.5, 1.5),
       kind=st.sampled_from(["on", "near", "off"]), log_rel=st.floats(-12.0, -3.0), direction=point)
def test_segment_distance_is_accurate(a, b, u, kind, log_rel, direction):
    # r within 4 eps (|x - a| + |b - a|) of the exact distance: on a segment, near
    # it, off it and beyond its ends.  The expanded form r² = |x - a|² + dd t (t - 2s)
    # cancels near a segment and missed this bound by factors up to 6e7.
    length = float(np.linalg.norm(b - a))
    assume(length > 1e-100)  # squares of the near offsets stay normal
    norm = float(np.linalg.norm(direction))
    assume(norm > 1e-100)
    scale = {"on": 0.0, "near": 10.0 ** log_rel * length / norm, "off": 1.0}[kind]
    x = _on_line(a, b, u, scale * direction)
    r = Fraction(math.sqrt(r2_segment(x, a, b)))
    tol = Fraction(4 * np.finfo(float).eps * (float(np.linalg.norm(x - a)) + length))
    exact = exact_r2_segment(x, a, b)
    assert max(r - tol, 0) ** 2 <= exact <= (r + tol) ** 2


@settings(max_examples=100, deadline=None)
@given(a=point, b=point, c=point, d=point)
def test_segment_segment_symmetry(a, b, c, d):
    assume(has_length([a, c], [b, d]))
    ref = _segment_block(a, b, c, d)
    if ref is None:  # [a, b] and [c, d] coincide in either orientation, so must every view
        assert _segment_block(c, d, a, b) is None and _segment_block(b, a, d, c) is None
        return
    assert ref[0, 1] == ref[1, 0]
    assert _segment_block(c, d, a, b)[0, 1] == ref[0, 1]
    assert _segment_block(b, a, d, c)[0, 1] == ref[0, 1]


@given(pts=point_rows, ends=point_rows)
def test_batched_blocks_equal_scalar_kernels_bitwise(pts, ends):
    # segment j runs from ends[j] to ends[j + 1]
    a = ends
    b = np.roll(ends, -1, axis=0)
    assume(has_length(a, b))
    block = squared_distance_block(pts, a, a, b)
    m = len(a)
    assert block.shape == (len(pts), 2 * m)
    for i, p in enumerate(pts):
        for j in range(m):
            assert block[i, j] == r2_point(p, a[j])
            assert block[i, m + j] == r2_segment(p, a[j], b[j])


def oracle_r2_point(x, q) -> float:
    """|x - q|² in Python floats, added x + (y + z)."""
    dx, dy, dz = (float(xk) - float(qk) for xk, qk in zip(x, q))
    return dx * dx + (dy * dy + dz * dz)


def _dot(u, v) -> float:
    """u·v in Python floats, added x + (y + z)."""
    return u[0] * v[0] + (u[1] * v[1] + u[2] * v[2])


def _cross(u, v) -> list:
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def oracle_r2_segment(x, a, b) -> float:
    """Squared distance from x to the segment [a, b] in Python floats, by the documented formula.

    Every Python float operation rounds once, with no fused multiply-add, so
    this fixes the kernel's order of operations by hand.  The frame: the
    endpoints in lexicographic order, d = b - a and dd = d·d > 0.  The
    length is sqrt(dd), e2 = w / |w| for w = d × the axis of d's smallest
    |d_k|, and e3 = (d / length) × e2.  Then t = (x - a)·(d / dd) and
    n_j = (x - a)·e_j, and r² = ((t - clamp(t, 0, 1))·length)² + (n2² + n3²).
    Every dot product adds its axes x + (y + z).
    """
    x, a, b = (tuple(map(float, v)) for v in (x, a, b))
    if b < a:
        a, b = b, a
    d = [bk - ak for ak, bk in zip(a, b)]
    dd = _dot(d, d)
    length = math.sqrt(dd)
    k = min(range(3), key=lambda i: abs(d[i]))
    w = _cross(d, [float(i == k) for i in range(3)])
    e2 = [wk / math.sqrt(_dot(w, w)) for wk in w]
    e3 = _cross([dk / length for dk in d], e2)
    diff = [xk - ak for xk, ak in zip(x, a)]
    t, n2, n3 = (_dot(diff, e) for e in ([dk / dd for dk in d], e2, e3))
    along = (t - min(max(t, 0.0), 1.0)) * length
    return along * along + (n2 * n2 + n3 * n3)


def oracle_row(x, a, b) -> list:
    """The oracle's squared distances from x to the points a, then to the segments [a, b]."""
    return [oracle_r2_point(x, c) for c in a] + [oracle_r2_segment(x, *s) for s in zip(a, b)]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_walks_match_oracle(q, a, b):
    """Both ``squared_distance_block`` and a sample_field-shaped walk equal the oracle, bit for bit.

    The points are the segments' starts.  The walk takes xs[None, :],
    ys[:, None] and zs[:, None], as sample_field does, so it measures every
    (xs[j], ys[i], zs[i]), q itself on the diagonal; it runs once with the
    default tiles and once with tiles of a few pairs, partial ones included.
    """
    ref = np.array([oracle_row(x, a, b) for x in q])
    assert np.array_equal(_bits(squared_distance_block(q, a, a, b)), _bits(ref))

    xs, ys, zs = q[:, 0], q[:, 1], q[:, 2]
    ref = np.array([[oracle_row((x, y, z), a, b) for x in xs] for y, z in zip(ys, zs)])
    for elems in (distance.TILE_ELEMS, 3 * ref.shape[-1]):
        out = np.full(ref.shape, np.nan)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "TILE_ELEMS", elems)
            for rows, cols, block in distance_tiles(xs[None, :], ys[:, None], zs[:, None], a, a, b):
                out[rows, cols] = block
        assert np.array_equal(_bits(out), _bits(ref))


def _on_line(a, b, u, offset):
    """a + u (b - a) + offset, rounded as numpy rounds it."""
    return a + u * (b - a) + offset


# One segment per regime of the foot's parameter t, each with query points
# before, on and past the segment, off it and on it exactly.
ORACLE_CASES = [
    (np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
    (np.array([0.3, -1.7, 2.2]), np.array([-0.4, 0.9, 1.1])),  # b before a: swapped
    (np.array([-3.0, 0.25, 7.0]), np.array([4.0, -1.0, 0.5])),
]
ORACLE_US = (-0.75, 0.0, 0.3, 0.5, 1.0, 1.6)
ORACLE_OFFSETS = (np.zeros(3), np.array([0.0, 1e-14, 0.0]), np.array([0.2, -0.5, 0.9]))


def test_segment_oracle_regimes_are_covered():
    t_regimes = set()
    for a, b in ORACLE_CASES:
        d = b - a
        for u in ORACLE_US:
            for off in ORACLE_OFFSETS:
                t = (_on_line(a, b, u, off) - a) @ d / (d @ d)
                t_regimes.add("before" if t < 0.0 else "past" if t > 1.0 else "inside")
    assert t_regimes == {"before", "inside", "past"}


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_walks_equal_segment_oracle_bitwise(case):
    a, b = ORACLE_CASES[case]
    q = np.array([_on_line(a, b, u, off) for u in ORACLE_US for off in ORACLE_OFFSETS])
    sa, sb = np.array([a, b]), np.array([b, a])  # both orientations
    assert_walks_match_oracle(q, sa, sb)


@settings(max_examples=60)
@given(ends=st.lists(st.tuples(point, point), min_size=1, max_size=3),
       feet=st.lists(st.tuples(st.integers(0, 2), st.floats(-1.0, 2.0), st.sampled_from(range(3)),
                               point), min_size=1, max_size=6))
def test_walks_equal_segment_oracle_bitwise_random(ends, feet):
    # segment j runs from a[j] to b[j]; each query point lies at u along a
    # segment, exactly or off it by some offset
    a = np.array([e[0] for e in ends])
    b = np.array([e[1] for e in ends])
    assume(has_length(a, b))
    q = np.array([_on_line(a[j % len(a)], b[j % len(a)], u, (0.0, 1e-14, 1.0)[kind] * off)
                  for j, u, kind, off in feet])
    assert_walks_match_oracle(q, a, b)


def test_empty_blocks_keep_their_shape():
    none, q = np.empty((0, 3)), np.ones((4, 3))
    assert squared_distance_block(none, q, q, 2 * q).shape == (0, 8)
    assert squared_distance_block(q, none, none, none).shape == (4, 0)
    assert squared_distance_block(q, q[:1], none, none).shape == (4, 1)
    assert squared_distance_block(none, q, none, none).shape == (0, 4)
    assert squared_distance_block(q, none, q, 2 * q).shape == (4, 4)
    assert squared_distance_block(none, none, q, 2 * q).shape == (0, 4)


# The endpoint-pair minimum exceeds the true segment distance by at most this
# factor on the sample meshes and the perturbed block.  Measured against the
# 101 x 101 brute force below: above on 382 of 1128 pairs, by at most a
# factor 1.0129, on the perturbed block; on 810 of 3160 pairs, by at most
# 1.0023, on the icosahedron; equal on every other sample mesh.
ENDPOINT_BOUND = 1.015
BOUND_MESHES = {**samples.SAMPLE_BUILDERS, "hex8-perturbed": lambda: ax.perturb_mesh(
    samples.hex_block_mesh(), ax.PerturbSpec(magnitude=0.2, seed=0))}
ABOVE = ("hex8-perturbed", "icosa20.node")


def brute_segment_distances(sa, sb, n=101):
    """(s, s) minima of |a_i + u d_i - a_j - v d_j| over an n x n grid of (u, v) in [0, 1]².

    The grid holds both ends of each segment, so every minimum lies between
    the true distance and the endpoint-pair minimum.
    """
    u = np.linspace(0.0, 1.0, n)[:, None]
    on = sa[:, None] + u * (sb - sa)[:, None]  # (s, n, 3): the grid points of each segment
    best = np.empty((len(sa), len(sa)))
    for i in range(len(sa)):
        # (s, n, n) squared gaps between segment i at u and each segment j at v
        sq = sum((on[i, :, k][:, None] - on[:, None, :, k]) ** 2 for k in range(3))
        best[i] = np.sqrt(sq.min(axis=(1, 2)))
    return best


@pytest.mark.parametrize("name", sorted(BOUND_MESHES))
def test_segment_block_bounds_the_segment_distance(name):
    cs = ax.assemble_center_set(BOUND_MESHES[name](), "anisotropic")
    p = len(cs.points)
    # gaussian with c = 1 turns the entries back into squared distances: -log(exp(-r²))
    r2 = -np.log(assemble_matrix(cs, Basis("gaussian", 1.0))[0][p:, p:])
    endpoint = np.sqrt(np.maximum(r2, 0.0))
    brute = brute_segment_distances(cs.seg_a, cs.seg_b)
    assert np.all(brute <= endpoint + 1e-12)
    if name in ABOVE:
        assert np.all(endpoint <= ENDPOINT_BOUND * brute + 1e-12)
        assert np.any(endpoint > brute + 1e-12)
    else:  # the endpoint minimum is the segment distance here
        assert np.abs(endpoint - brute).max() <= 1e-12
