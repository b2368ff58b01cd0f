"""Voxel grids, field sources and their sampling, and the .vhdr/.raw volume format.

Values are stored as a flat float32 array in x-fastest order
(idx = i + nx * (j + ny * k)); sample (i, j, k) sits at
origin + (i * dx, j * dy, k * dz), so both bbox faces are sampled.
The raw payload on disk is little-endian float32 and round-trips
bit-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import ParseError, ValidationError, index_array, integer, point_array, real


@dataclass(eq=False)
class VoxelGrid:
    """Samples of a field at origin + (i, j, k) * spacing for (i, j, k) below dims."""

    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple[int, int, int]
    values: np.ndarray  # flat float32, x-fastest

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample coordinates along each axis: origin[a] + i * spacing[a]."""
        return tuple(self.origin[a] + np.arange(n, dtype=np.float64) * self.spacing[a]
                     for a, n in enumerate(self.dims))

    def positions(self, idx=None) -> np.ndarray:
        """Sample coordinates (n, 3) at the flat indices ``idx``, all samples if None.

        Entries of the axes() vectors, so they equal the sampled coordinates bit for bit.
        """
        nx, ny, nz = self.dims
        idx = (np.arange(nx * ny * nz) if idx is None else
               index_array(np.reshape(idx, (-1, 1)), "sample indices", nx * ny * nz, 1)[:, 0])
        xs, ys, zs = self.axes()
        return np.stack([xs[idx % nx], ys[idx // nx % ny], zs[idx // (nx * ny)]], axis=1)

    def values_3d(self) -> np.ndarray:
        """View with axes (k, j, i); values_3d()[k, j, i] is sample (i, j, k)."""
        nx, ny, nz = self.dims
        return self.values.reshape(nz, ny, nx)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        n = np.array(self.dims, dtype=np.float64) - 1.0
        return self.origin.copy(), self.origin + self.spacing * n


def _empty_values(dims) -> np.ndarray:
    nx, ny, nz = dims
    return np.zeros(nx * ny * nz, dtype=np.float32)


def bbox_diagonal(lo, hi) -> float:
    """|hi - lo| by np.linalg.norm, scaled by a power of two against overflow and underflow."""
    k = np.frexp(np.abs(hi - lo).max())[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(hi - lo, -k)), k))


def _padded_axes(lo: np.ndarray, hi: np.ndarray, resolution: int, pad_fraction: float):
    """Validated (origin, spacing, dims) over the axes of ``lo``/``hi``.

    The box grows by pad_fraction x diagonal on every side; the longest
    axis gets ``resolution`` samples and shorter axes proportionally fewer,
    never fewer than 2.  A flat axis (lo == hi) is allowed when the padding
    gives it positive extent.
    """
    if not np.all(hi >= lo):
        raise ValidationError(f"bbox must have hi >= lo, got {lo} .. {hi}")
    # at most 2**36 samples (256 GiB of float32) in a square or cubic grid
    resolution = integer(resolution, "resolution", 2, 2 ** (36 // len(lo)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        pad = real(pad_fraction, "pad_fraction", 0.0) * bbox_diagonal(lo, hi)
        extent = (hi + pad) - (lo - pad)
    if not np.all((extent > 0) & (extent < np.inf)):  # NaN fails both
        raise ValidationError(f"bbox {lo} .. {hi} padded by {pad_fraction!r} of its diagonal "
                              f"must have a positive, finite extent, got {extent}")
    lo = lo - pad
    longest = float(extent.max())
    dims = tuple(max(2, int(round(resolution * float(e) / longest))) for e in extent)
    return lo, extent / (np.array(dims, dtype=np.float64) - 1.0), dims


def _bbox_corners(bbox_min, bbox_max, sizes):
    """The bbox corners as finite float64 vectors of one length, which must be in ``sizes``."""
    lo = np.array([real(v, "bbox_min") for v in np.ravel(bbox_min)], dtype=np.float64)
    hi = np.array([real(v, "bbox_max") for v in np.ravel(bbox_max)], dtype=np.float64)
    if lo.size != hi.size or lo.size not in sizes:
        raise ValidationError(f"bbox corners must have {' or '.join(map(str, sizes))} "
                              f"coordinates each, got {lo.size} and {hi.size}")
    return lo, hi


def make_grid(bbox_min, bbox_max, resolution: int, pad_fraction: float = 0.0) -> VoxelGrid:
    """Grid over a padded bbox; the longest axis gets ``resolution`` samples."""
    lo, hi = _bbox_corners(bbox_min, bbox_max, (3,))
    origin, spacing, dims = _padded_axes(lo, hi, resolution, pad_fraction)
    return VoxelGrid(origin=origin, spacing=spacing, dims=dims, values=_empty_values(dims))


def make_grid_2d(bbox_min, bbox_max, resolution: int, pad_fraction: float = 0.0) -> VoxelGrid:
    """Single-slice grid (nz = 1) over a planar bbox, for contour extraction.

    bbox_min/bbox_max are (x, y) pairs or (x, y, z) with equal z; the slice
    sits at that z (0 by default).  Padding and dims follow make_grid.
    """
    lo, hi = _bbox_corners(bbox_min, bbox_max, (2, 3))
    if lo.size == 3 and lo[2] != hi[2]:
        raise ValidationError(f"a planar bbox must have equal z, got {lo[2]} and {hi[2]}")
    z = float(lo[2]) if lo.size == 3 else 0.0
    origin, spacing, (nx, ny) = _padded_axes(lo[:2], hi[:2], resolution, pad_fraction)
    dims = (nx, ny, 1)
    return VoxelGrid(origin=np.append(origin, z), spacing=np.append(spacing, 1.0),
                     dims=dims, values=_empty_values(dims))


class FieldSource:
    """A field for sample_field: it provides evaluate_axes(x, y, z).

    evaluate_axes takes coordinate arrays of at most two dims that broadcast to
    one shape and returns the field values in that shape.  Point evaluation is
    built on it here, once for every source.
    """

    def evaluate_many(self, pts) -> np.ndarray:
        """Field values at each row of ``pts`` (n, 3), via evaluate_axes."""
        pts = point_array(pts, "points")
        return self.evaluate_axes(pts[:, 0, None], pts[:, 1, None], pts[:, 2, None])[:, 0]

    def evaluate(self, p) -> float:
        """Field value at one point of shape (3,) or (1, 3)."""
        p = point_array(p, "point")
        if len(p) != 1:
            raise ValidationError(f"point must have shape (3,) or (1, 3), got {len(p)} rows")
        return float(self.evaluate_many(p)[0])


def sample_field(source, grid: VoxelGrid, workers: int = 1) -> VoxelGrid:
    """Evaluate a field source at every grid sample, returning a filled copy.

    The source provides evaluate_axes(x, y, z) (see FieldSource) and is
    called on chunks of whole grid rows, as evaluate_axes(xs[None, :],
    ys[rows, None], zs[rows, None]) with the axis vectors of grid.axes(), so
    work that depends on one coordinate (point-center differences, TPMS sin
    and cos) runs once per axis value, not once per voxel.

    InterpolationModel and TpmsField compute each voxel from its own
    coordinates only, with the same operations for any operand shapes, and
    the axis vectors hold the very values positions() returns, so the volume
    equals evaluate_many(grid.positions()) bit for bit, for any worker count
    or chunking.  ``workers`` threads share the chunks; 0 means one per core.
    """
    eval_axes = getattr(source, "evaluate_axes", None)
    if not callable(eval_axes):
        raise ValidationError(f"field source {type(source).__name__} lacks evaluate_axes(x, y, z)")
    nx, ny, nz = grid.dims
    xs, ys, zs = grid.axes()
    workers = integer(workers, "worker count", 0) or os.cpu_count() or 1
    total, rows = nx * ny * nz, ny * nz
    out = np.empty(total, dtype=np.float32)

    # Chunks of whole rows sized for cache friendliness; small grids make one chunk.
    voxels = max(4096, (total + 4 * workers - 1) // (4 * workers))
    chunk = -(-voxels // nx)
    spans = [(s, min(s + chunk, rows)) for s in range(0, rows, chunk)]

    def run(span):
        s, e = span
        r = np.arange(s, e)
        vals = eval_axes(xs[None, :], ys[r % ny, None], zs[r // ny, None])
        out[s * nx:e * nx] = np.asarray(vals, dtype=np.float64).astype(np.float32).ravel()

    # One worker runs the spans in this thread.  Through a pool of one thread
    # a 96^3 TPMS grid took 5-17 % longer and peaked 0.6-1.2 MB higher, and
    # the pool's imports cost 3-9 ms (2-core x86-64).
    if workers == 1 or len(spans) == 1:
        for span in spans:
            run(span)
    else:
        # Imported here: concurrent.futures loads logging, which a 1-worker
        # run would otherwise pay for at import.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, spans))
    if not np.all(np.isfinite(out)):
        raise ValidationError("field produced non-finite values")
    return VoxelGrid(origin=grid.origin.copy(), spacing=grid.spacing.copy(),
                     dims=grid.dims, values=out)


def _iso_threshold(values: np.ndarray, iso: float):
    """c such that values >= c, and values < c, give the exact comparisons with iso.

    For float32 samples c is the least float32 >= iso: for float32 v,
    v >= iso exactly when v >= c, so the samples need no widening.  Beyond
    +-FLT_MAX c is +inf or -FLT_MAX, and the rule still holds for every
    finite v.  Samples of any other dtype are compared with iso in float64.
    """
    if values.dtype != np.float32:
        return np.float64(iso)
    with np.errstate(over="ignore"):
        c = np.float32(iso)
        # compared as Python floats: a float32 operand would round iso first
        return np.nextafter(c, np.float32(np.inf)) if float(c) < iso else c


def solid_fraction(grid: VoxelGrid, iso: float) -> float:
    """Fraction of samples with value >= iso (solid-above convention).

    The float32 samples are compared with the least float32 >= iso, which
    gives the exact comparison's result, as marching_cubes does.
    """
    solid = grid.values >= _iso_threshold(grid.values, real(iso, "iso"))
    return float(np.count_nonzero(solid)) / grid.values.size


# ---------------------------------------------------------------------------
# Volume files: <stem>.vhdr (ASCII header) + <stem>.raw (LE float32 payload)
# ---------------------------------------------------------------------------

_DTYPE_TAG = "float32le"


def _volume_paths(stem: str) -> tuple[str, str]:
    if not stem:
        raise IOError("empty volume path")
    if stem.endswith(".vhdr") or stem.endswith(".raw"):
        stem = os.path.splitext(stem)[0]
    return stem + ".vhdr", stem + ".raw"


def write_volume(grid: VoxelGrid, stem: str) -> None:
    """Write <stem>.vhdr/.raw; ValidationError, before any file, on what read_volume refuses."""
    hdr_path, raw_path = _volume_paths(stem)
    origin, spacing = point_array([grid.origin, grid.spacing], "volume origin and spacing")
    spacing = [real(d, "volume spacing", 0.0, above=True) for d in spacing]
    dims = [integer(n, "volume dims", 1) for n in grid.dims]
    values = grid.values.astype("<f4", copy=False)
    if len(dims) != 3 or values.size != np.prod(dims) or not np.isfinite(values).all():
        raise ValidationError(f"a volume needs 3 dims and {np.prod(dims)} finite float32 samples")
    with textio.create(hdr_path, "w") as fh:
        fh.write("DIMS %d %d %d\nORIGIN %r %r %r\nSPACING %r %r %r\nDTYPE %s\n"
                 % (*dims, *map(float, origin), *spacing, _DTYPE_TAG))
    values.tofile(raw_path)


def read_volume(stem: str) -> VoxelGrid:
    """The volume at ``stem``; a header key given twice is an error at its second line, and
    a payload whose size is not the DIMS product an error at the DIMS line."""
    hdr_path, raw_path = _volume_paths(stem)
    fields, line = {}, {}  # tokens after each key, and the key's line
    for lineno, (key, *tokens) in textio.data_lines(hdr_path):
        if key in line:
            raise ParseError(f"{key} repeats line {line[key]}", hdr_path, lineno)
        fields[key], line[key] = tokens, lineno
    for key in ("DIMS", "ORIGIN", "SPACING", "DTYPE"):
        if key not in fields:
            raise ParseError(f"missing {key} line", hdr_path)
    dims = tuple(textio.ints(fields["DIMS"], 3, hdr_path, line["DIMS"]))
    origin = np.array(textio.floats(fields["ORIGIN"], 3, hdr_path, line["ORIGIN"]))
    spacing = np.array(textio.floats(fields["SPACING"], 3, hdr_path, line["SPACING"]))
    if min(dims) < 1:
        raise ParseError(f"DIMS must be at least 1, got {dims}", hdr_path, line["DIMS"])
    if not np.all(spacing > 0.0):
        raise ParseError(f"SPACING must be positive, got {spacing}", hdr_path, line["SPACING"])
    if fields["DTYPE"] != [_DTYPE_TAG]:
        raise ParseError(f"unsupported dtype {fields['DTYPE']}", hdr_path, line["DTYPE"])
    values = np.fromfile(raw_path, dtype="<f4")
    expected = dims[0] * dims[1] * dims[2]
    if values.size != expected:
        raise ParseError(f"{raw_path}: payload holds {values.size} samples, header says {expected}",
                         hdr_path, line["DIMS"])
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ParseError(f"non-finite sample at index {bad[0]}", raw_path)
    return VoxelGrid(origin=origin, spacing=spacing, dims=dims,
                     values=values.astype(np.float32, copy=False))
