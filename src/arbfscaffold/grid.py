"""Voxel grids: construction, field sampling, and the .vhdr/.raw volume format.

Values are stored as a flat float32 array in x-fastest order
(idx = i + nx * (j + ny * k)); sample (i, j, k) sits at
origin + (i * dx, j * dy, k * dz), so both bbox faces are sampled.
The raw payload on disk is little-endian float32 and round-trips
bit-identically.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import HeaderMismatchError, InvalidBBoxError, ParseError, ValidationError

WORKERS_ENV = "ARBF_WORKERS"


@dataclass(eq=False)
class VoxelGrid:
    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple[int, int, int]
    values: np.ndarray  # flat float32, x-fastest

    def index(self, i: int, j: int, k: int) -> int:
        nx, ny, _ = self.dims
        return i + nx * (j + ny * k)

    def position(self, i: int, j: int, k: int) -> np.ndarray:
        return self.origin + self.spacing * np.array([i, j, k], dtype=np.float64)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample coordinates along each axis: origin[a] + i * spacing[a]."""
        return tuple(self.origin[a] + np.arange(n, dtype=np.float64) * self.spacing[a]
                     for a, n in enumerate(self.dims))

    def positions(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Sample positions for a flat index range, in index order."""
        nx, ny, nz = self.dims
        stop = nx * ny * nz if stop is None else stop
        idx = np.arange(start, stop, dtype=np.int64)
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


def _padded_axes(lo: np.ndarray, hi: np.ndarray, resolution: int, pad_fraction: float):
    """Validated (origin, spacing, dims) over the axes of ``lo``/``hi``.

    The box grows by pad_fraction x diagonal on every side; the longest
    axis gets ``resolution`` samples and shorter axes proportionally fewer,
    never fewer than 2.  A flat axis (lo == hi) is allowed when the padding
    gives it positive extent.
    """
    if not np.all(hi >= lo):
        raise InvalidBBoxError(f"bbox must have hi >= lo, got {lo} .. {hi}")
    if resolution < 2:
        raise ValidationError(f"resolution must be at least 2, got {resolution}")
    if pad_fraction < 0.0:
        raise ValidationError(f"pad_fraction must be >= 0, got {pad_fraction}")
    pad = pad_fraction * float(np.linalg.norm(hi - lo))
    lo = lo - pad
    extent = (hi + pad) - lo
    if not np.all(extent > 0):
        raise InvalidBBoxError(f"padded bbox must have positive extent, got {lo} .. {hi + pad}")
    longest = float(extent.max())
    dims = tuple(max(2, int(round(resolution * float(e) / longest))) for e in extent)
    # Rounding must not shave the longest axis itself.
    dims = tuple(
        resolution if e == longest else d for d, e in zip(dims, map(float, extent))
    )
    return lo, extent / (np.array(dims, dtype=np.float64) - 1.0), dims


def _bbox_corners(bbox_min, bbox_max, sizes):
    """The bbox corners as float64 vectors of one length, which must be in ``sizes``."""
    lo = np.asarray(bbox_min, dtype=np.float64).ravel()
    hi = np.asarray(bbox_max, dtype=np.float64).ravel()
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
        raise InvalidBBoxError(f"a planar bbox must have equal z, got {lo[2]} and {hi[2]}")
    z = float(lo[2]) if lo.size == 3 else 0.0
    origin, spacing, (nx, ny) = _padded_axes(lo[:2], hi[:2], resolution, pad_fraction)
    dims = (nx, ny, 1)
    return VoxelGrid(origin=np.append(origin, z), spacing=np.append(spacing, 1.0),
                     dims=dims, values=_empty_values(dims))


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else ARBF_WORKERS, else 1 (0 = auto)."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValidationError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers < 0:
        raise ValidationError(f"worker count must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def sample_field(source, grid: VoxelGrid, workers: int | None = None) -> VoxelGrid:
    """Evaluate a field source at every grid sample, returning a filled copy.

    A source with ``evaluate_axes(x, y, z)`` (InterpolationModel, TpmsField)
    is called on chunks of whole grid rows, as evaluate_axes(xs[None, :],
    ys[rows, None], zs[rows, None]) with the axis vectors of grid.axes(), so
    work that depends on one coordinate (point-center differences, TPMS sin
    and cos) runs once per axis value, not once per voxel.  Any other source
    needs evaluate_many((n, 3)) -> (n,), or is a bare callable with that
    signature, and gets contiguous chunks of grid.positions(), the last one
    possibly a single voxel.

    InterpolationModel and TpmsField compute each voxel from its own
    coordinates only, with the same operations for any operand shapes, and
    the axis vectors hold the very values positions() returns, so the volume
    equals evaluate_many(grid.positions()) bit for bit, for any worker count
    or chunking.
    """
    nx, ny, nz = grid.dims
    eval_axes = getattr(source, "evaluate_axes", None)
    if eval_axes is not None:
        xs, ys, zs = grid.axes()
        unit = nx  # a chunk holds whole rows

        def values(s, e):
            r = np.arange(s, e)
            return eval_axes(xs[None, :], ys[r % ny, None], zs[r // ny, None])
    else:
        eval_many = getattr(source, "evaluate_many", source)
        if not callable(eval_many):
            raise ValidationError("field source must be callable or expose evaluate_many")
        unit = 1

        def values(s, e):
            return eval_many(grid.positions(s, e))
    workers = resolve_workers(workers)
    total = nx * ny * nz
    out = np.empty(total, dtype=np.float32)

    # Chunks sized for cache friendliness; small grids collapse to one chunk.
    # A chunk counts whole units: rows on the axis path, voxels otherwise.
    voxels = max(4096, (total + 4 * workers - 1) // (4 * workers))
    chunk, units = -(-voxels // unit), total // unit
    spans = [(s, min(s + chunk, units)) for s in range(0, units, chunk)]

    def run(span):
        s, e = span
        vals = np.asarray(values(s, e), dtype=np.float64).astype(np.float32)
        out[s * unit:e * unit] = vals.ravel()

    if workers == 1 or len(spans) == 1:
        for span in spans:
            run(span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, spans))
    if not np.all(np.isfinite(out)):
        raise ValidationError("field produced non-finite values")
    return VoxelGrid(origin=grid.origin.copy(), spacing=grid.spacing.copy(),
                     dims=grid.dims, values=out)


def solid_fraction(grid: VoxelGrid, iso: float) -> float:
    """Fraction of samples with value >= iso (solid-above convention).

    The float32 samples are compared in float64, as marching_cubes does.
    """
    return float(np.count_nonzero(grid.values >= np.float64(iso))) / grid.values.size


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
    hdr_path, raw_path = _volume_paths(stem)
    parent = os.path.dirname(hdr_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    nx, ny, nz = grid.dims
    origin = [repr(float(x)) for x in grid.origin]
    spacing = [repr(float(x)) for x in grid.spacing]
    with open(hdr_path, "w", encoding="ascii") as fh:
        fh.write(f"DIMS {nx} {ny} {nz}\n")
        fh.write(f"ORIGIN {' '.join(origin)}\n")
        fh.write(f"SPACING {' '.join(spacing)}\n")
        fh.write(f"DTYPE {_DTYPE_TAG}\n")
    grid.values.astype("<f4").tofile(raw_path)


def _header_triple(fields, key: str, convert, hdr_path: str) -> list:
    tokens, lineno = fields[key]
    try:
        vals = [convert(t) for t in tokens]
    except ValueError:
        raise ParseError(f"malformed {key} value in {tokens!r}", hdr_path, lineno) from None
    if len(vals) != 3:
        raise ParseError(f"{key} must have 3 fields, got {len(vals)}", hdr_path, lineno)
    return vals


def read_volume(stem: str) -> VoxelGrid:
    hdr_path, raw_path = _volume_paths(stem)
    fields = {}
    with open(hdr_path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            fields[tokens[0]] = (tokens[1:], lineno)
    for key in ("DIMS", "ORIGIN", "SPACING", "DTYPE"):
        if key not in fields:
            raise ParseError(f"missing {key} line", hdr_path)
    dims = tuple(_header_triple(fields, "DIMS", int, hdr_path))
    origin = np.array(_header_triple(fields, "ORIGIN", float, hdr_path))
    spacing = np.array(_header_triple(fields, "SPACING", float, hdr_path))
    if min(dims) < 1:
        raise ParseError(f"DIMS must be at least 1, got {dims}", hdr_path, fields["DIMS"][1])
    if not np.all(np.isfinite(origin)):
        raise ParseError(f"ORIGIN must be finite, got {origin}", hdr_path, fields["ORIGIN"][1])
    if not np.all(np.isfinite(spacing) & (spacing > 0.0)):
        raise ParseError(f"SPACING must be finite and positive, got {spacing}", hdr_path,
                         fields["SPACING"][1])
    if fields["DTYPE"][0] != [_DTYPE_TAG]:
        raise ParseError(f"unsupported dtype {fields['DTYPE'][0]}", hdr_path,
                         fields["DTYPE"][1])
    values = np.fromfile(raw_path, dtype="<f4")
    expected = dims[0] * dims[1] * dims[2]
    if values.size != expected:
        raise HeaderMismatchError(
            f"{raw_path}: payload holds {values.size} samples, header says {expected}"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ParseError(f"non-finite sample at index {bad[0]}", raw_path)
    return VoxelGrid(origin=origin, spacing=spacing, dims=dims,
                     values=values.astype(np.float32))
