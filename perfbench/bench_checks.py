"""Correctness checks on every item's outputs.

Every seed runs the invariant checks:

- the fitted field is +1 within NODAL_TOL at every mesh vertex
  (``model.evaluate_many`` on ``mesh.vertices``, whatever the center set);
- on VOXEL_PROBES seeded voxels, ``sample_field`` equals a direct
  ``evaluate_many`` within float32 rounding (one float32 ulp);
- TPMS voxels equal the closed-form formula written out below;
- ``read_volume(write_volume(v))`` is bit-identical;
- every surface is non-empty, has in-range indices, no edge shared by more
  than two triangles and no vertex outside the grid; solid fractions fall
  as the iso value rises.

For REFERENCE_SEED each surface's triangle count, Euler characteristic and
area must also match ``reference.json`` (recorded from the seed commit with
``record_reference.py``) within TRIANGLE_RTOL, EULER_ATOL and AREA_RTOL.
The tolerances absorb float32 last-place changes from reordered arithmetic;
a lost or duplicated patch of surface exceeds them.
"""

from __future__ import annotations

import json
import os

import numpy as np

import arbfscaffold as ax

NODAL_TOL = 1e-6
VOXEL_PROBES = 1000
REFERENCE_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
TRIANGLE_RTOL = 1e-3
AREA_RTOL = 1e-4
EULER_ATOL = 2


def tpms_closed_form(kind: str, x, y, z):
    """P, D, G and IWP level-set functions at unit periods (broadcasting)."""
    sx, sy, sz = np.sin(x), np.sin(y), np.sin(z)
    cx, cy, cz = np.cos(x), np.cos(y), np.cos(z)
    if kind == "p":
        return cx + cy + cz
    if kind == "d":
        return sx * sy * sz + sx * cy * cz + cx * sy * cz + cx * cy * sz
    if kind == "g":
        return sx * cy + sy * cz + sz * cx
    if kind == "iwp":
        return (2.0 * (cx * cy + cy * cz + cz * cx)
                - (np.cos(2 * x) + np.cos(2 * y) + np.cos(2 * z)))
    raise ValueError(f"unknown TPMS kind {kind!r}")


def _within_float32_rounding(stored: np.ndarray, exact: np.ndarray) -> bool:
    """stored (float32) is within one float32 ulp of the float64 value."""
    ulp = np.spacing(np.abs(exact).astype(np.float32)).astype(np.float64)
    return bool(np.all(np.abs(stored.astype(np.float64) - exact) <= ulp + 1e-12))


def check_nodal(model, mesh) -> list[str]:
    err = float(np.abs(model.evaluate_many(mesh.vertices) - 1.0).max())
    return [] if err <= NODAL_TOL else [f"field at mesh vertices off +1 by {err:.3g}"]


def check_probes(source, volume, seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 0x5A3])
    idx = rng.choice(volume.values.size, size=min(VOXEL_PROBES, volume.values.size),
                     replace=False)
    nx, ny, _ = volume.dims
    ijk = np.stack([idx % nx, (idx // nx) % ny, idx // (nx * ny)], axis=1)
    pts = volume.origin + ijk * volume.spacing
    direct = np.asarray(source.evaluate_many(pts), dtype=np.float64)
    if _within_float32_rounding(volume.values[idx], direct):
        return []
    return ["sample_field disagrees with evaluate_many beyond float32 rounding"]


def check_tpms(kind: str, volume) -> list[str]:
    """Every voxel against the closed form, one z-slice at a time."""
    nx, ny, nz = volume.dims
    x = volume.origin[0] + np.arange(nx) * volume.spacing[0]
    y = (volume.origin[1] + np.arange(ny) * volume.spacing[1])[:, None]
    vals = volume.values_3d()
    for k in range(nz):
        z = volume.origin[2] + k * volume.spacing[2]
        if not _within_float32_rounding(vals[k], tpms_closed_form(kind, x, y, z)):
            return [f"TPMS {kind} voxel at z-slice {k} differs from the closed form"]
    return []


def check_roundtrip(volume, read) -> list[str]:
    same = (tuple(read.dims) == tuple(volume.dims)
            and np.array_equal(read.origin, volume.origin)
            and np.array_equal(read.spacing, volume.spacing)
            and read.values.dtype == volume.values.dtype
            and read.values.tobytes() == volume.values.tobytes())
    return [] if same else ["read_volume(write_volume(v)) is not bit-identical"]


def surface_stats(soup) -> dict:
    """Triangle count, Euler characteristic V - E + F, area, max edge use."""
    tris = soup.triangles
    if len(tris) == 0:
        return {"triangles": 0, "euler": 0, "area": 0.0, "max_edge_use": 0}
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]),
                    axis=1)
    keys = edges[:, 0] * len(soup.vertices) + edges[:, 1]
    _, uses = np.unique(keys, return_counts=True)
    a, b, c = (soup.vertices[tris[:, n]] for n in range(3))
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum()
    return {"triangles": int(len(tris)),
            "euler": int(len(np.unique(tris)) - len(uses) + len(tris)),
            "area": float(area),
            "max_edge_use": int(uses.max())}


def check_surfaces(surfaces, volume) -> tuple[list[str], list[dict]]:
    failures, stats = [], []
    lo, hi = volume.bbox()
    slack = 1e-9 * float(np.linalg.norm(hi - lo))
    for iso, soup, _ in surfaces:
        s = surface_stats(soup)
        stats.append({"iso": iso, **s})
        if s["triangles"] == 0:
            failures.append(f"iso {iso}: empty surface")
            continue
        if soup.triangles.min() < 0 or soup.triangles.max() >= len(soup.vertices):
            failures.append(f"iso {iso}: triangle index out of range")
        if s["max_edge_use"] > 2:
            failures.append(f"iso {iso}: an edge is shared by {s['max_edge_use']} triangles")
        if np.any(soup.vertices < lo - slack) or np.any(soup.vertices > hi + slack):
            failures.append(f"iso {iso}: vertex outside the grid")
    fracs = [frac for _, _, frac in sorted(surfaces, key=lambda s: s[0])]
    if any(b > a for a, b in zip(fracs, fracs[1:])):
        failures.append("solid fraction rises with the iso value")
    return failures, stats


def check_contours(contours, grid) -> tuple[list[str], int]:
    segments = len(contours.polylines)
    if segments == 0:
        return ["marching squares found no contour"], 0
    lo, hi = grid.bbox()
    pts = np.concatenate(contours.polylines)[:, :2]
    if np.any(pts < lo[:2] - 1e-9) or np.any(pts > hi[:2] + 1e-9):
        return ["contour point outside the slice"], segments
    return [], segments


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def compare_reference(stats: list[dict], segments: int | None, ref: dict) -> list[str]:
    failures = []
    if len(stats) != len(ref["surfaces"]):
        return [f"{len(stats)} surfaces, reference has {len(ref['surfaces'])}"]
    for s, r in zip(stats, ref["surfaces"]):
        tag = f"iso {s['iso']}"
        if abs(s["triangles"] - r["triangles"]) > TRIANGLE_RTOL * r["triangles"]:
            failures.append(f"{tag}: {s['triangles']} triangles, reference {r['triangles']}")
        if abs(s["euler"] - r["euler"]) > EULER_ATOL:
            failures.append(f"{tag}: Euler characteristic {s['euler']}, reference {r['euler']}")
        if abs(s["area"] - r["area"]) > AREA_RTOL * r["area"]:
            failures.append(f"{tag}: area {s['area']:.9g}, reference {r['area']:.9g}")
    if segments is not None and abs(segments - ref["segments"]) > TRIANGLE_RTOL * ref["segments"]:
        failures.append(f"{segments} contour segments, reference {ref['segments']}")
    return failures


def check_item(result, seed: int, reference: dict | None) -> tuple[list[str], dict]:
    """All checks for one item; returns (failures, surface statistics)."""
    failures = []
    if result.model is not None:
        failures += check_nodal(result.model, result.mesh)
    if result.tpms_kind is not None:
        failures += check_tpms(result.tpms_kind, result.volume)
        failures += check_tpms(result.tpms_kind, result.slice_grid)
    else:
        failures += check_probes(result.source, result.volume, seed)
    read = result.volume_read
    if read is None:
        read = ax.read_volume(result.volume_stem)
    failures += check_roundtrip(result.volume, read)
    surface_failures, stats = check_surfaces(result.surfaces, result.volume)
    failures += surface_failures
    segments = None
    if result.contours is not None:
        contour_failures, segments = check_contours(result.contours, result.slice_grid)
        failures += contour_failures
    if reference is not None:
        failures += compare_reference(stats, segments, reference)
    return failures, {"surfaces": stats, "segments": segments}
