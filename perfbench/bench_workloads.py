"""The benchmark's three workloads.

Each workload is a closed loop in one process: one item at a time, the
next starting when the previous one has finished.  All inputs derive from
the run's seed, and items ``i`` and ``i + INPUT_CYCLE`` get the same inputs,
so a recorded reference for the default seed covers a run of any length.

Every library call goes through the ``arbfscaffold`` package namespace
(``ax.fit_mesh``, not a name imported once), so the tracer's wrappers see
the benchmark's own calls.

- hex4_fit: the ``arbf pipeline`` path on a perturbed 4x4x4 hex block
  (anisotropic, N = 809).  Dense matrix assembly is most of an item.
- hex2_sample: the staged ``arbf fit`` -> ``sample`` -> ``iso`` path on a
  perturbed 2x2x2 hex block, alternating anisotropic (N = 129) and
  isotropic (N = 125) fits, sampled at resolution 80 on 2 workers.
  Field sampling is most of an item.
- tpms_sweep: one TPMS kind per item at resolution 96 with a 7-value iso
  sweep, plus a 512^2 slice through marching squares.  Iso extraction and
  OBJ writing are most of an item; no mesh or rbf code runs.  (Resolution
  128 makes a round of the four kinds about 50 s on 2 cores, more than a
  run's time budget allows.)
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import arbfscaffold as ax
from arbfscaffold import samples

INPUT_CYCLE = 4
BASIS = ax.Basis("imq", 0.1)
PAD = 0.05  # the CLI's default bbox padding
PERTURB_MAGNITUDE = 0.2
PERTURB_FRACTION = 0.7
TPMS_LO, TPMS_HI = 0.0, 2.0 * math.pi


@dataclass(eq=False)
class ItemResult:
    """What one item produced, kept for the correctness checks."""

    volume: object  # the sampled VoxelGrid
    volume_stem: str
    source: object  # the field source that was sampled into ``volume``
    surfaces: list = field(default_factory=list)  # (iso, TriangleSoup, solid fraction)
    iso_times: list = field(default_factory=list)  # seconds per extra iso-surface
    files: list = field(default_factory=list)
    volume_read: object = None  # read_volume's result, when the item reads it back
    mesh: object = None
    model: object = None
    tpms_kind: str | None = None
    slice_grid: object = None
    contours: object = None


def _sweep(result: ItemResult, volume, isos, stem: str) -> None:
    """marching_cubes + solid_fraction + export_obj per iso, each timed."""
    for iso in isos:
        t0 = time.perf_counter()
        soup = ax.marching_cubes(volume, iso)
        frac = ax.solid_fraction(volume, iso)
        path = f"{stem}_iso{iso:g}.obj"
        ax.export_obj(soup, path)
        result.iso_times.append(time.perf_counter() - t0)
        result.surfaces.append((iso, soup, frac))
        result.files.append(path)


def _volume_files(stem: str) -> list[str]:
    return [stem + ".vhdr", stem + ".raw"]


class Workload:
    name = ""
    round_size = 1  # a run stops only after a whole round of items
    workers = 1

    def __init__(self, seed: int, outdir: str):
        self.outdir = outdir
        rng = np.random.default_rng([seed, 0xBE7C])
        self.perturb_seeds = [int(s) for s in rng.integers(0, 2**32, INPUT_CYCLE)]
        self.order_rng = rng

    def stem(self, i: int) -> str:
        return os.path.join(self.outdir, f"{self.name}_{i % INPUT_CYCLE}")

    def run_item(self, i: int) -> ItemResult:
        raise NotImplementedError

    def warm_up(self) -> None:
        """A miniature item through every code path the workload times."""
        raise NotImplementedError


class Hex4Fit(Workload):
    name = "hex4_fit"
    isos = (-0.3, 0.0, 0.3)
    resolution = 24

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.base = samples.hex_block_mesh(4, 4, 4)

    def _item(self, i, base, resolution, stem) -> ItemResult:
        spec = ax.PerturbSpec(magnitude=PERTURB_MAGNITUDE,
                              seed=self.perturb_seeds[i % INPUT_CYCLE],
                              vertex_fraction=PERTURB_FRACTION)
        mesh = ax.perturb_mesh(base, spec)
        model, _ = ax.fit_mesh(mesh, BASIS, "anisotropic")
        ax.save_model(model, stem + ".arbf")
        lo, hi = model.bbox()
        grid = ax.make_grid(lo, hi, resolution, pad_fraction=PAD)
        volume = ax.sample_field(model, grid, workers=self.workers)
        ax.write_volume(volume, stem)
        result = ItemResult(volume=volume, volume_stem=stem, source=model,
                            mesh=mesh, model=model,
                            files=[stem + ".arbf"] + _volume_files(stem))
        _sweep(result, volume, self.isos, stem)
        return result

    def run_item(self, i):
        return self._item(i, self.base, self.resolution, self.stem(i))

    def warm_up(self):
        self._item(0, samples.hex_block_mesh(1, 1, 1), 8,
                   os.path.join(self.outdir, "warmup"))


class Hex2Sample(Workload):
    name = "hex2_sample"
    round_size = 2  # one anisotropic and one isotropic item
    workers = 2
    isos = (-0.3, 0.0, 0.3)
    resolution = 80

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.base = samples.hex_block_mesh(2, 2, 2)
        modes = ["anisotropic", "isotropic"]
        self.first_mode = int(self.order_rng.integers(0, 2))
        self.modes = [modes[(self.first_mode + k) % 2] for k in range(INPUT_CYCLE)]

    def _item(self, i, base, resolution, stem) -> ItemResult:
        spec = ax.PerturbSpec(magnitude=PERTURB_MAGNITUDE,
                              seed=self.perturb_seeds[i % INPUT_CYCLE],
                              vertex_fraction=PERTURB_FRACTION)
        mesh = ax.perturb_mesh(base, spec)
        fitted, _ = ax.fit_mesh(mesh, BASIS, self.modes[i % INPUT_CYCLE])
        ax.save_model(fitted, stem + ".arbf")
        model = ax.load_model(stem + ".arbf")
        lo, hi = model.bbox()
        grid = ax.make_grid(lo, hi, resolution, pad_fraction=PAD)
        volume = ax.sample_field(model, grid, workers=self.workers)
        ax.write_volume(volume, stem)
        volume_read = ax.read_volume(stem)
        result = ItemResult(volume=volume, volume_stem=stem, source=model,
                            volume_read=volume_read, mesh=mesh, model=model,
                            files=[stem + ".arbf"] + _volume_files(stem))
        _sweep(result, volume_read, self.isos, stem)
        return result

    def run_item(self, i):
        return self._item(i, self.base, self.resolution, self.stem(i))

    def warm_up(self):
        base = samples.hex_block_mesh(1, 1, 1)
        warm = os.path.join(self.outdir, "warmup")
        for i in range(2):
            self._item(i, base, 12, warm)


class TpmsSweep(Workload):
    name = "tpms_sweep"
    round_size = 4  # every TPMS kind once
    isos = tuple(round(-0.6 + 0.2 * k, 1) for k in range(7))
    resolution = 96
    slice_resolution = 512
    slice_iso = 0.0
    slice_range = (-3.0, 3.0)  # PGM grey-level range

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        kinds = list(ax.tpms.TPMS_KINDS)
        self.kinds = [kinds[k] for k in self.order_rng.permutation(len(kinds))]

    def _item(self, i, resolution, slice_resolution, stem) -> ItemResult:
        tpms = ax.TpmsField(self.kinds[i % len(self.kinds)])
        grid = ax.make_grid((TPMS_LO,) * 3, (TPMS_HI,) * 3, resolution, 0.0)
        volume = ax.sample_field(tpms, grid, workers=self.workers)
        ax.write_volume(volume, stem)
        volume_read = ax.read_volume(stem)
        result = ItemResult(volume=volume, volume_stem=stem, source=tpms,
                            volume_read=volume_read, tpms_kind=tpms.kind,
                            files=_volume_files(stem))
        _sweep(result, volume_read, self.isos, stem)
        plane = ax.make_grid_2d((TPMS_LO, TPMS_LO), (TPMS_HI, TPMS_HI), slice_resolution)
        result.slice_grid = ax.sample_field(tpms, plane, workers=self.workers)
        result.contours = ax.marching_squares(result.slice_grid, self.slice_iso)
        ax.export_pgm(result.slice_grid, stem + ".pgm", *self.slice_range)
        result.files.append(stem + ".pgm")
        return result

    def run_item(self, i):
        return self._item(i, self.resolution, self.slice_resolution, self.stem(i))

    def warm_up(self):
        warm = os.path.join(self.outdir, "warmup")
        for i in range(len(self.kinds)):
            self._item(i, 12, 16, warm)


WORKLOADS = {w.name: w for w in (Hex4Fit, Hex2Sample, TpmsSweep)}


def mc_cells(volume) -> int:
    """Cells marching_cubes classifies on a grid."""
    nx, ny, nz = volume.dims
    return (nx - 1) * (ny - 1) * (nz - 1)


def crossed_cells(volume, isos) -> list[int]:
    """Per iso, the cells whose corners straddle it (min < iso <= max).

    These are exactly the cells marching_cubes emits triangles for.
    Computed one z-layer of cells at a time to keep memory small.
    """
    vol = volume.values_3d()
    counts = [0] * len(isos)
    for k in range(vol.shape[0] - 1):
        slab = vol[k:k + 2]
        corners = [slab[dz, dy:dy + slab.shape[1] - 1, dx:dx + slab.shape[2] - 1]
                   for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
        lo = np.minimum.reduce(corners)
        hi = np.maximum.reduce(corners)
        for n, iso in enumerate(isos):
            counts[n] += int(np.count_nonzero((lo < iso) & (hi >= iso)))
    return counts


def work_counts(result: ItemResult) -> dict:
    """Work an item did: centers, voxels, cells, triangles and bytes written."""
    voxels = int(np.prod(result.volume.dims))
    if result.slice_grid is not None:
        voxels += int(np.prod(result.slice_grid.dims))
    sizes = {p: os.path.getsize(p) for p in result.files}
    return {
        "n_centers": len(result.model.weights) if result.model is not None else 0,
        "mode": result.model.mode if result.model is not None else None,
        "voxels": voxels,
        "cells": mc_cells(result.volume) * len(result.surfaces),
        "crossed_cells": sum(crossed_cells(result.volume, [s[0] for s in result.surfaces])),
        "triangles": sum(len(soup.triangles) for _, soup, _ in result.surfaces),
        "bytes_written": sum(sizes.values()),
        "volume_bytes": sum(n for p, n in sizes.items() if p.endswith((".vhdr", ".raw"))),
        "obj_bytes": sum(n for p, n in sizes.items() if p.endswith(".obj")),
    }
