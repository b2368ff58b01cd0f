#!/usr/bin/env python3
"""Generate the full desk-scale result gallery into one directory.

Covers every experiment the library is built around:
  * iso-value sweep on the 8-hex block (pore size grows with the iso value)
  * basis comparison on the 20-tet icosahedron (gaussian / mq / imq / tps)
  * seeded vertex perturbation of the block, two seeds
  * the four TPMS baselines over one period cube
  * a 2-d triangle field as contours and a PGM image
  * ``arbf pipeline`` on every sample mesh in both center modes, so the
    gallery also holds the .arbf models and .vhdr/.raw volumes the CLI writes

Everything is deterministic; re-running reproduces identical files.
``--manifest PATH`` also writes one ``sha256  filename`` line per output
file, sorted by name, so two runs compare with ``diff``.
"""

import argparse
import contextlib
import hashlib
import io
import os
import time

import numpy as np

from arbfscaffold import (
    Basis,
    PerturbSpec,
    TpmsField,
    fit_mesh,
    make_grid,
    make_grid_2d,
    marching_cubes,
    marching_squares,
    perturb_mesh,
    sample_field,
    solid_fraction,
    export_obj,
    export_pgm,
    samples,
    cli,
)

IMQ = Basis("imq", 0.1)


def put(rows, outdir, name, soup, frac=None):
    path = os.path.join(outdir, name)
    export_obj(soup, path)
    rows.append((name, len(soup.triangles), "-" if frac is None else f"{frac:.4f}"))


def block_iso_sweep(outdir, rows, resolution):
    model = fit_mesh(samples.hex_block_mesh(), IMQ, "anisotropic")[0]
    grid = make_grid(*model.bbox(), resolution, 0.05)
    vol = sample_field(model, grid, workers=0)
    for iso in (-0.3, -0.1, 0.1, 0.3):
        put(rows, outdir, f"block_iso{iso:g}.obj", marching_cubes(vol, iso),
            solid_fraction(vol, iso))


def basis_sweep(outdir, rows, resolution):
    mesh = samples.icosahedron_tet_mesh()
    for kind in ("gaussian", "mq", "imq", "tps"):
        model = fit_mesh(mesh, Basis(kind, 0.1), "anisotropic")[0]
        grid = make_grid(*model.bbox(), resolution, 0.05)
        vol = sample_field(model, grid, workers=0)
        put(rows, outdir, f"icosa_{kind}.obj", marching_cubes(vol, 0.0),
            solid_fraction(vol, 0.0))


def perturbed_blocks(outdir, rows, resolution):
    base = samples.hex_block_mesh()
    for seed in (1, 2):
        mesh = perturb_mesh(base, PerturbSpec(magnitude=0.2, seed=seed,
                                              vertex_fraction=0.7))
        model = fit_mesh(mesh, IMQ, "anisotropic")[0]
        grid = make_grid(*model.bbox(), resolution, 0.05)
        vol = sample_field(model, grid, workers=0)
        put(rows, outdir, f"block_jitter_seed{seed}.obj", marching_cubes(vol, 0.0),
            solid_fraction(vol, 0.0))


def tpms_quartet(outdir, rows, resolution):
    lo, hi = np.zeros(3), np.full(3, 2.0 * np.pi)
    for kind in ("p", "d", "g", "iwp"):
        vol = sample_field(TpmsField(kind), make_grid(lo, hi, resolution, 0.0),
                           workers=0)
        put(rows, outdir, f"tpms_{kind}.obj", marching_cubes(vol, 0.0),
            solid_fraction(vol, 0.0))


def triangle_panel(outdir, rows, resolution):
    model = fit_mesh(samples.triangle_mesh(), IMQ, "isotropic")[0]
    lo, hi = model.bbox()
    grid = make_grid_2d(lo[:2] - 0.1, hi[:2] + 0.1, resolution)  # the triangle's plane, z = 0
    field = sample_field(model, grid, workers=0)
    contours = marching_squares(field, 0.0)
    export_pgm(field, os.path.join(outdir, "triangle_field.pgm"),
               float(field.values.min()), float(field.values.max()))
    rows.append(("triangle_field.pgm + contours", len(contours.polylines),
                 f"len {contours.total_length():.3f}"))


def sample_pipelines(outdir, rows, resolution):
    """Run the CLI in-process; its messages go to the summary row, not the console.

    tri1.off is planar: its model's bounding box is flat in z, and --pad
    widens it into a thin slab, so its runs sample and extract like the rest.
    """
    meshes = samples.write_sample_meshes(os.path.join(outdir, "meshes"))
    for name, path in sorted(meshes.items()):
        for mode in ("iso", "aniso"):
            stem = f"pipeline_{os.path.splitext(name)[0]}_{mode}"
            argv = ["pipeline", "--mesh", path, "--mode", mode, "--resolution",
                    str(resolution), "--iso=-0.3,-0.1,0,0.1,0.3",
                    "--out", os.path.join(outdir, stem)]
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                status = cli.main(argv)
            surfaces = sum(line.startswith("iso ") for line in log.getvalue().splitlines())
            rows.append((f"{stem}.arbf/.vhdr/.raw", "-",
                         f"{surfaces} surfaces, exit {status}"))


def write_manifest(outdir, path):
    lines = []
    for name in sorted(os.listdir(outdir)):
        full = os.path.join(outdir, name)
        if os.path.isfile(full):
            with open(full, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gallery", help="output directory")
    ap.add_argument("--resolution", type=int, default=64,
                    help="grid samples along the longest axis (default: 64)")
    ap.add_argument("--manifest", metavar="PATH",
                    help="write a sorted 'sha256  filename' list of the output files")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    rows = []
    t0 = time.perf_counter()
    block_iso_sweep(args.out, rows, args.resolution)
    basis_sweep(args.out, rows, args.resolution)
    perturbed_blocks(args.out, rows, args.resolution)
    tpms_quartet(args.out, rows, args.resolution)
    triangle_panel(args.out, rows, args.resolution)
    sample_pipelines(args.out, rows, args.resolution)
    width = max(len(r[0]) for r in rows)
    print(f"{'output':<{width}}  {'triangles':>9}  solid fraction")
    for name, tris, frac in rows:
        print(f"{name:<{width}}  {tris:>9}  {frac}")
    print(f"done in {time.perf_counter() - t0:.1f}s -> {args.out}/")
    if args.manifest:
        write_manifest(args.out, args.manifest)


if __name__ == "__main__":
    main()
