"""Command line interface.

Subcommands: fit, sample, iso, tpms, perturb, pipeline.  Exit codes:
0 on success, 2 on input errors (bad flags, missing or malformed files,
degenerate meshes), 3 on numerical failure (singular interpolation
system); any other exception is a bug and is not caught.  Identical
inputs and flags produce byte-identical outputs.
``fit`` and ``pipeline`` warn on stderr when the fit's condition estimate
exceeds COND_WARN.  ``--stats PATH.json`` on fit, sample, iso, tpms and
pipeline also writes the seconds and sizes of each stage the command ran,
and its exit code, as JSON; only the seconds differ between identical runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import textio
from .errors import ScaffoldError, SingularMatrixError
from .grid import make_grid, read_volume, sample_field, solid_fraction, write_volume
from .isosurface import export_obj, marching_cubes
from .mesh import load_mesh, save_mesh
from .perturb import MAX_MAGNITUDE, PerturbSpec, perturb_mesh
from .rbf import BASIS_KINDS, Basis, fit_mesh, load_model, save_model
from .tpms import DEFAULT_DOMAIN, TPMS_KINDS, TpmsField

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Above this 1-norm condition estimate (FitReport.condition_estimate) a fit
# counts as near-singular: its weights may carry only a few correct digits.
COND_WARN = 1e12

_MODE_NAMES = {"iso": "isotropic", "aniso": "anisotropic",
               "isotropic": "isotropic", "anisotropic": "anisotropic"}


def _float_list(text: str) -> list[float]:
    """argparse type: one or more comma-separated finite floats."""
    values = [float(t) for t in text.split(",") if t.strip()]
    if not values or not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"needs one or more finite values, got {text!r}")
    return values


def _periods(text: str) -> tuple[float, float, float]:
    """argparse type for --periods: three comma-separated positive finite floats."""
    values = _float_list(text)
    if len(values) != 3 or min(values) <= 0.0:
        raise argparse.ArgumentTypeError(f"needs three positive values, got {text!r}")
    return tuple(values)


def _stem(path: str) -> str:
    return os.path.splitext(path)[0]


def _iso_tag(value: float) -> str:
    return f"{value:g}"


def _iso_list(text: str) -> list[float]:
    """argparse type for --iso: finite floats whose OBJ names (_iso_tag) all differ."""
    values, seen = _float_list(text), {}
    for v in values:
        tag = _iso_tag(v)
        if tag in seen:
            raise argparse.ArgumentTypeError(
                f"iso values {seen[tag]!r} and {v!r} would both write *_iso{tag}.obj")
        seen[tag] = v
    return values


def _write_surfaces(grid, iso_values, out_stem, stats) -> int:
    """Extract and write one OBJ per iso value; returns 0 (warnings only)."""
    vmax = float(grid.values.max())
    vmin = float(grid.values.min())
    stats["surfaces"] = []
    for iso in iso_values:
        t0 = time.perf_counter()
        soup = marching_cubes(grid, iso)
        t1 = time.perf_counter()
        frac = solid_fraction(grid, iso)
        surface = {"iso": iso, "triangles": len(soup.triangles),
                   "vertices": len(soup.vertices), "solid_fraction": frac,
                   "mc_s": t1 - t0, "solid_fraction_s": time.perf_counter() - t1}
        stats["surfaces"].append(surface)
        if len(soup.triangles) == 0:
            # no file for an empty surface; say why on stderr and move on
            detail = (f"outside the sampled value range [{vmin:.4g}, {vmax:.4g}]"
                      if iso > vmax or iso < vmin else "no crossings on this grid")
            print(f"warning: iso {_iso_tag(iso)} yields an empty surface "
                  f"({detail}); skipping", file=sys.stderr)
            continue
        path = f"{out_stem}_iso{_iso_tag(iso)}.obj"
        t0 = time.perf_counter()
        export_obj(soup, path)
        surface.update(obj_write_s=time.perf_counter() - t0,
                       obj_bytes=os.path.getsize(path), path=path)
        print(f"iso {_iso_tag(iso)}: {len(soup.triangles)} triangles, "
              f"solid fraction {frac:.4f} -> {path}")
    return EXIT_OK


def _fit_and_save(args, out: str, stats):
    """Fit the --mesh model, write it to ``out`` and print the fit summary."""
    t0 = time.perf_counter()
    mesh = load_mesh(args.mesh)
    basis = Basis(kind=args.basis, c=args.c)
    t1 = time.perf_counter()
    model, report = fit_mesh(mesh, basis, _MODE_NAMES[args.mode], args.lam)
    t2 = time.perf_counter()
    save_model(model, out)
    stats["fit"] = {"mesh_read_s": t1 - t0, "fit_s": t2 - t1,
                    "model_write_s": time.perf_counter() - t2,
                    **dataclasses.asdict(report)}
    print(f"N={report.n_centers} cond={report.condition_estimate:.6g} "
          f"residual={report.residual_inf:.6g}")
    if report.condition_estimate > COND_WARN:
        print(f"warning: condition estimate {report.condition_estimate:.3g} exceeds "
              f"{COND_WARN:.0e}; the fit is near-singular (try another --c or "
              f"--lambda)", file=sys.stderr)
    return model


def _sample_and_write(source, grid, workers, out: str, stats):
    """Sample ``source`` over ``grid`` and write the volume to ``out``."""
    t0 = time.perf_counter()
    volume = sample_field(source, grid, workers=workers)
    t1 = time.perf_counter()
    write_volume(volume, out)
    stats["sample"] = {"dims": list(volume.dims), "voxels": int(volume.values.size),
                       "sample_s": t1 - t0, "volume_write_s": time.perf_counter() - t1}
    return volume


def _model_grid(model, args):
    """The grid over ``model``'s bbox padded by --pad, with --resolution samples."""
    lo, hi = model.bbox()
    return make_grid(lo, hi, args.resolution, args.pad)


def cmd_fit(args, stats) -> int:
    out = args.out or _stem(args.mesh) + ".arbf"
    _fit_and_save(args, out, stats)
    print(f"model -> {out}")
    return EXIT_OK


def cmd_sample(args, stats) -> int:
    out = args.out or _stem(args.model)
    t0 = time.perf_counter()
    model = load_model(args.model)
    stats["model_read_s"] = time.perf_counter() - t0
    volume = _sample_and_write(model, _model_grid(model, args), args.workers, out, stats)
    nx, ny, nz = volume.dims
    print(f"volume {nx}x{ny}x{nz} range [{volume.values.min():.6g}, "
          f"{volume.values.max():.6g}] -> {out}.vhdr/.raw")
    return EXIT_OK


def cmd_iso(args, stats) -> int:
    t0 = time.perf_counter()
    grid = read_volume(args.volume)
    stats["volume_read_s"] = time.perf_counter() - t0
    out = args.out or _stem(args.volume)
    return _write_surfaces(grid, args.iso, out, stats)


def cmd_tpms(args, stats) -> int:
    field = TpmsField(kind=args.kind, periods=args.periods)
    lo, hi = DEFAULT_DOMAIN
    grid = make_grid((lo, lo, lo), (hi, hi, hi), args.resolution, 0.0)
    out = args.out or f"tpms_{args.kind}"
    volume = _sample_and_write(field, grid, args.workers, out, stats)
    return _write_surfaces(volume, args.iso, out, stats)


def cmd_perturb(args, stats) -> int:
    mesh = load_mesh(args.mesh)
    spec = PerturbSpec(magnitude=args.magnitude, seed=args.seed,
                       vertex_fraction=args.fraction)
    out = args.out
    if not out:
        stem, ext = os.path.splitext(args.mesh)
        out = f"{stem}_perturbed{ext}"
    save_mesh(perturb_mesh(mesh, spec), out)
    print(f"perturbed mesh -> {out}")
    return EXIT_OK


def cmd_pipeline(args, stats) -> int:
    out = args.out or _stem(args.mesh)
    model = _fit_and_save(args, out + ".arbf", stats)
    volume = _sample_and_write(model, _model_grid(model, args), args.workers, out, stats)
    return _write_surfaces(volume, args.iso, out, stats)


def _add_stats_flag(p):
    p.add_argument("--stats", metavar="PATH.json",
                   help="also write stage seconds and sizes as JSON to this path")


def _add_mesh_flag(p):
    p.add_argument("--mesh", required=True,
                   help="input mesh: .off (tri2d), .hexmesh (hex), or a TetGen .node, "
                        ".ele or bare stem (tet)")


def _add_fit_flags(p):
    p.add_argument("--mode", choices=sorted(_MODE_NAMES), default="aniso",
                   help="center construction mode (default: aniso)")
    p.add_argument("--basis", choices=BASIS_KINDS,
                   default="imq", help="radial basis (default: imq)")
    p.add_argument("--c", type=float, default=0.1,
                   help="shape parameter (default: 0.1)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="Tikhonov diagonal weight (default: 0)")


def _add_grid_flags(p):
    p.add_argument("--resolution", type=int, default=64,
                   help="samples along the longest axis (default: 64)")
    p.add_argument("--workers", type=int, default=1,
                   help="sampling worker count; 0 = all cores (default: 1)")


def _add_pad_flag(p):  # for a model's bbox; tpms samples a fixed domain
    p.add_argument("--pad", type=float, default=0.05,
                   help="bbox padding as a fraction of its diagonal (default: 0.05)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbf",
        description="Porous scaffold construction via radial basis function "
                    "interpolation over volumetric meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit an interpolation model to a mesh")
    _add_mesh_flag(p)
    _add_fit_flags(p)
    p.add_argument("--out", help="output model path (default: <mesh stem>.arbf)")
    _add_stats_flag(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="sample a fitted model onto a voxel grid")
    p.add_argument("--model", required=True, help="model file from 'fit'")
    _add_grid_flags(p)
    _add_pad_flag(p)
    p.add_argument("--out", help="output volume stem (default: <model stem>)")
    _add_stats_flag(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("iso", help="extract iso-surfaces from a sampled volume")
    p.add_argument("--volume", required=True, help="volume stem or .vhdr path")
    p.add_argument("--iso", type=_iso_list, required=True,
                   help="comma-separated iso values (use --iso=-0.5,0,0.5)")
    p.add_argument("--out", help="output OBJ stem (default: volume stem)")
    _add_stats_flag(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("tpms", help="sample a TPMS baseline field")
    p.add_argument("--kind", choices=TPMS_KINDS, required=True)
    p.add_argument("--iso", type=_iso_list, default="0",
                   help="comma-separated iso values (default: 0)")
    p.add_argument("--periods", type=_periods, default="1,1,1",
                   help="per-axis frequency multipliers (default: 1,1,1)")
    _add_grid_flags(p)
    p.add_argument("--out", help="output stem (default: tpms_<kind>)")
    _add_stats_flag(p)
    p.set_defaults(func=cmd_tpms)

    p = sub.add_parser("perturb", help="randomly displace mesh vertices")
    _add_mesh_flag(p)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.add_argument("--magnitude", type=float, default=0.15,
                   help="displacement as a fraction of the shortest incident "
                        f"edge, at most {MAX_MAGNITUDE} (default: 0.15)")
    p.add_argument("--fraction", type=float, default=0.5,
                   help="fraction of vertices to displace (default: 0.5)")
    p.add_argument("--out", help="output mesh path (default: <stem>_perturbed<ext>)")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("pipeline", help="fit, sample, and extract in one run")
    _add_mesh_flag(p)
    _add_fit_flags(p)
    _add_grid_flags(p)
    _add_pad_flag(p)
    p.add_argument("--iso", type=_iso_list, required=True,
                   help="comma-separated iso values (use --iso=-0.5,0,0.5)")
    p.add_argument("--out", help="output stem (default: mesh stem)")
    _add_stats_flag(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    stats = {"command": args.command}
    t0 = time.perf_counter()
    try:
        code = args.func(args, stats)
    except SingularMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_NUMERIC
    except (ScaffoldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    stats.update(exit_code=code, total_s=time.perf_counter() - t0)
    if getattr(args, "stats", None):
        try:
            _write_stats(args.stats, stats)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    return code


def _write_stats(path: str, stats: dict) -> None:
    with textio.create(path, "w") as fh:
        json.dump(stats, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
