"""Benchmark of the arbfscaffold library, run from the root of a checkout.

    python3 perfbench/run.py --workload hex4_fit --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

One run sets up (imports, inputs, a miniature warm-up item), then runs
items of one workload in a closed loop until ``--seconds`` have passed,
stopping on a whole round of items.  Every item's outputs are checked (see
bench_checks.py); an item fails when it raises or a check fails.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
runs one untraced round, then wraps the library's layer functions
(bench_trace.py) and reports per-layer metrics, the tracing overhead and
the 1- over 2-worker sampling speed-up.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it holds quartiles, work counts and machine details, and the full record
(items, spans) goes to .perfbench/ in the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

# One BLAS thread: hex2_sample's two sampling threads already fill both
# cores, and LU runs single-threaded in every workload alike.  Must be set
# before numpy is imported.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 4  # extra fresh processes timed for setup_s

# Times on a shared host drift: a fixed Python loop ran 1.8x slower in
# some stretches of seconds to tens of seconds than in others on a 2-core
# VM, with the library's own kernels slowing alike.  Every end-to-end time
# is therefore scaled by PROBE_REF_S / (probe time around it), which reads
# as seconds on a machine where the probe takes PROBE_REF_S.  The raw
# times are recorded beside the scaled ones.
PROBE_REF_S = 0.15
WORKLOAD_NAMES = ("hex4_fit", "hex2_sample", "tpms_sweep")

END_TO_END = {
    "setup_s": "s",
    "scaffold_s.p50": "s",
    "iso_s.p50": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, spans it is computed from).  A metric whose
# span could not be wrapped is reported missing rather than wrong.
PER_LAYER = {
    "perturb.perturb_s": ("s", ["perturb.perturb"]),
    "mesh.centers_s": ("s", ["mesh.centers"]),
    "mesh.n_centers": ("count", []),
    "rbf.assemble_s": ("s", ["rbf.assemble"]),
    "rbf.assemble_ns_per_pair": ("ns", ["rbf.assemble"]),
    "rbf.solve_s": ("s", ["rbf.fit", "mesh.centers", "rbf.assemble"]),
    "rbf.matrix_bytes": ("bytes", []),
    "rbf.model_write_s": ("s", ["rbf.model_write"]),
    "rbf.model_read_s": ("s", ["rbf.model_read"]),
    "grid.sample_s": ("s", ["grid.sample"]),
    "grid.voxels": ("count", []),
    "grid.sample_ns_per_pair.anisotropic": ("ns", ["grid.sample"]),
    "grid.sample_ns_per_pair.isotropic": ("ns", ["grid.sample"]),
    "grid.sample_ns_per_voxel": ("ns", ["grid.sample"]),
    "grid.worker_speedup": ("ratio", []),
    "grid.volume_write_s": ("s", ["grid.volume_write"]),
    "grid.volume_read_s": ("s", ["grid.volume_read"]),
    "grid.volume_bytes": ("bytes", []),
    "isosurface.mc_s": ("s", ["isosurface.mc"]),
    "isosurface.mc_ns_per_cell": ("ns", ["isosurface.mc"]),
    "isosurface.triangles": ("count", []),
    "isosurface.active_cell_frac": ("ratio", []),
    "isosurface.obj_write_s": ("s", ["isosurface.obj_write"]),
    "isosurface.obj_bytes": ("bytes", []),
    "isosurface.ms_s": ("s", ["isosurface.ms"]),
    "trace.item_s": ("s", []),
    "trace.overhead_frac": ("ratio", []),
    "trace.coverage_frac": ("ratio", []),
}


def quartiles(values):
    """(p25, p50, p75) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def failed_fraction(records):
    """Items that raised or failed a check, over items attempted."""
    return sum(1 for r in records if r["failures"]) / len(records)


def _median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _trace_targets(ax):
    """(module, attribute, span name) for every function the tracer wraps.

    ``fit_mesh`` looks its helpers up in ``arbfscaffold.rbf``; the
    benchmark's own calls go through the package namespace.
    """
    rbf = getattr(ax, "rbf", None)
    return [
        (ax, "perturb_mesh", "perturb.perturb"),
        (ax, "fit_mesh", "rbf.fit"),
        (rbf, "assemble_center_set", "mesh.centers"),
        (rbf, "assemble_matrix", "rbf.assemble"),
        (ax, "save_model", "rbf.model_write"),
        (ax, "load_model", "rbf.model_read"),
        (ax, "make_grid", "grid.make_grid"),
        (ax, "make_grid_2d", "grid.make_grid_2d"),
        (ax, "sample_field", "grid.sample"),
        (ax, "write_volume", "grid.volume_write"),
        (ax, "read_volume", "grid.volume_read"),
        (ax, "solid_fraction", "grid.solid_fraction"),
        (ax, "marching_cubes", "isosurface.mc"),
        (ax, "export_obj", "isosurface.obj_write"),
        (ax, "marching_squares", "isosurface.ms"),
        (ax, "export_pgm", "isosurface.pgm_write"),
    ]


def machine_info(workload, seed):
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "workers": workload.workers,
        "seed": seed,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        info["blas"] = None
    info["caches"] = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, entry)
            with open(os.path.join(base, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, "size")) as fh:
                info["caches"][f"L{level}-{kind}"] = fh.read().strip()
    except OSError:
        pass
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def speed_probe():
    """Seconds for a fixed mix of the three kinds of work the library does.

    An interpreter loop of small numpy calls (like matrix assembly), array
    streaming (like sampling and marching cubes) and float formatting (like
    OBJ export).  It runs no library code, so its time follows the
    machine's current speed and nothing that a change to the library does.
    """
    import numpy as np

    t0 = time.perf_counter()
    v = np.arange(3.0)
    acc = 0.0
    for i in range(20000):
        acc += float(np.sqrt((v * i).sum()))
    a = np.linspace(0.0, 1.0, 1 << 20)
    for _ in range(10):
        acc += float(np.sqrt(a * a + 0.01).sum())
    text = io.StringIO()
    for x, y, z in a[:30000].reshape(-1, 3):
        text.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
    return time.perf_counter() - t0


def run_one(workload, i, seed, reference, tracer=None, probe_before=None):
    """Time item ``i``, probe the machine's speed, then check the item.

    Returns (record, result or None, the probe time after the item).
    """
    from bench_checks import check_item
    from bench_workloads import INPUT_CYCLE, work_counts

    rec = {"item": i, "failures": []}
    result = None
    if tracer is not None:
        tracer.item = i
    t0 = time.perf_counter()
    try:
        result = workload.run_item(i)
    except Exception:
        rec["failures"].append(traceback.format_exc(limit=4))
    rec["wall_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.item = -1  # calls made by the probe and the checks belong to no item
    probe_after = speed_probe()
    probes = [probe_after] if probe_before is None else [probe_before, probe_after]
    rec["scale"] = PROBE_REF_S / statistics.fmean(probes)
    if result is not None:
        try:
            ref = reference.get(str(i % INPUT_CYCLE)) if reference is not None else None
            failures, stats = check_item(result, seed, ref)
            rec["failures"] += failures
            rec["surfaces"] = stats
            rec["iso_s"] = result.iso_times
            rec.update(work_counts(result))
        except Exception:
            rec["failures"].append(traceback.format_exc(limit=4))
    for name in os.listdir(workload.outdir):
        os.remove(os.path.join(workload.outdir, name))
    return rec, result, probe_after


def run_items(workload, seconds, seed, reference, tracer=None, first_item=0):
    """Closed loop of whole rounds until ``seconds`` have passed."""
    records, first = [], None
    start = time.perf_counter()
    probe = speed_probe()
    i = first_item
    while True:
        for _ in range(workload.round_size):
            rec, result, probe = run_one(workload, i, seed, reference, tracer, probe)
            records.append(rec)
            if first is None and result is not None:
                first = result
            i += 1
        if time.perf_counter() - start >= seconds:
            return records, first


def setup_probe_times(args):
    """Scaled setup_s of fresh processes, each through imports, inputs and warm-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def end_to_end_metrics(records, setup_times):
    walls = [r["wall_s"] for r in records]
    scaled = [r["wall_s"] * r["scale"] for r in records]
    isos = [t for r in records for t in r.get("iso_s", [])]
    scaled_isos = [t * r["scale"] for r in records for t in r.get("iso_s", [])]
    values = {
        "setup_s": statistics.median(setup_times),
        "scaffold_s.p50": statistics.median(scaled),
        "iso_s.p50": _median_or_zero(scaled_isos),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "scaffold_s": _spread(scaled),
        "iso_s": _spread(scaled_isos),
        "raw_scaffold_s": _spread(walls),
        "raw_iso_s": _spread(isos),
        "setup_s_samples": setup_times,
    }
    return values, detail


def _spread(values):
    """Quartiles and count, as recorded beside a median."""
    if not values:
        return {"n": 0}
    return dict(zip(("p25", "p50", "p75"), quartiles(values)), n=len(values))


def item_layer_metrics(rec, spans):
    """Per-layer values of one traced item."""
    from bench_trace import item_covered_time, item_layer_times

    t = item_layer_times(spans, rec["item"])
    n = rec.get("n_centers", 0)
    pairs = n * (n - 1) / 2
    voxels = rec.get("voxels", 0)
    cells = rec.get("cells", 0)
    sample_s = t.get("grid.sample", 0.0)
    vals = {
        "perturb.perturb_s": t.get("perturb.perturb", 0.0),
        "mesh.centers_s": t.get("mesh.centers", 0.0),
        "mesh.n_centers": n,
        "rbf.assemble_s": t.get("rbf.assemble", 0.0),
        "rbf.assemble_ns_per_pair": 1e9 * t.get("rbf.assemble", 0.0) / pairs if pairs else 0.0,
        "rbf.solve_s": t.get("rbf.fit", 0.0),
        "rbf.matrix_bytes": 8 * n * n,
        "rbf.model_write_s": t.get("rbf.model_write", 0.0),
        "rbf.model_read_s": t.get("rbf.model_read", 0.0),
        "grid.sample_s": sample_s,
        "grid.voxels": voxels,
        "grid.volume_write_s": t.get("grid.volume_write", 0.0),
        "grid.volume_read_s": t.get("grid.volume_read", 0.0),
        "grid.volume_bytes": rec.get("volume_bytes", 0),
        "isosurface.mc_s": t.get("isosurface.mc", 0.0),
        "isosurface.mc_ns_per_cell": 1e9 * t.get("isosurface.mc", 0.0) / cells if cells else 0.0,
        "isosurface.triangles": rec.get("triangles", 0),
        "isosurface.active_cell_frac": rec.get("crossed_cells", 0) / cells if cells else 0.0,
        "isosurface.obj_write_s": t.get("isosurface.obj_write", 0.0),
        "isosurface.obj_bytes": rec.get("obj_bytes", 0),
        "isosurface.ms_s": t.get("isosurface.ms", 0.0),
        "trace.item_s": rec["wall_s"],
        "trace.coverage_frac": item_covered_time(spans, rec["item"]) / rec["wall_s"],
    }
    mode = rec.get("mode")
    if mode is not None and voxels and n:
        vals[f"grid.sample_ns_per_pair.{mode}"] = 1e9 * sample_s / (voxels * n)
    elif mode is None and voxels:
        vals["grid.sample_ns_per_voxel"] = 1e9 * sample_s / voxels
    return vals


def per_layer_metrics(traced, untraced, tracer, speedup):
    spans = tracer.spans
    per_item = [item_layer_metrics(r, spans) for r in traced if not r["failures"]]
    values = {}
    for name in PER_LAYER:
        values[name] = _median_or_zero(v[name] for v in per_item if name in v)
    n = len(untraced)
    values["trace.overhead_frac"] = (sum(r["wall_s"] * r["scale"] for r in traced[:n])
                                     / sum(r["wall_s"] * r["scale"] for r in untraced) - 1.0)
    values["grid.worker_speedup"] = speedup
    missing = sorted(name for name, (_, needs) in PER_LAYER.items()
                     if set(needs) & set(tracer.missing))
    for name in missing:
        del values[name]
    return values, missing


def worker_speedup(source, grid):
    """1-worker over 2-worker sample_field time on one item's grid."""
    import arbfscaffold as ax

    times = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        ax.sample_field(source, grid, workers=workers)
        times[workers] = time.perf_counter() - t0
    return times[1] / times[2]


def run_workload(args):
    import arbfscaffold as ax
    from bench_checks import REFERENCE_SEED, load_reference
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        reference = load_reference(args.workload) if args.seed == REFERENCE_SEED else None
        workload.warm_up()
        for name in os.listdir(tmp):
            os.remove(os.path.join(tmp, name))
        setup_s = (time.perf_counter() - _T0) * PROBE_REF_S / speed_probe()
        if args.setup_probe:
            print(repr(setup_s))
            return 0

        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_info(workload, args.seed)}
        if args.trace:
            untraced, _ = run_items(workload, 0, args.seed, reference)
            with Tracer() as tracer:
                for module, attr, span in _trace_targets(ax):
                    tracer.wrap(module, attr, span)
                records, first = run_items(workload, args.seconds, args.seed, reference, tracer)
            speedup = worker_speedup(first.source, first.volume) if first else 0.0
            metrics, missing = per_layer_metrics(records, untraced, tracer, speedup)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            report.update(missing_metrics=missing, untraced=untraced, spans=tracer.to_json())
            records_all = untraced + records
        else:
            records, _ = run_items(workload, args.seconds, args.seed, reference)
            metrics, detail = end_to_end_metrics(records, [setup_s] + setup_probe_times(args))
            units = END_TO_END
            report.update(detail)
            records_all = records
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for r in records_all if r["failures"])
    report.update(records=records, failed_frac=failed_fraction(records_all),
                  work=_work_totals(records))
    report_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    for r in records_all:
        for failure in r["failures"]:
            print(f"item {r['item']} failed: {failure}", file=sys.stderr)
    summary = {k: report[k] for k in report if k not in ("records", "spans", "untraced")}
    print(json.dumps(summary, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records_all),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _work_totals(records):
    keys = ("voxels", "cells", "crossed_cells", "triangles", "bytes_written")
    totals = {k: sum(r.get(k, 0) for r in records) for k in keys}
    totals["n_centers"] = sorted({r["n_centers"] for r in records if "n_centers" in r})
    return totals


def run_all(args):
    """Every workload in its own process; one table of metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{'workload':<12} {'metric':<36} {'value':>14} unit")
    for name, res in results.items():
        rows = [(m, v["value"], v["unit"]) for m, v in res["metrics"].items()]
        rows.append(("failed_frac", res["failed"] / res["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<12} {metric:<36} {value:>14.6g} {unit}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arbfscaffold", "__init__.py")):
        print(f"error: no arbfscaffold sources under {SRC}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
