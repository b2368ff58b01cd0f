"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q

The smoke tests run one full-size item of each workload (about 20 s on
2 cores).
"""

import json
import os
import sys
import types

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

import arbfscaffold as ax  # noqa: E402
from bench_checks import check_roundtrip, check_tpms, load_reference  # noqa: E402
from bench_trace import (  # noqa: E402
    Span,
    Tracer,
    item_covered_time,
    item_layer_times,
    self_times,
)
from bench_workloads import WORKLOADS, crossed_cells  # noqa: E402


def nested_spans():
    # item 0: root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9];
    # item 1: one more "a" span [11, 12]
    return [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("g", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("a", 11.0, 12.0, None, 1),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(nested_spans()) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_times_and_coverage_are_per_item():
    spans = nested_spans()
    assert item_layer_times(spans, 0) == {"root": 3.0, "a": 2.0, "g": 1.0, "b": 4.0}
    assert item_layer_times(spans, 1) == {"a": 1.0}
    assert item_covered_time(spans, 0) == 10.0
    assert item_covered_time(spans, 1) == 1.0


def test_quartiles_on_known_samples():
    assert run.quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5)
    assert run.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_tracer_records_nesting_through_module_namespace_and_unwraps():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2  # looks ``inner`` up at call time
    originals = (ns.inner, ns.outer)
    with Tracer() as tracer:
        assert tracer.wrap(ns, "outer", "layer.outer")
        assert tracer.wrap(ns, "inner", "layer.inner")
        tracer.item = 3
        assert ns.outer(1) == 4
    assert (ns.inner, ns.outer) == originals
    assert [(s.name, s.parent, s.item) for s in tracer.spans] == [
        ("layer.outer", None, 3), ("layer.inner", 0, 3)]
    assert json.loads(json.dumps(tracer.to_json()))[1]["parent"] == 0


def test_missing_wrapper_is_reported_not_raised():
    ns = types.SimpleNamespace(present=lambda: None)
    tracer = Tracer()
    assert not tracer.wrap(ns, "assemble_matrix", "rbf.assemble")
    assert tracer.wrap(ns, "present", "grid.sample")
    assert tracer.missing == ["rbf.assemble"]
    tracer.item = 0
    ns.present()
    rec = {"item": 0, "failures": [], "wall_s": 1.0, "scale": 1.0, "n_centers": 10,
           "mode": "isotropic",
           "voxels": 100, "cells": 50, "crossed_cells": 5}
    metrics, missing = run.per_layer_metrics([rec], [dict(rec)], tracer, speedup=1.5)
    assert missing == ["rbf.assemble_ns_per_pair", "rbf.assemble_s", "rbf.solve_s"]
    assert not set(missing) & set(metrics)
    assert set(metrics) | set(missing) == set(run.PER_LAYER)
    assert metrics["isosurface.active_cell_frac"] == 0.1
    assert metrics["grid.worker_speedup"] == 1.5
    tracer.unwrap_all()


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}


def test_exits_nonzero_without_library_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "hex4_fit", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def _tpms_volume(kind="g", resolution=12):
    grid = ax.make_grid((0.0,) * 3, (2 * np.pi,) * 3, resolution)
    return ax.sample_field(ax.TpmsField(kind), grid)


def test_checks_catch_a_changed_voxel(tmp_path):
    volume = _tpms_volume()
    assert check_tpms("g", volume) == []
    ax.write_volume(volume, str(tmp_path / "v"))
    assert check_roundtrip(volume, ax.read_volume(str(tmp_path / "v"))) == []
    volume.values[17] += np.float32(1e-3)
    assert check_tpms("g", volume) != []
    assert check_roundtrip(volume, ax.read_volume(str(tmp_path / "v"))) != []


def test_crossed_cells_match_marching_cubes_active_cells():
    volume = _tpms_volume("p", 10)
    vals = volume.values_3d()
    corners = [vals[dz:dz + 9, dy:dy + 9, dx:dx + 9]
               for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
    below = sum((c < 0.2).astype(int) for c in corners)
    assert crossed_cells(volume, [0.2]) == [int(np.count_nonzero((below > 0) & (below < 8)))]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_item_smoke_run_has_no_failures(name, tmp_path):
    workload = WORKLOADS[name](0, str(tmp_path))
    rec, result, _ = run.run_one(workload, 0, 0, load_reference(name))
    assert rec["failures"] == []
    assert run.failed_fraction([rec]) == 0
    assert rec["triangles"] > 0 and rec["bytes_written"] > 0
    assert result is not None and os.listdir(tmp_path) == []
