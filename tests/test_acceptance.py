"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) so a plain pytest
run shows the per-criterion outcome with its measured numbers.
"""

import os
import time

import numpy as np
import pytest

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.cli import main as cli_main
from arbfscaffold.distance import squared_distance_block
from arbfscaffold.grid import make_grid, read_volume, sample_field, solid_fraction, write_volume
from arbfscaffold.isosurface import (
    euler_characteristic,
    export_obj,
    load_obj,
    marching_cubes,
    surface_area,
)
from arbfscaffold.mesh import cell_measures
from arbfscaffold.perturb import PerturbSpec, perturb_mesh, shortest_incident_edge
from arbfscaffold.rbf import (
    Basis,
    assemble_matrix,
    fit_mesh,
    fit_with_report,
    load_model,
    save_model,
)
from arbfscaffold.tpms import TpmsField

IMQ = Basis("imq", 0.1)


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_criterion_01_nodal_exactness(capsys):
    t0 = time.perf_counter()
    meshes = [samples.triangle_mesh(), samples.unit_tet_mesh(),
              samples.unit_hex_mesh(), samples.icosahedron_tet_mesh(),
              samples.hex_block_mesh()]
    worst = 0.0
    for mesh in meshes:
        for mode in ("isotropic", "anisotropic"):
            model = fit_mesh(mesh, IMQ, mode, lam=0.0)[0]
            vals = model.evaluate_many(model.centers.points)
            worst = max(worst, float(np.abs(vals - model.centers.point_values).max()))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 10.0
    report(capsys, 1, "nodal exactness", ok,
           f"max |s(x_i) - f_i| = {worst:.2e} <= 1e-6 on 5 meshes x 2 modes, {dt:.1f}s < 10s")


def test_criterion_02_distance_kernel_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    worst_rel = 0.0
    sym_exact = deg_exact = True
    ts = np.linspace(0.0, 1.0, 10_000)[:, None]
    none = np.empty((0, 3))
    for _ in range(1000):
        p, a, b = rng.uniform(-2.0, 2.0, size=(3, 3))
        r2 = squared_distance_block(p, none, a, b)[0, 0]
        brute = float(np.linalg.norm(a + ts * (b - a) - p, axis=1).min())
        seglen = float(np.linalg.norm(b - a))
        worst_rel = max(worst_rel, abs(np.sqrt(r2) - brute) / seglen)
        sym_exact &= squared_distance_block(p, none, b, a)[0, 0] == r2
        deg_exact &= (squared_distance_block(p, none, a, a)[0, 0]
                      == squared_distance_block(p, a, none, none)[0, 0])
    dt = time.perf_counter() - t0
    ok = worst_rel <= 1e-3 and sym_exact and deg_exact and dt < 5.0
    report(capsys, 2, "distance kernel vs brute force", ok,
           f"1000 cases, max err {worst_rel:.2e} x seglen <= 1e-3, symmetry exact: "
           f"{sym_exact}, degenerate exact: {deg_exact}, {dt:.1f}s < 5s")


def test_criterion_03_isotropic_equivalence(capsys):
    centers = ax.assemble_center_set(samples.unit_tet_mesh(), "isotropic")
    a1, r1 = assemble_matrix(centers, IMQ)
    a2, r2 = assemble_matrix(centers, IMQ)
    m1 = fit_with_report(centers, IMQ)[0]
    m2 = fit_with_report(centers, IMQ)[0]
    ok = (a1.shape == (15, 15) and np.array_equal(a1, a2)
          and np.array_equal(r1, r2) and np.array_equal(m1.weights, m2.weights)
          and m1.mode == "isotropic")
    report(capsys, 3, "isotropic mode equivalence", ok,
           "15x15 single-tet point system bit-identical under both modes")


def test_criterion_04_sign_structure(capsys):
    mesh = samples.regular_tet_mesh()
    model = fit_mesh(mesh, IMQ, "anisotropic", lam=0.0)[0]
    seg_a, seg_b = model.centers.seg_a, model.centers.seg_b
    mids = 0.5 * (seg_a + seg_b)
    mid_vals = model.evaluate_many(mids)
    vert_vals = model.evaluate_many(mesh.vertices)
    ok = len(seg_a) == 4 and np.all(mid_vals < 0.0) and np.all(vert_vals > 0.0)
    report(capsys, 4, "single-tet sign structure", ok,
           f"4 segment midpoints in [{mid_vals.min():.3f}, {mid_vals.max():.3f}] < 0, "
           f"4 vertices in [{vert_vals.min():.3f}, {vert_vals.max():.3f}] > 0")


def test_criterion_05_iso_monotonicity(capsys, tmp_path):
    t0 = time.perf_counter()
    mesh = samples.hex_block_mesh()
    model = fit_mesh(mesh, IMQ, "anisotropic")[0]
    grid = make_grid(*model.bbox(), 64, 0.05)
    vol = sample_field(model, grid)
    fractions = [solid_fraction(vol, iso) for iso in np.linspace(-1.0, 1.0, 20)]
    monotone = all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))
    written = []
    for iso in (-0.3, -0.1, 0.1, 0.3):
        soup = marching_cubes(vol, iso)
        path = str(tmp_path / f"block_iso{iso:g}.obj")
        export_obj(soup, path)
        written.append(len(soup.triangles) > 0 and os.path.getsize(path) > 0)
    dt = time.perf_counter() - t0
    ok = monotone and all(written) and dt < 60.0
    report(capsys, 5, "iso-value monotonicity", ok,
           f"20-step solid fraction non-increasing: {monotone}, "
           f"4/4 non-empty OBJ files at iso -0.3..0.3, {dt:.1f}s < 60s")


def test_criterion_06_basis_sweep(capsys):
    mesh = samples.icosahedron_tet_mesh()
    results = {}
    for kind in ("gaussian", "mq", "imq", "tps"):
        basis = Basis(kind, 0.1)
        if kind == "tps":  # diagonal phi(0) must be an exact zero, no error
            a, _ = assemble_matrix(ax.assemble_center_set(mesh, "anisotropic"), basis)
            assert np.all(np.diag(a) == 0.0)
        model = fit_mesh(mesh, basis, "anisotropic", lam=0.0)[0]
        grid = make_grid(*model.bbox(), 48, 0.05)
        vol = sample_field(model, grid)
        hits = sum(len(marching_cubes(vol, iso).triangles) > 0
                   for iso in np.linspace(-0.5, 0.5, 11))
        results[kind] = hits
    ok = all(v > 0 for v in results.values())
    report(capsys, 6, "four-basis pipeline sweep", ok,
           "non-empty iso counts in [-0.5, 0.5] " + str(results) + ", tps phi(0)=0 ok")


def test_criterion_07_tpms_baselines(capsys):
    t0 = time.perf_counter()
    lo, hi = np.zeros(3), np.full(3, 2.0 * np.pi)
    nonempty = {}
    for kind in ("p", "d", "g", "iwp"):
        grid = make_grid(lo, hi, 64, 0.0)
        vol = sample_field(TpmsField(kind), grid)
        nonempty[kind] = len(marching_cubes(vol, 0.0).triangles) > 0
    p_frac = solid_fraction(sample_field(TpmsField("p"), make_grid(lo, hi, 64, 0.0)), 0.0)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-10.0, 10.0, size=(1000, 3))
    per_err = 0.0
    for kind in ("p", "d", "g", "iwp"):
        f = TpmsField(kind)
        base = f.evaluate_many(pts)
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = 2.0 * np.pi
            per_err = max(per_err, float(np.abs(f.evaluate_many(pts + shift) - base).max()))
    dt = time.perf_counter() - t0
    ok = all(nonempty.values()) and abs(p_frac - 0.5) <= 0.02 and per_err <= 1e-9 and dt < 30.0
    report(capsys, 7, "TPMS baselines", ok,
           f"all 4 surfaces non-empty at iso 0, P fraction {p_frac:.4f} = 0.5 +/- 0.02, "
           f"periodicity err {per_err:.1e} <= 1e-9 on 1000 points, {dt:.1f}s < 30s")


def test_criterion_08_marching_cubes_sphere(capsys):
    R, center = 0.78, np.array([0.01, 0.02, 0.03])
    grid = make_grid(center - 1.0, center + 1.0, 64, 0.0)
    dist = np.linalg.norm(grid.positions() - center, axis=1)
    grid.values[:] = (R - dist).astype(np.float32)
    soup = marching_cubes(grid, 0.0)
    area = surface_area(soup)
    rel = abs(area - 4 * np.pi * R * R) / (4 * np.pi * R * R)
    chi = euler_characteristic(soup)
    from test_isosurface import edge_lerp_residual
    resid = edge_lerp_residual(grid, soup, 0.0)
    ok = rel <= 0.03 and chi == 2 and resid <= 1e-9
    report(capsys, 8, "marching cubes on analytic sphere", ok,
           f"area error {100 * rel:.2f}% <= 3%, Euler characteristic {chi} == 2, "
           f"vertex lerp residual {resid:.1e} <= 1e-9")


def test_criterion_09_perturbation_reproducibility(capsys, tmp_path):
    mesh_path = samples.write_sample_meshes(str(tmp_path / "meshes"))["hex8.hexmesh"]
    runs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag / "jit.hexmesh")
        rc = cli_main(["perturb", "--mesh", mesh_path, "--seed", "11",
                       "--magnitude", "0.2", "--out", out])
        assert rc == 0
        rc = cli_main(["pipeline", "--mesh", out, "--resolution", "24",
                       "--iso", "0.0", "--out", str(tmp_path / tag / "run")])
        assert rc == 0
        runs.append(tmp_path / tag)
    same_mesh = (runs[0] / "jit.hexmesh").read_bytes() == (runs[1] / "jit.hexmesh").read_bytes()
    same_obj = (runs[0] / "run_iso0.obj").read_bytes() == (runs[1] / "run_iso0.obj").read_bytes()
    base = samples.hex_block_mesh()
    jit = ax.load_mesh(str(runs[0] / "jit.hexmesh"))
    moved = np.linalg.norm(jit.vertices - base.vertices, axis=1)
    bound_ok = np.all(moved <= 0.2 * shortest_incident_edge(base) + 1e-12)
    topo_ok = np.array_equal(jit.cells, base.cells) and np.all(cell_measures(jit) > 0)
    ok = same_mesh and same_obj and bound_ok and topo_ok
    report(capsys, 9, "perturbation reproducibility", ok,
           f"byte-identical mesh: {same_mesh}, byte-identical OBJ: {same_obj}, "
           f"max displacement {moved.max():.4f} <= 0.2 x shortest edge, topology kept: {topo_ok}")


def test_criterion_10_format_round_trips(capsys, tmp_path):
    # volume
    g = make_grid(np.array([-0.2, 0.3, 0.1]), np.array([1.1, 1.9, 2.2]), 10, 0.03)
    g.values[:] = np.random.default_rng(29).standard_normal(g.values.size).astype(np.float32)
    write_volume(g, str(tmp_path / "vol"))
    gv = read_volume(str(tmp_path / "vol"))
    vol_ok = (np.array_equal(gv.values, g.values) and gv.dims == g.dims
              and np.array_equal(gv.origin, g.origin)
              and np.array_equal(gv.spacing, g.spacing))
    # model
    model = fit_mesh(samples.icosahedron_tet_mesh(), IMQ, "anisotropic")[0]
    save_model(model, str(tmp_path / "m.arbf"))
    mv = load_model(str(tmp_path / "m.arbf"))
    probe = np.random.default_rng(31).uniform(-1, 1, size=(50, 3))
    model_ok = (np.array_equal(mv.weights, model.weights)
                and np.array_equal(mv.evaluate_many(probe), model.evaluate_many(probe)))
    # obj
    grid = make_grid(np.full(3, -1.0), np.ones(3), 24, 0.0)
    grid.values[:] = (0.7 - np.linalg.norm(grid.positions(), axis=1)).astype(np.float32)
    soup = marching_cubes(grid, 0.0)
    export_obj(soup, str(tmp_path / "s.obj"))
    sv = load_obj(str(tmp_path / "s.obj"))
    obj_ok = (np.array_equal(sv.triangles, soup.triangles)
              and np.allclose(sv.vertices, soup.vertices, atol=1e-6))
    # the three mesh formats
    mesh_ok = True
    for name, path in samples.write_sample_meshes(str(tmp_path / "meshes")).items():
        orig = samples.SAMPLE_BUILDERS[name]()
        back = ax.load_mesh(path)
        mesh_ok &= (np.array_equal(back.vertices, orig.vertices)
                    and np.array_equal(back.cells, orig.cells))
    ok = vol_ok and model_ok and obj_ok and mesh_ok
    report(capsys, 10, "format round-trips", ok,
           f"volume exact: {vol_ok}, model exact: {model_ok}, "
           f"OBJ within 1e-6: {obj_ok}, mesh formats exact: {mesh_ok}")
