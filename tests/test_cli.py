"""Command line interface: exit codes, outputs, and determinism."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.cli import COND_WARN, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, build_parser, main


@pytest.fixture
def mesh_dir(tmp_path):
    return samples.write_sample_meshes(str(tmp_path / "meshes"))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_fit_writes_model(mesh_dir, tmp_path, capsys):
    out = str(tmp_path / "m.arbf")
    rc = main(["fit", "--mesh", mesh_dir["tet1.node"], "--out", out])
    assert rc == EXIT_OK
    assert os.path.exists(out)
    stdout = capsys.readouterr().out
    assert "N=14" in stdout and "residual=" in stdout
    model = ax.load_model(out)
    assert model.basis.kind == "imq"


def test_fit_default_output_is_mesh_stem(mesh_dir, capsys):
    rc = main(["fit", "--mesh", mesh_dir["tri1.off"]])
    assert rc == EXIT_OK
    stem = os.path.splitext(mesh_dir["tri1.off"])[0]
    assert os.path.exists(stem + ".arbf")


def test_sample_then_iso(mesh_dir, tmp_path, capsys):
    model = str(tmp_path / "m.arbf")
    vol = str(tmp_path / "vol")
    assert main(["fit", "--mesh", mesh_dir["hex8.hexmesh"], "--out", model]) == EXIT_OK
    assert main(["sample", "--model", model, "--out", vol,
                 "--resolution", "24"]) == EXIT_OK
    assert os.path.exists(vol + ".vhdr") and os.path.exists(vol + ".raw")
    rc = main(["iso", "--volume", vol, "--iso=-0.1,0.1"])
    assert rc == EXIT_OK
    assert os.path.exists(vol + "_iso-0.1.obj")
    assert os.path.exists(vol + "_iso0.1.obj")


def test_pipeline_writes_everything(mesh_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["pipeline", "--mesh", mesh_dir["hex8.hexmesh"],
               "--resolution", "24", "--iso=-0.1,0.1", "--out", out])
    assert rc == EXIT_OK
    for suffix in (".arbf", ".vhdr", ".raw", "_iso-0.1.obj", "_iso0.1.obj"):
        assert os.path.exists(out + suffix), suffix
    stdout = capsys.readouterr().out
    assert "fraction" in stdout


def test_pipeline_is_byte_deterministic(mesh_dir, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag / "run")
        rc = main(["pipeline", "--mesh", mesh_dir["tet1.node"],
                   "--resolution", "16", "--iso", "0.0", "--out", out])
        assert rc == EXIT_OK
        outs.append(out)
    for suffix in (".arbf", ".vhdr", ".raw", "_iso0.obj"):
        assert read(outs[0] + suffix) == read(outs[1] + suffix), suffix


def test_pipeline_on_planar_mesh_samples_padded_bbox(mesh_dir, tmp_path, capsys):
    # tri1.off lies in z = 0: its model's bbox is flat until --pad widens it.
    out = str(tmp_path / "tri")
    rc = main(["pipeline", "--mesh", mesh_dir["tri1.off"], "--resolution", "32",
               "--iso", "0", "--out", out])
    assert rc == EXIT_OK
    assert ax.read_volume(out).dims[2] >= 2
    assert os.path.exists(out + "_iso0.obj")


def test_stats_json_round_trips(mesh_dir, tmp_path, capsys):
    out, stats = str(tmp_path / "run"), str(tmp_path / "s" / "stats.json")
    argv = ["pipeline", "--mesh", mesh_dir["hex8.hexmesh"], "--resolution", "20",
            "--iso=-0.1,0.1,99", "--out", out]
    assert main(argv + ["--stats", stats]) == EXIT_OK
    with open(stats, encoding="ascii") as fh:
        record = json.load(fh)
    assert record["command"] == "pipeline" and record["exit_code"] == EXIT_OK
    first = capsys.readouterr()
    assert f"N={record['fit']['n_centers']} " in first.out and record["fit"]["fit_s"] >= 0.0
    assert record["sample"]["voxels"] == np.prod(record["sample"]["dims"])
    assert [s["iso"] for s in record["surfaces"]] == [-0.1, 0.1, 99.0]
    written, empty = record["surfaces"][:2], record["surfaces"][2]
    for surface in written:
        assert surface["triangles"] > 0
        assert surface["obj_bytes"] == os.path.getsize(surface["path"])
        assert surface["obj_write_s"] >= 0.0
    assert empty["triangles"] == 0 and "obj_bytes" not in empty

    # Without --stats the same run prints and writes the same bytes.
    files = {suffix: read(out + suffix)
             for suffix in (".arbf", ".vhdr", ".raw", "_iso-0.1.obj", "_iso0.1.obj")}
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == first
    for suffix, data in files.items():
        assert read(out + suffix) == data, suffix


@pytest.mark.parametrize("argv,keys", [
    (["fit", "--mesh", "{tet}", "--out", "{tmp}/m.arbf"], {"fit"}),
    (["tpms", "--kind", "g", "--resolution", "12", "--out", "{tmp}/g"],
     {"sample", "surfaces"}),
    (["sample", "--model", "{tmp}/m.arbf", "--resolution", "12", "--out", "{tmp}/v"],
     {"model_read_s", "sample"}),
    (["iso", "--volume", "{tmp}/v", "--iso", "0", "--out", "{tmp}/v"],
     {"volume_read_s", "surfaces"}),
])
def test_stats_for_each_stage_command(mesh_dir, tmp_path, argv, keys):
    main(["fit", "--mesh", mesh_dir["tet1.node"], "--out", str(tmp_path / "m.arbf")])
    main(["sample", "--model", str(tmp_path / "m.arbf"), "--resolution", "12",
          "--out", str(tmp_path / "v")])
    stats = str(tmp_path / "stats.json")
    argv = [a.format(tet=mesh_dir["tet1.node"], tmp=tmp_path) for a in argv]
    assert main(argv + ["--stats", stats]) == EXIT_OK
    with open(stats, encoding="ascii") as fh:
        record = json.load(fh)
    assert keys <= set(record) and record["command"] == argv[0]


def test_out_of_range_iso_warns_but_succeeds(mesh_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["pipeline", "--mesh", mesh_dir["tet1.node"],
               "--resolution", "12", "--iso", "99", "--out", out])
    assert rc == EXIT_OK
    err = capsys.readouterr().err
    assert "empty" in err.lower()
    assert not os.path.exists(out + "_iso99.obj")


def test_unwritable_stats_path_is_an_input_error(tmp_path, capsys):
    # the command itself succeeds; the stats file cannot be opened (a directory)
    out = str(tmp_path / "g")
    rc = main(["tpms", "--kind", "g", "--resolution", "8", "--out", out,
               "--stats", str(tmp_path)])
    assert rc == EXIT_INPUT
    assert os.path.exists(out + ".raw")
    assert "error:" in capsys.readouterr().err


def test_import_and_tpms_load_no_scipy(fresh_python, mesh_dir, tmp_path):
    # tpms, sample, iso and perturb load no scipy module, and a fit loads what
    # `import scipy` loads and scipy's two compiled wrappers, not the
    # scipy.linalg package; the last line shows that the check sees them
    model, vol = str(tmp_path / "m.arbf"), str(tmp_path / "vol")
    assert main(["fit", "--mesh", mesh_dir["hex8.hexmesh"], "--out", model]) == EXIT_OK
    runs = [["tpms", "--kind", "g", "--resolution", "8", "--out", str(tmp_path / "g")],
            ["sample", "--model", model, "--resolution", "8", "--out", vol],
            ["iso", "--volume", vol, "--iso=0"],
            ["perturb", "--mesh", mesh_dir["hex8.hexmesh"], "--out", str(tmp_path / "p.hexmesh")]]
    scipy = "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    top = fresh_python("import sys, scipy as _\n" + scipy + "print(*scipy())\n").split()
    code = ("import sys, arbfscaffold as ax\n"
            "from arbfscaffold.cli import main\n"
            + scipy +
            "print(scipy())\n"
            f"codes = [main(args) for args in {runs!r}]\n"
            "print(codes)\n"
            "print(scipy())\n"
            "from arbfscaffold.samples import unit_tet_mesh\n"
            "ax.fit_mesh(unit_tet_mesh(), ax.Basis('imq'), 'anisotropic')\n"
            "print(scipy())\n")
    lines = fresh_python(code).splitlines()  # main's own reports come between
    fit = sorted(top + ["scipy.linalg._fblas", "scipy.linalg._flapack"])
    assert [lines[0]] + lines[-3:] == ["[]", str([EXIT_OK] * 4), "[]", str(fit)]


def test_import_and_one_worker_tpms_load_no_thread_pool(fresh_python, tmp_path):
    # only sampling on several workers needs concurrent.futures, which loads
    # logging; the last line shows that the check sees them
    out = str(tmp_path / "g")
    code = ("import sys, arbfscaffold as ax\n"
            "from arbfscaffold.cli import main\n"
            "pool = lambda: [m for m in ('concurrent.futures', 'logging') if m in sys.modules]\n"
            "print(pool())\n"
            f"main(['tpms', '--kind', 'g', '--resolution', '8', '--out', {out!r}])\n"
            "print(pool())\n"
            "grid = ax.make_grid((0, 0, 0), (1, 1, 1), 32, 0.0)\n"
            "ax.sample_field(ax.TpmsField('g'), grid, workers=2)\n"
            "print(pool())\n")
    lines = fresh_python(code).splitlines()  # main's own report comes between
    assert [lines[0]] + lines[-2:] == ["[]", "[]", "['concurrent.futures', 'logging']"]


def _flag(command, option):
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return next(a for a in sub._actions if option in a.option_strings)


def test_flag_choices_are_the_library_tuples():
    assert _flag("fit", "--basis").choices is ax.rbf.BASIS_KINDS
    assert _flag("pipeline", "--basis").choices is ax.rbf.BASIS_KINDS
    assert _flag("tpms", "--kind").choices is ax.tpms.TPMS_KINDS
    assert f"at most {ax.perturb.MAX_MAGNITUDE} " in _flag("perturb", "--magnitude").help


def test_tpms_subcommand(tmp_path):
    out = str(tmp_path / "gyroid")
    rc = main(["tpms", "--kind", "g", "--resolution", "24", "--iso", "0",
               "--out", out])
    assert rc == EXIT_OK
    assert os.path.exists(out + ".vhdr")
    assert os.path.exists(out + "_iso0.obj")


def test_tpms_takes_no_pad(tmp_path, capsys):
    # the TPMS domain is fixed at [0, 2 pi]^3, so a --pad would be ignored
    out = str(tmp_path / "gyroid")
    rc = main(["tpms", "--kind", "g", "--resolution", "8", "--pad", "0.1", "--out", out])
    assert rc == EXIT_INPUT
    assert "--pad" in capsys.readouterr().err
    assert not os.path.exists(out + ".vhdr")


@pytest.mark.parametrize("command", ["fit", "perturb", "pipeline"])
def test_no_subcommand_takes_a_format(mesh_dir, tmp_path, capsys, command):
    # a mesh file's extension names its format
    out = tmp_path / "out" / "x.off"
    iso = ["--iso", "0"] if command == "pipeline" else []
    rc = main([command, "--mesh", mesh_dir["tri1.off"], "--format", "off", *iso,
               "--out", str(out)])
    assert rc == EXIT_INPUT
    assert "--format" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("mesh,out", [
    ("hex8.hexmesh", "p.off"),  # an OFF path for a hex mesh
    ("tri1.off", "t.hexmesh"),
    ("icosa20.node", "q.off"),  # a tet mesh would go to q.off.node and q.off.ele
    ("hex8.hexmesh", "p"),  # a TetGen stem for a hex mesh
    ("tri1.off", "t"),
    ("hex8.hexmesh", "p.stl"),  # no mesh format
])
def test_perturb_refuses_an_out_path_fit_could_not_read(mesh_dir, tmp_path, capsys, mesh, out):
    rc = main(["perturb", "--mesh", mesh_dir[mesh], "--out", str(tmp_path / "out" / out)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("name", sorted(samples.SAMPLE_BUILDERS))
def test_perturb_then_fit_reads_what_perturb_wrote(mesh_dir, tmp_path, capsys, name):
    src = mesh_dir[name]
    stem, ext = os.path.splitext(src)
    runs = [[src]]  # the default --out, <stem>_perturbed<ext>
    if ext == ".node":  # a bare TetGen stem as --mesh, and as --out
        runs += [[stem], [src, "--out", str(tmp_path / "bare")]]
    for mesh, *out in runs:
        capsys.readouterr()
        assert main(["perturb", "--mesh", mesh, *out]) == EXIT_OK
        written = capsys.readouterr().out.split(" -> ")[1].strip()
        assert main(["fit", "--mesh", written]) == EXIT_OK
        assert ax.load_mesh(written).kind == ax.load_mesh(src).kind


def test_perturb_subcommand(mesh_dir, capsys):
    src = mesh_dir["hex8.hexmesh"]
    rc = main(["perturb", "--mesh", src, "--seed", "7", "--magnitude", "0.2"])
    assert rc == EXIT_OK
    out = src.replace(".hexmesh", "_perturbed.hexmesh")
    assert os.path.exists(out)
    a = ax.load_mesh(src)
    b = ax.load_mesh(out)
    assert not np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.cells, b.cells)


def test_perturb_is_deterministic(mesh_dir, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"{tag}.hexmesh")
        rc = main(["perturb", "--mesh", mesh_dir["hex1.hexmesh"],
                   "--seed", "9", "--out", out])
        assert rc == EXIT_OK
        outs.append(read(out))
    assert outs[0] == outs[1]


def test_missing_mesh_is_input_error(tmp_path, capsys):
    rc = main(["fit", "--mesh", str(tmp_path / "nope.off")])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.strip()


def test_malformed_mesh_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.off"
    p.write_text("OFF\n3 1 0\nnot numbers here\n")
    rc = main(["fit", "--mesh", str(p)])
    assert rc == EXIT_INPUT
    assert "bad.off" in capsys.readouterr().err


def test_short_volume_payload_is_input_error_at_its_dims_line(tmp_path, capsys):
    stem = str(tmp_path / "v")
    ax.write_volume(ax.make_grid(np.zeros(3), np.ones(3), 4), stem)
    with open(stem + ".raw", "r+b") as fh:
        fh.truncate(63 * 4)  # one sample short of DIMS 4 4 4
    assert main(["iso", "--volume", stem, "--iso", "0"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{stem}.vhdr:1: " in err and "payload holds 63 samples, header says 64" in err


def test_cells_at_the_same_coordinates_are_an_input_error(tmp_path, capsys):
    # distinct vertex indices, so the mesh loads; its centers coincide at assembly
    cube = samples.unit_hex_mesh()
    path = str(tmp_path / "twin.hexmesh")
    ax.save_mesh(ax.VolumetricMesh("hex", np.vstack([cube.vertices] * 2),
                                   np.vstack([cube.cells, cube.cells + 8])), path)
    assert main(["fit", "--mesh", path, "--out", str(tmp_path / "m.arbf")]) == EXIT_INPUT
    assert "coincide" in capsys.readouterr().err


def test_unpadded_planar_model_is_input_error(mesh_dir, tmp_path, capsys):
    model = str(tmp_path / "m.arbf")
    assert main(["fit", "--mesh", mesh_dir["tri1.off"], "--mode", "iso",
                 "--out", model]) == EXIT_OK
    rc = main(["sample", "--model", model, "--pad", "0", "--out", str(tmp_path / "v")])
    assert rc == EXIT_INPUT
    assert "positive, finite extent" in capsys.readouterr().err


def test_singular_system_is_numeric_error(mesh_dir, tmp_path, capsys):
    rc = main(["fit", "--mesh", mesh_dir["hex1.hexmesh"], "--basis", "tps",
               "--out", str(tmp_path / "m.arbf")])
    assert rc == EXIT_NUMERIC
    assert "lambda" in capsys.readouterr().err


def test_singular_system_recovers_with_lambda(mesh_dir, tmp_path):
    rc = main(["fit", "--mesh", mesh_dir["hex1.hexmesh"], "--basis", "tps",
               "--lambda", "1e-10", "--out", str(tmp_path / "m.arbf")])
    assert rc == EXIT_OK


NEAR_SINGULAR = ["--basis", "gaussian", "--c", "0.1", "--lambda", "1e-10"]  # cond about 2.4e12


@pytest.mark.parametrize("command", ["fit", "pipeline"])
def test_near_singular_fit_warns_once_on_stderr(mesh_dir, tmp_path, capsys, command):
    extra = ["--resolution", "12", "--iso", "0"] if command == "pipeline" else []
    rc = main([command, "--mesh", mesh_dir["rod4.hexmesh"], *NEAR_SINGULAR, *extra,
               "--out", str(tmp_path / "m")])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.count("warning: condition estimate") == 1
    assert f"exceeds {COND_WARN:.0e}" in captured.err
    assert "warning" not in captured.out
    assert captured.out.startswith("N=")
    cond = float(captured.out.split("cond=")[1].split()[0])
    assert cond > COND_WARN


def test_well_conditioned_fit_does_not_warn(mesh_dir, tmp_path, capsys):
    rc = main(["fit", "--mesh", mesh_dir["hex8.hexmesh"], "--out", str(tmp_path / "m.arbf")])
    assert rc == EXIT_OK
    assert capsys.readouterr().err == ""


def test_empty_iso_list_is_input_error(mesh_dir, tmp_path, capsys):
    rc = main(["pipeline", "--mesh", mesh_dir["tet1.node"], "--iso", ",",
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_INPUT


def test_bad_arguments_exit_2(capsys):
    assert main(["frobnicate"]) == EXIT_INPUT
    assert main(["fit"]) == EXIT_INPUT  # --mesh is required


def test_mode_aliases(mesh_dir, tmp_path):
    for mode in ("iso", "isotropic"):
        out = str(tmp_path / f"{mode}.arbf")
        rc = main(["fit", "--mesh", mesh_dir["tet1.node"], "--mode", mode,
                   "--out", out])
        assert rc == EXIT_OK
        assert ax.load_model(out).mode == "isotropic"


MODEL_HEADER = "ARBF1\nbasis imq 0.1\nlambda 0\n"


@pytest.mark.parametrize("body,line", [
    ("2\nP 0 0 0 1\n\n1.5\n2.5\n", 6),     # empty center line
    ("0\n", 4),                             # no centers
    ("-3\nP 0 0 0 1\n1.5\n", 4),           # negative center count
    ("1\nP 0 0 0 0.5\n1.5\n", 5),          # point value neither +1 nor -1
    ("1\nS 0 0 0 1 0 0 1\n1.5\n", 5),      # segment value other than -1
], ids=["empty-center-line", "zero-count", "negative-count", "point-value", "segment-value"])
def test_malformed_model_is_input_error(tmp_path, capsys, body, line):
    path = tmp_path / "bad.arbf"
    path.write_text(MODEL_HEADER + body)
    rc = main(["sample", "--model", str(path), "--resolution", "4"])
    assert rc == EXIT_INPUT
    assert f"bad.arbf:{line}:" in capsys.readouterr().err


def test_interleaved_model_lines_are_gathered(mesh_dir, tmp_path):
    # P and S lines in any order load as points first, then segments,
    # each with its own weight; sampling matches the file fit wrote
    ordered = str(tmp_path / "ordered.arbf")
    assert main(["fit", "--mesh", mesh_dir["tet1.node"], "--out", ordered]) == EXIT_OK
    lines = open(ordered, encoding="ascii").read().splitlines()
    n = int(lines[3])
    rows = list(zip(lines[4:4 + n], lines[4 + n:4 + 2 * n]))
    assert [r[0][0] for r in rows] == ["P"] * 10 + ["S"] * 4
    mixed = rows[10:11] + rows[:5] + rows[11:] + rows[5:10]
    shuffled = str(tmp_path / "shuffled.arbf")
    with open(shuffled, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines[:4] + [r[0] for r in mixed] + [r[1] for r in mixed]) + "\n")
    for stem in ("ordered", "shuffled"):
        assert main(["sample", "--model", str(tmp_path / f"{stem}.arbf"),
                     "--resolution", "12"]) == EXIT_OK
    assert read(str(tmp_path / "ordered.raw")) == read(str(tmp_path / "shuffled.raw"))
    a, b = ax.load_model(ordered), ax.load_model(shuffled)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.centers.seg_a, b.centers.seg_a)


@pytest.mark.parametrize("argv", [
    ["iso", "--volume", "unused", "--iso", ","],
    ["tpms", "--kind", "p", "--iso", ","],
    ["tpms", "--kind", "p", "--iso", "0,abc"],
])
def test_bad_iso_list_is_input_error(argv, capsys):
    assert main(argv) == EXIT_INPUT
    assert "--iso" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["fit", "--c", "inf"], "shape parameter must be finite"),
    (["fit", "--basis", "tps", "--c", "nan"], "shape parameter must be finite"),
    (["fit", "--lambda", "nan"], "lambda must be finite"),
    (["fit", "--lambda", "inf"], "lambda must be finite"),
    (["pipeline", "--iso", "0", "--pad", "inf"], "pad_fraction must be finite"),
    (["pipeline", "--iso", "0", "--pad", "nan"], "pad_fraction must be finite"),
    (["pipeline", "--iso=nan,inf"], "argument --iso: needs one or more finite values"),
], ids=["c-inf", "tps-c-nan", "lambda-nan", "lambda-inf", "pad-inf", "pad-nan", "iso-nan-inf"])
def test_non_finite_number_is_input_error(mesh_dir, tmp_path, capsys, argv, message):
    command, *flags = argv
    rc = main([command, "--mesh", mesh_dir["hex8.hexmesh"], *flags, "--out", str(tmp_path / "x")])
    assert rc == EXIT_INPUT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("resolution", [10**400, 10**6], ids=["1e400", "1e6"])
def test_unusable_resolution_is_input_error(tmp_path, capsys, resolution):
    out = str(tmp_path / "p")
    assert main(["tpms", "--kind", "p", "--resolution", str(resolution), "--iso", "0",
                 "--out", out]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: resolution must be in [2, 4096], got {resolution}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["gaussian", "mq", "imq"])
@pytest.mark.parametrize("c", ["1e-200", "1e200"])
def test_shape_parameter_with_no_float_square_is_input_error(mesh_dir, tmp_path, capsys, kind, c):
    out = str(tmp_path / "m.arbf")
    assert main(["fit", "--mesh", mesh_dir["hex8.hexmesh"], "--basis", kind, "--c", c,
                 "--out", out]) == EXIT_INPUT
    assert capsys.readouterr().err == ("error: shape parameter must have a square that is "
                                       f"positive and finite, got {float(c)!r}\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("periods", ["1,2", "1,x,1", "1,inf,1", "1,0,1"])
def test_bad_periods_is_an_argparse_error(periods, capsys):
    assert main(["tpms", "--kind", "p", "--periods", periods]) == EXIT_INPUT
    assert "argument --periods:" in capsys.readouterr().err


@pytest.mark.parametrize("isos,first,second", [
    ("0.1,0.1000001,0.1", "0.1", "0.1000001"),
    ("0.5,-0.5,0.5", "0.5", "0.5"),
])
def test_iso_values_sharing_a_file_name_exit_2(tmp_path, capsys, isos, first, second):
    out = tmp_path / "p"
    assert main(["tpms", "--kind", "p", "--resolution", "8", f"--iso={isos}",
                 "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"argument --iso: iso values {first} and {second} would both write" in err
    assert list(tmp_path.iterdir()) == []


# --- mutated input files -------------------------------------------------

# The file each run mutates, and the command that reads it from the run's directory.
_MUTATED_RUNS = {
    "tri1.off": ["fit", "--mesh", "tri1.off"],
    "tet1.node": ["fit", "--mesh", "tet1"],
    "tet1.ele": ["fit", "--mesh", "tet1.ele"],
    "hex1.hexmesh": ["fit", "--mesh", "hex1.hexmesh"],
    "m.arbf": ["sample", "--model", "m.arbf", "--resolution", "6"],
    "v.vhdr": ["iso", "--volume", "v.vhdr", "--iso=-0.5,0,0.5"],
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """{name: bytes} of three sample meshes, a model fitted to one, and its sampled volume."""
    d = tmp_path_factory.mktemp("inputs")
    samples.write_sample_meshes(str(d))
    assert main(["fit", "--mesh", str(d / "tet1.node"), "--out", str(d / "m.arbf")]) == EXIT_OK
    assert main(["sample", "--model", str(d / "m.arbf"), "--resolution", "6",
                 "--out", str(d / "v")]) == EXIT_OK
    return {p.name: p.read_bytes() for p in d.iterdir()}


_BYTES = st.one_of(st.sampled_from(b"0123456789.-+eE \n#"), st.integers(0, 255))


@settings(max_examples=50)
@given(data=st.data())
def test_mutated_input_file_is_read_or_refused(input_files, data):
    # exit 3 is a fit whose mutated mesh makes the system singular
    name = data.draw(st.sampled_from(sorted(_MUTATED_RUNS)), label="file")
    body = bytearray(input_files[name])
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        at = data.draw(st.integers(0, len(body)), label="at")
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="op")
        if op == "delete":
            del body[at:at + data.draw(st.integers(1, 8), label="length")]
        else:
            body[at:at + (op == "replace")] = bytes([data.draw(_BYTES, label="byte")])
    with tempfile.TemporaryDirectory() as d:
        for other, content in input_files.items():
            with open(os.path.join(d, other), "wb") as fh:
                fh.write(bytes(body) if other == name else content)
        command, flag, path, *rest = _MUTATED_RUNS[name]
        assert main([command, flag, os.path.join(d, path), *rest]) in (
            EXIT_OK, EXIT_INPUT, EXIT_NUMERIC)
