"""The shared text-file rules, checked across all six file formats.

Meshes (.off, .node/.ele, .hexmesh), surfaces (.obj), models (.arbf) and
volume headers (.vhdr) are ASCII, numbers in them must be finite, header
counts are checked against the lines the file holds, and every malformed
file fails with a ScaffoldError; a ParseError names path:line.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arbfscaffold as ax
from arbfscaffold import samples, textio
from arbfscaffold.errors import ParseError, ScaffoldError

BIG = "99999999999999999999"  # beyond int64: numpy cannot even size an array by it
_TET_NODES = "4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n"
_TET_ELE = "1 4 0\n1 1 2 3 4\n"
_HEX_VERTS = "".join(f"{x} {y} {z}\n" for z in (0, 1) for y in (0, 1) for x in (0, 1))
_HEX_CELL = "0 1 3 2 4 5 7 6\n"
_MODEL = "ARBF1\nbasis imq 0.1\nlambda 0\n1\nP 0 0 0 1\n1.5\n"
_VHDR = "DIMS 2 2 2\nORIGIN 0.0 0.0 0.0\nSPACING 1.0 1.0 1.0\nDTYPE float32le\n"


def _load(path):
    """The library loader for ``path``, chosen by its extension."""
    if path.endswith(".obj"):
        return ax.load_obj(path)
    if path.endswith(".arbf"):
        return ax.load_model(path)
    if path.endswith(".vhdr"):
        return ax.read_volume(path)
    return ax.load_mesh(path)


def _write(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("latin-1"))
    if any(name.endswith(".vhdr") for name in files):
        np.zeros(8, dtype="<f4").tofile(tmp_path / "v.raw")


@pytest.mark.parametrize("files,load,where", [
    ({"a.off": "OFF\n3 1 0\n0 0 0\n1 0 0 # caf\xe9\n0 1 0\n3 0 1 2\n"}, "a.off", "a.off:4"),
    ({"a.node": _TET_NODES.replace("2 1 0 0", "2 1 0 \xe9"), "a.ele": _TET_ELE},
     "a.node", "a.node:3"),
    ({"a.node": _TET_NODES, "a.ele": "# \xe9\n" + _TET_ELE}, "a.node", "a.ele:1"),
    ({"a.hexmesh": "HEX 8 1\n" + _HEX_VERTS + "\xe9" + _HEX_CELL}, "a.hexmesh", "a.hexmesh:10"),
    ({"a.obj": "# \xe9\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"}, "a.obj", "a.obj:1"),
    ({"a.arbf": _MODEL.replace("1.5", "1.\xe95")}, "a.arbf", "a.arbf:6"),
    ({"v.vhdr": _VHDR + "# caf\xe9\n"}, "v.vhdr", "v.vhdr:5"),
], ids=["off", "node", "ele", "hexmesh", "obj", "arbf", "vhdr"])
def test_non_ascii_byte_fails_at_its_line(tmp_path, files, load, where):
    _write(tmp_path, files)
    with pytest.raises(ParseError, match="non-ASCII byte 0xe9") as err:
        _load(str(tmp_path / load))
    assert f"{where}: " in str(err.value)


@pytest.mark.parametrize("files,load,message", [
    ({"a.off": f"OFF\n{BIG} 1 0\n"}, "a.off", f"a.off: expected {BIG} vertices, file ended at 0"),
    ({"a.off": f"OFF\n3 {BIG} 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"}, "a.off",
     f"a.off: expected {BIG} faces, file ended at 1"),
    ({"a.node": f"{BIG} 3 0 0\n1 0 0 0\n", "a.ele": _TET_ELE}, "a.node",
     f"a.node: expected {BIG} nodes, file ended at 1"),
    ({"a.node": _TET_NODES, "a.ele": f"{BIG} 4 0\n1 1 2 3 4\n"}, "a.node",
     f"a.ele: expected {BIG} cells, file ended at 1"),
    ({"a.hexmesh": f"HEX {BIG} 1\n" + _HEX_VERTS}, "a.hexmesh",
     f"a.hexmesh: expected {BIG} vertices, file ended at 8"),
    ({"a.hexmesh": f"HEX 8 {BIG}\n" + _HEX_VERTS + _HEX_CELL}, "a.hexmesh",
     f"a.hexmesh: expected {BIG} cells, file ended at 1"),
], ids=["off-vertices", "off-faces", "node", "ele", "hex-vertices", "hex-cells"])
def test_count_beyond_the_file_is_never_allocated(tmp_path, files, load, message):
    _write(tmp_path, files)
    with pytest.raises(ParseError) as err:
        _load(str(tmp_path / load))
    assert str(err.value) == str(tmp_path / message)


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("files,load,where", [
    ({"a.off": "OFF\n3 1 0\n0 0 0\n1 0 @\n0 1 0\n3 0 1 2\n"}, "a.off", "a.off:4"),
    ({"a.node": _TET_NODES.replace("3 0 1 0", "3 0 @ 0"), "a.ele": _TET_ELE},
     "a.node", "a.node:4"),
    ({"a.hexmesh": "HEX 8 1\n" + _HEX_VERTS.replace("1 1 1", "1 @ 1") + _HEX_CELL},
     "a.hexmesh", "a.hexmesh:9"),
    ({"a.obj": "v 0 0 0\nv @ 0 0\nv 0 1 0\nf 1 2 3\n"}, "a.obj", "a.obj:2"),
], ids=["off", "node", "hexmesh", "obj"])
def test_non_finite_number_fails_at_its_line(tmp_path, files, load, where, value):
    _write(tmp_path, {name: text.replace("@", value) for name, text in files.items()})
    with pytest.raises(ParseError, match="non-finite number") as err:
        _load(str(tmp_path / load))
    assert f"{where}: " in str(err.value)


def test_repeated_vhdr_key_fails_at_its_line(tmp_path):
    _write(tmp_path, {"v.vhdr": _VHDR + "DIMS 3 3 3\n"})
    with pytest.raises(ParseError, match="v.vhdr:5: DIMS repeats line 1"):
        ax.read_volume(str(tmp_path / "v"))


def test_write_rows_formats_like_each_number_alone(tmp_path):
    bits = np.random.default_rng(7).integers(0, 2 ** 64, 3000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = np.concatenate([x[np.isfinite(x)], [0.0, -0.0, 5e-324, -2.2e-308,
                                            np.finfo(np.float64).max, 1.0, -1.5]])
    x = x[: len(x) // 3 * 3].reshape(-1, 3)
    ints = np.arange(-7, len(x) - 7).reshape(-1, 1) * 1234567
    path = str(tmp_path / "sub" / "rows.txt")
    with textio.create(path, "w") as fh:
        textio.write_rows(fh, "%r %.17g %r\n", x)
        textio.write_rows(fh, "%d\n", ints)
    expected = "".join(f"{repr(float(a))} {float(b):.17g} {repr(float(c))}\n" for a, b, c in x)
    expected += "".join(f"{int(i)}\n" for i in ints[:, 0])
    with open(path, encoding="ascii") as fh:
        assert fh.read() == expected


# --- parser fuzz ---------------------------------------------------------

# Each format's files, the file its loader is given, and the files a ParseError may name.
_FORMATS = {
    "off": ["m.off"],
    "nodeele": ["m.node", "m.ele"],
    "hexmesh": ["m.hexmesh"],
    "obj": ["m.obj"],
    "arbf": ["m.arbf"],
    "vhdr": ["m.vhdr", "m.raw"],
}
_REPLACEMENTS = [b"nan", b"inf", b"1e400", b"2.5", b"-1", b"", b"\xe9", BIG.encode()]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory holding one valid file set per format, and the bytes of each file."""
    d = tmp_path_factory.mktemp("fuzz")
    ax.save_mesh(samples.triangle_mesh(), str(d / "m.off"))
    ax.save_mesh(samples.unit_tet_mesh(), str(d / "m.node"))
    ax.save_mesh(samples.unit_hex_mesh(), str(d / "m.hexmesh"))
    tet = samples.unit_tet_mesh()
    ax.export_obj(ax.TriangleSoup(tet.vertices, np.array([[0, 2, 1], [0, 1, 3],
                                                         [0, 3, 2], [1, 2, 3]])),
                  str(d / "m.obj"))
    ax.save_model(ax.fit_mesh(tet, ax.Basis("imq", 0.1), "anisotropic")[0], str(d / "m.arbf"))
    grid = ax.make_grid(np.zeros(3), np.ones(3), 3)
    grid.values[:] = np.arange(grid.values.size, dtype=np.float32)
    ax.write_volume(grid, str(d / "m"))
    return d, {p.name: p.read_bytes() for p in d.iterdir()}


@given(data=st.data())
def test_mutated_files_load_or_raise_scaffold_error(valid_files, data):
    d, original = valid_files
    fmt = data.draw(st.sampled_from(sorted(_FORMATS)))
    names = _FORMATS[fmt]
    name = data.draw(st.sampled_from([n for n in names if not n.endswith(".raw")]))
    text = original[name]
    lines = text.splitlines(keepends=True)
    op = data.draw(st.sampled_from(["truncate", "drop", "repeat", "replace"]))
    if op == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split()
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(
                st.sampled_from(_REPLACEMENTS))
            lines[i] = b" ".join(tokens) + b"\n"
        text = b"".join(lines)
    (d / name).write_bytes(text)
    try:
        _load(str(d / names[0]))
    except ParseError as exc:
        assert exc.path in [str(d / n) for n in names]
        assert str(exc).startswith(f"{exc.path}:")
    except ScaffoldError:
        pass
    finally:
        (d / name).write_bytes(original[name])
