"""The gallery's bytes against a checked-in manifest: the "same bytes" check in tier-1.

``scripts/run_gallery.py --resolution 16 --manifest`` is run in a fresh
interpreter and its sha256 lines are compared with ``gallery/res16.sha256``;
a failure names every file that changed, appeared or went missing.  The
``.arbf`` weights come from LAPACK, whose kernels differ between CPUs and
builds, so the bytes are compared only where the environment recorded in
``gallery/res16.json`` (numpy, scipy, their BLAS builds, the CPU model) is
the running one.  Elsewhere the test compares the facts no kernel changes,
each OBJ's triangle count and each volume's DIMS line, and says so in a
warning.

A change that alters the gallery's bytes on purpose re-records both files
with ``PYTHONPATH=src python tests/test_gallery_manifest.py``; the manifest's
diff is then the list of files it changed.
"""

import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

import arbfscaffold

RESOLUTION = 16
RECORD = Path(__file__).parent / "gallery"
ROOT = Path(__file__).resolve().parent.parent


def run_gallery(out: Path) -> dict:
    """Run the gallery into ``out``; returns its manifest as {relpath: sha256}."""
    manifest = out / "manifest.sha256"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arbfscaffold.__file__)))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_gallery.py"), "--out",
                          str(out / "gallery"), "--resolution", str(RESOLUTION), "--manifest",
                          str(manifest)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, f"run_gallery.py failed:\n{run.stderr}"
    return read_manifest(manifest)


def read_manifest(path: Path) -> dict:
    return {rel: digest for digest, rel in
            (line.split("  ", 1) for line in path.read_text("ascii").splitlines())}


def _blas(config) -> str:
    blas = config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def environment() -> dict:
    """What decides the gallery's bytes besides the code."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": _blas(np.show_config), "scipy_blas": _blas(scipy.show_config),
            "machine": platform.machine(), "cpu": cpu}


def facts(gallery: Path, manifest: dict) -> dict:
    """Each OBJ's triangle count and each volume's DIMS line, by relpath."""
    out = {}
    for rel in manifest:
        lines = (gallery / rel).read_bytes().splitlines()
        if rel.endswith(".obj"):
            out[rel] = f"{sum(line.startswith(b'f ') for line in lines)} triangles"
        elif rel.endswith(".vhdr"):
            out[rel] = next(line.decode() for line in lines if line.startswith(b"DIMS"))
    return out


def differences(expected: dict, got: dict) -> list[str]:
    return [f"{'missing' if rel not in got else 'extra' if rel not in expected else 'changed'}: "
            f"{rel}" for rel in sorted(expected.keys() | got.keys())
            if expected.get(rel) != got.get(rel)]


def test_gallery_matches_its_manifest(tmp_path):
    got = run_gallery(tmp_path)
    recorded = json.loads((RECORD / f"res{RESOLUTION}.json").read_text("ascii"))
    if recorded["environment"] == environment():
        diff = differences(read_manifest(RECORD / f"res{RESOLUTION}.sha256"), got)
        assert not diff, (f"{len(diff)} gallery files differ from "
                          f"gallery/res{RESOLUTION}.sha256:\n" + "\n".join(diff))
    else:
        warnings.warn(f"the environment differs from gallery/res{RESOLUTION}.json, so only "
                      "triangle counts and volume dims are compared, not bytes")
        diff = differences(recorded["facts"], facts(tmp_path / "gallery", got))
        assert not diff, (f"{len(diff)} gallery files differ in triangle count or dims:\n"
                          + "\n".join(diff))


def record(scratch: Path) -> None:
    """Re-record the manifest and its environment from a gallery run in ``scratch``."""
    got = run_gallery(scratch)
    (RECORD / f"res{RESOLUTION}.sha256").write_text(
        (scratch / "manifest.sha256").read_text("ascii"), "ascii")
    doc = {"resolution": RESOLUTION, "environment": environment(),
           "facts": facts(scratch / "gallery", got)}
    (RECORD / f"res{RESOLUTION}.json").write_text(json.dumps(doc, indent=1) + "\n", "ascii")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        record(Path(scratch))
