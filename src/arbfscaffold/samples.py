"""Small reference meshes used by the tests and the experiment scripts."""

from __future__ import annotations

import os

import numpy as np

from ._mc_tables import CORNER_OFFSETS
from .mesh import VolumetricMesh, save_mesh


def triangle_mesh() -> VolumetricMesh:
    """One planar triangle: (0,0), (1,0), (0,1)."""
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    return VolumetricMesh("tri2d", verts, [(0, 1, 2)])


def unit_tet_mesh() -> VolumetricMesh:
    """One tetrahedron on the unit axes."""
    verts = [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    ]
    return VolumetricMesh("tet", verts, [(0, 1, 2, 3)])


def regular_tet_mesh(scale: float = 0.5) -> VolumetricMesh:
    """One regular tetrahedron (alternating cube corners), edge 2*sqrt(2)*scale.

    All four face-to-centroid segments are congruent here, which makes the
    pore channels symmetric; the axis-aligned corner tet has a shorter
    fourth channel that behaves differently (see the tests).
    """
    verts = np.array(
        [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]
    ) * scale
    return VolumetricMesh("tet", verts, [(0, 1, 2, 3)])


def _hex_brick(xs, ys, zs) -> VolumetricMesh:
    """Hexahedra between consecutive axis coordinates; vertices and cells x fastest, then y."""
    nx, ny, nz = len(xs), len(ys), len(zs)
    z, y, x = np.meshgrid(zs, ys, xs, indexing="ij")
    vid = np.arange(nx * ny * nz).reshape(nz, ny, nx)
    cells = [vid[k:nz - 1 + k, j:ny - 1 + j, i:nx - 1 + i].ravel() for i, j, k in CORNER_OFFSETS]
    return VolumetricMesh("hex", np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1),
                          np.stack(cells, axis=1))


def hex_block_mesh(nx: int = 2, ny: int = 2, nz: int = 2,
                   size: float = 1.0) -> VolumetricMesh:
    """An nx x ny x nz brick of hexahedra filling a size^3-scaled box."""
    return _hex_brick(*(np.linspace(0.0, size, n + 1) for n in (nx, ny, nz)))


def unit_hex_mesh() -> VolumetricMesh:
    """One unit cube."""
    return hex_block_mesh(1, 1, 1)


def hex_rod_mesh(n: int = 4) -> VolumetricMesh:
    """n unit cubes in a row along x."""
    return _hex_brick(np.arange(n + 1, dtype=np.float64), [0.0, 1.0], [0.0, 1.0])


# The 20 faces over the 12 shell vertices, in the order of qhull's hull, with
# corners ordered so that every tet (centroid, *face) has positive signed volume.
_ICOSA_FACES = ((6, 9, 0), (2, 5, 8), (2, 8, 0), (2, 0, 9), (10, 8, 5), (10, 3, 1), (10, 5, 3),
                (11, 1, 3), (11, 6, 1), (11, 9, 6), (4, 0, 8), (4, 6, 0), (4, 1, 6), (4, 10, 1),
                (4, 8, 10), (7, 2, 9), (7, 3, 5), (7, 5, 2), (7, 11, 3), (7, 9, 11))


def icosahedron_tet_mesh(radius: float = 1.0) -> VolumetricMesh:
    """An icosahedron split into 20 tetrahedra sharing the centroid."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    raw = [
        (0.0, 1.0, phi), (0.0, 1.0, -phi), (0.0, -1.0, phi), (0.0, -1.0, -phi),
        (1.0, phi, 0.0), (1.0, -phi, 0.0), (-1.0, phi, 0.0), (-1.0, -phi, 0.0),
        (phi, 0.0, 1.0), (-phi, 0.0, 1.0), (phi, 0.0, -1.0), (-phi, 0.0, -1.0),
    ]
    shell = np.asarray(raw, dtype=np.float64)
    shell *= radius / np.linalg.norm(shell[0])
    verts = np.vstack([shell, np.zeros((1, 3))])
    center = len(shell)
    return VolumetricMesh("tet", verts, [(center, *face) for face in _ICOSA_FACES])


SAMPLE_BUILDERS = {
    "tri1.off": triangle_mesh,
    "tet1.node": unit_tet_mesh,
    "hex1.hexmesh": unit_hex_mesh,
    "hex8.hexmesh": hex_block_mesh,
    "rod4.hexmesh": hex_rod_mesh,
    "icosa20.node": icosahedron_tet_mesh,
}


def write_sample_meshes(outdir: str) -> dict[str, str]:
    """Write every sample mesh into ``outdir``; returns {name: path}."""
    os.makedirs(outdir, exist_ok=True)
    written = {}
    for name, builder in SAMPLE_BUILDERS.items():
        path = os.path.join(outdir, name)
        save_mesh(builder(), path)
        written[name] = path
    return written
