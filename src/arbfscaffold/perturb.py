"""Seeded random vertex perturbation, the mesh-noise baseline.

A uniformly chosen subset of ceil(vertex_fraction * nv) vertices is
displaced by magnitude x (shortest incident edge length) along a random
unit direction (confined to the plane for tri2d meshes).  Subset choice
and directions come from independently seeded SplitMix64 streams, so a
(mesh, spec) pair maps to exactly one output on every platform.
Connectivity is untouched; if a displaced cell collapses below the
degeneracy threshold the whole operation fails with a ValidationError that
names the seed and magnitude and chains the mesh's own refusal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer, real
from .mesh import _EDGES, VolumetricMesh
from .rng import GaussianStream, SplitMix64

MAX_MAGNITUDE = 0.3


@dataclass(frozen=True)
class PerturbSpec:
    """Displacement magnitude (fraction of local edge length), seed, and subset size."""

    magnitude: float = 0.15
    seed: int = 0
    vertex_fraction: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "magnitude", real(self.magnitude, "magnitude", 0.0, MAX_MAGNITUDE))
        object.__setattr__(self, "vertex_fraction",
                           real(self.vertex_fraction, "vertex_fraction", 0.0, 1.0))
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must fit in 64 bits, got {self.seed}")


def shortest_incident_edge(mesh: VolumetricMesh) -> np.ndarray:
    """Per-vertex minimum length over all cell edges touching the vertex."""
    ends = mesh.cells[:, np.asarray(_EDGES[mesh.kind])].reshape(-1, 2)
    d = mesh.vertices[ends[:, 0]] - mesh.vertices[ends[:, 1]]
    # One dot per edge, the product np.linalg.norm takes of a single vector
    # (np.vecdot would do, but needs NumPy 2).
    length = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    shortest = np.full(len(mesh.vertices), np.inf)
    np.minimum.at(shortest, ends[:, 0], length)
    np.minimum.at(shortest, ends[:, 1], length)
    return shortest


def perturb_mesh(mesh: VolumetricMesh, spec: PerturbSpec) -> VolumetricMesh:
    nv = len(mesh.vertices)
    count = math.ceil(spec.vertex_fraction * nv)

    # Two independent sub-streams: one picks the subset, one draws directions.
    seeder = SplitMix64(spec.seed)
    subset_rng = SplitMix64(seeder.next_u64())
    dir_rng = GaussianStream(seeder.next_u64())

    # Partial Fisher-Yates: the first `count` slots are a uniform subset.
    order = list(range(nv))
    for i in range(count):
        j = i + subset_rng.next_below(nv - i)
        order[i], order[j] = order[j], order[i]
    chosen = np.sort(np.asarray(order[:count], dtype=np.int64))

    dim = 2 if mesh.kind == "tri2d" else 3
    directions = np.array([dir_rng.unit_vector(dim) for _ in chosen]).reshape(-1, 3)
    vertices = mesh.vertices.copy()
    vertices[chosen] += spec.magnitude * shortest_incident_edge(mesh)[chosen, None] * directions

    try:
        return VolumetricMesh(kind=mesh.kind, vertices=vertices, cells=mesh.cells.copy())
    except ValidationError as exc:
        raise ValidationError(
            f"perturbation collapsed a cell (seed {spec.seed}, "
            f"magnitude {spec.magnitude}): {exc}"
        ) from exc
