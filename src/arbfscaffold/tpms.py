"""Triply periodic minimal surface fields (P, D, G, IWP baselines).

With X = px * x (and likewise Y, Z), the level-set functions are

    p:   cos X + cos Y + cos Z
    d:   sin X sin Y sin Z + sin X cos Y cos Z
         + cos X sin Y cos Z + cos X cos Y sin Z
    g:   sin X cos Y + sin Y cos Z + sin Z cos X
    iwp: 2 (cos X cos Y + cos Y cos Z + cos Z cos X)
         - (cos 2X + cos 2Y + cos 2Z)

Each field is 2*pi / p_axis periodic along its axis; the natural sampling
domain at unit periods is [0, 2*pi]^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, real
from .grid import FieldSource

TPMS_KINDS = ("p", "d", "g", "iwp")
DEFAULT_DOMAIN = (0.0, 2.0 * np.pi)


@dataclass(frozen=True)
class TpmsField(FieldSource):
    """A TPMS kind plus per-axis angular frequency multipliers."""

    kind: str
    periods: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.kind not in TPMS_KINDS:
            raise ValidationError(f"unknown TPMS kind {self.kind!r}, expected one of {TPMS_KINDS}")
        if not isinstance(self.periods, (tuple, list, np.ndarray)) or len(self.periods) != 3:
            raise ValidationError(f"periods must be 3 values, got {self.periods!r}")
        object.__setattr__(self, "periods",
                           tuple(real(p, "periods", 0.0, above=True) for p in self.periods))

    def evaluate_axes(self, x, y, z) -> np.ndarray:
        """Field values over broadcastable coordinate arrays.

        sin and cos run on each operand's own shape, so a grid row chunk
        (xs[None, :], ys[:, None], zs[:, None]) needs them once per axis
        value; the products and sums then broadcast to the voxels.
        """
        x, y, z = (np.asarray(v, dtype=np.float64) * f for v, f in zip((x, y, z), self.periods))
        if self.kind == "p":
            return np.cos(x) + np.cos(y) + np.cos(z)
        cx, cy, cz = np.cos(x), np.cos(y), np.cos(z)
        if self.kind == "iwp":
            return 2.0 * (cx * cy + cy * cz + cz * cx) - (
                np.cos(2 * x) + np.cos(2 * y) + np.cos(2 * z))
        sx, sy, sz = np.sin(x), np.sin(y), np.sin(z)
        if self.kind == "d":
            return sx * sy * sz + sx * cy * cz + cx * sy * cz + cx * cy * sz
        return sx * cy + sy * cz + sz * cx  # g
