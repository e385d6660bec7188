"""Uniform Cartesian sample of a tensor- or vector-valued field over a box.

The leading three axes of `values` index cells (cell-centered samples); any
trailing axes are the per-cell component shape, e.g. () for a scalar field,
(3,) for a velocity, (5, 5) for a strain-to-stress coefficient field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridField"]


@dataclass(frozen=True, eq=False)
class GridField:
    box: np.ndarray      # (2, 3) lower/upper corners
    n: int               # cells per axis, at least 1
    values: np.ndarray   # (n, n, n) + component shape

    def __post_init__(self):
        box = np.ascontiguousarray(self.box, dtype=float)
        if box.shape != (2, 3) or not np.all(box[1] > box[0]):
            raise ValueError("box must be [[lo],[hi]] with hi > lo per axis")
        n = int(self.n)
        if n < 1:
            raise ValueError(f"grid resolution must be at least 1, got {n}")
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape[:3] != (n, n, n):
            raise ValueError(f"values must start with shape ({n},{n},{n})")
        if not np.isfinite(values).all():
            raise ValueError("non-finite field values")
        box.setflags(write=False)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, box, n, component_shape=()):
        # at least one cell, so that __post_init__ refuses n < 1, not np.zeros
        return cls(box=np.asarray(box, float), n=n,
                   values=np.zeros((max(int(n), 1),) * 3 + tuple(component_shape)))

    @property
    def cell_size(self):
        return (self.box[1] - self.box[0]) / self.n

    @property
    def cell_volume(self):
        return float(np.prod(self.cell_size))

    def axes(self):
        """Cell-center coordinates along each axis."""
        h = self.cell_size
        return tuple(self.box[0][k] + (np.arange(self.n) + 0.5) * h[k]
                     for k in range(3))

    def cell_centers(self):
        """All cell centers, shape (n, n, n, 3)."""
        ax, ay, az = self.axes()
        gx, gy, gz = np.meshgrid(ax, ay, az, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)

    def same_grid(self, other):
        return self.n == other.n and np.array_equal(self.box, other.box)
