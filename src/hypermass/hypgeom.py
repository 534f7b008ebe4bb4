"""Hyperbolic space H^3_{-k^2}: the Poincare ball chart and its map to the
hyperboloid model.

The hyperboloid (upper sheet of <X, X> = -1/k^2 in R^{3,1}) carries the
positions that enter the mass integrals; the Poincare ball is the chart the
surfaces and the explicit Killing spinor formulas are written in.  Both
maps take arrays of points.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "radial_bounds",
    "ball_to_minkowski",
]


def ball_to_minkowski(x: np.ndarray, k: float = 1.0) -> np.ndarray:
    """Vectorized ball -> hyperboloid map; x has shape (..., 3).

    X = (f(x) x, (1 + |x|^2) / (1 - |x|^2)) / k, which satisfies
    <X, X> = -1/k^2 on the upper sheet.
    """
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 >= 1.0):
        raise DomainError("ball point must satisfy |x| < 1")
    f = 2.0 / (1.0 - r2)
    spatial = f[..., None] * x
    t = (1.0 + r2) / (1.0 - r2)
    return np.concatenate([spatial, t[..., None]], axis=-1) / k


def radial_bounds(points: np.ndarray, k: float = 1.0) -> tuple[float, float]:
    """(R1, R2): least and greatest geodesic distance of Poincare-ball
    points (..., 3), a surface's nodes, from the chart origin.

    The distance of X from o = (0, 0, 0, 1/k) is arccosh(k X_t) / k, the
    argument clamped to >= 1.  For a surface star-shaped about the origin
    and a fine grid, the node extremes approximate its true radii.
    """
    X = ball_to_minkowski(points, k)
    d = np.arccosh(np.maximum(1.0, k * X[..., 3])) / k
    return float(np.min(d)), float(np.max(d))
