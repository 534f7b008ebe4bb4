"""Hyperbolic space H^3_{-k^2}: its polar chart of areal radius, the
Poincare ball and the hyperboloid model.

The hyperboloid (upper sheet of <X, X> = -1/k^2 in R^{3,1}) carries the
positions that enter the mass integrals, as rows of factors; surfaces live
in the polar chart (areal radius R, unit direction u), and the explicit
Killing spinor formulas are written in the Poincare ball.  Every map takes
arrays of points.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "radial_bounds",
    "areal_to_minkowski",
    "ball_to_minkowski",
]


def areal_to_minkowski(R, theta, phi, k: float) -> tuple:
    """The hyperboloid points X = (R u, sqrt(1/k^2 + R^2)) of areal radius
    R in the directions u = (sin theta cos phi, sin theta sin phi, cos
    theta), as four rows of factors: ((st, cp, R), (st, sp, R), (R, ct),
    (sqrt(1/k^2 + R^2),)).  Row c of X is the product of its factors in
    that order; each factor keeps the shape it is computed at, so the
    directions are expanded only where a row is multiplied out.  cp and sp
    are the only factors on the phi axis alone that this or any other
    producer of node fields makes: the mass integrals sum a row of one such
    factor times theta-axis factors as 0, the integral of cos phi and
    sin phi by the trapezoid rule in phi."""
    st, cp, sp = np.sin(theta), np.cos(phi), np.sin(phi)
    return ((st, cp, R), (st, sp, R), (R, np.cos(theta)),
            (np.sqrt(1.0 / (k * k) + R * R),))


def ball_to_minkowski(x: np.ndarray) -> np.ndarray:
    """Vectorized ball -> hyperboloid map at k = 1; x has shape (..., 3).

    X = (f(x) x, (1 + |x|^2) / (1 - |x|^2)), which satisfies <X, X> = -1
    on the upper sheet.
    """
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 >= 1.0):
        raise DomainError("ball point must satisfy |x| < 1")
    f = 2.0 / (1.0 - r2)
    spatial = f[..., None] * x
    t = (1.0 + r2) / (1.0 - r2)
    return np.concatenate([spatial, t[..., None]], axis=-1)


def radial_bounds(R: np.ndarray, k: float = 1.0) -> tuple[float, float]:
    """(R1, R2): least and greatest geodesic distance asinh(k R)/k from the
    chart origin of H^3 points at areal radii R, a surface's nodes.

    For a surface star-shaped about the origin and a fine grid, the node
    extremes approximate its true radii.
    """
    R = np.asarray(R, dtype=float)
    return (math.asinh(k * float(np.min(R))) / k,
            math.asinh(k * float(np.max(R))) / k)
