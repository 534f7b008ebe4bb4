"""Models of hyperbolic space H^3_{-k^2} and conversions between them.

The hyperboloid model (upper sheet of <X, X> = -1/k^2 in R^{3,1}) is the
canonical internal representation; the Poincare ball model exists because the
explicit Killing spinor formulas are written in ball coordinates.  Every
point carries its curvature scale k and mixing scales is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantError, MissingEmbedding
from .lorentz import LorentzVector, minkowski_inner

__all__ = [
    "BallPoint",
    "HyperboloidPoint",
    "conformal_factor",
    "ball_to_hyperboloid",
    "hyperboloid_to_ball",
    "geodesic_distance",
    "radial_bounds",
    "ball_to_minkowski",
    "origin",
]

_SHEET_RTOL = 1e-12


@dataclass
class BallPoint:
    """Point of the Poincare ball model, |x| < 1, curvature scale k > 0."""

    x: np.ndarray
    k: float = 1.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(3)
        if self.k <= 0:
            raise DomainError("curvature scale k must be positive")
        if not np.all(np.isfinite(self.x)):
            raise DomainError("non-finite ball coordinates")
        if float(self.x @ self.x) >= 1.0:
            raise DomainError("ball point must satisfy |x| < 1")


@dataclass
class HyperboloidPoint:
    """Point of the upper hyperboloid sheet in R^{3,1}."""

    X: LorentzVector
    k: float = 1.0

    def __post_init__(self):
        if self.k <= 0:
            raise DomainError("curvature scale k must be positive")
        q = (self.X.x1 ** 2 + self.X.x2 ** 2 + self.X.x3 ** 2
             - self.X.t ** 2)
        target = -1.0 / self.k ** 2
        if abs(q - target) > _SHEET_RTOL * abs(target) * 10:
            raise InvariantError(
                f"point off the hyperboloid sheet: <X,X> = {q}, want {target}")
        if self.X.t <= 0:
            raise InvariantError("hyperboloid point must lie on the upper sheet")


def origin(k: float = 1.0) -> HyperboloidPoint:
    """The center o = (0, 0, 0, 1/k)."""
    return HyperboloidPoint(LorentzVector(0.0, 0.0, 0.0, 1.0 / k), k)


def conformal_factor(p: BallPoint) -> float:
    """f(x) = 2 / (1 - |x|^2), the ball-model conformal factor."""
    return _conformal_from_sq(float(p.x @ p.x))


def _conformal_from_sq(r2):
    r2 = np.asarray(r2, dtype=float)
    if np.any(r2 >= 1.0):
        raise DomainError("ball point must satisfy |x| < 1")
    out = 2.0 / (1.0 - r2)
    return float(out) if out.ndim == 0 else out


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


def ball_to_hyperboloid(p: BallPoint) -> HyperboloidPoint:
    X = ball_to_minkowski(p.x, p.k)
    return HyperboloidPoint(LorentzVector.from_array(X), p.k)


def hyperboloid_to_ball(P: HyperboloidPoint) -> BallPoint:
    """Exact inverse of :func:`ball_to_hyperboloid`."""
    k = P.k
    x = k * P.X.spatial / (1.0 + k * P.X.t)
    return BallPoint(x, k)


def geodesic_distance(P: HyperboloidPoint, Q: HyperboloidPoint) -> float:
    """d(P, Q) = arcosh(-k^2 <X, Y>) / k; the argument is clamped to >= 1."""
    if P.k != Q.k:
        raise InvariantError("mixed curvature scales in geodesic_distance")
    k = P.k
    c = -k * k * minkowski_inner(P.X, Q.X)
    return float(np.arccosh(max(1.0, c))) / k


def _distance_many(X: np.ndarray, Y4: np.ndarray, k: float) -> np.ndarray:
    # X: (..., 4) hyperboloid components, Y4: (4,)
    inner = X[..., 0] * Y4[0] + X[..., 1] * Y4[1] + X[..., 2] * Y4[2] \
        - X[..., 3] * Y4[3]
    c = np.maximum(1.0, -k * k * inner)
    return np.arccosh(c) / k


def radial_bounds(surface, center: HyperboloidPoint) -> tuple[float, float]:
    """(R1, R2): min/max geodesic distance from ``center`` over the nodes.

    Uses quadrature nodes only; the surface is assumed star-shaped about the
    center, so for fine grids the node extremes approximate the true radii.
    """
    if surface.F0 is None:
        raise MissingEmbedding("surface carries no hyperbolic embedding")
    if surface.k != center.k:
        raise InvariantError("mixed curvature scales in radial_bounds")
    ball = surface.F0(*surface.grid.node_axes())
    X = ball_to_minkowski(ball, surface.k)
    d = _distance_many(X, center.X.as_array(), surface.k)
    return float(np.min(d)), float(np.max(d))
