"""Vectors in Minkowski space R^{3,1} and their causal classification.

The signature convention is (+, +, +, -) with the time slot last, so the
upper hyperboloid sheet satisfies <X, X> = -1/k^2 with t > 0, and a nonzero
vector v is timelike future directed exactly when <v, zeta> < 0 for every
future null zeta with unit spatial part and time component 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "CausalClass",
    "LorentzVector",
    "minkowski_inner",
    "classify",
    "sample_null_cone",
]

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
CAUSAL_TOL = 1e-12   # the default tolerance of classify


class CausalClass(Enum):
    ZERO_VECTOR = "ZeroVector"
    TIMELIKE_FUTURE = "TimelikeFuture"
    TIMELIKE_PAST = "TimelikePast"
    NULL_FUTURE = "NullFuture"
    NULL_PAST = "NullPast"
    SPACELIKE = "Spacelike"


@dataclass(frozen=True)
class LorentzVector:
    """Point or vector in R^{3,1}; components must be finite."""

    x1: float
    x2: float
    x3: float
    t: float

    def __post_init__(self):
        for c in (self.x1, self.x2, self.x3, self.t):
            if not math.isfinite(c):
                raise ValueError(f"non-finite Lorentz component: {c!r}")

    # numpy operands defer to the methods below, so np.float64(2) * v is
    # still a LorentzVector and not the array of __array__
    __array_ufunc__ = None

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.t], dtype=dtype)

    def __add__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(self.x1 + other.x1, self.x2 + other.x2,
                             self.x3 + other.x3, self.t + other.t)

    def __sub__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(self.x1 - other.x1, self.x2 - other.x2,
                             self.x3 - other.x3, self.t - other.t)

    def __mul__(self, s: float) -> "LorentzVector":
        return LorentzVector(self.x1 * s, self.x2 * s, self.x3 * s, self.t * s)

    __rmul__ = __mul__

    def norm_inf(self) -> float:
        return max(abs(self.x1), abs(self.x2), abs(self.x3), abs(self.t))


def minkowski_inner(u, v):
    """Bilinear symmetric pairing with signature (+, +, +, -) of (..., 4)
    array-likes (a LorentzVector is one), broadcast over the leading axes."""
    u, v = np.asarray(u), np.asarray(v)
    return (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
            + u[..., 2] * v[..., 2] - u[..., 3] * v[..., 3])


def classify(v, tol: float = CAUSAL_TOL) -> CausalClass:
    """Causal class of ``v``, a LorentzVector or a finite (4,) array, at
    tolerance ``tol``.

    Vectors whose components are all below ``tol`` in magnitude are the zero
    vector; otherwise the sign of <v, v> relative to tol * ||v||^2 decides
    timelike/null/spacelike and the sign of t decides future/past.  Vectors
    within the null band classify as null; probe near-degenerate cases with a
    smaller tolerance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.asarray(v, dtype=float)
    if v.shape != (4,) or not np.all(np.isfinite(v)):
        raise ValueError("need a finite vector of shape (4,)")
    if np.max(np.abs(v)) <= tol:
        return CausalClass.ZERO_VECTOR
    q = minkowski_inner(v, v)
    n2 = v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2
    if abs(q) <= tol * n2:
        return CausalClass.NULL_FUTURE if v[3] >= 0 else CausalClass.NULL_PAST
    if q < 0:
        return (CausalClass.TIMELIKE_FUTURE if v[3] > 0
                else CausalClass.TIMELIKE_PAST)
    return CausalClass.SPACELIKE


def sample_null_cone(m: int) -> np.ndarray:
    """``m`` future null vectors (z1, z2, z3, 1) with unit spatial part, as
    an (m, 4) array.

    Spatial directions follow a deterministic golden-angle spiral on the
    sphere, starting at the north pole, so repeated runs sample identically.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    i = np.arange(m)
    z = np.ones(1) if m == 1 else 1.0 - 2.0 * i / (m - 1)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    return np.stack([s * np.cos(phi), s * np.sin(phi), z, np.ones(m)], axis=-1)
