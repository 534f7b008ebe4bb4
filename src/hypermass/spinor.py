"""Explicit imaginary Killing spinors of H^3 and the null-vector pairing.

The fields psi_a^{+-}(x) = f(x)^{1/2} (Id +- i gamma(x)) a on the Poincare
ball induce, for each constant 2-spinor a, a future null vector zeta_a with

    |psi_a(x)|^2 = -2 <X(x), zeta_a>           (pointwise, to roundoff)

where X is the hyperboloid position of x.  This identity is what converts
spinor-weighted surface integrals into Minkowski pairings, so it is held to
1e-12 as a hard library contract.

Sign conventions are frozen: the Clifford matrices are GAMMAS, gamma_j =
i sigma_j with the Pauli matrices sigma_j, and the null vector carries the
global factor S_ZETA = -1.  The identity pins S_ZETA: with +1 its residual
is 2 |psi_a|^2 and zeta_a is past directed.  It cannot see the sign of gamma:
gamma -> -gamma swaps the branches psi^+ and psi^- on both of its sides.
All formulas are stated at curvature scale k = 1: rescale geometry first.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NotNull
from .hypgeom import ball_to_minkowski
from .lorentz import minkowski_inner

__all__ = [
    "killing_spinor_norms_sq",
    "zeta_of",
    "verify_zet",
    "null_to_spinor",
    "GAMMAS",
    "S_ZETA",
]

GAMMAS = 1j * np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
S_ZETA = -1


def _as_spinor(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape[-1:] != (2,):
        raise DomainError("spinors must have shape (..., 2)")
    if not np.isfinite(a).all():
        raise DomainError("non-finite spinor components")
    return a


_NUMBER = (int, float, complex)


def _spinor_parts(a) -> tuple:
    """``((re a_0, re a_1), (im a_0, im a_1))`` of spinors ``a`` of shape
    (..., 2): floats for one spinor, checked by ``math.isfinite``, and
    arrays of shape (...) for a stack, checked by :func:`_as_spinor`.  A
    list or tuple of two Python numbers is read without numpy."""
    if not (type(a) in (list, tuple) and len(a) == 2
            and isinstance(a[0], _NUMBER) and isinstance(a[1], _NUMBER)):
        a = _as_spinor(a)
        if a.ndim > 1:
            return ((a.real[..., 0], a.real[..., 1]),
                    (a.imag[..., 0], a.imag[..., 1]))
        a = a.tolist()
    z0, z1 = complex(a[0]), complex(a[1])
    r0, i0, r1, i1 = z0.real, z0.imag, z1.real, z1.imag
    if not (math.isfinite(r0) and math.isfinite(i0)
            and math.isfinite(r1) and math.isfinite(i1)):
        raise DomainError("non-finite spinor components")
    return (r0, r1), (i0, i1)


def _signs(sign) -> tuple:
    """The signs that ``sign`` names: +1 or -1 in any numeric type, or a
    tuple of them."""
    signs = sign if type(sign) is tuple else (sign,)
    if not signs or not all(s in (1, -1) for s in signs):
        raise DomainError("sign must be +1 or -1")
    return signs


def _stacked(sign, values):
    """``values``, one for each sign of ``sign``, as its caller returns
    them: stacked on a new first axis for a tuple of signs."""
    return np.stack(values) if type(sign) is tuple else values[0]


def killing_spinor_norms_sq(a, points: np.ndarray, sign) -> np.ndarray:
    """|psi_a^{sign}(x)|^2 = f(x) |(Id + sign * i gamma(x)) a|^2 at k = 1.

    Spinors ``a`` of shape (..., 2) broadcast against ball points of shape
    (..., 3).  ``sign`` is +1 or -1, or a tuple of them, whose norms are
    stacked on a new first axis, with f(x) = 2 / (1 - |x|^2) computed once.
    The 2x2 product psi_k = m_k0 a_0 + m_k1 a_1 is written out in real
    arithmetic, each product and sum rounded on its own as a complex
    ``einsum`` rounds them: numpy's complex multiply may fuse a
    multiply-add.  The entries m_kl are read off GAMMAS, whose nonzero
    coefficients are +-1 and +-i, so each x_j term is exact.
    """
    signs = _signs(sign)
    a = _as_spinor(a)
    points = np.asarray(points, dtype=float)
    r2 = np.sum(points * points, axis=-1)
    if np.any(r2 >= 1.0):
        raise DomainError("ball point must satisfy |x| < 1")
    f = 2.0 / (1.0 - r2)
    x = np.moveaxis(points, -1, 0)

    def entry(part, k, l, delta):
        return sum((xj * c for xj, c in zip(x, part[:, k, l]) if c), delta)

    ar, ai = a.real, a.imag
    shape = np.broadcast_shapes(f.shape, a.shape[:-1])
    out = []
    for s in signs:
        coef = s * 1j * GAMMAS          # m = Id + sum_j x_j coef_j
        psi = np.empty(shape, complex)
        norms = 0.0
        for k in (0, 1):
            re, im = [], []
            for l in (0, 1):
                mr = entry(coef.real, k, l, float(k == l))
                mi = entry(coef.imag, k, l, 0.0)
                re.append(mr * ar[..., l] - mi * ai[..., l])
                im.append(mr * ai[..., l] + mi * ar[..., l])
            np.add(*re, out=psi.real)
            np.add(*im, out=psi.imag)
            norms = norms + np.abs(psi) ** 2
        out.append(f * norms)
    return _stacked(sign, out)


def _zeta_parts(a) -> tuple:
    """The parts of :func:`zeta_of` that no sign changes, of checked
    spinors ``a``: the products <gamma_j a, a>, shape (..., 3), and the
    time component S_ZETA * (-|a|^2)."""
    ga = np.einsum("jkl,...l->...jk", GAMMAS, a)
    ip = np.einsum("...jk,...k->...j", ga.conj(), a)
    return ip, S_ZETA * -np.sum(a.real ** 2 + a.imag ** 2, axis=-1)


def _zeta(ip, t, sign: int) -> np.ndarray:
    """zeta_a^{sign} from the :func:`_zeta_parts` ``(ip, t)`` of a."""
    spatial = S_ZETA * (-sign * 1j * ip).real
    return np.concatenate([spatial, t[..., None]], axis=-1)


def zeta_of(a, sign: int) -> np.ndarray:
    """Future null vectors zeta_a^{sign}, shape (..., 4) in (x1, x2, x3, t)
    order, of spinors ``a`` of shape (..., 2).

    Spatial components are S_ZETA * (-sign * i <gamma_j a, a>) with the
    Hermitian product conjugate-linear in the first slot; the time component
    is S_ZETA * (-|a|^2).  With the frozen signs the result is future
    directed and null: its spatial part is |a|^2 times a unit vector.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    return _zeta(*_zeta_parts(_as_spinor(a)), sign)


def verify_zet(a, x, sign) -> np.ndarray:
    """Residuals | |psi_a(x)|^2 + 2 <X(x), zeta_a> | at k = 1, for spinors
    ``a`` (..., 2) broadcast against ball points ``x`` (..., 3); contract:
    every residual < 1e-12.  ``sign`` is +1 or -1, or a tuple of them,
    whose residuals are stacked on a new first axis.

    The work that no sign changes is done once: X(x) by
    ``ball_to_minkowski``, and |a|^2 and <gamma_j a, a> of zeta_a.  Then,
    for each sign, n2 = |psi_a(x)|^2 by :func:`killing_spinor_norms_sq`,
    zeta_a from its parts as :func:`zeta_of` builds it, and
    |n2 + 2.0 minkowski_inner(X, zeta_a)|, in that order."""
    signs = _signs(sign)
    n2 = killing_spinor_norms_sq(a, x, signs)
    X = ball_to_minkowski(x)
    ip, t = _zeta_parts(_as_spinor(a))
    return _stacked(sign, [
        np.abs(n + 2.0 * minkowski_inner(X, _zeta(ip, t, s)))
        for n, s in zip(n2, signs)])


def null_to_spinor(zeta) -> np.ndarray:
    """Unit spinors a, shape (..., 2), with zeta_of(a, +1) proportional to
    the future null vectors ``zeta`` of shape (..., 4) (positive ratio).

    Inverts the Bloch/Hopf map: the spatial direction of zeta determines a
    up to global phase, fixed here by taking the first component real >= 0.
    Raises NotNull if any row is off the cone (|<z, z>| > 1e-9 |z|^2) or
    past directed.
    """
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape[-1:] != (4,):
        raise DomainError("null vectors must have shape (..., 4)")
    s, t = zeta[..., :3], zeta[..., 3]
    s2 = np.sum(s * s, axis=-1)
    q, n2 = s2 - t * t, s2 + t * t
    if np.any(n2 == 0.0) or np.any(np.abs(q) > 1e-9 * n2):
        raise NotNull("vector is not null within tolerance: max |<z,z>| = "
                      f"{np.max(np.abs(q))}")
    if np.any(t <= 0):
        raise NotNull("null vector must be future directed (t > 0)")
    # Bloch inverse: s / |s| = (sin th cos ph, sin th sin ph, cos th), and
    # |s| = t > 0 on the cone
    half = 0.5 * np.arccos(np.clip(s[..., 2] / np.sqrt(s2), -1.0, 1.0))
    ph = np.arctan2(s[..., 1], s[..., 0])
    return np.stack([np.cos(half),
                     np.sin(half) * (np.cos(ph) + 1j * np.sin(ph))], axis=-1)
