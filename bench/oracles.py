"""Closed-form answers and per-op checks, independent of hypermass.

Nothing here imports the package under test: each expected value is
derived by hand from the scenario (see the docstrings), so a defect in the
shared geometry code cannot make an answer and its oracle agree.

Every check returns ``(ok, err)``; ``err`` is the op's error against its
oracle on the scale its tolerance uses, or None when the op produced no
number.  ``digits(err)`` turns it into the accuracy metric.
"""

from __future__ import annotations

import math

# criterion 2a: AdS-Schwarzschild coordinate spheres
ADS_REL_TOL_T = 1e-6
ADS_ABS_TOL_SPATIAL = 1e-9
# radial profiles in H^3 with F == F0 (rigidity; weak, see README)
RIGID_ABS_TOL = 1e-10
# criterion 5: E(S_r) -> Upsilon/2, componentwise on max(|Upsilon/2|, 1)
ASYMPTOTIC_REL_TOL = 1e-2
# criterion 3 (spinor-check) and criterion 4 (pairing)
SPINOR_TOL = 1e-12
PAIRING_TOL = 1e-8

MAX_DIGITS = 16.0


def digits(err) -> float:
    """min(16, -log10(err)); 0 when there is no number."""
    if err is None or not math.isfinite(err):
        return 0.0
    if err <= 0.0:
        return MAX_DIGITS
    return max(0.0, min(MAX_DIGITS, -math.log10(err)))


def ads_energy_t(r: float, m: float, k: float = 1.0) -> float:
    """E_t = 8 pi m sqrt((1 + k^2 r^2) / V(r)), V = 1 + k^2 r^2 - 2m/r.

    On the coordinate sphere H = sqrt(V)/r, H_0 = sqrt(1 + k^2 r^2)/r and
    X_t = sqrt(1 + k^2 r^2); the weight (H_0^2 - H^2)/H = 2m/(r^2 sqrt(V))
    is constant, so the spatial part vanishes by parity and the time part
    integrates against the area 4 pi r^2.
    """
    V = 1.0 + (k * r) ** 2 - 2.0 * m / r
    return 8.0 * math.pi * m * math.sqrt((1.0 + (k * r) ** 2) / V)


def check_ads(E, r: float, m: float):
    """Criterion 2a: E_t to 1e-6 relative and the spatial part to 1e-9.

    The error is on the scale of E_t: max(|E_t - exact|, |E_spatial|) / exact.
    """
    exact = ads_energy_t(r, m)
    rel_t = abs(E[3] - exact) / exact
    spatial = max(abs(c) for c in E[:3])
    ok = rel_t < ADS_REL_TOL_T and spatial < ADS_ABS_TOL_SPATIAL
    return ok, max(rel_t, spatial / exact)


def check_ads_report(E, causal_class, r: float, m: float):
    """A ``mass`` report: criterion 2a and the class TimelikeFuture."""
    ok, err = check_ads(E, r, m)
    return ok and causal_class == "TimelikeFuture", err


def check_rigid(E, causal_class):
    """F == F0 in H^3: |E|_inf < 1e-10 and class ZeroVector."""
    err = max(abs(c) for c in E)
    return err < RIGID_ABS_TOL and causal_class == "ZeroVector", err


def upsilon_half(g0_coeff: float, linear) -> list:
    """Upsilon/2 for tr h = 2 g0 + a.x, in (x1, x2, x3, t) order.

    int_{S^2} (2 g0 + a.x) dS = 8 pi g0 and int (2 g0 + a.x) x_j dS
    = 4 pi a_j / 3, halved.
    """
    return [2.0 * math.pi / 3.0 * a for a in linear] + [4.0 * math.pi
                                                          * g0_coeff]


def check_asymptotic(extrapolated, g0_coeff: float, linear):
    """Criterion 5: extrapolated E(S_r) within 1% of Upsilon/2."""
    target = upsilon_half(g0_coeff, linear)
    scale = max(max(abs(c) for c in target), 1.0)
    err = max(abs(e - t) for e, t in zip(extrapolated, target)) / scale
    return err < ASYMPTOTIC_REL_TOL, err


def check_spinor_residuals(identity: float, round_trip: float, passed: bool):
    """Criterion 3: a PASS line and both residuals below 1e-12."""
    err = max(identity, round_trip)
    return passed and err < SPINOR_TOL, err


def zeta(a, sign: int) -> list:
    """Future null vector of the 2-spinor a: (sign * a^H sigma a, |a|^2).

    The Bloch vector of a, scaled by |a|^2; its Minkowski norm is zero by
    |a^H sigma a| = |a|^2.
    """
    a0, a1 = a
    s1 = 2.0 * (a0.conjugate() * a1).real
    s2 = 2.0 * (a0.conjugate() * a1).imag
    s3 = abs(a0) ** 2 - abs(a1) ** 2
    return [sign * s1, sign * s2, sign * s3, abs(a0) ** 2 + abs(a1) ** 2]


def minkowski(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] - u[3] * v[3]


def check_pairing(E, kwm, spinors, r: float, m: float):
    """Criterion 4 plus 2a for the pairing op.

    Each spinor-weighted mass must equal -2 <E, zeta_a> to 1e-8 on the
    scale 1 + |<E, zeta_a>|, and E itself must meet the AdS closed form.
    """
    worst = 0.0
    for (re0, im0, re1, im1), values in zip(spinors, kwm):
        a = (complex(re0, im0), complex(re1, im1))
        for sign, value in zip((1, -1), values):
            p = minkowski(E, zeta(a, sign))
            worst = max(worst, abs(value + 2.0 * p) / (1.0 + abs(p)))
    ads_ok, ads_err = check_ads(E, r, m)
    return ads_ok and worst < PAIRING_TOL, max(worst, ads_err)
