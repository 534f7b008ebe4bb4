"""The node-summed spinor-weighted integrals: the oracle that the engine's
closed-form Killing form is checked against.

The engine writes Q_sign = 2 (E_t Id + sign i E_s . gamma) from E(Sigma).
Here Q is the node integral the paper defines,

    Q_sign = int ((H_0^2 - H^2)/H) M(x) dSigma,    |psi_a^{sign}(x)|^2 = a^H M(x) a,

with M polarized at every node from the Killing-spinor norms at a = e_0,
e_1, e_0 + e_1 and e_0 + i e_1, and each real entry of Q the ``math.fsum``
of its node values.  The norms are ``conftest.einsum_killing_norms_sq``,
not the package's; the weight and the ball points are computed here from
the node fields H, H_0 and the measure and from X, which
``conftest.positions`` multiplies out from the package's rows of factors.
So the oracle shares only GAMMAS and those rows with the engine, and never
reads E or zeta.
"""

import math

import numpy as np

from conftest import einsum_killing_norms_sq, on_nodes, positions

# e_0, e_1, e_0 + e_1 and e_0 + i e_1, each broadcast over the nodes
POLARIZATION_BASIS = np.array([[[1, 0]], [[0, 1]], [[1, 1]], [[1, 1j]]])


def ball_points(data) -> np.ndarray:
    """Poincare-ball points X_s / (1 + X_t) of the nodes of ``data``
    (N, 3), the inverse of ``ball_to_minkowski`` at k = 1."""
    X = positions(data)
    return np.ascontiguousarray((X[:3] / (1.0 + X[3])).T)


def node_integral(data, norms) -> list:
    """int ((H_0^2 - H^2)/H) n dSigma for each row n of ``norms`` (m, N),
    each the ``math.fsum`` of its node values."""
    H0 = data.H + data.dH
    weight = on_nodes((H0 ** 2 - data.H ** 2) / data.H, data)
    measure = on_nodes(data.measure, data)
    return [math.fsum((measure * (weight * n)).tolist())
            for n in np.atleast_2d(norms)]


def node_killing_form(data, sign: int) -> np.ndarray:
    """Q_sign summed node by node (module docstring), a 2x2 Hermitian
    array; ``data`` must be at k = 1, the scale of the spinor formulas."""
    assert data.k == 1.0
    n0, n1, n_re, n_im = einsum_killing_norms_sq(
        POLARIZATION_BASIS, ball_points(data), sign)
    q00, q11, re01, im01 = node_integral(data, np.stack(
        (n0, n1, 0.5 * (n_re - n0 - n1), 0.5 * (n0 + n1 - n_im))))
    return np.array([[q00, complex(re01, im01)],
                     [complex(re01, -im01), q11]])


def node_weighted_mass(data, a, sign: int):
    """int ((H_0^2 - H^2)/H) |psi_a^{sign}|^2 dSigma for spinors ``a``
    (..., 2), as Re(a^H Q a) with Q = :func:`node_killing_form`."""
    a = np.asarray(a, dtype=complex)
    Q = node_killing_form(data, sign)
    return np.einsum("...k,kl,...l->...", a.conj(), Q, a).real


def einsum_weighted_mass(data, a, sign):
    """Re(a^H Q a) with Q = ``data.killing_form(sign)``, by the complex
    ``einsum`` that ``killing_weighted_mass`` once used: the oracle of its
    written-out real arithmetic.  A stack of spinors (..., 2) is taken one
    spinor at a time, as einsum sums the terms of a stack of three or more
    in another order than those of one."""
    Q = data.killing_form(sign)
    a = np.asarray(a, dtype=complex)
    values = [np.einsum("...k,kl,...l->...", s.conj(), Q, s).real
              for s in a.reshape(-1, 2)]
    return np.array(values).reshape(a.shape[:-1])
