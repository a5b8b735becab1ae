"""The weighted CHSH expression as operators on the joint space, the
reference that lsgame's embedded CHSH value and its two sum-of-squares
identities are checked against.

chsh_constants states mu, c, s and the quantum bound from alpha;
bell_operator is B_alpha = alpha M1 (N1+N2) + M2 (N1-N2) as a matrix and
expectation its value on a state; joint_observables lifts Z_A, X_A, Z_B
and X_B to the joint space; chsh_ideal_instance is the EPR state with
the observables that reach the bound 2*sqrt(1+alpha^2); sos_residuals
measures both identities, in operator norm, for any binary observables;
involution_residual is how far a matrix is from a binary observable.
"""

import math

import numpy as np

from lsgame.errors import DomainError, PreconditionError
from lsgame.linalg import dagger, eye, op_norm


def chsh_constants(alpha: float) -> tuple[float, float, float, float]:
    """mu with cot(mu) = alpha on the branch sin(mu) > 0, c = cos(mu),
    s = sin(mu), and the quantum bound imax = 2*sqrt(1+alpha^2)."""
    mu = math.atan2(1.0, alpha)
    return mu, math.cos(mu), math.sin(mu), 2 * math.sqrt(1 + alpha * alpha)


def bell_operator(alpha: float, m1, m2, n1, n2) -> np.ndarray:
    """alpha M1N1 + alpha M1N2 + M2N1 - M2N2 on the joint space."""
    return alpha * np.kron(m1, n1) + alpha * np.kron(m1, n2) + np.kron(m2, n1) - np.kron(m2, n2)


def joint_observables(alpha: float, m1, m2, n1, n2) -> tuple[np.ndarray, ...]:
    """Z_A = M1, X_A = M2, Z_B = (N1+N2)/(2c) and X_B = (N1-N2)/(2s), each
    on the joint space."""
    _, c, s, _ = chsh_constants(alpha)
    ia, ib = eye(m1.shape[0]), eye(n1.shape[0])
    return np.kron(m1, ib), np.kron(m2, ib), np.kron(ia, n1 + n2) / (2 * c), np.kron(ia, n1 - n2) / (2 * s)


def expectation(op: np.ndarray, state: np.ndarray) -> float:
    """Re <state|op|state>, the state as a vector or as a dim_a x dim_b matrix."""
    v = np.ravel(state)
    return float(np.real(np.vdot(v, op @ v)))


def involution_residual(m: np.ndarray) -> float:
    """How far m is from a binary observable (Hermitian with m^2 = 1)."""
    return max(op_norm(m - dagger(m)), op_norm(m @ m - eye(m.shape[0])))


def chsh_ideal_instance(alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EPR state and the observables achieving the quantum maximum."""
    _, c, s, _ = chsh_constants(alpha)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    epr = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return epr, sz, sx, c * sz + s * sx, c * sz - s * sx


def sos_residuals(alpha: float, m1, m2, n1, n2) -> tuple[float, float]:
    """Operator-norm residuals of the two sum-of-squares identities.

    Both identities are exact for arbitrary binary observables: with
    Ibar = 2*sqrt(1+alpha^2) - (alpha M1(N1+N2) + M2(N1-N2)) as an operator,

        Ibar = (s*Ibar^2 + 4*s*c^2*(Z_A X_B + X_A Z_B)^2) / 4
        Ibar = (c^2/s)*(Z_A - Z_B)^2 + s*(X_A - X_B)^2

    where Z_B = (N1+N2)/(2c) and X_B = (N1-N2)/(2s).
    """
    _, c, s, imax = chsh_constants(alpha)
    if s == 0:
        raise DomainError("sin(mu) = 0: alpha is infinite")
    for m in (m1, m2, n1, n2):
        res = involution_residual(m)
        if res > 1e-9:
            raise PreconditionError(f"SOS identities need binary observables (residual {res:.3e})")
    za, xa, zb, xb = joint_observables(alpha, m1, m2, n1, n2)
    ibar = imax * eye(za.shape[0]) - bell_operator(alpha, m1, m2, n1, n2)
    cross = za @ xb + xa @ zb
    res1 = op_norm(ibar - (s * ibar @ ibar + 4 * s * c**2 * cross @ cross) / 4)
    zdiff = za - zb
    xdiff = xa - xb
    res2 = op_norm(ibar - ((c**2 / s) * zdiff @ zdiff + s * xdiff @ xdiff))
    return res1, res2
