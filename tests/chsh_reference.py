"""The weighted CHSH expression on two qubits, the reference its two
sum-of-squares identities are checked against as operator identities.

chsh_ideal_instance is the EPR state with the observables that reach the
quantum bound 2*sqrt(1+alpha^2); sos_residuals measures both identities,
in operator norm, for any binary observables; involution_residual is how
far a matrix is from a binary observable.
"""

import math

import numpy as np

from lsgame.errors import DomainError, PreconditionError
from lsgame.evaluation import WeightedChshContext
from lsgame.linalg import dagger, eye, kron, op_norm


def involution_residual(m: np.ndarray) -> float:
    """How far m is from a binary observable (Hermitian with m^2 = 1)."""
    return max(op_norm(m - dagger(m)), op_norm(m @ m - eye(m.shape[0])))


def chsh_ideal_instance(alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EPR state and the observables achieving the quantum maximum."""
    ctx = WeightedChshContext.from_alpha(alpha)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    epr = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    n1 = ctx.c * sz + ctx.s * sx
    n2 = ctx.c * sz - ctx.s * sx
    return epr, sz, sx, n1, n2


def sos_residuals(m1, m2, n1, n2, ctx: WeightedChshContext) -> tuple[float, float]:
    """Operator-norm residuals of the two sum-of-squares identities.

    Both identities are exact for arbitrary binary observables: with
    Ibar = 2*sqrt(1+alpha^2) - (alpha M1(N1+N2) + M2(N1-N2)) as an operator,

        Ibar = (s*Ibar^2 + 4*s*c^2*(Z_A X_B + X_A Z_B)^2) / 4
        Ibar = (c^2/s)*(Z_A - Z_B)^2 + s*(X_A - X_B)^2

    where Z_B = (N1+N2)/(2c) and X_B = (N1-N2)/(2s).
    """
    if ctx.s == 0:
        raise DomainError("sin(mu) = 0: alpha is infinite")
    for m in (m1, m2, n1, n2):
        res = involution_residual(m)
        if res > 1e-9:
            raise PreconditionError("SOS identities need binary observables", res)
    da, db = m1.shape[0], n1.shape[0]
    ia, ib = eye(da), eye(db)
    za = kron(m1, ib)
    xa = kron(m2, ib)
    zb = kron(ia, (n1 + n2)) / (2 * ctx.c)
    xb = kron(ia, (n1 - n2)) / (2 * ctx.s)
    bell_op = (
        ctx.alpha * kron(m1, n1)
        + ctx.alpha * kron(m1, n2)
        + kron(m2, n1)
        - kron(m2, n2)
    )
    ibar = ctx.imax * eye(da * db) - bell_op
    cross = za @ xb + xa @ zb
    res1 = op_norm(ibar - (ctx.s * ibar @ ibar + 4 * ctx.s * ctx.c**2 * cross @ cross) / 4)
    zdiff = za - zb
    xdiff = xa - xb
    res2 = op_norm(ibar - ((ctx.c**2 / ctx.s) * zdiff @ zdiff + ctx.s * xdiff @ xdiff))
    return res1, res2
