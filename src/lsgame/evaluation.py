"""Scoring: game values, weighted CHSH, SOS residuals, correlation distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, StructuralError
from .linalg import eye, involution_residual, kron, op_norm
from .lsg import satisfying_assignments
from .strategy import Correlation, FullTest, Strategy, eq_label, var_label
from .strategy import bob_observable, family_observable, generate_correlation

#: smallest |alpha| accepted: cot(pi/3), the d=3 end of the family
MIN_ALPHA = 1 / math.sqrt(3)


@dataclass(frozen=True)
class WeightedChshContext:
    """Angle bookkeeping for the alpha-weighted CHSH expression."""

    alpha: float
    mu: float
    c: float
    s: float
    imax: float

    @classmethod
    def from_alpha(cls, alpha: float) -> "WeightedChshContext":
        if abs(alpha) < MIN_ALPHA - 1e-12:
            raise DomainError(f"|alpha| must be at least cot(pi/3), got {alpha}")
        mu = math.atan2(1.0, alpha)  # arctan(1/alpha), branch with sin(mu) > 0
        return cls(
            alpha=alpha,
            mu=mu,
            c=math.cos(mu),
            s=math.sin(mu),
            imax=2 * math.sqrt(1 + alpha * alpha),
        )


def chsh_ideal_instance(alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EPR state and the observables achieving the quantum maximum."""
    ctx = WeightedChshContext.from_alpha(alpha)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    epr = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    n1 = ctx.c * sz + ctx.s * sx
    n2 = ctx.c * sz - ctx.s * sx
    return epr, sz, sx, n1, n2


def bell_value(
    state: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    n1: np.ndarray,
    n2: np.ndarray,
    ctx: WeightedChshContext,
) -> float:
    """alpha<M1N1> + alpha<M1N2> + <M2N1> - <M2N2> without involution checks."""
    da, db = m1.shape[0], n1.shape[0]
    s = np.asarray(state, dtype=complex).reshape(da, db)

    def expect(ma, nb):
        return float(np.real(np.vdot(s, ma @ s @ nb.T)))

    return (
        ctx.alpha * expect(m1, n1)
        + ctx.alpha * expect(m1, n2)
        + expect(m2, n1)
        - expect(m2, n2)
    )


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


# --- linear system game value -------------------------------------------------


def ls_winning_probability_from_correlation(corr: Correlation, test: FullTest) -> float:
    """Expected score on the linear system block, read off a correlation."""
    game = test.game
    system = game.system
    total = 0.0
    for i, v in game.valid_pairs:
        key = (eq_label(i), var_label(system.variables[v]))
        if key not in corr.entries:
            raise StructuralError(f"correlation lacks support pair {key}")
        table = corr.entries[key]
        names = system.row_names(i)
        pos = names.index(system.variables[v])
        for triple in satisfying_assignments(system, i):
            idx = triple[0] * 4 + triple[1] * 2 + triple[2]
            total += float(table[idx, triple[pos]])
    return total / len(game.valid_pairs)


# --- correlation distance -----------------------------------------------------


def correlation_distance(c1: Correlation, c2: Correlation) -> float:
    """Expected L1 distance of the conditional tables under the uniform support."""
    if set(c1.entries) != set(c2.entries):
        raise StructuralError("correlations have different supports")
    pi = 1.0 / len(c1.entries)
    total = 0.0
    for key, t1 in c1.entries.items():
        t2 = c2.entries[key]
        if t1.shape != t2.shape:
            raise StructuralError(f"answer alphabets differ at {key}")
        total += pi * float(np.abs(t1 - t2).sum())
    return total


# --- embedded CHSH diagnostics and the combined report -------------------------


def embedded_chsh_value(strategy: Strategy) -> dict:
    """Bell value of the extension block, on the subspace-conditioned state.

    Alice plays her two basis questions, Bob the two variable questions
    x(a1), x(a2); the shared state is renormalized on Alice's "inside the
    distinguished subspace" outcome.  The test is tuned to alpha =
    -cot(pi/d); the ideal strategy reaches the extremal value -Imax (the
    sign follows from sin(mu) < 0 at negative alpha).
    """
    test = strategy.test
    d = strategy.params.d
    alpha = -1.0 / math.tan(math.pi / d)
    ctx = WeightedChshContext.from_alpha(alpha)
    p_sub = strategy.alice_family(test.ext_sub)[0]
    s = strategy.state_matrix()
    proj = p_sub @ s
    norm = float(np.linalg.norm(proj))
    if norm == 0:
        raise StructuralError("conditioned state vanishes")
    state = (proj / norm).reshape(-1)
    za = family_observable(strategy.alice_family(test.ext_z))
    xa = family_observable(strategy.alice_family(test.ext_x))
    n1, n2 = bob_observable(strategy, "a1"), bob_observable(strategy, "a2")
    value = bell_value(state, za, xa, n1, n2, ctx)
    return {"alpha": alpha, "value": value, "imax": ctx.imax}


def evaluation_report(strategy: Strategy, ideal: Correlation) -> dict:
    """winning probability, embedded CHSH, SOS self-check, and epsilon."""
    test = strategy.test
    corr = generate_correlation(strategy, test)
    chsh = embedded_chsh_value(strategy)
    alpha = abs(chsh["alpha"])
    epr, m1, m2, n1, n2 = chsh_ideal_instance(alpha)
    res1, res2 = sos_residuals(m1, m2, n1, n2, WeightedChshContext.from_alpha(alpha))
    return {
        "winning_probability": ls_winning_probability_from_correlation(corr, test),
        "chsh": chsh,
        "sos": {"res1": res1, "res2": res2},
        "epsilon": correlation_distance(corr, ideal),
    }
