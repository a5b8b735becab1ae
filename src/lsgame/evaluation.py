"""Scoring: game values, weighted CHSH and its sum of squares, correlation distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError
from .strategy import Correlation, FullTest, Strategy, eq_label, ext_labels, var_label

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


# --- linear system game value -------------------------------------------------


def ls_winning_probability_from_correlation(corr: Correlation, test: FullTest) -> float:
    """Expected score on the linear system block, read off a correlation.

    A cell wins when Alice's triple has the equation's parity and agrees
    with Bob's bit at his variable.
    """
    system = test.system
    pairs = system.valid_pairs
    total = 0.0
    for i, v in pairs:
        x = eq_label(i)
        key = (x, var_label(system.variables[v]))
        if key not in corr.entries:
            raise StructuralError(f"correlation lacks support pair {key}")
        table = corr.entries[key]
        pos = system.rows[i].index(v)
        for ia, triple in enumerate(test.alice_answers[x]):
            if sum(triple) % 2 == system.rhs[i]:
                total += float(table[ia, triple[pos]])
    return total / len(pairs)


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


def embedded_chsh_value(strategy: Strategy) -> tuple[dict, dict]:
    """Bell value of the extension block, on the subspace-conditioned state,
    and its deficit from the quantum bound split as a sum of squares.

    Alice plays her two basis questions, Bob the two variable questions
    x(a1), x(a2); the shared state is renormalized on Alice's "inside the
    distinguished subspace" outcome.  The test is tuned to alpha =
    -cot(pi/d); the ideal strategy reaches the extremal value -Imax (the
    sign follows from c = cos(mu) < 0 at negative alpha: from_alpha takes
    the branch with sin(mu) > 0).

    The deficit Imax + value is the expectation on that state phi of
    (c^2/s)(Z_A - Z_B)^2 + s(X_A - X_B)^2 + (c^2/s)(1 - Z_A^2) + s(1 - X_A^2),
    with Z_B = -(N1+N2)/(2c) and X_B = -(N1-N2)/(2s) (Bamps-Pironio, for
    binary N1, N2).  z_term and x_term are the two squares' expectations;
    remainder, what is left, is how far Alice's basis observables are from
    binary on phi.
    """
    test = strategy.test
    d = strategy.params.d
    alpha = -1.0 / math.tan(math.pi / d)
    ctx = WeightedChshContext.from_alpha(alpha)
    sub, z, x = ext_labels(test.n_vars)
    proj = strategy.basis("A", sub).operator((1, 0)) @ strategy.state
    norm = float(np.linalg.norm(proj))
    if norm == 0:
        raise StructuralError("conditioned state vanishes")
    phi = proj / norm
    za, xa = strategy.observable("A", z), strategy.observable("A", x)
    n1, n2 = strategy.observable("B", "a1"), strategy.observable("B", "a2")
    value = bell_value(phi, za, xa, n1, n2, ctx)
    zb, xb = -(n1 + n2) / (2 * ctx.c), -(n1 - n2) / (2 * ctx.s)
    z_term = ctx.c**2 / ctx.s * float(np.linalg.norm(za @ phi - phi @ zb.T)) ** 2
    x_term = ctx.s * float(np.linalg.norm(xa @ phi - phi @ xb.T)) ** 2
    deficit = ctx.imax + value
    chsh = {"alpha": alpha, "value": value, "imax": ctx.imax}
    sos = {"deficit": deficit, "z_term": z_term, "x_term": x_term, "remainder": deficit - z_term - x_term}
    return chsh, sos


def evaluation_report(strategy: Strategy, ideal: Correlation) -> dict:
    """winning probability, embedded CHSH and its sum of squares, and epsilon."""
    test = strategy.test
    corr = strategy.correlation()
    chsh, sos = embedded_chsh_value(strategy)
    return {
        "winning_probability": ls_winning_probability_from_correlation(corr, test),
        "chsh": chsh,
        "sos": sos,
        "epsilon": correlation_distance(corr, ideal),
    }
