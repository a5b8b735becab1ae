"""Scoring: game values, weighted CHSH and its sum of squares, distances between correlations."""

from __future__ import annotations

import math

import numpy as np

from .errors import StructuralError
from .linalg import worst
from .strategy import Correlation, FullTest, Strategy, eq_label, ext_labels, misfit_message, shape_misfits, var_label


# --- linear system game value -------------------------------------------------


def ls_winning_probability_from_correlation(corr: Correlation, test: FullTest) -> float:
    """Expected score on the linear system block, read off a correlation.

    A cell wins when Alice's triple has the equation's parity and agrees
    with Bob's bit at his variable.  Only the linear-system pairs are held to
    test.shapes, so they alone score; StructuralError names their misfits.
    """
    system = test.system
    pairs = {(eq_label(i), var_label(system.variables[v])): (i, v) for i, v in system.valid_pairs}
    if misfits := [misfit for misfit in shape_misfits(corr.shapes, test.shapes) if misfit[0] in pairs]:
        raise StructuralError(misfit_message("correlation differs from the linear system's", misfits))
    total = 0.0
    for (x, y), (i, v) in pairs.items():
        table = corr.entries[x, y]
        pos = system.rows[i].index(v)
        for ia, triple in enumerate(test.alice_answers[x]):
            if sum(triple) % 2 == system.rhs[i]:
                total += float(table[ia, triple[pos]])
    return total / len(pairs)


# --- correlation distance -----------------------------------------------------


def _table_pairs(c1: Correlation, c2: Correlation) -> list[tuple[np.ndarray, np.ndarray]]:
    """The two correlations' tables, pair by pair in c1's order; StructuralError
    naming the misfits unless c1 holds exactly c2's pairs, each in c2's shape."""
    if misfits := shape_misfits(c1.shapes, c2.shapes):
        raise StructuralError(misfit_message("correlations differ", misfits))
    return [(t1, c2.entries[key]) for key, t1 in c1.entries.items()]


def correlation_distance(c1: Correlation, c2: Correlation) -> float:
    """Expected L1 distance of the conditional tables under the uniform support."""
    pairs = _table_pairs(c1, c2)
    pi = 1.0 / len(pairs)
    total = 0.0
    for t1, t2 in pairs:
        total += pi * float(np.abs(t1 - t2).sum())
    return total


def table_deviation(corr: Correlation, ideal: Correlation) -> float:
    """Largest |corr - ideal| over every cell of the support; a NaN cell wins."""
    return worst(float(np.abs(t1 - t2).max()) for t1, t2 in _table_pairs(corr, ideal))


# --- embedded CHSH diagnostics ------------------------------------------------


def embedded_chsh_value(strategy: Strategy) -> tuple[dict, dict]:
    """Bell value of the extension block, on the subspace-conditioned state,
    and its deficit from the quantum bound split as a sum of squares.

    Alice plays her two basis observables Z_A, X_A, Bob the two variable
    observables N1, N2 of x(a1), x(a2); the shared state is renormalized on
    Alice's "inside the distinguished subspace" outcome to phi.  The value
    is <phi|alpha Z_A(N1+N2) + X_A(N1-N2)|phi> at the test's alpha =
    -cot(pi/d), whose quantum bound is Imax = 2 sqrt(1+alpha^2).  With
    cot(mu) = alpha on the branch sin(mu) > 0, c = cos(mu) < 0, so the
    ideal strategy reaches the extremal value -Imax.

    The deficit Imax + value is the expectation on phi of
    (c^2/s)(Z_A - Z_B)^2 + s(X_A - X_B)^2 + (c^2/s)(1 - Z_A^2) + s(1 - X_A^2),
    with Z_B = -(N1+N2)/(2c) and X_B = -(N1-N2)/(2s) (Bamps-Pironio, for
    binary N1, N2).  z_term and x_term are the two squares' expectations;
    remainder, what is left, is how far Alice's basis observables are from
    binary on phi.  All of them are read off the four products Z_A phi,
    X_A phi, phi N1^T and phi N2^T, phi held as a dim x dim matrix.
    """
    alpha = -1.0 / math.tan(math.pi / strategy.params.d)
    mu = math.atan2(1.0, alpha)  # arctan(1/alpha), branch with sin(mu) > 0
    c, s = math.cos(mu), math.sin(mu)
    imax = 2 * math.sqrt(1 + alpha * alpha)
    sub, z, x = ext_labels(strategy.test.n_vars)
    proj = strategy.basis("A", sub).operator((1, 0)) @ strategy.state
    norm = float(np.linalg.norm(proj))
    if norm == 0:
        raise StructuralError("conditioned state vanishes")
    phi = proj / norm
    za_phi, xa_phi = strategy.observable("A", z) @ phi, strategy.observable("A", x) @ phi
    phi_n1, phi_n2 = phi @ strategy.observable("B", "a1").T, phi @ strategy.observable("B", "a2").T

    def expect(a_phi, phi_b):  # <phi|M (x) N|phi> = <M phi, phi N^T>, M Hermitian
        return float(np.real(np.vdot(a_phi, phi_b)))

    value = (
        alpha * expect(za_phi, phi_n1)
        + alpha * expect(za_phi, phi_n2)
        + expect(xa_phi, phi_n1)
        - expect(xa_phi, phi_n2)
    )
    z_term = c**2 / s * float(np.linalg.norm(za_phi + (phi_n1 + phi_n2) / (2 * c))) ** 2
    x_term = s * float(np.linalg.norm(xa_phi + (phi_n1 - phi_n2) / (2 * s))) ** 2
    deficit = imax + value
    chsh = {"alpha": alpha, "value": value, "imax": imax}
    sos = {"deficit": deficit, "z_term": z_term, "x_term": x_term, "remainder": deficit - z_term - x_term}
    return chsh, sos
