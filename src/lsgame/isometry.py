"""Two-stage swap isometries and the self-testing distance report.

Stage one appends a d-dimensional control register per party, Fourier
transforms it, applies controlled powers of O = M(a1)M(a2) (resp. Bob's N
version), undoes the Fourier transform, and applies controlled powers of
U = M(a3)M(a4) with label-dependent exponent signs (see LABELS).  Stage two
is the standard four-ancilla swap circuit driven by the observables for f0,
f2, g0, g2.

Register order of the final state: (H_A, H_B, ancillas a1 b1 a2 b2,
controls A', B').  Ancilla pairs (a1, b1) and (a2, b2) carry the extracted
EPR pairs; any other consistent ordering is isomorphic.

The state has 16*d^2*dim_a*dim_b amplitudes, and selftest_report never
builds it: it works on each party's stage-two QR factors, so a control
slice costs two dim x dim products, and it weights the off-support slices
of a control row with R factors that leave one block out (see its
docstring).  Its memory is streamed: the only stacks of d dim x dim
matrices it holds at once are the four Gram-scaled ladders, Bob's
left-out factors and one label's support factors, and every other product
is formed one slice at a time; MAX_SELFTEST_ELEMENTS caps what it holds.
The dense stages live in the test suite, as the reference selftest_report
is checked against.

The stage-two factors, the ladders and Bob's left-out factors depend on the
bases alone, so each is derived once per set of bases and stays in the
bases' memo, keyed by the function that derives it and its arguments
(Strategy.derived).  A strategy that keeps the ideal's bases
(Strategy.with_state: every delta-0 and state record) reads the ideal's,
where each stage-one slice P(j) has 4 columns and P(0) none: the memo's one
seeded entry, an exact support that build_ideal_strategy reads off the
integer O.  There the ideal's memo keeps, across records, ladders of
4 (d-1) * 4 dim amplitudes instead of 4 d dim^2, and a control row's product
and support factor read 4 rows of the state and 4 of Bob's columns:
O(4 dim^2) each instead of O(dim^3); only its off-support term multiplies by
a full left-out factor.  Every other strategy (rotated, dataclasses.replace,
padded) has an empty memo and takes the same code with all dim columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .linalg import eye, qft
from .numtheory import PrimeParams, discrete_log
from .strategy import COMM_GENS, Strategy

#: One row per report label, in report order:
#:   (pre-applied (party, name), read as strategy.observable(party, name), or None,
#:    (s_A, s_B): control value j drives U^log(s*j) on that party,
#:    (a, b): target indices t[a*j, b*j], each (sign, k) meaning sign * r^-k mod d,
#:    c: target phase omega^(c*j)).
LABELS = {
    "psi": (None, (-1, 1), ((-1, 0), (1, 0)), 0),
    "OA_psi": (("A", "O"), (-1, 1), ((-1, 0), (1, 0)), -1),
    "OB_psi": (("B", "O"), (-1, 1), ((-1, 0), (1, 0)), 1),
    "UA_psi": (("A", "U"), (-1, 1), ((-1, 1), (1, 0)), 0),
    "UB_psi": (("B", "U"), (-1, 1), ((-1, 0), (1, 1)), 0),
    "M1_psi": (("A", "a1"), (1, 1), ((1, 0), (1, 0)), 1),
    "M2_psi": (("A", "a2"), (1, 1), ((1, 0), (1, 0)), 0),
    # N1 = omega^{-1} N2 on the distinguished eigenstate, which lands the +j
    # phase pattern here (mechanically verified at epsilon=0).
    "N1_psi": (("B", "a1"), (-1, -1), ((1, 0), (1, 0)), 1),
    "N2_psi": (("B", "a2"), (-1, -1), ((1, 0), (1, 0)), 0),
}

REPORT_LABELS = tuple(LABELS)

#: self-test guard: largest amplitude count selftest_report may hold at once
MAX_SELFTEST_ELEMENTS = 1 << 26


def _powers(m: np.ndarray, count: int) -> np.ndarray:
    """(count, n, n) stack of m^0 .. m^(count-1), each filled in place."""
    out = np.empty((count, *m.shape), dtype=complex)
    out[0] = np.eye(m.shape[0])
    for k in range(1, count):
        np.matmul(out[k - 1], m, out=out[k])
    return out


def _u_exponents(params: PrimeParams, sign: int) -> list[int]:
    """Power of U on each control value j: 0 at j = 0, else log(sign*j) mod (d-1)."""
    d = params.d
    return [0] + [discrete_log(params, sign * j) % (d - 1) for j in range(1, d)]


def _stage2_factors(strategy: Strategy, party: str) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factors of one party's swap circuit, resolved per ancilla outcome.

    The H / controlled-g / H / controlled-f sandwich on ancillas (l1, l2)
    collapses to F0^l2 F2^l1 (1+(-1)^l2 G0)/2 (1+(-1)^l1 G2)/2; the four
    maps are stacked with (l1, l2) in lexicographic order, l2 fastest, into
    one (4n, n) array, factored as Q R.
    """
    f0, f2, g0, g2 = (strategy.observable(party, g) for g in COMM_GENS)
    one = eye(f0.shape[0])
    maps = []
    for l1 in (0, 1):
        for l2 in (0, 1):
            m = ((one + (-1) ** l2 * g0) / 2) @ ((one + (-1) ** l1 * g2) / 2)
            if l1:
                m = f2 @ m
            if l2:
                m = f0 @ m
            maps.append(m)
    return np.linalg.qr(np.concatenate(maps))


# --- the report ---------------------------------------------------------------


@dataclass
class SelfTestReport:
    distances: dict[str, float]
    junk_norm: float


def _gram_ladders(strategy: Strategy, party: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """Stage one resolved per control value and seen through stage two, for
    the party's signs -1 and +1 (entry s > 0), each at its slices' columns.

    ladder[s][j] = R L[j][:, C_j], where R is the party's stage-two R factor,
    L[j] = U^e(j) P(j) is stage one on control value j, C_j the columns of
    P(j) (Strategy.stage_one_columns; L[j] is 0 on every other column) and
    e(j) = _u_exponents(s)[j]: P(j) = (1/d) sum_k omega^(-jk) O^k is the
    Fourier transform over the powers of O, so that stage one maps a state
    matrix S to the control slices B[jA, jB] = L_A[jA] S L_B[jB]^T.  At the
    ideal's exact support a slice holds 4 columns, and none at j = 0.  While
    the ladders are written, the party's stacks of P(j) and of the powers of
    U are held besides them, and no plain ladder L is ever formed.
    """
    params = strategy.params
    d = params.d
    root = strategy.derived(_stage2_factors, party)[1]
    columns = strategy.stage_one_columns(party)
    fourier = qft(d).conj() / math.sqrt(d)
    fourier_o = np.tensordot(fourier, _powers(strategy.observable(party, "O"), d), axes=1)
    u_pow = _powers(strategy.observable(party, "U"), d - 1)
    return tuple(
        tuple(root @ (u_pow[e] @ fourier_o[j][:, columns[j]]) for j, e in enumerate(_u_exponents(params, sign)))
        for sign in (-1, 1)
    )


def selftest_footprint(d: int, da: int, db: int) -> int:
    """Amplitudes selftest_report holds at once, at most, for a (da, db) state.

    These are the four Gram-scaled ladders at full width; besides them,
    either one party's stacks of P(j) and of U's powers while its ladders
    are written, or Bob's left-out factors (the one being built included)
    and one label's support factors; and at most 64 n x n matrices: both
    parties' stage-two factors and observables, and the temporaries of one
    QR or of one label.  This is the dense bound, for a strategy that
    derives all of it itself.  The ideal's memo keeps the stage-two factors,
    the observables and Bob's left-out factors across records, with ladders
    of 4 columns a slice (see the module docstring), and the residual probes
    of robustness.relation_residuals besides: a record that keeps the
    ideal's bases holds less than this count while the call runs.
    """
    n = max(da, db)
    ladders = 2 * d * (da * da + db * db)
    return ladders + max(2 * d * n * n, 2 * d * db * db + (d - 1) * da * db) + 64 * n * n


def _sq(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


def _left_out_roots(strategy: Strategy, sign: int) -> np.ndarray:
    """R factors of the n (m, m) blocks of Bob's ladder for sign, one left out.

    Block k is ladder entry k in Bob's stage-one columns k, 0 elsewhere
    (_gram_ladders).  Entry k >= 1 satisfies R^H R = sum over k' != k of
    block[k']^H block[k']; entry 0 stacks all n blocks.  Every factor comes
    from a QR of two stacked (m, m) factors.  Nothing but the output and one
    block at a time is held: entry k first holds the suffix factor of
    blocks k + 1 .., built from the back, and a forward pass replaces it
    with the QR of the running prefix factor of blocks .. k - 1 stacked on it.
    """
    ladder = strategy.derived(_gram_ladders, "B")[sign > 0]
    columns = strategy.stage_one_columns("B")
    n, m = len(ladder), ladder[0].shape[0]

    def block(k: int) -> np.ndarray:
        out = np.zeros((m, m), dtype=complex)
        out[:, columns[k]] = ladder[k]
        return out

    out = np.empty((n, m, m), dtype=complex)
    out[n - 1] = 0
    for k in range(n - 2, 0, -1):
        out[k] = np.linalg.qr(np.concatenate((block(k + 1), out[k + 1])), mode="r")
    prefix = np.linalg.qr(np.concatenate((np.zeros((m, m), dtype=complex), block(0))), mode="r")
    for k in range(1, n):
        out[k] = np.linalg.qr(np.concatenate((prefix, out[k])), mode="r")
        prefix = np.linalg.qr(np.concatenate((prefix, block(k))), mode="r")  # blocks .. k
    out[0] = prefix
    return out


def selftest_report(strategy: Strategy) -> SelfTestReport:
    """Distances of the isometry outputs from junk (x) EPR^2 (x) target.

    junk is the unnormalized contraction of the output against the EPR and
    control targets; no optimization over junk states is performed.

    The stage-two output is never built.  Stage one is factored into the
    per-control-value ladders of _gram_ladders, shared by all nine labels;
    stage two enters through one reduced QR per party of the four stacked
    one-party maps of _stage2_factors, stack = Q R.  Every stage-two block of
    a control slice B is then Q_A (R_A B R_B^T) Q_B^T, so only the small
    factor X = R_A B R_B^T is formed.  On the d-1 slices where the target
    is nonzero, junk = 1/2 sum_l Q_A,l X_C Q_B,l^T with X_C = sum_j
    conj(t_j) X_j, and the explicit residual of the slice against
    t_j (1/2 I_4 (x) junk) splits orthogonally along the range of Q_A . Q_B^T:
    ||X_j - t_j J||^2 with J = 1/2 sum_l Q_A,l^H junk conj(Q_B,l), plus
    |t_j|^2 ||Q_A J Q_B^T - 1/2 I_4 (x) junk||^2, formed once per label.
    Every other slice adds ||X||^2 = <B, G_A B G_B^T> with
    G = sum_l M_l^H M_l = R^H R, which holds whether or not stage two is an
    isometry.  A control row j_A meets the support in at most one column
    k, so its off-support slices add ||R_A L_A[j_A] psi R_k^T||^2, where
    R_k is the R factor of Bob's Gram-scaled ladder with block k left out
    (all blocks for row 0; see _left_out_roots), shared by all labels.
    Every term is the squared norm of an explicitly formed array, never a
    difference of squared norms such as ||v||^2 - ||junk||^2, so
    near-ideal distances keep their absolute accuracy.

    The only (d, n, n)-sized arrays held at once are the four Gram-scaled
    ladders, Bob's left-out factors and one (d-1, dim_a, dim_b) stack of a
    label's support factors X_j.  Everything else is formed one n x n slice
    at a time: per control row j_A, the product R_A L_A[j_A] psi, formed
    from the rows of psi that the slice's columns pick and used at once for
    that row's off-support term and, through Bob's slice columns, its
    support factor; the residuals X_j - t_j J, in place; and Q_A J Q_B^T,
    one of its 16 blocks at a time.
    """
    params = strategy.params
    da, db = strategy.state.shape
    d = params.d
    footprint = selftest_footprint(d, da, db)
    if footprint > MAX_SELFTEST_ELEMENTS:
        raise ResourceError(f"self-test would hold {footprint} amplitudes at once, above the cap")
    # the QR factors, the ladders and Bob's left-out factors depend on the bases alone
    q_a, q_b = (strategy.derived(_stage2_factors, party)[0] for party in "AB")
    q_pairs = list(zip(q_a.reshape(4, da, da), q_b.reshape(4, db, db)))  # (Q_A,l, Q_B,l)
    columns = {party: strategy.stage_one_columns(party) for party in "AB"}
    gram_ladders = {(party, s): strategy.derived(_gram_ladders, party)[s > 0] for party in "AB" for s in (-1, 1)}
    left_out_t = {s: strategy.derived(_left_out_roots, s).transpose(0, 2, 1) for s in (-1, 1)}  # R_k^T, Bob's sign s

    distances: dict[str, float] = {}
    junk_norm = float("nan")
    x = np.empty((d - 1, da, db), dtype=complex)  # the support factors X_j of one label
    for label, (pre, (s_a, s_b), index_rule, c) in LABELS.items():
        psi = strategy.state
        if pre is not None:
            op = strategy.observable(*pre)
            psi = op @ psi if pre[0] == "A" else psi @ op.T
        # the target t[a j, b j] = omega^(c j) / sqrt(d-1) meets control row i at
        # j = i / a, in Bob's column b j; row 0, off it, reads column 0, the all-blocks factor
        a, b = (sign * pow(params.r, -k, d) for sign, k in index_rule)
        a_inv = pow(a, -1, d)
        j_of_row = [a_inv * i % d for i in range(d)]
        t_support = np.array([params.omega_d ** (c * j % d) for j in j_of_row[1:]]) / math.sqrt(d - 1)
        ladders_a, ladders_b, roots_t = gram_ladders["A", s_a], gram_ladders["B", s_b], left_out_t[s_b]
        # each n x n product is dropped once used, so that few are held next to x
        off_support = 0.0
        for i, j in enumerate(j_of_row):
            k = b * j % d
            left = ladders_a[i] @ psi[columns["A"][i]]  # R_A L_A[i] psi, from the rows of psi the slice reads
            off_support += _sq(left @ roots_t[k])
            if i:
                np.matmul(left[:, columns["B"][k]], ladders_b[k].T, out=x[i - 1])  # R_A B_i R_B^T
            del left
        del psi
        x_c = np.tensordot(t_support.conj(), x, axes=1)
        junk = 0.5 * sum(qa @ x_c @ qb.T for qa, qb in q_pairs)
        del x_c
        proj = 0.5 * sum(qa.conj().T @ junk @ qb.conj() for qa, qb in q_pairs)

        for x_j, t_j in zip(x, t_support):
            x_j -= t_j * proj
        outside = 0.0
        for l, (qa, _) in enumerate(q_pairs):
            qa_proj = qa @ proj
            for m, (_, qb) in enumerate(q_pairs):
                block = qa_proj @ qb.T  # block (l, m) of Q_A J Q_B^T
                if l == m:
                    block -= 0.5 * junk
                outside += _sq(block)
        total = _sq(x) + _sq(t_support) * outside + off_support
        distances[label] = math.sqrt(total)
        if label == "psi":
            junk_norm = float(np.linalg.norm(junk))

    return SelfTestReport(distances=distances, junk_norm=junk_norm)
