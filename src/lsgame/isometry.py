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
builds it: it streams the contraction over control slices (see its
docstring).  The dense stages live in the test suite, as the reference
selftest_report is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .evaluation import correlation_distance
from .linalg import eye, qft
from .numtheory import PrimeParams, discrete_log
from .strategy import (
    COMM_GENS,
    Correlation,
    Strategy,
    alice_observable,
    bob_observable,
    generate_correlation,
)

#: One row per report label, in report order:
#:   (pre-applied (party, operator) or None,
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


def strategy_unitaries(strategy: Strategy) -> dict[str, np.ndarray]:
    """O and U for both parties, extracted from the strategy's observables."""
    return {
        "OA": alice_observable(strategy, "a1") @ alice_observable(strategy, "a2"),
        "UA": alice_observable(strategy, "a3") @ alice_observable(strategy, "a4"),
        "OB": bob_observable(strategy, "a1") @ bob_observable(strategy, "a2"),
        "UB": bob_observable(strategy, "a3") @ bob_observable(strategy, "a4"),
    }


def _powers(m: np.ndarray, count: int) -> list[np.ndarray]:
    out = [np.eye(m.shape[0], dtype=complex)]
    for _ in range(count - 1):
        out.append(out[-1] @ m)
    return out


def _u_exponents(params: PrimeParams, sign: int) -> list[int]:
    """Power of U on each control value j: 0 at j = 0, else log(sign*j) mod (d-1)."""
    d = params.d
    return [0] + [discrete_log(params, sign * j) % (d - 1) for j in range(1, d)]


def _stage2_maps(obs: dict[str, np.ndarray]) -> np.ndarray:
    """One-party action of the swap circuit, resolved per ancilla outcome.

    The H / controlled-g / H / controlled-f sandwich on ancillas (l1, l2)
    collapses to F0^l2 F2^l1 (1+(-1)^l2 G0)/2 (1+(-1)^l1 G2)/2; the maps are
    stacked with (l1, l2) in lexicographic order, l2 fastest.
    """
    one = eye(obs["f0"].shape[0])
    maps = []
    for l1 in (0, 1):
        for l2 in (0, 1):
            m = ((one + (-1) ** l2 * obs["g0"]) / 2) @ ((one + (-1) ** l1 * obs["g2"]) / 2)
            if l1:
                m = obs["f2"] @ m
            if l2:
                m = obs["f0"] @ m
            maps.append(m)
    return np.stack(maps)


# --- targets and the report ---------------------------------------------------


def control_target(label: str, params: PrimeParams) -> np.ndarray:
    """Normalized control-register state the theorem predicts for a label."""
    if label not in LABELS:
        raise DomainError(f"unknown report label {label!r}")
    _, _, index_rule, c = LABELS[label]
    d = params.d
    r_inv = params.r_inverse()
    a, b = (sign * pow(r_inv, k, d) for sign, k in index_rule)
    t = np.zeros((d, d), dtype=complex)
    for j in range(1, d):
        t[(a * j) % d, (b * j) % d] = params.omega_d ** ((c * j) % d)
    return t.reshape(-1) / math.sqrt(d - 1)


@dataclass
class SelfTestReport:
    distances: dict[str, float]
    junk_norm: float
    epsilon: float

    def to_dict(self) -> dict:
        return {
            "distances": {k: float(v) for k, v in self.distances.items()},
            "junk_norm": float(self.junk_norm),
            "epsilon": float(self.epsilon),
        }


def _ladders(ops: dict[str, np.ndarray], params: PrimeParams) -> dict[tuple[str, int], np.ndarray]:
    """Stage one resolved per control value, for each (party, sign).

    ladders[party, s][j] = U^e(j) P(j), where P(j) = (1/d) sum_k omega^(-jk) O^k
    is the Fourier transform over the powers of O and e(j) = _u_exponents(s)[j],
    so that stage one maps a state matrix S to the control slices
    B[jA, jB] = L_A[jA] S L_B[jB]^T.
    """
    d = params.d
    fourier = qft(d).conj() / math.sqrt(d)
    ladders = {}
    for party in "AB":
        fourier_o = np.tensordot(fourier, np.stack(_powers(ops["O" + party], d)), axes=1)
        u_pow = _powers(ops["U" + party], d - 1)
        for sign in (-1, 1):
            ladders[party, sign] = np.stack([u_pow[e] for e in _u_exponents(params, sign)]) @ fourier_o
    return ladders


def _sq(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


def selftest_report(strategy: Strategy, ideal: Correlation) -> SelfTestReport:
    """Distances of the isometry outputs from junk (x) EPR^2 (x) target.

    junk is the unnormalized contraction of the output against the EPR and
    control targets; no optimization over junk states is performed.

    The stage-two output is never built.  Stage one is factored into the
    per-control-value ladders of _ladders, shared by all nine labels; stage
    two enters through the four one-party maps M_l of _stage2_maps.  On the
    d-1 control slices where the target is nonzero,
    C = sum_j conj(t_j) B_j gives junk = 1/2 sum_l Ma_l C Mb_l^T, and each
    slice adds its explicit residual sum_{l,m} ||Ma_l B_j Mb_m^T
    - 1/2 delta_lm t_j junk||^2.  Every other slice adds
    <B_j, G_A B_j G_B^T> with G = sum_l M_l^H M_l, evaluated as
    ||K_A B_j K_B^T||^2 with K^H K = G and one control row at a time.  The
    Gram form holds whether or not stage two is an isometry.  Every term is
    the squared norm of an explicitly formed array, never a difference of
    squared norms such as ||v||^2 - ||junk||^2, so near-ideal distances keep
    their absolute accuracy.
    """
    params = strategy.params
    da, db = strategy.state.shape
    d = params.d
    # held at once: eight ladders, then per label the support slices, the
    # Gram-scaled rows, one row's slices and one slice's 16 stage-two blocks
    footprint = 4 * d * (da * da + db * db) + (3 * d + 15) * da * db
    if footprint > MAX_SELFTEST_ELEMENTS:
        raise ResourceError(f"self-test would hold {footprint} amplitudes at once, above the cap")
    ops = strategy_unitaries(strategy)
    pre_ops = {
        ("A", "O"): ops["OA"],
        ("A", "U"): ops["UA"],
        ("B", "O"): ops["OB"],
        ("B", "U"): ops["UB"],
        ("A", "a1"): alice_observable(strategy, "a1"),
        ("A", "a2"): alice_observable(strategy, "a2"),
        ("B", "a1"): bob_observable(strategy, "a1"),
        ("B", "a2"): bob_observable(strategy, "a2"),
    }
    maps_a = _stage2_maps({g: alice_observable(strategy, g) for g in COMM_GENS})  # (4, da, da)
    maps_b = _stage2_maps({g: bob_observable(strategy, g) for g in COMM_GENS})  # (4, db, db)
    stack_a = maps_a.reshape(4 * da, da)
    stack_b = maps_b.reshape(4 * db, db)
    ladders = _ladders(ops, params)
    # K = R of a QR factorization: K^H K = stack^H stack = G, without forming G
    roots = {"A": np.linalg.qr(stack_a, mode="r"), "B": np.linalg.qr(stack_b, mode="r")}
    gram_ladders = {key: roots[key[0]] @ lad for key, lad in ladders.items()}

    distances: dict[str, float] = {}
    junk_norm = float("nan")
    for label, (pre, (s_a, s_b), _, _) in LABELS.items():
        psi = strategy.state
        if pre is not None:
            op = pre_ops[pre]
            psi = op @ psi if pre[0] == "A" else psi @ op.T
        t = control_target(label, params).reshape(d, d)
        rows, cols = np.nonzero(t)
        t_support = t[rows, cols]
        slices = ladders["A", s_a][rows] @ psi @ ladders["B", s_b][cols].transpose(0, 2, 1)
        c = np.tensordot(t_support.conj(), slices, axes=1)
        junk = 0.5 * sum(ma @ c @ mb.T for ma, mb in zip(maps_a, maps_b))

        total = 0.0
        for t_j, b_j in zip(t_support, slices):
            out = (stack_a @ b_j @ stack_b.T).reshape(4, da, 4, db)
            for l in range(4):
                out[l, :, l, :] -= 0.5 * t_j * junk
            total += _sq(out)
        left = gram_ladders["A", s_a] @ psi  # (d, da, db)
        right = gram_ladders["B", s_b].reshape(d * db, db)
        for j_a in range(d):
            row = (left[j_a] @ right.T).reshape(da, d, db)
            total += _sq(row[:, t[j_a] == 0])
        distances[label] = math.sqrt(total)
        if label == "psi":
            junk_norm = float(np.linalg.norm(junk))

    eps = correlation_distance(generate_correlation(strategy), ideal)
    return SelfTestReport(distances=distances, junk_norm=junk_norm, epsilon=eps)
