"""Perturbation harness: approximate strategies, residual probes, sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .isometry import REPORT_LABELS, selftest_report
from .linalg import hermitian_exponential, random_hermitian
from .strategy import (
    Correlation,
    Strategy,
    alice_observable,
    bob_observable,
    family_observable,
)

KINDS = ("state", "rotate", "both")

RESIDUAL_LABELS = (
    "sync",
    "equation",
    "conjugacy",
    "psi1_norm",
    "eig_bob",
    "eig_alice",
    "comm",
)


@dataclass(frozen=True)
class PerturbationSpec:
    """kind "state": noisy shared state; "rotate": conjugated measurement
    families (one seeded Hermitian generator per party per question);
    "both": rotations first, then state noise.  magnitude 0 reproduces the
    input strategy bit-for-bit."""

    kind: str
    magnitude: float
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown perturbation kind {self.kind!r}")
        if not (0.0 <= self.magnitude <= 0.5):
            raise DomainError(f"magnitude must lie in [0, 0.5], got {self.magnitude}")


def perturb_strategy(ideal: Strategy, spec: PerturbationSpec) -> Strategy:
    """Deterministic perturbed copy of a strategy: the state is copied, and
    families left unrotated are the input's read-only arrays, not copies."""
    delta = spec.magnitude
    state = ideal.state.copy()
    alice, bob = dict(ideal.alice), dict(ideal.bob)
    if delta > 0:
        rng = np.random.default_rng(spec.seed)
        if spec.kind in ("rotate", "both"):
            for fams, questions, dim in (
                (alice, ideal.test.alice_questions, ideal.dim_a),
                (bob, ideal.test.bob_questions, ideal.dim_b),
            ):
                for q in questions:
                    u = hermitian_exponential(random_hermitian(dim, rng), delta)
                    fams[q] = u @ fams[q] @ u.conj().T
        if spec.kind in ("state", "both"):
            g = rng.standard_normal(state.size) + 1j * rng.standard_normal(state.size)
            g /= np.linalg.norm(g)
            state = state + delta * g
            state /= np.linalg.norm(state)
    return Strategy(
        params=ideal.params,
        test=ideal.test,
        dim_a=ideal.dim_a,
        dim_b=ideal.dim_b,
        state=state,
        alice=alice,
        bob=bob,
    )


def relation_residuals(strategy: Strategy) -> dict[str, float]:
    """State-dependent residuals of the key algebraic relations.

    sync       max_s || M(s) N(s) psi - psi ||
    equation   max_i || prod_{s in I_i} M(s) psi - (-1)^{c(i)} psi ||
    conjugacy  || O_A U_A^+ psi - U_A^+ O_A^r psi ||
    psi1_norm  | ||psi_1||^2 - 1/(d-1) |
    eig_bob    || N1 N2 psi_1 - omega_d psi_1 ||
    eig_alice  || M1 M2 psi_1 - omega_d^{-1} psi_1 ||
    comm       max over s in {f0,f2,g0,g2} of the three commutator probes
               against the basis-question projectors and observable
    """
    test = strategy.test
    params = strategy.params
    system = test.game.system
    s = strategy.state_matrix()
    norm = lambda m: float(np.linalg.norm(m))  # noqa: E731

    m_obs = {g: alice_observable(strategy, g) for g in system.variables}
    n_obs = {g: bob_observable(strategy, g) for g in system.variables}

    sync = 0.0
    for g in system.variables:
        sync = max(sync, norm(m_obs[g] @ s @ n_obs[g].T - s))

    equation = 0.0
    for i in range(system.n_rows):
        prod = s
        for g in reversed(system.row_names(i)):
            prod = m_obs[g] @ prod
        equation = max(equation, norm(prod - (-1) ** system.rhs[i] * s))

    o_a = m_obs["a1"] @ m_obs["a2"]
    u_a = m_obs["a3"] @ m_obs["a4"]
    o_a_r = np.linalg.matrix_power(o_a, params.r)
    conjugacy = norm(o_a @ u_a.conj().T @ s - u_a.conj().T @ o_a_r @ s)

    p0, p1 = strategy.alice_family(test.ext_z)[:2]
    x_obs = family_observable(strategy.alice_family(test.ext_x))
    half = 0.5 * (p0 + 1j * (x_obs @ p1) - 1j * (x_obs @ p0) + p1)
    psi1 = half @ s
    w = params.d - 1
    psi1_norm = abs(norm(psi1) ** 2 - 1.0 / w)

    o_b = n_obs["a1"] @ n_obs["a2"]
    eig_bob = norm(psi1 @ o_b.T - params.omega_d * psi1)
    eig_alice = norm(o_a @ psi1 - psi1 / params.omega_d)

    comm = 0.0
    for g in ("f0", "f2", "g0", "g2"):
        mg = m_obs[g]
        for probe in (p0, p1, x_obs):
            comm = max(comm, norm(probe @ mg @ s - mg @ probe @ s))

    return {
        "sync": sync,
        "equation": equation,
        "conjugacy": conjugacy,
        "psi1_norm": psi1_norm,
        "eig_bob": eig_bob,
        "eig_alice": eig_alice,
        "comm": comm,
    }


@dataclass
class SweepRecord:
    d: int
    r: int
    kind: str
    delta: float
    seed: int
    epsilon: float
    distances: dict[str, float]
    junk_norm: float
    residuals: dict[str, float]


CSV_COLUMNS = (
    "d",
    "r",
    "kind",
    "delta",
    "seed",
    "epsilon",
    "dist_psi",
    "dist_OA",
    "dist_OB",
    "dist_UA",
    "dist_UB",
    "dist_M1",
    "dist_M2",
    "dist_N1",
    "dist_N2",
    "junk_norm",
) + tuple(f"res_{label}" for label in RESIDUAL_LABELS)


def record_row(rec: SweepRecord) -> list[str]:
    row = [
        str(rec.d),
        str(rec.r),
        rec.kind,
        repr(rec.delta),
        str(rec.seed),
        repr(rec.epsilon),
    ]
    for label in REPORT_LABELS:
        row.append(repr(rec.distances[label]))
    row.append(repr(rec.junk_norm))
    for label in RESIDUAL_LABELS:
        row.append(repr(rec.residuals[label]))
    return row


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(record_row(rec)))
    return "\n".join(lines) + "\n"


def run_sweep(
    ideal: Strategy,
    ideal_corr: Correlation,
    magnitudes: list[float],
    trials: int,
    kinds: tuple[str, ...] = ("both",),
    base_seed: int = 0,
) -> list[SweepRecord]:
    """One record per (kind, magnitude, trial); deterministic given base_seed.
    DomainError unless there is at least one magnitude and one trial.

    selftest_report's size guard raises ResourceError on the first record
    when the strategy is too large for its streamed contraction; no d up to
    make_params' cap of 31 is.
    """
    if trials < 1 or not magnitudes:
        raise DomainError(f"a sweep needs a magnitude and a trial, got {len(magnitudes)} and {trials}")
    records = []
    for ki, kind in enumerate(kinds):
        for mi, delta in enumerate(magnitudes):
            for trial in range(trials):
                seed = base_seed * 1_000_000 + ki * 100_000 + mi * 1_000 + trial
                spec = PerturbationSpec(kind=kind, magnitude=delta, seed=seed)
                pert = perturb_strategy(ideal, spec)
                report = selftest_report(pert, ideal_corr)
                records.append(
                    SweepRecord(
                        d=ideal.params.d,
                        r=ideal.params.r,
                        kind=kind,
                        delta=delta,
                        seed=seed,
                        epsilon=report.epsilon,
                        distances=report.distances,
                        junk_norm=report.junk_norm,
                        residuals=relation_residuals(pert),
                    )
                )
    records.sort(key=lambda rec: (rec.kind, rec.delta, rec.seed))
    return records


def fit_bound(records: list[SweepRecord], tol_fit: float = 1e-9) -> dict:
    """Log-log fit of the state distance against epsilon, plus the envelope.

    C_fit is the smallest constant with distance <= C_fit * epsilon^(1/8)
    over all records; violations counts records above C_fit * (1 + tol_fit),
    zero by construction.
    """
    pts = [(rec.epsilon, rec.distances["psi"]) for rec in records if rec.epsilon > 0]
    if len({e for e, _ in pts}) < 3:
        raise DomainError("need at least 3 distinct positive epsilon values")
    logs = np.array([(math.log(e), math.log(max(dist, 1e-300))) for e, dist in pts])
    slope, intercept = np.polyfit(logs[:, 0], logs[:, 1], 1)
    ratios = [dist / e ** 0.125 for e, dist in pts]
    c_fit = max(ratios)
    violations = sum(1 for rho in ratios if rho > c_fit * (1 + tol_fit))
    return {
        "exponent_fit": float(slope),
        "log_intercept": float(intercept),
        "C_fit": float(c_fit),
        "violations": int(violations),
        "n_points": len(pts),
    }
