"""Perturbation harness: approximate strategies, residual probes, sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .evaluation import correlation_distance
from .isometry import REPORT_LABELS, selftest_report
from .linalg import Basis, rotate_bases, worst
from .numtheory import PrimeParams
from .strategy import COMM_GENS, Correlation, Strategy, answer_table, ext_labels

KINDS = ("state", "rotate", "both")

#: largest trial and magnitude counts of one sweep.  Record seeds are
#: base_seed*10^6 + kind*10^5 + magnitude*10^3 + trial, so within these caps
#: no two records of a sweep share a seed, and, every other term being a
#: multiple of 1000, a seed's parity is its trial's: fit_bound splits on it.
MAX_TRIALS = 1000
MAX_MAGNITUDES = 100

#: rotation generators drawn and applied together: the block bounds the
#: memory of one batched eigvalsh and one Horner pass (rotate_bases)
GENERATOR_BLOCK = 16

#: relative slack on C_fit, so that a held-out ratio equal to it up to rounding is no violation
FIT_SLACK = 1e-9

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
    """kind "state": noisy shared state; "rotate": rotated measurement bases,
    V -> exp(i magnitude h) V for one seeded Hermitian generator h of unit
    operator norm per party per question, applied as a Taylor polynomial
    (linalg.rotate_bases); "both": rotations first, then state noise.
    magnitude 0, stored as 0.0 when given as -0.0, leaves the strategy as
    it is: perturb_strategy returns its input.  seed must be non-negative."""

    kind: str
    magnitude: float
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown perturbation kind {self.kind!r}")
        if not (0.0 <= self.magnitude <= 0.5):
            raise DomainError(f"magnitude must lie in [0, 0.5], got {self.magnitude}")
        object.__setattr__(self, "magnitude", abs(self.magnitude))
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")

    def fields(self, params: PrimeParams) -> dict:
        """The SweepRecord fields that name this perturbation of the (d, r) ideal."""
        return {"d": params.d, "r": params.r, "kind": self.kind, "delta": self.magnitude, "seed": self.seed}


def perturb_strategy(ideal: Strategy, spec: PerturbationSpec) -> Strategy:
    """Deterministic perturbed copy of a strategy: a rotation takes a basis V
    to exp(i delta h) V (linalg.rotate_bases), and bases left unrotated are
    the input's read-only objects, not copies.  At magnitude 0 it returns
    the input itself; for kind "state" the copy is ideal.with_state, which
    shares what the bases determine."""
    delta = spec.magnitude
    if delta == 0:
        return ideal
    rng = np.random.default_rng(spec.seed)
    state = ideal.state
    alice, bob = dict(ideal.alice), dict(ideal.bob)
    if spec.kind in ("rotate", "both"):
        # one generator per question, in each party's question order
        for fams, answers in ((alice, ideal.test.alice_answers), (bob, ideal.test.bob_answers)):
            questions = list(answers)
            for start in range(0, len(questions), GENERATOR_BLOCK):
                block = questions[start : start + GENERATOR_BLOCK]
                moved = rotate_bases(rng, np.stack([fams[q].vectors for q in block]), delta)
                for q, vectors in zip(block, moved):
                    fams[q] = Basis(vectors, fams[q].outcomes)
    if spec.kind in ("state", "both"):
        g = rng.standard_normal(state.size) + 1j * rng.standard_normal(state.size)
        g = g.reshape(state.shape) / np.linalg.norm(g)
        state = state + delta * g
        state /= np.linalg.norm(state)
    if spec.kind == "state":
        return ideal.with_state(state)
    return Strategy(params=ideal.params, test=ideal.test, state=state, alice=alice, bob=bob)


def _residual_operators(strategy: Strategy) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The operators relation_residuals applies to psi that the bases alone
    determine: O_A^r; half = (p0 + i X p1 - i X p0 + p1) / 2, which maps psi
    to psi_1, p0 and p1 Alice's Z-basis projectors on the distinguished
    subspace and X her X-basis observable; and the twelve commutators
    [probe, M(s)] of comm, for each s in COMM_GENS in turn probe = p0, p1, X.
    """
    obs = strategy.observable
    _, z, x = ext_labels(strategy.test.n_vars)
    z_basis = strategy.basis("A", z)
    p0, p1 = z_basis.operator((1, 0, 0)), z_basis.operator((0, 1, 0))
    x_obs = obs("A", x)
    half = 0.5 * (p0 + 1j * (x_obs @ p1) - 1j * (x_obs @ p0) + p1)
    comm = tuple(probe @ mg - mg @ probe for mg in (obs("A", g) for g in COMM_GENS) for probe in (p0, p1, x_obs))
    return np.linalg.matrix_power(obs("A", "O"), strategy.params.r), half, comm


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

    M(s) and N(s) are the observables of FullTest.readout.  Built
    from orthonormal bases they square to 1, so for a unit psi
    ||M N psi - psi||^2 = 2 - 2 <M N> = 4 P(a != b) on the pair of their
    questions: sync reads 2 sqrt(P(a != b)) off the strategy's correlation,
    and contracts alone the pairs (x(s), x(s)), s in COMM_GENS, that lie
    outside the support.  equation applies each factor in its basis
    (Basis.reflect), so no per-variable observable is formed.  The
    operators that the bases alone determine (_residual_operators) are
    derived once per set of bases, so a record that keeps the ideal's bases
    only applies them to psi.
    """
    test = strategy.test
    params = strategy.params
    system = test.system
    s = strategy.state
    norm = lambda m: float(np.linalg.norm(m))  # noqa: E731
    obs = strategy.observable

    tables = strategy.correlation().entries
    sync = []
    for g in system.variables:
        (qa, signs_a), (qb, signs_b) = test.readout["A", g], test.readout["B", g]
        table = tables.get((qa, qb))
        if table is None:  # (x(s), x(s)) for s in COMM_GENS
            alice = strategy.basis("A", qa)
            table = answer_table(alice.vectors.conj().T @ s, alice, strategy.basis("B", qb))
        sync.append(2 * math.sqrt(table[np.not_equal.outer(signs_a, signs_b)].sum()))

    equation = []
    for i in range(system.n_rows):
        prod = s
        for g in reversed(system.row_names(i)):
            qa, signs = test.readout["A", g]
            prod = strategy.basis("A", qa).reflect(signs, prod)
        equation.append(norm(prod - (-1) ** system.rhs[i] * s))

    o_a_r, half, commutators = strategy.derived(("residual operators", "A"), partial(_residual_operators, strategy))
    o_a, u_a = obs("A", "O"), obs("A", "U")
    conjugacy = norm(o_a @ u_a.conj().T @ s - u_a.conj().T @ o_a_r @ s)

    psi1 = half @ s
    w = params.d - 1
    psi1_norm = abs(norm(psi1) ** 2 - 1.0 / w)

    eig_bob = norm(psi1 @ obs("B", "O").T - params.omega_d * psi1)
    eig_alice = norm(o_a @ psi1 - psi1 / params.omega_d)

    comm = [norm(c @ s) for c in commutators]

    return {
        "sync": worst(sync),
        "equation": worst(equation),
        "conjugacy": conjugacy,
        "psi1_norm": psi1_norm,
        "eig_bob": eig_bob,
        "eig_alice": eig_alice,
        "comm": worst(comm),
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


def _dist_column(label: str) -> str:
    return "dist_" + label.removesuffix("_psi")


CSV_COLUMNS = (
    ("d", "r", "kind", "delta", "seed", "epsilon")
    + tuple(map(_dist_column, REPORT_LABELS))
    + ("junk_norm",)
    + tuple(f"res_{label}" for label in RESIDUAL_LABELS)
)


def record_row(rec: SweepRecord) -> list[str]:
    """rec's cells, read by name in CSV_COLUMNS order: text as it is, a number as its repr."""
    cells = dict(vars(rec))
    cells.update((_dist_column(label), v) for label, v in rec.distances.items())
    cells.update((f"res_{label}", v) for label, v in rec.residuals.items())
    return [cell if isinstance(cell, str) else repr(cell) for cell in map(cells.__getitem__, CSV_COLUMNS)]


def records_to_csv(records: list[SweepRecord]) -> str:
    return "".join(",".join(row) + "\n" for row in [CSV_COLUMNS, *map(record_row, records)])


def certify(ideal: Strategy, ideal_corr: Correlation, spec: PerturbationSpec) -> SweepRecord:
    """The record of one perturbation: perturb_strategy(ideal, spec), its
    selftest_report, its epsilon against ideal_corr, then its
    relation_residuals.  The self-test runs first, so its size guard fires
    before the copy's correlation or residuals are formed.  The self-test's
    ladders and Bob's left-out factors stay in the copy's basis memo while
    its correlation and residuals are formed, so the call holds, at most,
    the copy's bases, what the self-test's guard counts
    (isometry.selftest_footprint) and the correlation.

    The perturbed copy, its correlation and a rotated copy's basis memo die
    when the call returns; an unrotated copy's memo is the ideal's, kept
    across records, and at magnitude 0 the copy is the ideal itself.
    """
    strategy = perturb_strategy(ideal, spec)
    report = selftest_report(strategy)
    epsilon = correlation_distance(strategy.correlation(), ideal_corr)
    return SweepRecord(
        **spec.fields(ideal.params), epsilon=epsilon, **vars(report), residuals=relation_residuals(strategy)
    )


def run_sweep(
    ideal: Strategy,
    ideal_corr: Correlation,
    magnitudes: list[float],
    trials: int,
    kinds: tuple[str, ...] = ("both",),
    base_seed: int = 0,
) -> list[SweepRecord]:
    """One certify record per (kind, magnitude, trial); deterministic given base_seed.
    DomainError unless there are 1 to MAX_MAGNITUDES magnitudes and 1 to
    MAX_TRIALS trials, and base_seed is non-negative.
    """
    if trials < 1 or not magnitudes:
        raise DomainError(f"a sweep needs a magnitude and a trial, got {len(magnitudes)} and {trials}")
    if trials > MAX_TRIALS or len(magnitudes) > MAX_MAGNITUDES:
        raise DomainError(
            f"a sweep takes at most {MAX_MAGNITUDES} magnitudes and {MAX_TRIALS} trials,"
            f" got {len(magnitudes)} and {trials}"
        )
    if base_seed < 0:
        raise DomainError(f"seed must be non-negative, got {base_seed}")
    records = []
    for ki, kind in enumerate(kinds):
        for mi, delta in enumerate(magnitudes):
            for trial in range(trials):
                seed = base_seed * 1_000_000 + ki * 100_000 + mi * 1_000 + trial
                records.append(certify(ideal, ideal_corr, PerturbationSpec(kind=kind, magnitude=delta, seed=seed)))
    records.sort(key=lambda rec: (rec.kind, rec.delta, rec.seed))
    return records


def fit_bound(records: list[SweepRecord]) -> dict:
    """Log-log fit of the state distance against epsilon, and its envelope.

    The fit and C_fit, the smallest constant with distance <= C_fit *
    epsilon^(1/8), use the n_fit even-seed records; violations counts the
    n_held_out odd-seed records above C_fit * (1 + FIT_SLACK), which the fit
    has not seen, and is None when there are none (a one-trial sweep).
    Records with epsilon 0 are left out.  DomainError, naming the first
    record whose epsilon or psi distance is not finite, or with fewer than 3
    distinct positive epsilon values among the even-seed records.
    """
    for rec in records:
        if not (math.isfinite(rec.epsilon) and math.isfinite(rec.distances["psi"])):
            raise DomainError(
                f"record ({rec.kind}, delta={rec.delta!r}, seed={rec.seed}) has epsilon {rec.epsilon!r}"
                f" and psi distance {rec.distances['psi']!r}: a fit needs finite values"
            )
    pts = [(rec.seed % 2, rec.epsilon, rec.distances["psi"]) for rec in records if rec.epsilon > 0]
    fit = [(e, dist) for odd, e, dist in pts if not odd]
    if len({e for e, _ in fit}) < 3:
        raise DomainError("need at least 3 distinct positive epsilon values among the even-seed records")
    logs = np.array([(math.log(e), math.log(max(dist, 1e-300))) for e, dist in fit])
    slope, intercept = np.polyfit(logs[:, 0], logs[:, 1], 1)
    c_fit = max(dist / e ** 0.125 for e, dist in fit)
    held_out = [dist / e ** 0.125 for odd, e, dist in pts if odd]
    return {
        "exponent_fit": float(slope),
        "log_intercept": float(intercept),
        "C_fit": float(c_fit),
        "violations": sum(1 for rho in held_out if rho > c_fit * (1 + FIT_SLACK)) if held_out else None,
        "n_fit": len(fit),
        "n_held_out": len(held_out),
        "n_points": len(pts),
    }
