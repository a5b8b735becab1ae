import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lsgame import (
    ResourceError,
    Strategy,
    build_full_test,
    build_ideal_strategy,
    build_representation,
    correlation_distance,
    make_params,
    relation_residuals,
    selftest_report,
)
import lsgame.isometry as iso
from lsgame.isometry import LABELS, REPORT_LABELS, selftest_footprint
from lsgame.linalg import Basis, eye, qft
from lsgame.numtheory import discrete_log
from lsgame.robustness import KINDS, PerturbationSpec, certify, perturb_strategy
from lsgame.strategy import COMM_GENS, STAGE_ONE_COLUMNS, var_label

#: the three (s_A, s_B) exponent-sign pairs that the report labels use
SIGN_PAIRS = ((-1, 1), (1, 1), (-1, -1))

#: two EPR pairs on the ancillas, in register order a1 b1 a2 b2
EPR = np.eye(2).reshape(-1) / np.sqrt(2)
EPR4 = np.kron(EPR, EPR).astype(complex)


# --- dense reference: both isometry stages built in full -----------------------


def _powers(m, exponents):
    return np.stack([np.linalg.matrix_power(m, e) for e in exponents])


def _controlled(stack_a, stack_b, block):
    """stack[j] on a party's factor when its control register holds j."""
    return np.einsum("jxa,kyb,abjk->xyjk", stack_a, stack_b, block, optimize=True)


def phi1_dense(state, observable, params, signs=(-1, 1)):
    """Stage one on a (da, db) state matrix: the (da, db, d, d) output with controls A', B'.

    Fourier transform both controls (from |0, 0>), apply O^k on control value
    k, undo the transform, then apply U^log(s*j) on control value j != 0;
    observable(party, name) gives O and U, as Strategy.observable does.
    """
    d = params.d
    f = qft(d)
    block = np.einsum("ab,j,k->abjk", state, f[:, 0], f[:, 0])
    block = _controlled(_powers(observable("A", "O"), range(d)), _powers(observable("B", "O"), range(d)), block)
    block = np.einsum("abjk,xj,yk->abxy", block, f.conj(), f.conj(), optimize=True)  # F^-1 = conj(F)
    u_exps = [[0] + [discrete_log(params, s * j) % (d - 1) for j in range(1, d)] for s in signs]
    return _controlled(_powers(observable("A", "U"), u_exps[0]), _powers(observable("B", "U"), u_exps[1]), block)


def swap_maps(observable, party):
    """(2, 2, n, n): one party's swap circuit resolved per ancilla outcome
    (l1, l2), which is F0^l2 F2^l1 (1+(-1)^l2 G0)/2 (1+(-1)^l1 G2)/2."""
    obs = {g: observable(party, g) for g in COMM_GENS}
    one = eye(obs["f0"].shape[0])
    f0, f2 = (np.stack([one, obs[g]]) for g in ("f0", "f2"))  # f^0, f^1
    g0, g2 = (np.stack([one + obs[g], one - obs[g]]) / 2 for g in ("g0", "g2"))  # outcome projectors
    return np.array([[f0[l2] @ f2[l1] @ g0[l2] @ g2[l1] for l2 in (0, 1)] for l1 in (0, 1)])


def phi2_dense(state, observable):
    """Stage two on a (da, db, ...) state: (da, db, a1, b1, a2, b2, ...), the
    trailing factors (e.g. stage-one controls) untouched."""
    maps = (swap_maps(observable, party) for party in "AB")
    return np.einsum("ijxa,klyb,ab...->xyikjl...", *maps, state, optimize=True)


def ideal_setup(d, r=None):
    p = make_params(d, r)
    rep = build_representation(p)
    test = build_full_test(p)
    return p, rep, test, build_ideal_strategy(p, rep, test)


def phi1(strat, signs=(-1, 1)):
    return phi1_dense(strat.state, strat.observable, strat.params, signs)


def control_target(label, params):
    """The label's normalized control-register target, dense: t[a j, b j] =
    omega^(c j) / sqrt(d-1) for j = 1 .. d-1, with a, b and c read off LABELS."""
    _, _, index_rule, c = LABELS[label]
    d = params.d
    a, b = (sign * pow(params.r, -k, d) for sign, k in index_rule)
    t = np.zeros((d, d), dtype=complex)
    for j in range(1, d):
        t[(a * j) % d, (b * j) % d] = params.omega_d ** ((c * j) % d)
    return t.reshape(-1) / np.sqrt(d - 1)


def dense_report(strat):
    """Per label (||v - junk (x) target||, ||junk||) from the full stage-two output v."""
    out = {}
    for label, (pre, signs, _, _) in LABELS.items():
        state = strat.state
        if pre is not None:
            op = strat.observable(*pre)
            state = op @ state if pre[0] == "A" else state @ op.T
        stage_one = phi1_dense(state, strat.observable, strat.params, signs)
        v = phi2_dense(stage_one, strat.observable).reshape(strat.state.size, -1)
        target = np.kron(EPR4, control_target(label, strat.params))
        junk = v @ target.conj()
        out[label] = (np.linalg.norm(v - np.outer(junk, target)), np.linalg.norm(junk))
    return out


def assert_matches_dense(strat, context):
    report = selftest_report(strat)
    dense = dense_report(strat)
    for label, (dist, junk_norm) in dense.items():
        assert abs(report.distances[label] - dist) <= 1e-12, (context, label, report.distances[label], dist)
    assert abs(report.junk_norm - dense["psi"][1]) <= 1e-12, context


def ideal_psi1(strat, d):
    # project A's last factor onto its highest basis state
    w = d - 1
    s = strat.state.reshape(2, 2, w, 2, 2, w).copy()
    keep = s[:, :, w - 1, :, :, :].copy()
    s[:] = 0
    s[:, :, w - 1, :, :, :] = keep
    return s.reshape(-1)


def test_phi1_ideal_hits_target():
    for d in (3, 5):
        p, rep, test, strat = ideal_setup(d)
        out = phi1(strat)
        assert abs(np.linalg.norm(out) - 1) <= 1e-10
        psi1 = ideal_psi1(strat, d)
        target = np.kron(np.sqrt(d - 1) * psi1, control_target("psi", p))
        overlap = abs(np.vdot(target, out))
        assert overlap >= 1 - 1e-8


def test_phi1_identity_operators_do_nothing():
    p, rep, test, strat = ideal_setup(3)
    da = strat.state.shape[0]
    out = phi1_dense(strat.state, lambda party, name: eye(da), p)
    want = np.zeros((da, da, 3, 3), dtype=complex)
    want[:, :, 0, 0] = strat.state
    assert np.linalg.norm(out - want) <= 1e-12


def test_phi1_norm_preserved_for_perturbed_strategy():
    _, _, _, strat = ideal_setup(3)
    pert = perturb_strategy(strat, PerturbationSpec("both", 0.05, 123))
    for signs in SIGN_PAIRS:
        assert abs(np.linalg.norm(phi1(pert, signs)) - 1) <= 1e-10


def test_phi2_ideal_extracts_epr_pairs():
    for d in (3, 5):
        p, rep, test, strat = ideal_setup(d)
        scaled = np.sqrt(d - 1) * ideal_psi1(strat, d).reshape(strat.state.shape)
        v = phi2_dense(scaled, strat.observable).reshape(strat.state.size, 16)
        junk = v @ EPR4.conj()
        assert np.linalg.norm(v - np.outer(junk, EPR4)) <= 1e-8
        assert abs(np.linalg.norm(junk) - 1) <= 1e-8


def test_phi2_identity_observables_deterministic_product():
    _, _, _, strat = ideal_setup(3)
    da = strat.state.shape[0]
    out = phi2_dense(strat.state, lambda party, name: eye(da))
    want = np.zeros((da * da, 16), dtype=complex)
    want[:, 0] = strat.state.reshape(-1)  # ancillas all |0>
    assert np.linalg.norm(out.reshape(da * da, 16) - want) <= 1e-12


def test_phi2_keeps_trailing_registers():
    _, _, _, strat = ideal_setup(3)
    out = phi2_dense(phi1(strat), strat.observable)
    assert out.shape == (8, 8, 2, 2, 2, 2, 3, 3)
    assert abs(np.linalg.norm(out) - 1) <= 1e-10


def test_isometry_reads_the_strategy_alone():
    # the self-test is about the isometry: it imports no scoring of
    # correlations (evaluation) and no perturbation harness (robustness)
    tree = ast.parse(Path(iso.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add("lsgame." * (node.level == 1) + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    ours = {name.removeprefix("lsgame.") for name in modules if name.startswith("lsgame.")}
    assert ours == {"errors", "linalg", "numtheory", "strategy"}, ours


def test_selftest_report_ideal():
    # (5, 3), (7, 5) and the roots of 11 and 13 other than 2 are non-minimal,
    # so the r^-1 in the UA/UB targets and the logs of _u_exponents differ
    # from the smallest root's; every other delta-0 self-test uses r in {2, 3, 5}
    for d, r in ((3, None), (5, None), (5, 3), (7, 5), (11, 6), (11, 7), (11, 8), (13, 6), (13, 7), (13, 11)):
        p, rep, test, strat = ideal_setup(d, r)
        rec = certify(strat, strat.correlation(), PerturbationSpec("both", 0.0, 0))
        assert set(rec.distances) == set(REPORT_LABELS)
        for label, dist in rec.distances.items():
            assert dist <= 1e-8, (d, r, label, dist)
        assert abs(rec.junk_norm - 1) <= 1e-8
        assert rec.epsilon == 0


def test_selftest_report_matches_dense_reference():
    # 1e-6 and 1e-5 straddle the threshold where an earlier version switched
    # from the explicit residual to sqrt(||v||^2 - ||junk||^2)
    for d, r in ((3, None), (5, None), (5, 3), (7, 5)):
        p, rep, test, strat = ideal_setup(d, r)
        for kind in ("state", "rotate", "both"):
            for delta in (1e-6, 1e-5, 1e-4, 1e-2):
                pert = perturb_strategy(strat, PerturbationSpec(kind, delta, 17))
                assert_matches_dense(pert, (d, r, kind, delta))


def test_selftest_report_non_isometric_stage_two():
    # f0's basis vectors scaled by sqrt(0.9) on both sides, so its
    # observable is 0.9 times a unitary: sum_l M_l^H M_l is no longer the
    # identity, so off-support slices must be weighted by the Gram matrix
    p, rep, test, strat = ideal_setup(5)
    pert = perturb_strategy(strat, PerturbationSpec("both", 1e-2, 4))
    key = var_label("f0")

    def scale(basis):
        return Basis(np.sqrt(0.9) * basis.vectors, basis.outcomes)

    scaled = dataclasses.replace(
        pert,
        alice={**pert.alice, key: scale(pert.alice[key])},
        bob={**pert.bob, key: scale(pert.bob[key])},
    )
    np.testing.assert_allclose(scaled.observable("A", "f0"), 0.9 * pert.observable("A", "f0"), atol=1e-14)
    assert abs(np.linalg.norm(phi2_dense(scaled.state, scaled.observable)) - 1) > 1e-3
    assert_matches_dense(scaled, "f0 scaled by 0.9")


def test_selftest_report_rank_deficient_stage_two():
    # f0's and f2's basis vectors zeroed on both sides, so both observables
    # vanish: only the (0, 0) ancilla map survives, so each party's stacked
    # stage-two maps lose rank and R is singular.
    # (f0 alone is not enough: the ideal Gram matrix is then 1/2.)
    p, rep, test, strat = ideal_setup(5)
    keys = (var_label("f0"), var_label("f2"))

    def zero(basis):
        return Basis(np.zeros_like(basis.vectors), basis.outcomes)

    for base in (strat, perturb_strategy(strat, PerturbationSpec("both", 1e-2, 4))):
        zeroed = dataclasses.replace(
            base,
            alice={**base.alice, **{k: zero(base.alice[k]) for k in keys}},
            bob={**base.bob, **{k: zero(base.bob[k]) for k in keys}},
        )
        assert np.abs(zeroed.observable("B", "f2")).max() == 0.0
        da = zeroed.state.shape[0]
        for party in "AB":
            stack = swap_maps(zeroed.observable, party).reshape(4 * da, da)
            assert np.linalg.matrix_rank(stack) < da
        assert_matches_dense(zeroed, "f0 and f2 zeroed")


def test_selftest_report_streams():
    # no stage-two output is built: the call's allocation peak stays below
    # the bytes of one (da, db, 2,2,2,2, d, d) array
    p, rep, test, strat = ideal_setup(7)
    stage_two_bytes = strat.state.size * 16 * 7 * 7 * 16
    tracemalloc.start()
    try:
        report = selftest_report(strat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(report.distances.values()) <= 1e-8
    assert peak < stage_two_bytes / 4, (peak, stage_two_bytes)


def _traced(call):
    """(call's result, bytes it leaves allocated, its traced peak in bytes)."""
    tracemalloc.start()
    try:
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


@pytest.mark.parametrize("d", [7, 13])
def test_selftest_report_holds_at_most_its_footprint(d):
    # the guard counts what the call holds: on a fresh rotated strategy, and
    # on a state record of a fresh ideal, it builds every basis-derived
    # factor itself (observables, stage-two factors, ladders, Bob's left-out
    # factors), and its traced peak stays within the guard's amplitude count
    # of complex128 bytes; the state record's ladders are the ideal's, at
    # 4 columns a slice, which the dense count bounds too
    for kind in ("rotate", "state"):
        _, _, _, ideal = ideal_setup(d)
        strat = perturb_strategy(ideal, PerturbationSpec(kind, 1e-3, 3))
        _, _, peak = _traced(lambda: selftest_report(strat))
        da, db = strat.state.shape
        assert peak <= 16 * selftest_footprint(d, da, db), (kind, peak, 16 * selftest_footprint(d, da, db))


@pytest.mark.parametrize("d", [7, 13])
def test_certify_holds_the_bases_the_guarded_self_test_and_the_correlation(d):
    # a rotated copy keeps its ladders and Bob's left-out factors in its memo
    # while certify forms its correlation and residuals: the call's traced
    # peak stays within the copy's bases, the self-test's guarded count of
    # complex128 bytes and the correlation
    _, _, _, ideal = ideal_setup(d)
    ideal_corr = ideal.correlation()
    spec = PerturbationSpec("rotate", 1e-3, 3)
    copy, bases, _ = _traced(lambda: perturb_strategy(ideal, spec))
    _, corr_bytes, _ = _traced(copy.correlation)
    _, _, peak = _traced(lambda: certify(ideal, ideal_corr, spec))
    n = ideal.state.shape[0]
    assert peak <= bases + 16 * selftest_footprint(d, n, n) + corr_bytes, (peak, bases, corr_bytes)


@pytest.mark.parametrize("d, r", [(3, None), (5, None), (7, None), (13, None), (13, 7)])
def test_thin_and_dense_ladders_agree(d, r):
    # the ideal's memo holds each stage-one slice at its exact 4 columns
    # (none at j = 0); a dataclasses.replace copy starts with an empty memo
    # and takes the same code with all n columns.  On the ideal and two
    # state records both give the same report: within 1e-15 where the state
    # is perturbed, and within 2e-15 at the ideal, whose distances are
    # rounding noise of a few 1e-15 and where the dense ladders' float
    # leakage on the dropped columns reads up to 1.3e-15 more at d = 13
    _, _, _, ideal = ideal_setup(d, r)
    n = ideal.state.shape[0]
    columns = ideal.stage_one_columns("A")
    assert len(columns[0]) == 0 and all(len(c) == 4 for c in columns[1:])
    assert sorted(np.concatenate(columns).tolist()) == list(range(n))
    records = [ideal] + [perturb_strategy(ideal, PerturbationSpec("state", delta, 6)) for delta in (1e-3, 1e-2)]
    for strat, tol in zip(records, (2e-15, 1e-15, 1e-15)):
        thin, dense = selftest_report(strat), selftest_report(dataclasses.replace(strat))
        for label, dist in thin.distances.items():
            assert abs(dense.distances[label] - dist) <= tol, (d, r, label, dist, dense.distances[label])
        assert abs(dense.junk_norm - thin.junk_norm) <= tol, (d, r)
    thin_a = ideal.derived(("Gram ladders", "A"), None)
    assert [m.shape for m in thin_a[0]] == [(n, 0)] + [(n, 4)] * (d - 1)


def test_shifted_stage_one_columns_break_the_ideal():
    # the seeded support carries weight, so it must be decided exactly: in a
    # copy of the ideal whose memo holds each slice's last column shifted by
    # one index, a delta-0 distance reads far from 0; with every column
    # shifted, the slices read only columns where P(j) is 0, and the junk
    # norm, 1 at the ideal, drops to 0
    _, _, _, ideal = ideal_setup(5)
    n = ideal.state.shape[0]
    columns = ideal.stage_one_columns("A")
    report = selftest_report(ideal)
    assert max(report.distances.values()) <= 1e-13 and abs(report.junk_norm - 1) <= 1e-13
    one = tuple(np.append(c[:-1], (c[-1:] + 1) % n) for c in columns)
    every = tuple((c + 1) % n for c in columns)
    for shifted in (one, every):
        copy = dataclasses.replace(ideal)
        for party in "AB":
            copy.derived((STAGE_ONE_COLUMNS, party), lambda: shifted)
        report = selftest_report(copy)
        if shifted is one:
            assert max(report.distances.values()) > 1e-8, report
        else:
            assert report.junk_norm <= 1e-8, report


def test_selftest_report_resource_guard(monkeypatch):
    p, rep, test, strat = ideal_setup(3)
    monkeypatch.setattr(iso, "MAX_SELFTEST_ELEMENTS", 100)
    with pytest.raises(ResourceError):
        selftest_report(strat)


def test_selftest_report_contaminated_state():
    p, rep, test, strat = ideal_setup(3)
    rec = certify(strat, strat.correlation(), PerturbationSpec("state", 1e-4, 9))
    assert rec.epsilon > 0
    for dist in rec.distances.values():
        assert np.isfinite(dist)
    assert 0 <= rec.junk_norm <= 1 + 1e-9


def test_variant_outputs_share_ancilla_marginal():
    # all three sign pairs leave the four ancillas in two EPR pairs
    p, rep, test, strat = ideal_setup(3)
    want = np.outer(EPR4, EPR4.conj())
    for signs in SIGN_PAIRS:
        v = phi2_dense(phi1(strat, signs), strat.observable).reshape(strat.state.size, 16, 9)
        rho = np.einsum("iaj,ibj->ab", v, v.conj())
        assert np.linalg.norm(rho - want) <= 1e-8


def test_strategy_o_and_u_are_unitary():
    _, _, _, strat = ideal_setup(5)
    for key in (("A", "O"), ("A", "U"), ("B", "O"), ("B", "U")):
        op = strat.observable(*key)
        assert np.linalg.norm(op @ op.conj().T - np.eye(op.shape[0])) <= 1e-10, key


def test_prime_variant_targets():
    # the unphased diagonal target for the second CHSH observable
    p, rep, test, strat = ideal_setup(5)
    report = selftest_report(strat)
    assert report.distances["M2_psi"] <= 1e-8
    assert report.distances["N2_psi"] <= 1e-8


def haar_unitary(rng, n):
    """A Haar-random n x n unitary: QR of a complex Gaussian matrix, R's
    diagonal phases moved into Q."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def locally_rotated(strat, u_a, u_b):
    """The strategy seen through U_A (x) U_B: state U_A S U_B^T, every Alice
    basis V -> U_A V and every Bob basis W -> U_B W."""

    def rotate(bases, u):
        return {q: Basis(u @ basis.vectors, basis.outcomes) for q, basis in bases.items()}

    state = u_a @ strat.state @ u_b.T
    return Strategy(strat.params, strat.test, state, rotate(strat.alice, u_a), rotate(strat.bob, u_b))


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("delta", [0.0, 1e-2])
def test_local_unitary_invariance(d, delta):
    # a self-test certifies the state only up to local unitaries: rotating
    # the state and every basis by U_A (x) U_B changes no correlation table,
    # epsilon, distance, junk norm or residual
    _, _, test, ideal = ideal_setup(d)
    strat = perturb_strategy(ideal, PerturbationSpec("both", delta, 4))
    rng = np.random.default_rng(d)
    u_a, u_b = (haar_unitary(rng, n) for n in strat.state.shape)
    rotated = locally_rotated(strat, u_a, u_b)
    ideal_corr = ideal.correlation()

    tables, moved = strat.correlation().entries, rotated.correlation().entries
    assert max(float(np.abs(moved[key] - table).max()) for key, table in tables.items()) <= 1e-13
    before, after = selftest_report(strat), selftest_report(rotated)
    assert set(after.distances) == set(REPORT_LABELS)
    for label, dist in before.distances.items():
        assert abs(after.distances[label] - dist) <= 1e-13, (label, dist, after.distances[label])
    assert abs(after.junk_norm - before.junk_norm) <= 1e-13
    eps_before, eps_after = (correlation_distance(s.correlation(), ideal_corr) for s in (strat, rotated))
    assert abs(eps_after - eps_before) <= 1e-13
    residuals, rotated_residuals = relation_residuals(strat), relation_residuals(rotated)
    assert len(residuals) == 7
    for name, value in residuals.items():
        assert abs(rotated_residuals[name] - value) <= 1e-13, (name, value, rotated_residuals[name])


def with_junk(strat, junk):
    """The strategy tensored with a junk factor: state S (x) J, every Alice
    basis V -> V (x) I and every Bob basis W -> W (x) I, of J's row and
    column counts, each answer keeping the columns of its old ones."""

    def lift(bases, m):
        return {q: Basis(np.kron(b.vectors, np.eye(m)), np.repeat(b.outcomes, m, axis=1)) for q, b in bases.items()}

    ja, jb = junk.shape
    return Strategy(strat.params, strat.test, np.kron(strat.state, junk), lift(strat.alice, ja), lift(strat.bob, jb))


def unit_junk(d):
    """A seeded random complex 2 x 3 junk factor of unit Frobenius norm."""
    rng = np.random.default_rng(d)
    junk = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    return junk / np.linalg.norm(junk)


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_junk_factor_invariance(d, kind, delta):
    # a self-test certifies the state only up to a junk factor: with a 2 x 3
    # junk J of unit norm the local dimensions differ (2n and 3n), and
    # epsilon, every distance and the junk norm stay as they were
    _, _, _, ideal = ideal_setup(d)
    strat = perturb_strategy(ideal, PerturbationSpec(kind, delta, 4))  # perturbed first, then lifted
    lifted = with_junk(strat, unit_junk(d))
    n = strat.state.shape[0]
    assert lifted.state.shape == (2 * n, 3 * n)
    ideal_corr = ideal.correlation()
    before, after = selftest_report(strat), selftest_report(lifted)
    assert set(after.distances) == set(REPORT_LABELS)
    for label, dist in before.distances.items():
        assert abs(after.distances[label] - dist) <= 1e-12, (label, dist, after.distances[label])
    assert abs(after.junk_norm - before.junk_norm) <= 1e-12
    eps_before, eps_after = (correlation_distance(s.correlation(), ideal_corr) for s in (strat, lifted))
    assert abs(eps_after - eps_before) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_unequal_dimensions_match_dense_reference(kind):
    # the invariance above compares the report with itself, so it cannot see
    # a fault that moves both sizes alike (a transposed Q_B factor does):
    # here the lifted strategy, dims 16 x 24, meets the dense stages
    _, _, _, ideal = ideal_setup(3)
    lifted = with_junk(perturb_strategy(ideal, PerturbationSpec(kind, 1e-3, 4)), unit_junk(3))
    assert_matches_dense(lifted, kind)


def padded(strat, pad_a, pad_b):
    """The strategy embedded with a zero-amplitude block: state [[S, 0], [0, 0]]
    with pad_a more rows and pad_b more columns, every basis blockdiag(V, I),
    each pad column given to answer 0."""

    def embed(bases, pad):
        out = {}
        for q, b in bases.items():
            n, m = b.vectors.shape
            vectors = np.block([[b.vectors, np.zeros((n, pad))], [np.zeros((pad, m)), np.eye(pad)]])
            to_answer_0 = np.repeat(np.eye(len(b.outcomes), 1, dtype=b.outcomes.dtype), pad, axis=1)
            out[q] = Basis(vectors, np.hstack([b.outcomes, to_answer_0]))
        return out

    state = np.pad(strat.state, ((0, pad_a), (0, pad_b)))
    return Strategy(strat.params, strat.test, state, embed(strat.alice, pad_a), embed(strat.bob, pad_b))


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_padding_invariance(d, kind, delta):
    # a self-test certifies the state only up to a local isometry: embedding
    # it next to a zero-amplitude block (Alice padded by 2, Bob by 3) changes
    # no distance, epsilon or junk norm
    _, _, _, ideal = ideal_setup(d)
    strat = perturb_strategy(ideal, PerturbationSpec(kind, delta, 4))  # perturbed first, then embedded
    big = padded(strat, 2, 3)
    n = strat.state.shape[0]
    assert big.state.shape == (n + 2, n + 3)
    ideal_corr = ideal.correlation()
    before, after = selftest_report(strat), selftest_report(big)
    assert set(after.distances) == set(REPORT_LABELS)
    for label, dist in before.distances.items():
        assert abs(after.distances[label] - dist) <= 1e-12, (label, dist, after.distances[label])
    assert abs(after.junk_norm - before.junk_norm) <= 1e-12
    eps_before, eps_after = (correlation_distance(s.correlation(), ideal_corr) for s in (strat, big))
    assert abs(eps_after - eps_before) <= 1e-12


def test_size_guard_sees_the_padding(monkeypatch):
    # the guard counts the padded dimensions: with the cap at the unpadded
    # footprint it accepts the strategy and refuses its padded embedding
    _, _, _, ideal = ideal_setup(3)
    big = padded(ideal, 2, 3)
    small_footprint = selftest_footprint(3, *ideal.state.shape)
    assert small_footprint < selftest_footprint(3, *big.state.shape)
    monkeypatch.setattr(iso, "MAX_SELFTEST_ELEMENTS", small_footprint)
    assert max(selftest_report(ideal).distances.values()) <= 1e-8
    with pytest.raises(ResourceError):
        selftest_report(big)
