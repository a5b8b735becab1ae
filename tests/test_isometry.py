import dataclasses
import tracemalloc

import numpy as np
import pytest

from lsgame import (
    DomainError,
    ResourceError,
    build_full_test,
    build_ideal_strategy,
    build_representation,
    generate_correlation,
    make_params,
    selftest_report,
)
from lsgame.isometry import LABELS, REPORT_LABELS, control_target, strategy_unitaries
from lsgame.linalg import eye, qft
from lsgame.numtheory import discrete_log
from lsgame.robustness import PerturbationSpec, perturb_strategy
from lsgame.strategy import COMM_GENS, alice_observable, bob_observable, var_label

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


def phi1_dense(state, ops, params, signs=(-1, 1)):
    """Stage one on a (da, db) state matrix: the (da, db, d, d) output with controls A', B'.

    Fourier transform both controls (from |0, 0>), apply O^k on control value
    k, undo the transform, then apply U^log(s*j) on control value j != 0.
    """
    d = params.d
    f = qft(d)
    block = np.einsum("ab,j,k->abjk", state, f[:, 0], f[:, 0])
    block = _controlled(_powers(ops["OA"], range(d)), _powers(ops["OB"], range(d)), block)
    block = np.einsum("abjk,xj,yk->abxy", block, f.conj(), f.conj(), optimize=True)  # F^-1 = conj(F)
    u_exps = [[0] + [discrete_log(params, s * j) % (d - 1) for j in range(1, d)] for s in signs]
    return _controlled(_powers(ops["UA"], u_exps[0]), _powers(ops["UB"], u_exps[1]), block)


def swap_maps(obs):
    """(2, 2, n, n): one party's swap circuit resolved per ancilla outcome
    (l1, l2), which is F0^l2 F2^l1 (1+(-1)^l2 G0)/2 (1+(-1)^l1 G2)/2."""
    one = eye(obs["f0"].shape[0])
    f0, f2 = (np.stack([one, obs[g]]) for g in ("f0", "f2"))  # f^0, f^1
    g0, g2 = (np.stack([one + obs[g], one - obs[g]]) / 2 for g in ("g0", "g2"))  # outcome projectors
    return np.array([[f0[l2] @ f2[l1] @ g0[l2] @ g2[l1] for l2 in (0, 1)] for l1 in (0, 1)])


def phi2_dense(state, obs_a, obs_b):
    """Stage two on a (da, db, ...) state: (da, db, a1, b1, a2, b2, ...), the
    trailing factors (e.g. stage-one controls) untouched."""
    return np.einsum("ijxa,klyb,ab...->xyikjl...", swap_maps(obs_a), swap_maps(obs_b), state, optimize=True)


def ideal_setup(d, r=None):
    p = make_params(d, r)
    rep = build_representation(p)
    test = build_full_test(p)
    return p, rep, test, build_ideal_strategy(p, rep, test)


def phi1(strat, signs=(-1, 1)):
    return phi1_dense(strat.state_matrix(), strategy_unitaries(strat), strat.params, signs)


def phi2(strat, state):
    obs_a = {g: alice_observable(strat, g) for g in COMM_GENS}
    obs_b = {g: bob_observable(strat, g) for g in COMM_GENS}
    return phi2_dense(state, obs_a, obs_b)


def dense_report(strat):
    """Per label (||v - junk (x) target||, ||junk||) from the full stage-two output v."""
    ops = strategy_unitaries(strat)
    out = {}
    for label, (pre, signs, _, _) in LABELS.items():
        state = strat.state_matrix()
        if pre is not None:
            party, name = pre
            if name in ("O", "U"):
                op = ops[name + party]
            else:
                op = (alice_observable if party == "A" else bob_observable)(strat, name)
            state = op @ state if party == "A" else state @ op.T
        v = phi2(strat, phi1_dense(state, ops, strat.params, signs)).reshape(strat.dim_a * strat.dim_b, -1)
        target = np.kron(EPR4, control_target(label, strat.params))
        junk = v @ target.conj()
        out[label] = (np.linalg.norm(v - np.outer(junk, target)), np.linalg.norm(junk))
    return out


def assert_matches_dense(strat, corr, context):
    report = selftest_report(strat, corr)
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
    da = strat.dim_a
    ident = {k: eye(da) for k in ("OA", "OB", "UA", "UB")}
    out = phi1_dense(strat.state_matrix(), ident, p)
    want = np.zeros((da, da, 3, 3), dtype=complex)
    want[:, :, 0, 0] = strat.state_matrix()
    assert np.linalg.norm(out - want) <= 1e-12


def test_phi1_norm_preserved_for_perturbed_strategy():
    _, _, _, strat = ideal_setup(3)
    pert = perturb_strategy(strat, PerturbationSpec("both", 0.05, 123))
    for signs in SIGN_PAIRS:
        assert abs(np.linalg.norm(phi1(pert, signs)) - 1) <= 1e-10


def test_phi2_ideal_extracts_epr_pairs():
    for d in (3, 5):
        p, rep, test, strat = ideal_setup(d)
        scaled = np.sqrt(d - 1) * ideal_psi1(strat, d).reshape(strat.dim_a, strat.dim_b)
        v = phi2(strat, scaled).reshape(strat.dim_a * strat.dim_b, 16)
        junk = v @ EPR4.conj()
        assert np.linalg.norm(v - np.outer(junk, EPR4)) <= 1e-8
        assert abs(np.linalg.norm(junk) - 1) <= 1e-8


def test_phi2_identity_observables_deterministic_product():
    _, _, _, strat = ideal_setup(3)
    da = strat.dim_a
    ident = {g: eye(da) for g in COMM_GENS}
    out = phi2_dense(strat.state_matrix(), ident, ident)
    want = np.zeros((da * da, 16), dtype=complex)
    want[:, 0] = strat.state  # ancillas all |0>
    assert np.linalg.norm(out.reshape(da * da, 16) - want) <= 1e-12


def test_phi2_keeps_trailing_registers():
    _, _, _, strat = ideal_setup(3)
    out = phi2(strat, phi1(strat))
    assert out.shape == (8, 8, 2, 2, 2, 2, 3, 3)
    assert abs(np.linalg.norm(out) - 1) <= 1e-10


def test_selftest_report_ideal():
    # (5, 3) and (7, 5) use non-minimal roots, so the r^-1 in the UA/UB
    # targets differs from the smallest root's inverse
    for d, r in ((3, None), (5, None), (5, 3), (7, 5)):
        p, rep, test, strat = ideal_setup(d, r)
        corr = generate_correlation(strat, test)
        report = selftest_report(strat, corr)
        assert set(report.distances) == set(REPORT_LABELS)
        for label, dist in report.distances.items():
            assert dist <= 1e-8, (d, r, label, dist)
        assert abs(report.junk_norm - 1) <= 1e-8
        assert report.epsilon <= 1e-12


def test_selftest_report_matches_dense_reference():
    # 1e-6 and 1e-5 straddle the threshold where an earlier version switched
    # from the explicit residual to sqrt(||v||^2 - ||junk||^2)
    for d, r in ((3, None), (5, None), (5, 3), (7, 5)):
        p, rep, test, strat = ideal_setup(d, r)
        corr = generate_correlation(strat, test)
        for kind in ("state", "rotate", "both"):
            for delta in (1e-6, 1e-5, 1e-4, 1e-2):
                pert = perturb_strategy(strat, PerturbationSpec(kind, delta, 17))
                assert_matches_dense(pert, corr, (d, r, kind, delta))


def test_selftest_report_non_isometric_stage_two():
    # f0 scaled by 0.9 on both sides: sum_l M_l^H M_l is no longer the
    # identity, so off-support slices must be weighted by the Gram matrix
    p, rep, test, strat = ideal_setup(5)
    corr = generate_correlation(strat, test)
    pert = perturb_strategy(strat, PerturbationSpec("both", 1e-2, 4))
    key = var_label("f0")
    scaled = dataclasses.replace(
        pert,
        alice={**pert.alice, key: 0.9 * pert.alice[key]},
        bob={**pert.bob, key: 0.9 * pert.bob[key]},
    )
    assert abs(np.linalg.norm(phi2(scaled, scaled.state_matrix())) - 1) > 1e-3
    assert_matches_dense(scaled, corr, "f0 scaled by 0.9")


def test_selftest_report_streams(monkeypatch):
    # no stage-two output is built: the call's allocation peak stays below
    # the bytes of one (da, db, 2,2,2,2, d, d) array
    import lsgame.isometry as iso

    p, rep, test, strat = ideal_setup(7)
    corr = generate_correlation(strat, test)
    monkeypatch.setattr(iso, "generate_correlation", lambda strategy: corr)
    stage_two_bytes = strat.dim_a * strat.dim_b * 16 * 7 * 7 * 16
    tracemalloc.start()
    try:
        report = selftest_report(strat, corr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(report.distances.values()) <= 1e-8
    assert peak < stage_two_bytes / 4, (peak, stage_two_bytes)


def test_selftest_report_resource_guard(monkeypatch):
    import lsgame.isometry as iso

    p, rep, test, strat = ideal_setup(3)
    corr = generate_correlation(strat, test)
    monkeypatch.setattr(iso, "MAX_SELFTEST_ELEMENTS", 100)
    with pytest.raises(ResourceError):
        selftest_report(strat, corr)


def test_selftest_report_contaminated_state():
    p, rep, test, strat = ideal_setup(3)
    corr = generate_correlation(strat, test)
    noisy = perturb_strategy(strat, PerturbationSpec("state", 1e-4, 9))
    report = selftest_report(noisy, corr)
    assert report.epsilon > 0
    for dist in report.distances.values():
        assert np.isfinite(dist)
    assert 0 <= report.junk_norm <= 1 + 1e-9


def test_variant_outputs_share_ancilla_marginal():
    # all three sign pairs leave the four ancillas in two EPR pairs
    p, rep, test, strat = ideal_setup(3)
    want = np.outer(EPR4, EPR4.conj())
    for signs in SIGN_PAIRS:
        v = phi2(strat, phi1(strat, signs)).reshape(strat.dim_a * strat.dim_b, 16, 9)
        rho = np.einsum("iaj,ibj->ab", v, v.conj())
        assert np.linalg.norm(rho - want) <= 1e-8


def test_control_target_rejects_unknown_label():
    p = make_params(3)
    with pytest.raises(DomainError):
        control_target("bogus", p)


def test_strategy_unitaries_are_unitary():
    _, _, _, strat = ideal_setup(5)
    ops = strategy_unitaries(strat)
    for name, op in ops.items():
        assert np.linalg.norm(op @ op.conj().T - np.eye(op.shape[0])) <= 1e-10, name


def test_prime_variant_targets():
    # the unphased diagonal target for the second CHSH observable
    p, rep, test, strat = ideal_setup(5)
    corr = generate_correlation(strat, test)
    report = selftest_report(strat, corr)
    assert report.distances["M2_psi"] <= 1e-8
    assert report.distances["N2_psi"] <= 1e-8
