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
from lsgame.isometry import (
    REPORT_LABELS,
    _epr4,
    control_target,
    phi1_with_operators,
    phi2_with_operators,
    strategy_unitaries,
)
from lsgame.linalg import StateVector, eye
from lsgame.robustness import PerturbationSpec, perturb_strategy
from lsgame.strategy import COMM_GENS, alice_observable, bob_observable

#: the three (s_A, s_B) exponent-sign pairs that the report labels use
SIGN_PAIRS = ((-1, 1), (1, 1), (-1, -1))


def ideal_setup(d, r=None):
    p = make_params(d, r)
    rep = build_representation(p)
    test = build_full_test(p)
    return p, rep, test, build_ideal_strategy(p, rep, test)


def phi1(strat, signs=(-1, 1)):
    dims = (strat.dim_a, strat.dim_b)
    return phi1_with_operators(strat.state, dims, strategy_unitaries(strat), strat.params, signs)


def phi2(strat, state):
    if not isinstance(state, StateVector):
        state = StateVector(state, (strat.dim_a, strat.dim_b))
    obs_a = {g: alice_observable(strat, g) for g in COMM_GENS}
    obs_b = {g: bob_observable(strat, g) for g in COMM_GENS}
    return phi2_with_operators(state, obs_a, obs_b)


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
        assert abs(out.norm - 1) <= 1e-10
        psi1 = ideal_psi1(strat, d)
        target = np.kron(np.sqrt(d - 1) * psi1, control_target("psi", p))
        overlap = abs(np.vdot(target, out.amps))
        assert overlap >= 1 - 1e-8


def test_phi1_identity_operators_do_nothing():
    p, rep, test, strat = ideal_setup(3)
    da = strat.dim_a
    ident = {k: eye(da) for k in ("OA", "OB", "UA", "UB")}
    out = phi1_with_operators(strat.state, (da, da), ident, p, (-1, 1))
    want = np.zeros((da * da, 3, 3), dtype=complex)
    want[:, 0, 0] = strat.state
    assert np.linalg.norm(out.amps - want.reshape(-1)) <= 1e-12


def test_phi1_norm_preserved_for_perturbed_strategy():
    _, _, _, strat = ideal_setup(3)
    pert = perturb_strategy(strat, PerturbationSpec("both", 0.05, 123))
    for signs in SIGN_PAIRS:
        out = phi1(pert, signs)
        assert abs(out.norm - 1) <= 1e-10


def test_phi2_ideal_extracts_epr_pairs():
    for d in (3, 5):
        p, rep, test, strat = ideal_setup(d)
        scaled = np.sqrt(d - 1) * ideal_psi1(strat, d)
        out = phi2(strat, scaled)
        v = out.amps.reshape(strat.dim_a * strat.dim_b, 16)
        epr = _epr4()
        junk = v @ epr.conj()
        assert np.linalg.norm(v - np.outer(junk, epr)) <= 1e-8
        assert abs(np.linalg.norm(junk) - 1) <= 1e-8


def test_phi2_identity_observables_deterministic_product():
    _, _, _, strat = ideal_setup(3)
    da = strat.dim_a
    ident = {g: eye(da) for g in COMM_GENS}
    sv = StateVector(strat.state, (da, da))
    out = phi2_with_operators(sv, ident, ident)
    want = np.zeros((da * da, 16), dtype=complex)
    want[:, 0] = strat.state  # ancillas all |0>
    assert np.linalg.norm(out.amps - want.reshape(-1)) <= 1e-12


def test_phi2_keeps_trailing_registers():
    _, _, _, strat = ideal_setup(3)
    staged = phi1(strat)
    out = phi2(strat, staged)
    assert out.factor_shape == (8, 8, 2, 2, 2, 2, 3, 3)
    assert abs(out.norm - 1) <= 1e-10


def test_selftest_report_ideal():
    # (5, 3) and (7, 5) use non-minimal roots, so the r^-1 in the UA/UB
    # targets differs from the smallest root's inverse
    for d, r in ((3, None), (5, None), (5, 3), (7, 5)):
        p, rep, test, strat = ideal_setup(d, r)
        corr = generate_correlation(strat, test)
        report = selftest_report(strat, corr, test)
        assert set(report.distances) == set(REPORT_LABELS)
        for label, dist in report.distances.items():
            assert dist <= 1e-8, (d, r, label, dist)
        assert abs(report.junk_norm - 1) <= 1e-8
        assert report.epsilon <= 1e-12


def test_selftest_report_resource_guard(monkeypatch):
    import lsgame.isometry as iso

    p, rep, test, strat = ideal_setup(3)
    corr = generate_correlation(strat, test)
    monkeypatch.setattr(iso, "MAX_SELFTEST_ELEMENTS", 100)
    with pytest.raises(ResourceError):
        selftest_report(strat, corr, test)


def test_selftest_report_contaminated_state():
    p, rep, test, strat = ideal_setup(3)
    corr = generate_correlation(strat, test)
    noisy = perturb_strategy(strat, PerturbationSpec("state", 1e-4, 9))
    report = selftest_report(noisy, corr, test)
    assert report.epsilon > 0
    for dist in report.distances.values():
        assert np.isfinite(dist)
    assert 0 <= report.junk_norm <= 1 + 1e-9


def test_variant_outputs_share_ancilla_marginal():
    # all three sign pairs leave the four ancillas in two EPR pairs
    p, rep, test, strat = ideal_setup(3)
    want = np.outer(_epr4(), _epr4().conj())
    for signs in SIGN_PAIRS:
        staged = phi1(strat, signs)
        out = phi2(strat, staged)
        v = out.amps.reshape(strat.dim_a * strat.dim_b, 16, 9)
        rho = np.einsum("iaj,ibj->ab", v, v.conj())
        assert np.linalg.norm(rho - want) <= 1e-8


def test_control_target_rejects_unknown_label():
    p = make_params(3)
    with pytest.raises(DomainError):
        control_target("bogus", p)
    with pytest.raises(DomainError):
        phi1(ideal_setup(3)[3], (0, 1))


def test_strategy_unitaries_are_unitary():
    _, _, _, strat = ideal_setup(5)
    ops = strategy_unitaries(strat)
    for name, op in ops.items():
        assert np.linalg.norm(op @ op.conj().T - np.eye(op.shape[0])) <= 1e-10, name


def test_prime_variant_targets():
    # the unphased diagonal target for the second CHSH observable
    p, rep, test, strat = ideal_setup(5)
    corr = generate_correlation(strat, test)
    report = selftest_report(strat, corr, test)
    assert report.distances["M2_psi"] <= 1e-8
    assert report.distances["N2_psi"] <= 1e-8
