import statistics

import numpy as np
import pytest

from lsgame import (
    DomainError,
    PerturbationSpec,
    build_full_test,
    build_ideal_strategy,
    build_representation,
    correlation_distance,
    fit_bound,
    generate_correlation,
    make_params,
    perturb_strategy,
    records_to_csv,
    relation_residuals,
    run_sweep,
)
from lsgame.robustness import CSV_COLUMNS, RESIDUAL_LABELS, SweepRecord


def ideal_setup(d):
    p = make_params(d)
    rep = build_representation(p)
    test = build_full_test(p)
    strat = build_ideal_strategy(p, rep, test)
    return p, test, strat, generate_correlation(strat, test)


def test_spec_validation():
    with pytest.raises(DomainError):
        PerturbationSpec("melt", 0.1, 0)
    with pytest.raises(DomainError):
        PerturbationSpec("state", 0.9, 0)
    with pytest.raises(DomainError):
        PerturbationSpec("state", -0.1, 0)


def test_zero_magnitude_is_identity():
    _, test, strat, corr = ideal_setup(3)
    copy = perturb_strategy(strat, PerturbationSpec("both", 0.0, 5))
    assert np.array_equal(copy.state, strat.state)
    for q in strat.alice:
        for a, b in zip(copy.alice[q], strat.alice[q]):
            assert np.array_equal(a, b)
    assert correlation_distance(generate_correlation(copy, test), corr) == 0.0


def test_families_read_only_and_shared_when_not_rotated():
    _, test, strat, _ = ideal_setup(3)
    for fams in (strat.alice, strat.bob):
        for q, fam in fams.items():
            assert isinstance(fam, np.ndarray) and fam.ndim == 3, q
            assert not fam.flags.writeable, q
    for spec in (PerturbationSpec("both", 0.0, 5), PerturbationSpec("state", 1e-3, 5)):
        copy = perturb_strategy(strat, spec)
        assert copy.state is not strat.state
        for q in strat.alice:
            assert copy.alice[q] is strat.alice[q], (spec, q)
        for q in strat.bob:
            assert copy.bob[q] is strat.bob[q], (spec, q)
    rotated = perturb_strategy(strat, PerturbationSpec("rotate", 1e-3, 5))
    for q, fam in rotated.alice.items():
        assert fam is not strat.alice[q] and not fam.flags.writeable, q


def test_same_seed_reproduces():
    _, test, strat, _ = ideal_setup(3)
    spec = PerturbationSpec("both", 1e-3, 77)
    one = perturb_strategy(strat, spec)
    two = perturb_strategy(strat, spec)
    assert np.array_equal(one.state, two.state)
    for q in one.alice:
        for a, b in zip(one.alice[q], two.alice[q]):
            assert np.array_equal(a, b)
    other = perturb_strategy(strat, PerturbationSpec("both", 1e-3, 78))
    assert not np.array_equal(other.state, one.state)


def test_rotations_preserve_families_exactly():
    _, test, strat, _ = ideal_setup(3)
    pert = perturb_strategy(strat, PerturbationSpec("rotate", 0.05, 3))
    for fams in (pert.alice, pert.bob):
        for q, fam in fams.items():
            total = sum(fam)
            np.testing.assert_allclose(total, np.eye(total.shape[0]), atol=1e-12)
            for i, pi in enumerate(fam):
                np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)
                for pj in fam[i + 1 :]:
                    np.testing.assert_allclose(pi @ pj, np.zeros_like(pi), atol=1e-12)


def test_state_noise_epsilon_envelope():
    # expected L1 distance is bounded by 4*delta up to second order
    _, test, strat, corr = ideal_setup(3)
    for delta in (1e-4, 1e-3):
        pert = perturb_strategy(strat, PerturbationSpec("state", delta, 11))
        eps = correlation_distance(generate_correlation(pert, test), corr)
        assert 0 < eps <= 4 * delta + 50 * delta**2


def test_residuals_ideal():
    for d in (3, 5):
        _, test, strat, _ = ideal_setup(d)
        res = relation_residuals(strat)
        assert set(res) == set(RESIDUAL_LABELS)
        for label, value in res.items():
            assert value <= 1e-9, (d, label, value)


def test_psi1_norm_value_d5():
    _, test, strat, _ = ideal_setup(5)
    res = relation_residuals(strat)
    # ||psi_1||^2 = 1/(d-1) = 0.25 at d=5; the residual is the deviation
    assert res["psi1_norm"] <= 1e-9


def test_residuals_positive_when_perturbed():
    _, test, strat, _ = ideal_setup(3)
    pert = perturb_strategy(strat, PerturbationSpec("rotate", 1e-2, 21))
    res = relation_residuals(pert)
    for label, value in res.items():
        assert np.isfinite(value)
        assert value > 0, label


def test_sweep_zero_magnitude():
    _, test, strat, corr = ideal_setup(3)
    records = run_sweep(strat, corr, [0.0], 2, ("both",), base_seed=4)
    for rec in records:
        assert rec.epsilon == 0.0
        assert max(rec.distances.values()) <= 1e-8


def test_sweep_median_monotone():
    _, test, strat, corr = ideal_setup(3)
    records = run_sweep(strat, corr, [1e-4, 1e-3, 1e-2], 4, ("both",), base_seed=1)
    medians = []
    for delta in (1e-4, 1e-3, 1e-2):
        eps = [rec.epsilon for rec in records if rec.delta == delta]
        assert len(eps) == 4
        medians.append(statistics.median(eps))
    assert medians[0] < medians[1] < medians[2]


def test_sweep_deterministic_csv():
    _, test, strat, corr = ideal_setup(3)
    one = records_to_csv(run_sweep(strat, corr, [1e-3], 2, ("state",), base_seed=2))
    two = records_to_csv(run_sweep(strat, corr, [1e-3], 2, ("state",), base_seed=2))
    assert one == two
    assert one.splitlines()[0] == ",".join(CSV_COLUMNS)


def _fake_record(eps, dist):
    distances = {k: dist for k in ("psi", "OA_psi", "OB_psi", "UA_psi", "UB_psi", "M1_psi", "M2_psi", "N1_psi", "N2_psi")}
    residuals = {k: 0.0 for k in RESIDUAL_LABELS}
    return SweepRecord(3, 2, "both", 0.0, 0, eps, distances, 1.0, residuals)


def test_fit_bound_synthetic():
    records = [_fake_record(eps, 2 * eps**0.125) for eps in (1e-6, 1e-4, 1e-2)]
    fit = fit_bound(records)
    assert abs(fit["exponent_fit"] - 0.125) <= 1e-6
    assert abs(fit["C_fit"] - 2.0) <= 1e-9
    assert fit["violations"] == 0


def test_sweep_resource_guard(monkeypatch):
    import lsgame.isometry as iso

    _, test, strat, corr = ideal_setup(3)
    monkeypatch.setattr(iso, "MAX_SELFTEST_ELEMENTS", 100)
    with pytest.raises(iso.ResourceError):
        run_sweep(strat, corr, [1e-3], 1, ("state",), base_seed=0)


def test_fit_bound_needs_spread():
    with pytest.raises(DomainError):
        fit_bound([_fake_record(0.0, 0.0)] * 5)
    with pytest.raises(DomainError):
        fit_bound([_fake_record(1e-3, 0.1)] * 5)
