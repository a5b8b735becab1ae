"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import math
import statistics
import time

import numpy as np
import pytest
from chsh_reference import bell_operator, chsh_ideal_instance, expectation, sos_residuals
from dense_reference import brute_force_primitive

from lsgame import (
    build_conjugacy_triples,
    build_full_test,
    build_ideal_strategy,
    build_linear_system,
    build_representation,
    generate_correlation,
    ideal_table_values,
    key_unitaries,
    ls_winning_probability_from_correlation,
    make_params,
    relation_residuals,
    run_sweep,
    records_to_csv,
    selftest_report,
    table_deviation,
    verify_representation,
)
from lsgame.numtheory import is_odd_prime
from lsgame.robustness import RESIDUAL_LABELS
from lsgame.strategy import ext_labels

DEMO = ((3, 2), (5, 2), (7, 3), (11, 2), (13, 2))


@pytest.fixture(scope="module")
def family():
    """Ideal pipeline for every demo (d, r), built once."""
    out = {}
    for d, r in DEMO:
        params = make_params(d, r)
        rep = build_representation(params)
        test = build_full_test(params)
        strategy = build_ideal_strategy(params, rep, test)
        out[(d, r)] = (params, rep, test, strategy)
    return out


def test_criterion_1_representation_verification(family):
    for d, r in DEMO:
        params, rep, test, _ = family[(d, r)]
        t0 = time.time()
        residual = verify_representation(rep, test.system)
        conj_residual = key_unitaries(rep)
        elapsed = time.time() - t0
        assert residual <= 1e-9, (d, r, residual)
        assert conj_residual <= 1e-9, (d, r, conj_residual)
        assert elapsed < 5.0, (d, r, elapsed)
        print(f"PASS criterion 1 (d={d}, r={r}): residual {residual:.2e}, "
              f"conjugation {conj_residual:.2e}, {elapsed:.2f}s")


def test_criterion_2_counting_formulas():
    for r in (2, 3, 5):
        system = build_linear_system(r)
        assert system.n_vars == 16 * r + 75
        assert system.n_rows == 14 * r + 62
        assert sum(system.rhs) == 1
        assert len(build_conjugacy_triples(r)) == r + 3
        print(f"PASS criterion 2 (r={r}): generators {system.n_vars}, "
              f"equations {system.n_rows}, triples {r + 3}")


def test_criterion_3_perfect_play(family):
    for d, r in DEMO:
        _, _, test, strategy = family[(d, r)]
        win = ls_winning_probability_from_correlation(generate_correlation(strategy, test), test)
        assert abs(win - 1.0) <= 1e-10, (d, r, win)
        print(f"PASS criterion 3 (d={d}, r={r}): winning probability {win:.12f}")


def test_criterion_4_correlation_tables(family):
    for d, r in DEMO:
        params, _, test, strategy = family[(d, r)]
        corr = generate_correlation(strategy, test)
        reference = ideal_table_values(params, test)
        deviation = table_deviation(corr, reference)
        assert deviation <= 1e-10, (d, r, deviation)
        if d == 3:
            _, ext_z, _ = ext_labels(test.n_vars)
            degenerate = reference[(ext_z, ext_z)][(2, 2)]
            assert degenerate == 0.0
            assert abs(corr.entries[(ext_z, ext_z)][2, 2]) <= 1e-10
        print(f"PASS criterion 4 (d={d}, r={r}): max table deviation {deviation:.2e}")


def test_criterion_5_weighted_chsh_and_sos(random_binary_observable):
    alphas = (1.0, 1 / math.tan(math.pi / 5), 1 / math.tan(math.pi / 7))
    for alpha in alphas:
        state, m1, m2, n1, n2 = chsh_ideal_instance(alpha)
        value = expectation(bell_operator(alpha, m1, m2, n1, n2), state)
        assert abs(value - 2 * math.sqrt(1 + alpha**2)) <= 1e-10, alpha
    rng = np.random.default_rng(2024)
    worst1 = worst2 = 0.0
    dims = ((2, 2), (4, 4), (6, 6), (4, 2), (6, 2))
    for trial in range(100):
        da, db = dims[trial % len(dims)]
        m1, m2 = (random_binary_observable(da, rng) for _ in range(2))
        n1, n2 = (random_binary_observable(db, rng) for _ in range(2))
        res1, res2 = sos_residuals(1.0, m1, m2, n1, n2)
        worst1 = max(worst1, res1)
        worst2 = max(worst2, res2)
    assert worst2 <= 1e-9, worst2
    assert worst1 <= 1e-9, worst1  # flag as finding if ever violated
    print(f"PASS criterion 5: ideal value exact for 3 alphas; over 100 random "
          f"instances res1 <= {worst1:.2e}, res2 <= {worst2:.2e}")


def test_criterion_6_selftest_ideal(family):
    for d in (3, 5):
        params, _, test, strategy = family[(d, 2)]
        t0 = time.time()
        report = selftest_report(strategy)
        elapsed = time.time() - t0
        worst = max(report.distances.values())
        assert worst <= 1e-8, (d, report.distances)
        assert abs(report.junk_norm - 1.0) <= 1e-8, (d, report.junk_norm)
        assert elapsed < 30.0, (d, elapsed)
        print(f"PASS criterion 6 (d={d}): nine distances <= {worst:.2e}, "
              f"junk norm {report.junk_norm:.10f}, {elapsed:.1f}s")


def test_criterion_7_residual_probes(family):
    for d, r in DEMO:
        _, _, test, strategy = family[(d, r)]
        residuals = relation_residuals(strategy)
        assert set(residuals) == set(RESIDUAL_LABELS)
        for label, value in residuals.items():
            assert value <= 1e-9, (d, label, value)
        worst = max(residuals.values())
        print(f"PASS criterion 7 (d={d}, r={r}): all residual probes <= {worst:.2e}")


def test_criterion_8_robustness_sweep(family):
    params, _, test, strategy = family[(3, 2)]
    corr = generate_correlation(strategy, test)
    magnitudes = [1e-4, 1e-3, 1e-2]
    t0 = time.time()
    records = run_sweep(strategy, corr, magnitudes, 8, ("both",), base_seed=0)
    elapsed = time.time() - t0
    assert elapsed < 300.0, elapsed
    medians = []
    for delta in magnitudes:
        eps = [rec.epsilon for rec in records if rec.delta == delta]
        assert len(eps) == 8
        medians.append(statistics.median(eps))
    assert medians[0] < medians[1] < medians[2], medians
    for rec in records:
        for value in rec.distances.values():
            assert np.isfinite(value)
    from lsgame import fit_bound

    fit = fit_bound(records)
    # C_fit is fitted on the even seeds; violations counts the odd seeds above it
    assert (fit["n_fit"], fit["n_held_out"]) == (12, 12)
    assert fit["violations"] == 0
    for rec in records:
        assert rec.distances["psi"] <= fit["C_fit"] * rec.epsilon**0.125 * (1 + 1e-9)
    # a check that can fail: the bootstrap 5th percentile of the log-log slope
    # of dist_psi against epsilon stays at or above the theorem's 1/8, so a
    # regression in which distances stop shrinking with epsilon fails
    logs = np.log([(rec.epsilon, rec.distances["psi"]) for rec in records])
    rng = np.random.default_rng(0)
    slopes = [np.polyfit(*logs[rng.integers(0, len(logs), len(logs))].T, 1)[0] for _ in range(2000)]
    low = float(np.percentile(slopes, 5))
    assert low >= 0.125, low
    print(f"PASS criterion 8: medians {['%.2e' % m for m in medians]}, C_fit {fit['C_fit']:.3f} "
          f"(held-out violations {fit['violations']} of {fit['n_held_out']}), "
          f"exponent {fit['exponent_fit']:.3f} (bootstrap 5th percentile {low:.3f}), {elapsed:.1f}s")


def test_criterion_9_determinism(family):
    params, _, test, strategy = family[(3, 2)]
    corr_a = generate_correlation(strategy, test).to_json()
    corr_b = generate_correlation(strategy, test).to_json()
    assert corr_a.encode() == corr_b.encode()
    ideal_corr = generate_correlation(strategy, test)
    csv_a = records_to_csv(run_sweep(strategy, ideal_corr, [1e-3], 3, ("both",), base_seed=7))
    csv_b = records_to_csv(run_sweep(strategy, ideal_corr, [1e-3], 3, ("both",), base_seed=7))
    assert csv_a.encode() == csv_b.encode()
    print("PASS criterion 9: correlation JSON and sweep CSV byte-identical across runs")


def test_criterion_10_one_game_for_many_dimensions():
    # LS(r) depends on r alone: one game, with one support of 42r + 227
    # pairs, self-tests dimension 4(d-1) for every prime d <= 31 with
    # generator r, whether or not r is the smallest root of d
    for r in (2, 3, 5):
        primes = [d for d in range(r + 1, 32) if is_odd_prime(d) and brute_force_primitive(r, d)]
        tests = [build_full_test(make_params(d, r)) for d in primes]
        assert all(test == tests[0] for test in tests), (r, primes)
        assert len(tests[0].support) == 42 * r + 227, r
        t0 = time.time()
        worst = 0.0
        for d, test in zip(primes, tests):
            params = make_params(d, r)
            strategy = build_ideal_strategy(params, build_representation(params), test)
            report = selftest_report(strategy)
            assert max(report.distances.values()) <= 1e-8, (d, r, report.distances)
            worst = max(worst, *report.distances.values())
        print(f"PASS criterion 10 (r={r}): one test of {len(tests[0].support)} pairs for d in {primes}; "
              f"self-test distances <= {worst:.2e}, {time.time() - t0:.1f}s")
