import math

import numpy as np
import pytest

from lsgame import (
    Correlation,
    DomainError,
    PreconditionError,
    StructuralError,
    WeightedChshContext,
    build_full_test,
    build_ideal_strategy,
    build_representation,
    correlation_distance,
    generate_correlation,
    ls_winning_probability_from_correlation,
    make_params,
    sos_residuals,
)
from lsgame.evaluation import bell_value, chsh_ideal_instance, embedded_chsh_value, evaluation_report
from lsgame.lsg import satisfying_assignments
from lsgame.robustness import PerturbationSpec, perturb_strategy
from lsgame.strategy import eq_label, var_label

SZ = np.array([[1, 0], [0, -1]], dtype=complex)

ALPHAS = (1.0, 1 / math.tan(math.pi / 5), 1 / math.tan(math.pi / 7))


def test_context_invariants():
    for alpha in ALPHAS:
        ctx = WeightedChshContext.from_alpha(alpha)
        assert abs(ctx.c**2 + ctx.s**2 - 1) < 1e-14
        assert ctx.imax >= 2 * abs(alpha)
        assert abs(math.tan(ctx.mu) * alpha - 1) < 1e-12
    with pytest.raises(DomainError):
        WeightedChshContext.from_alpha(0.5)


def test_ideal_value_hits_quantum_maximum():
    for alpha in ALPHAS:
        ctx = WeightedChshContext.from_alpha(alpha)
        state, m1, m2, n1, n2 = chsh_ideal_instance(alpha)
        value = bell_value(state, m1, m2, n1, n2, ctx)
        assert abs(value - ctx.imax) <= 1e-10


def test_alpha_one_reaches_two_root_two():
    ctx = WeightedChshContext.from_alpha(1.0)
    state, m1, m2, n1, n2 = chsh_ideal_instance(1.0)
    assert abs(bell_value(state, m1, m2, n1, n2, ctx) - 2 * math.sqrt(2)) <= 1e-12


def test_product_state_respects_classical_bound():
    ctx = WeightedChshContext.from_alpha(1.0)
    _, m1, m2, n1, n2 = chsh_ideal_instance(1.0)
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0  # |00>
    assert bell_value(product, m1, m2, n1, n2, ctx) <= 2 * abs(ctx.alpha) + 1e-12


def test_all_sigma_z_gives_two():
    ctx = WeightedChshContext.from_alpha(1.0)
    state, *_ = chsh_ideal_instance(1.0)
    assert abs(bell_value(state, SZ, SZ, SZ, SZ, ctx) - 2.0) <= 1e-12


def test_chsh_rejects_non_involution():
    ctx = WeightedChshContext.from_alpha(1.0)
    _, m1, m2, n1, n2 = chsh_ideal_instance(1.0)
    with pytest.raises(PreconditionError):
        sos_residuals(0.5 * m1, m2, n1, n2, ctx)


def test_sos_residuals_vanish_on_ideal_grid():
    for alpha in ALPHAS + (2.0, 5.0):
        ctx = WeightedChshContext.from_alpha(alpha)
        _, m1, m2, n1, n2 = chsh_ideal_instance(alpha)
        res1, res2 = sos_residuals(m1, m2, n1, n2, ctx)
        assert res1 <= 1e-9 and res2 <= 1e-9


def test_sos_residuals_vanish_on_random_observables(random_binary_observable):
    # Both decompositions are exact operator identities for arbitrary
    # binary observables, not just the ideal ones; res1's general status
    # is what this test documents.
    rng = np.random.default_rng(42)
    ctx = WeightedChshContext.from_alpha(1.0)
    for dim_a, dim_b in ((2, 2), (4, 2), (6, 4)):
        for _ in range(10):
            m1, m2 = (random_binary_observable(dim_a, rng) for _ in range(2))
            n1, n2 = (random_binary_observable(dim_b, rng) for _ in range(2))
            res1, res2 = sos_residuals(m1, m2, n1, n2, ctx)
            assert res1 <= 1e-9
            assert res2 <= 1e-9


def ideal_setup(d):
    p = make_params(d)
    rep = build_representation(p)
    test = build_full_test(p)
    return p, rep, test, build_ideal_strategy(p, rep, test)


def ls_winning_probability_reference(strategy, test):
    """Expected LS-block score straight from the strategy's projectors."""
    game = test.game
    system = game.system
    s = strategy.state_matrix()
    total = 0.0
    for i, v in game.valid_pairs:
        names = system.row_names(i)
        pos = names.index(system.variables[v])
        fam_a = strategy.alice_family(eq_label(i))
        fam_b = strategy.bob_family(var_label(system.variables[v]))
        for triple in satisfying_assignments(system, i):
            idx = triple[0] * 4 + triple[1] * 2 + triple[2]
            left = fam_a[idx] @ s
            total += float(np.real(np.vdot(s, left @ fam_b[triple[pos]].T)))
    return total / len(game.valid_pairs)


def winning_probability(strategy, test):
    return ls_winning_probability_from_correlation(generate_correlation(strategy, test), test)


def test_ideal_wins_perfectly():
    _, _, test, strat = ideal_setup(3)
    assert abs(winning_probability(strat, test) - 1.0) <= 1e-10


def test_mutated_strategy_wins_less():
    p, rep, test, _ = ideal_setup(3)
    rep.table["f0"] = -rep.table["f0"]
    broken = build_ideal_strategy(p, rep, test)
    assert winning_probability(broken, test) < 1.0 - 1e-3


def test_orthogonal_product_state_loses_enough():
    p, rep, test, strat = ideal_setup(3)
    product = np.zeros_like(strat.state)
    product[0] = 1.0  # basis state orthogonal to the ideal state
    assert abs(np.vdot(strat.state, product)) < 1e-12
    strat.state = product
    m = test.game.system.n_rows
    assert winning_probability(strat, test) <= 1 - 1 / (4 * m)


def test_winning_probability_from_correlation_matches():
    _, _, test, strat = ideal_setup(3)
    noisy = perturb_strategy(strat, PerturbationSpec("both", 1e-2, 3))
    for s in (strat, noisy):
        direct = ls_winning_probability_reference(s, test)
        via_corr = winning_probability(s, test)
        assert abs(direct - via_corr) <= 1e-12


def test_winning_probability_monotone_under_mixing():
    # convex contamination at the correlation level is exactly linear
    p, rep, test, strat = ideal_setup(3)
    good = generate_correlation(strat, test)
    bad_state = np.zeros_like(strat.state)
    bad_state[0] = 1.0
    strat.state = bad_state
    bad = generate_correlation(strat, test)
    values = []
    for t in np.linspace(0, 1, 7):
        mixed = Correlation(good.d, good.r)
        for key in good.entries:
            mixed.entries[key] = (1 - t) * good.entries[key] + t * bad.entries[key]
        values.append(ls_winning_probability_from_correlation(mixed, test))
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]


def _random_correlation_like(template: Correlation, rng) -> Correlation:
    out = Correlation(template.d, template.r)
    for key, table in template.entries.items():
        raw = rng.random(table.shape)
        out.entries[key] = raw / raw.sum()
    return out


def test_correlation_distance_metric_properties():
    _, _, test, strat = ideal_setup(3)
    base = generate_correlation(strat, test)
    rng = np.random.default_rng(1)
    c1 = _random_correlation_like(base, rng)
    c2 = _random_correlation_like(base, rng)
    c3 = _random_correlation_like(base, rng)
    assert correlation_distance(c1, c1) == 0.0
    assert abs(correlation_distance(c1, c2) - correlation_distance(c2, c1)) <= 1e-15
    d12 = correlation_distance(c1, c2)
    d13 = correlation_distance(c1, c3)
    d32 = correlation_distance(c3, c2)
    assert d12 <= d13 + d32 + 1e-12


def test_correlation_distance_support_mismatch():
    _, _, test, strat = ideal_setup(3)
    base = generate_correlation(strat, test)
    trimmed = Correlation(base.d, base.r)
    items = list(base.entries.items())
    for key, table in items[:-1]:
        trimmed.entries[key] = table
    with pytest.raises(StructuralError):
        correlation_distance(base, trimmed)


def test_embedded_chsh_extremal_at_ideal():
    for d in (3, 5):
        _, _, test, strat = ideal_setup(d)
        out = embedded_chsh_value(strat)
        assert abs(out["alpha"] + 1 / math.tan(math.pi / d)) < 1e-12
        assert abs(abs(out["value"]) - out["imax"]) <= 1e-10


def test_evaluation_report_shape():
    _, _, test, strat = ideal_setup(3)
    ideal_corr = generate_correlation(strat, test)
    report = evaluation_report(strat, ideal_corr)
    assert abs(report["winning_probability"] - 1) <= 1e-10
    assert report["epsilon"] <= 1e-12
    assert report["sos"]["res1"] <= 1e-9
    assert report["sos"]["res2"] <= 1e-9
