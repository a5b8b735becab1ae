import itertools
import math
import re

import numpy as np
import pytest

from chsh_reference import (
    bell_operator,
    chsh_constants,
    chsh_ideal_instance,
    expectation,
    joint_observables,
    sos_residuals,
)
from dense_reference import family
from lsgame import (
    Correlation,
    PreconditionError,
    StructuralError,
    Strategy,
    build_full_test,
    build_ideal_strategy,
    build_representation,
    correlation_distance,
    generate_correlation,
    ls_winning_probability_from_correlation,
    make_params,
    table_deviation,
)
from lsgame.evaluation import embedded_chsh_value
from lsgame.robustness import PerturbationSpec, perturb_strategy
from lsgame.strategy import eq_label, ext_labels, var_label

SZ = np.array([[1, 0], [0, -1]], dtype=complex)

ALPHAS = (1.0, 1 / math.tan(math.pi / 5), 1 / math.tan(math.pi / 7))


def test_context_invariants():
    for alpha in ALPHAS:
        mu, c, s, imax = chsh_constants(alpha)
        assert abs(c**2 + s**2 - 1) < 1e-14
        assert imax >= 2 * abs(alpha)
        assert abs(math.tan(mu) * alpha - 1) < 1e-12


def test_alpha_one_reaches_two_root_two():
    state, m1, m2, n1, n2 = chsh_ideal_instance(1.0)
    assert abs(expectation(bell_operator(1.0, m1, m2, n1, n2), state) - 2 * math.sqrt(2)) <= 1e-12


def test_product_state_respects_classical_bound():
    _, m1, m2, n1, n2 = chsh_ideal_instance(1.0)
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0  # |00>
    assert expectation(bell_operator(1.0, m1, m2, n1, n2), product) <= 2 + 1e-12


def test_all_sigma_z_gives_two():
    state, *_ = chsh_ideal_instance(1.0)
    assert abs(expectation(bell_operator(1.0, SZ, SZ, SZ, SZ), state) - 2.0) <= 1e-12


def test_chsh_rejects_non_involution():
    _, m1, m2, n1, n2 = chsh_ideal_instance(1.0)
    with pytest.raises(PreconditionError):
        sos_residuals(1.0, 0.5 * m1, m2, n1, n2)


def test_sos_residuals_vanish_on_ideal_grid():
    for alpha in ALPHAS + (2.0, 5.0):
        _, m1, m2, n1, n2 = chsh_ideal_instance(alpha)
        res1, res2 = sos_residuals(alpha, m1, m2, n1, n2)
        assert res1 <= 1e-9 and res2 <= 1e-9


def test_sos_residuals_vanish_on_random_observables(random_binary_observable):
    # Both decompositions are exact operator identities for arbitrary
    # binary observables, not just the ideal ones; res1's general status
    # is what this test documents.
    rng = np.random.default_rng(42)
    for dim_a, dim_b in ((2, 2), (4, 2), (6, 4)):
        for _ in range(10):
            m1, m2 = (random_binary_observable(dim_a, rng) for _ in range(2))
            n1, n2 = (random_binary_observable(dim_b, rng) for _ in range(2))
            res1, res2 = sos_residuals(1.0, m1, m2, n1, n2)
            assert res1 <= 1e-9
            assert res2 <= 1e-9


def ideal_setup(d):
    p = make_params(d)
    rep = build_representation(p)
    test = build_full_test(p)
    return p, rep, test, build_ideal_strategy(p, rep, test)


def ls_winning_probability_reference(strategy, test):
    """Expected LS-block score straight from the strategy's projectors."""
    system = test.system
    s = strategy.state
    total = 0.0
    for i, v in system.valid_pairs:
        names = system.row_names(i)
        pos = names.index(system.variables[v])
        fam_a = family(strategy, "A", eq_label(i))
        fam_b = family(strategy, "B", var_label(system.variables[v]))
        for triple in itertools.product((0, 1), repeat=3):
            if sum(triple) % 2 != system.rhs[i]:
                continue
            idx = triple[0] * 4 + triple[1] * 2 + triple[2]
            left = fam_a[idx] @ s
            total += float(np.real(np.vdot(s, left @ fam_b[triple[pos]].T)))
    return total / len(system.valid_pairs)


def winning_probability(strategy, test):
    return ls_winning_probability_from_correlation(generate_correlation(strategy, test), test)


def test_ideal_wins_perfectly():
    _, _, test, strat = ideal_setup(3)
    assert abs(winning_probability(strat, test) - 1.0) <= 1e-10


def test_mutated_strategy_wins_less():
    # Bob's answer to x(f0) flipped loses every question pair that asks it and
    # no other (a representation with f0 negated builds no strategy at all:
    # test_strategy.py::test_build_rejects_negated_generator)
    p, _, test, strat = ideal_setup(3)
    bob = {**strat.bob, var_label("f0"): strat.bob[var_label("f0")].merged([1, 0])}
    broken = Strategy(params=p, test=test, state=strat.state, alice=strat.alice, bob=bob)
    asked = sum(test.system.variables[v] == "f0" for _, v in test.system.valid_pairs)
    assert asked > 0
    assert abs(winning_probability(broken, test) - (1 - asked / len(test.system.valid_pairs))) <= 1e-12


def test_orthogonal_product_state_loses_enough():
    p, rep, test, strat = ideal_setup(3)
    product = np.zeros_like(strat.state)
    product[0, 0] = 1.0  # basis state orthogonal to the ideal state
    assert abs(np.vdot(strat.state, product)) < 1e-12
    m = test.system.n_rows
    assert winning_probability(strat.with_state(product), test) <= 1 - 1 / (4 * m)


def test_winning_probability_from_correlation_matches():
    _, _, test, strat = ideal_setup(3)
    noisy = perturb_strategy(strat, PerturbationSpec("both", 1e-2, 3))
    for s in (strat, noisy):
        direct = ls_winning_probability_reference(s, test)
        via_corr = winning_probability(s, test)
        assert abs(direct - via_corr) <= 1e-12


def test_winning_probability_names_a_missing_support_pair():
    # a correlation without one of the linear system's pairs is refused, not
    # scored on the pairs it has, and the error names the pair
    _, _, test, strat = ideal_setup(5)
    corr = generate_correlation(strat, test)
    i, v = test.system.valid_pairs[-1]
    key = (eq_label(i), var_label(test.system.variables[v]))
    del corr.entries[key]
    with pytest.raises(StructuralError, match=rf"^correlation lacks support pair {re.escape(str(key))}$"):
        ls_winning_probability_from_correlation(corr, test)


def test_winning_probability_monotone_under_mixing():
    # convex contamination at the correlation level is exactly linear
    p, rep, test, strat = ideal_setup(3)
    good = generate_correlation(strat, test)
    bad_state = np.zeros_like(strat.state)
    bad_state[0, 0] = 1.0
    bad = generate_correlation(strat.with_state(bad_state), test)
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


@pytest.mark.parametrize("measure", [correlation_distance, table_deviation])
def test_correlation_measures_check_support_and_shape(measure):
    # both compare a file with the ideal through the same support and shape
    # checks; a support mismatch names its size and its first pair in sorted order
    *_, strat = ideal_setup(3)
    base = strat.correlation()
    keys = list(base.entries)
    key, dropped = keys[0], (keys[-1], keys[0])
    trimmed = Correlation(base.d, base.r, {k: t for k, t in base.entries.items() if k not in dropped})
    reshaped = Correlation(base.d, base.r, {**base.entries, key: base.entries[key][:, :1]})
    support = rf"^correlations have different supports at 2 pairs, first {re.escape(str(min(dropped)))}$"
    for other, match in ((trimmed, support), (reshaped, rf"^answer alphabets differ at {re.escape(str(key))}$")):
        with pytest.raises(StructuralError, match=match):
            measure(base, other)
        with pytest.raises(StructuralError, match=match):
            measure(other, base)
    assert measure(base, base) == 0.0


def test_embedded_chsh_extremal_at_ideal():
    for d in (3, 5, 7, 13):
        chsh, sos = embedded_chsh_value(ideal_setup(d)[3])
        assert list(chsh) == ["alpha", "value", "imax"]
        assert list(sos) == ["deficit", "z_term", "x_term", "remainder"]
        assert abs(chsh["alpha"] + 1 / math.tan(math.pi / d)) < 1e-12
        assert abs(abs(chsh["value"]) - chsh["imax"]) <= 1e-10
        assert sos["deficit"] == chsh["imax"] + chsh["value"]
        assert max(abs(term) for term in sos.values()) <= 1e-13, (d, sos)


def test_sos_state_noise_leaves_no_remainder():
    # state noise leaves the observables, so Alice's stay binary on phi
    strat = ideal_setup(5)[3]
    chsh, sos = embedded_chsh_value(perturb_strategy(strat, PerturbationSpec("state", 1e-3, 3)))
    assert sos["deficit"] == chsh["imax"] + chsh["value"]
    assert sos["deficit"] > 0
    assert abs(sos["remainder"]) <= 1e-13, sos


def test_sos_remainder_is_how_far_alice_is_from_binary():
    # remainder = <phi|(c^2/s)(1 - Z_A^2) + s(1 - X_A^2)|phi>, here formed on
    # the full space; a rotation moves Alice's basis observables off binary
    _, _, test, strat = ideal_setup(5)
    noisy = perturb_strategy(strat, PerturbationSpec("rotate", 1e-3, 3))
    chsh, sos = embedded_chsh_value(noisy)
    _, c, s, _ = chsh_constants(chsh["alpha"])
    sub, z, x = ext_labels(test.n_vars)
    phi = (noisy.basis("A", sub).operator((1, 0)) @ noisy.state).ravel()
    phi /= np.linalg.norm(phi)
    one_b = np.eye(noisy.state.shape[1])

    def gap(name):
        m = noisy.observable("A", name)
        return np.real(np.vdot(phi, np.kron(np.eye(m.shape[0]) - m @ m, one_b) @ phi))

    assert sos["remainder"] >= 1e-8
    assert abs(sos["remainder"] - (c**2 / s * gap(z) + s * gap(x))) <= 1e-12


@pytest.mark.parametrize("d", (3, 5, 7))
@pytest.mark.parametrize("kind", ("state", "rotate", "both"))
def test_embedded_chsh_matches_reference_operators(d, kind):
    # an oracle on the joint space: <phi|B_alpha|phi> and the two squares as
    # dim^2 x dim^2 operators; the deficit imax + <B> is imax - <B> for Bob's
    # observables negated, so the squares take Z_B and X_B of -N1, -N2
    _, _, test, strat = ideal_setup(d)
    noisy = perturb_strategy(strat, PerturbationSpec(kind, 1e-3, 3))
    chsh, sos = embedded_chsh_value(noisy)
    alpha = -1 / math.tan(math.pi / d)
    _, c, s, imax = chsh_constants(alpha)
    sub, z, x = ext_labels(test.n_vars)
    phi = noisy.basis("A", sub).operator((1, 0)) @ noisy.state
    phi /= np.linalg.norm(phi)
    za, xa = noisy.observable("A", z), noisy.observable("A", x)
    n1, n2 = noisy.observable("B", "a1"), noisy.observable("B", "a2")
    zj_a, xj_a, zj_b, xj_b = joint_observables(alpha, za, xa, -n1, -n2)
    assert abs(chsh["alpha"] - alpha) <= 1e-15 and abs(chsh["imax"] - imax) <= 1e-12
    assert abs(chsh["value"] - expectation(bell_operator(alpha, za, xa, n1, n2), phi)) <= 1e-12
    assert abs(sos["z_term"] - c**2 / s * expectation((zj_a - zj_b) @ (zj_a - zj_b), phi)) <= 1e-12
    assert abs(sos["x_term"] - s * expectation((xj_a - xj_b) @ (xj_a - xj_b), phi)) <= 1e-12
