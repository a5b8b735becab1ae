"""Property tests over (d, r), non-minimal primitive roots included."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import brute_force_primitive, closed_form_deviation, ideal_table_values, projectors
from lsgame import (
    Correlation,
    build_full_test,
    build_ideal_strategy,
    build_representation,
    generate_correlation,
    ls_winning_probability_from_correlation,
    make_params,
)
from lsgame.representation import Monomial, broken_relations

PARAMS = [(d, r) for d in (3, 5, 7, 11) for r in range(2, d) if brute_force_primitive(r, d)]


@settings(derandomize=True, max_examples=len(PARAMS), deadline=None)
@given(st.sampled_from(PARAMS))
def test_ideal_strategy_properties(dr):
    p = make_params(*dr)
    test = build_full_test(p)
    rep = build_representation(p)
    assert broken_relations(rep, test.system) == []
    strat = build_ideal_strategy(p, rep, test)

    # every family is a complete stack of orthogonal Hermitian projectors:
    # sum_a P_a = 1, P_a^+ = P_a and P_a P_b = delta_ab P_a
    bases = {id(basis): basis for bases in (strat.alice, strat.bob) for basis in bases.values()}
    for fam in (projectors(basis) for basis in bases.values()):
        k, n, _ = fam.shape
        assert np.abs(fam.sum(axis=0) - np.eye(n)).max() <= 1e-10
        assert np.abs(fam - fam.conj().transpose(0, 2, 1)).max() <= 1e-10
        products = fam[:, None] @ fam[None]
        assert np.abs(products - np.eye(k)[:, :, None, None] * fam[:, None]).max() <= 1e-10

    corr = generate_correlation(strat, test)
    assert abs(ls_winning_probability_from_correlation(corr, test) - 1) <= 1e-10
    assert closed_form_deviation(corr, ideal_table_values(p, test)) <= 1e-10

    back = Correlation.from_json(corr.to_json())
    assert (back.d, back.r) == (p.d, p.r)
    assert list(back.entries) == list(corr.entries)
    assert all(np.array_equal(back.entries[key], table) for key, table in corr.entries.items())


@st.composite
def monomials(draw, n, order):
    """A random n x n Monomial on the phase grid of the given order."""
    perm = draw(st.permutations(range(n)))
    phase = draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n))
    return Monomial(np.array(perm), np.array(phase), order)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_monomial_algebra_matches_dense(data):
    # @, kron and negation agree with their dense forms; == is exact
    order = 2 * data.draw(st.sampled_from((3, 5, 7, 13, 31)))
    n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    a, b, c = data.draw(monomials(n, order)), data.draw(monomials(n, order)), data.draw(monomials(m, order))
    assert np.abs((a @ b).dense() - a.dense() @ b.dense()).max() <= 1e-15
    assert np.abs(a.kron(c).dense() - np.kron(a.dense(), c.dense())).max() <= 1e-15
    assert np.abs((-a).dense() + a.dense()).max() <= 1e-15
    assert a == Monomial(a.perm.copy(), a.phase.copy(), order)
    moved = a.phase.copy()
    moved[data.draw(st.integers(0, n - 1))] += 1
    assert a != Monomial(a.perm, moved, order)
