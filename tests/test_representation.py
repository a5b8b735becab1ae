import functools
import operator
import re

import numpy as np
import pytest
from dense_reference import brute_force_primitive, dense_table, u_basis

from lsgame import (
    LinearSystem,
    PreconditionError,
    StructuralError,
    broken_key_relations,
    build_conjugacy_triples,
    build_linear_system,
    build_representation,
    make_params,
    op_norm,
)
from lsgame.groups import conjugacy_gadgets, h_name
from lsgame.linalg import dagger, eye
from lsgame.lsg import eq_label
from lsgame.representation import KEY_FACTORS, Monomial, broken_relations, worst_gap
from lsgame.strategy import equation_bases

DEMO = ((3, 2), (5, 2), (7, 3), (11, 2), (13, 2))
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def identity(rep):
    return Monomial.identity(rep.dim, rep["J"].order)


def p0_relations(r):
    """P0's conjugacy chain a_i a_j a_i = a_k, as (word, right-hand side)."""
    return [((f"a{i}", f"a{j}", f"a{i}"), f"a{k}") for i, j, k in build_conjugacy_triples(r)]


def p1_relations(r):
    """P1's helper relations, as (word, right-hand side); None is the identity."""
    rels = []
    for i in range(1, r + 6):
        rels += [((f"a{i}", f"b{i}", f"c{i}"), None), ((f"a{i}", "f0", f"d{i}"), None)]
        rels.append((("f0", f"b{i}", "f0"), f"c{i}"))
    for t in build_conjugacy_triples(r):
        i, j, k = t
        rels += [((h_name(t), f"b{j}", f"c{k}"), None), ((f"d{i}", f"b{j}", f"d{i}"), f"c{k}")]
    return rels


def test_small_case_verifies():
    p = make_params(3, 2)
    rep = build_representation(p)
    assert broken_relations(rep, build_linear_system(2)) == []


@pytest.mark.parametrize("d, r", [(5, 2), (7, 3), (11, 7)])
def test_all_levels_verify(d, r):
    p = make_params(d, r)
    rep = build_representation(p)
    assert broken_relations(rep, build_linear_system(r)) == []
    for word, rhs in p0_relations(r) + p1_relations(r):
        target = identity(rep) if rhs is None else rep[rhs]
        assert functools.reduce(operator.matmul, map(rep.__getitem__, word)) == target, word


@pytest.mark.parametrize("d, r", [(5, 2), (7, 3), (11, 7)])
def test_gadget_conjugacy_holds(d, r):
    rep = build_representation(make_params(d, r))
    for x, y, z, _ in conjugacy_gadgets(r):
        assert rep[x] @ rep[y] @ rep[x] == rep[z], (x, y, z)


def test_empty_presentation_gives_zero():
    p = make_params(3, 2)
    rep = build_representation(p)
    assert broken_relations(rep, LinearSystem(2, (), (), ())) == []


def test_mutated_representation_fails():
    p = make_params(3, 2)
    rep = build_representation(p)
    rep.table["f0"] = -rep.table["f0"]
    broken = broken_relations(rep, build_linear_system(2))
    assert broken[0][0] == "I2 (a1, f0, d1): the product is not +1"
    assert worst_gap(rel[1:] for rel in broken) >= 1.0


@pytest.mark.parametrize(
    "fault, first",
    [
        pytest.param("product", "I1 (a1, b1, c1): the product is not +1", id="product"),
        pytest.param("involution", "f0: the square is not 1", id="involution"),
        pytest.param("central", "d1: it does not commute with J", id="central"),
    ],
)
def test_each_relation_class_caught(fault, first):
    # each fault breaks one relation class of Gamma and keeps the others; a
    # Hermiticity fault cannot be injected, since a monomial is unitary and
    # a unitary involution is Hermitian.  broken_relations names it first, and
    # the ideal build's gate names the first relation broken
    rep = build_representation(make_params(3, 2))
    table = rep.table
    system = build_linear_system(2)
    if fault == "product":  # two Hermitian involutions commuting with J, exchanged
        table["a1"], table["a2"] = table["a2"], table["a1"]
    elif fault == "involution":  # one phase of f0 moved a step breaks its rows too, so f0 is checked alone
        f0 = table["f0"]
        table["f0"] = Monomial(f0.perm, f0.phase + np.eye(rep.dim, dtype=int)[0], f0.order)
        system = LinearSystem(2, ("f0",), (), ())
    else:  # a Hermitian involution that anticommutes with d1 (and f0) but enters no row
        table["J"] = table["g0"]
    broken = broken_relations(rep, system)
    assert broken[0][0] == first
    assert worst_gap(rel[1:] for rel in broken) >= 1e-3
    with pytest.raises(PreconditionError, match=f"^{re.escape(first)}$"):
        equation_bases(rep, system)


def dense_gaps(rep, system):
    """(name, gap) of each relation of Gamma, in broken_relations' order, each
    gap the operator norm of left minus right formed from the dense images."""
    dense = {g: rep[g].dense() for g in (*system.variables, "J")}
    jm, one = dense["J"], eye(rep.dim)
    out = []
    for g in (*system.variables, "J"):
        m = dense[g]
        out += [(f"{g}: the square is not 1", op_norm(m @ m - one))]
        out += [(f"{g}: it does not commute with J", op_norm(jm @ m - m @ jm))]
    for i, (row, c) in enumerate(zip(system.rows, system.rhs)):
        x, y, z = (dense[system.variables[v]] for v in row)
        name = f"{eq_label(i)} ({', '.join(system.row_names(i))}): the product is not {'-1' if c % 2 else '+1'}"
        out.append((name, op_norm(x @ y @ z - (-1) ** c * one)))
    return out


def _moved_phase(m):
    return Monomial(m.perm, (m.phase + (np.arange(len(m.phase)) == 5)) % m.order, m.order)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: None,
        lambda t: t.update(f0=-t["f0"]),
        lambda t: t.update(a1=t["a2"], a2=t["a1"]),
        lambda t: t.update(J=t["g0"]),
        lambda t: t.update(p1_3=_moved_phase(t["p1_3"]), m2=-t["m2"]),
    ],
    ids=["ideal", "negated-f0", "exchanged-a1-a2", "J-is-g0", "p1_3-and-m2"],
)
def test_broken_relations_match_monomial_loop(mutate):
    # the Monomial loop names broken, in order, exactly the relations whose
    # dense products miss by more than 1e-9, and worst_gap over them reads
    # the largest dense gap
    rep = build_representation(make_params(5))
    system = build_linear_system(2)
    mutate(rep.table)
    gaps = dense_gaps(rep, system)
    broken = broken_relations(rep, system)
    assert [name for name, _, _ in broken] == [name for name, gap in gaps if gap > 1e-9]
    want = max(gap for _, gap in gaps)
    assert worst_gap(rel[1:] for rel in broken) == pytest.approx(want if want > 1e-9 else 0.0, rel=1e-12, abs=0.0)


def test_missing_generator_named():
    p = make_params(3, 2)
    rep = build_representation(p)
    del rep.table["m2"]
    with pytest.raises(StructuralError, match="m2"):
        broken_relations(rep, build_linear_system(2))


def key_operators(rep):
    """O and U read off the images' KEY_FACTORS products, each of which must
    be I_4 (x) (its block on W_{d-1}): the dense blocks."""
    w = rep.params.d - 1
    out = []
    for first, second in KEY_FACTORS.values():
        product = rep[first] @ rep[second]
        block = Monomial(product.perm[:w], product.phase[:w], product.order)
        assert product == Monomial.identity(4, product.order).kron(block), (first, second)
        out.append(block.dense())
    return out


def test_key_unitaries_d3():
    p = make_params(3, 2)
    rep = build_representation(p)
    o, u = key_operators(rep)
    w3 = p.omega_d
    np.testing.assert_allclose(o, np.diag([w3, w3**2]), atol=1e-14)
    np.testing.assert_allclose(u, np.array([[0, 1], [1, 0]], dtype=complex), atol=1e-14)
    assert broken_key_relations(rep) == []


def test_o_spectrum_d5():
    p = make_params(5, 2)
    rep = build_representation(p)
    o, _ = key_operators(rep)
    eigs = np.sort_complex(np.linalg.eigvals(o))
    want = np.sort_complex(np.array([p.omega_d**k for k in range(1, 5)]))
    np.testing.assert_allclose(eigs, want, atol=1e-12)


def test_eigenspaces_all_one_dimensional():
    for d, r in ((3, 2), (7, 3)):
        p = make_params(d, r)
        rep = build_representation(p)
        o, _ = key_operators(rep)
        for k in range(1, d):
            gap = o - p.omega_d**k * eye(d - 1)
            assert np.linalg.matrix_rank(gap, tol=1e-8) == d - 2


def test_u_cyclic():
    for d, r in ((5, 2), (7, 3)):
        p = make_params(d, r)
        rep = build_representation(p)
        _, u = key_operators(rep)
        assert op_norm(np.linalg.matrix_power(u, d - 1) - eye(d - 1)) <= 1e-12


def test_sign_relation():
    p = make_params(5, 2)
    rep = build_representation(p)
    assert rep["f1"] @ rep["g1"] @ rep["m2"] == -identity(rep)
    assert rep["J"] == -identity(rep)
    assert op_norm(rep["J"].dense() + eye(rep.dim)) <= 1e-15


def test_images_are_binary_observables():
    # exact involutions; their dense forms are Hermitian, as a monomial
    # unitary that squares to 1 must be
    p = make_params(5, 2)
    rep = build_representation(p)
    for name, m in rep.table.items():
        assert m @ m == identity(rep), name
        dense = m.dense()
        assert op_norm(dense - dagger(dense)) <= 1e-15, name


def test_a2_squares_to_identity():
    p = make_params(7, 3)
    rep = build_representation(p)
    assert rep["a2"] @ rep["a2"] == identity(rep)


def test_u_basis_unitary():
    for d, r in ((5, 2), (11, 2)):
        p = make_params(d, r)
        ub = u_basis(p)
        assert op_norm(ub @ dagger(ub) - eye(d - 1)) <= 1e-12


def test_demo_family_residuals():
    for d, r in DEMO:
        p = make_params(d, r)
        rep = build_representation(p)
        assert broken_relations(rep, build_linear_system(r)) == [], (d, r)
        assert broken_key_relations(rep) == [], (d, r)


@pytest.mark.parametrize("d", PRIMES)
def test_exact_images_match_dense_reference(d):
    # every primitive root r of d: the same names in the same order, each
    # exact image within 1e-13 of the dense reference, and both residuals 0
    for r in (r for r in range(2, d) if brute_force_primitive(r, d)):
        p = make_params(d, r)
        rep, ref = build_representation(p), dense_table(p)
        assert list(rep.table) == list(ref), (d, r)
        worst = max(float(np.abs(rep[g].dense() - ref[g]).max()) for g in ref)
        assert worst <= 1e-13, (d, r, worst)
        assert broken_relations(rep, build_linear_system(r)) == [], (d, r)
        assert broken_key_relations(rep) == [], (d, r)


def test_conjugation_fault_caught():
    # a3 and a4 exchanged: U = a3 a4 becomes its inverse, which conjugates O
    # to O^(1/r), not O^r; that one key relation breaks, by name
    rep = build_representation(make_params(7, 3))
    rep.table["a3"], rep.table["a4"] = rep.table["a4"], rep.table["a3"]
    broken = broken_key_relations(rep)
    assert [name for name, *_ in broken] == ["a3 a4 = I_4 (x) U"]
    assert worst_gap(rel[1:] for rel in broken) >= 1e-3
