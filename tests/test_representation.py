import functools

import numpy as np
import pytest

from lsgame import (
    LinearSystem,
    StructuralError,
    build_conjugacy_triples,
    build_linear_system,
    build_representation,
    key_unitaries,
    make_params,
    op_norm,
    verify_representation,
)
from lsgame.groups import h_name
from lsgame.linalg import dagger, eye
from lsgame.representation import u_basis

DEMO = ((3, 2), (5, 2), (7, 3), (11, 2), (13, 2))


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
    assert verify_representation(rep, build_linear_system(2)) <= 1e-10


def test_all_levels_verify():
    p = make_params(7, 3)
    rep = build_representation(p)
    assert verify_representation(rep, build_linear_system(3)) <= 1e-10
    for word, rhs in p0_relations(3) + p1_relations(3):
        target = eye(rep.dim) if rhs is None else rep[rhs]
        assert op_norm(functools.reduce(np.matmul, map(rep.__getitem__, word)) - target) <= 1e-10, word


def test_empty_presentation_gives_zero():
    p = make_params(3, 2)
    rep = build_representation(p)
    assert verify_representation(rep, LinearSystem(2, (), (), ())) == 0.0


def test_mutated_representation_fails():
    p = make_params(3, 2)
    rep = build_representation(p)
    rep.table["f0"] = -rep.table["f0"]
    residual = verify_representation(rep, build_linear_system(2))
    assert residual >= 1.0


@pytest.mark.parametrize("fault", ["product", "hermitian", "involution", "central"])
def test_each_relation_class_caught(fault):
    # each fault breaks one relation class of Gamma and keeps the others
    rep = build_representation(make_params(3, 2))
    table = rep.table
    system = build_linear_system(2)
    if fault == "product":  # two Hermitian involutions commuting with J, exchanged
        table["a1"], table["a2"] = table["a2"], table["a1"]
    elif fault == "hermitian":  # a non-unitary similarity keeps every product and square
        s = eye(rep.dim) + 0.5 * np.eye(rep.dim, k=1)
        s_inv = np.linalg.inv(s)
        for name in table:
            table[name] = s @ table[name] @ s_inv
    elif fault == "involution":  # 2 f0 breaks f0's rows too, so f0 is checked alone
        table["f0"] = 2 * table["f0"]
        system = LinearSystem(2, ("f0",), (), ())
    else:  # a Hermitian involution that anticommutes with f0 but enters no row
        table["J"] = table["g0"]
    assert verify_representation(rep, system) >= 1e-3


def test_missing_generator_named():
    p = make_params(3, 2)
    rep = build_representation(p)
    del rep.table["m2"]
    with pytest.raises(StructuralError, match="m2"):
        verify_representation(rep, build_linear_system(2))


def test_key_unitaries_d3():
    p = make_params(3, 2)
    rep = build_representation(p)
    o, u, res = key_unitaries(rep)
    w3 = p.omega_d
    np.testing.assert_allclose(o, np.diag([w3, w3**2]), atol=1e-14)
    np.testing.assert_allclose(u, np.array([[0, 1], [1, 0]], dtype=complex), atol=1e-14)
    assert res <= 1e-10


def test_o_spectrum_d5():
    p = make_params(5, 2)
    rep = build_representation(p)
    o, _, _ = key_unitaries(rep)
    eigs = np.sort_complex(np.linalg.eigvals(o))
    want = np.sort_complex(np.array([p.omega_d**k for k in range(1, 5)]))
    np.testing.assert_allclose(eigs, want, atol=1e-12)


def test_eigenspaces_all_one_dimensional():
    for d, r in ((3, 2), (7, 3)):
        p = make_params(d, r)
        rep = build_representation(p)
        o, _, _ = key_unitaries(rep)
        for k in range(1, d):
            gap = o - p.omega_d**k * eye(d - 1)
            assert np.linalg.matrix_rank(gap, tol=1e-8) == d - 2


def test_u_cyclic():
    for d, r in ((5, 2), (7, 3)):
        p = make_params(d, r)
        rep = build_representation(p)
        _, u, _ = key_unitaries(rep)
        assert op_norm(np.linalg.matrix_power(u, d - 1) - eye(d - 1)) <= 1e-12


def test_sign_relation():
    p = make_params(5, 2)
    rep = build_representation(p)
    prod = rep["f1"] @ rep["g1"] @ rep["m2"]
    assert op_norm(prod + eye(rep.dim)) <= 1e-12
    assert op_norm(rep["J"] + eye(rep.dim)) == 0.0


def test_images_are_binary_observables():
    p = make_params(5, 2)
    rep = build_representation(p)
    for name, m in rep.table.items():
        assert op_norm(m - dagger(m)) <= 1e-12, name
        assert op_norm(m @ m - eye(rep.dim)) <= 1e-12, name


def test_a2_squares_to_identity():
    p = make_params(7, 3)
    rep = build_representation(p)
    assert op_norm(rep["a2"] @ rep["a2"] - eye(rep.dim)) <= 1e-12


def test_u_basis_unitary():
    for d, r in ((5, 2), (11, 2)):
        p = make_params(d, r)
        ub = u_basis(p)
        assert op_norm(ub @ dagger(ub) - eye(d - 1)) <= 1e-12


def test_demo_family_residuals():
    for d, r in DEMO:
        p = make_params(d, r)
        rep = build_representation(p)
        assert verify_representation(rep, build_linear_system(r)) <= 1e-9, (d, r)
        _, _, conj = key_unitaries(rep)
        assert conj <= 1e-10, (d, r)
