import numpy as np
import pytest

from lsgame import (
    StructuralError,
    build_presentation,
    build_representation,
    key_unitaries,
    make_params,
    op_norm,
    verify_representation,
)
from lsgame.groups import Presentation
from lsgame.linalg import dagger, eye
from lsgame.representation import u_basis

DEMO = ((3, 2), (5, 2), (7, 3), (11, 2), (13, 2))


def test_small_case_verifies():
    p = make_params(3, 2)
    rep = build_representation(p)
    assert verify_representation(rep, build_presentation("Gamma", 2)) <= 1e-10


def test_all_levels_verify():
    p = make_params(7, 3)
    rep = build_representation(p)
    for level in ("P0", "P1", "Gamma"):
        assert verify_representation(rep, build_presentation(level, 3)) <= 1e-10


def test_empty_presentation_gives_zero():
    p = make_params(3, 2)
    rep = build_representation(p)
    empty = Presentation("P0", 2, (), ())
    assert verify_representation(rep, empty) == 0.0


def test_mutated_representation_fails():
    p = make_params(3, 2)
    rep = build_representation(p)
    rep.table["f0"] = -rep.table["f0"]
    residual = verify_representation(rep, build_presentation("Gamma", 2))
    assert residual >= 1.0


def test_missing_generator_named():
    p = make_params(3, 2)
    rep = build_representation(p)
    del rep.table["m2"]
    with pytest.raises(StructuralError, match="m2"):
        verify_representation(rep, build_presentation("Gamma", 2))


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
        for k in range(1, d):
            gap = rep.o_tilde - p.omega_d**k * eye(d - 1)
            assert np.linalg.matrix_rank(gap, tol=1e-8) == d - 2


def test_u_cyclic():
    for d, r in ((5, 2), (7, 3)):
        p = make_params(d, r)
        rep = build_representation(p)
        assert op_norm(np.linalg.matrix_power(rep.u_tilde, d - 1) - eye(d - 1)) <= 1e-12


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
        gamma = build_presentation("Gamma", r)
        assert verify_representation(rep, gamma) <= 1e-9, (d, r)
        _, _, conj = key_unitaries(rep)
        assert conj <= 1e-10, (d, r)
