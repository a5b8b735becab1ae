import numpy as np
import pytest

import lsgame.linalg as la
from lsgame import PreconditionError, ResourceError
from lsgame.errors import PreconditionError as PE

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identities():
    np.testing.assert_allclose(la.kron(la.eye(2), la.eye(3)), la.eye(6))
    assert la.kron(SZ, SX)[0, 1] == 1


def test_kron_mixed_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
        lhs = la.kron(a, b) @ la.kron(c, d)
        rhs = la.kron(a @ c, b @ d)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kron_size_guard(monkeypatch):
    monkeypatch.setattr(la, "MAX_KRON_ELEMENTS", 16)
    with pytest.raises(ResourceError):
        la.kron(la.eye(4), la.eye(4))


def test_qft_two_is_hadamard():
    np.testing.assert_allclose(la.qft(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)


def test_qft_unitary_up_to_13():
    for n in range(1, 14):
        f = la.qft(n)
        assert la.op_norm(f @ la.dagger(f) - la.eye(n)) <= 1e-12
        gram = la.dagger(f) @ f  # orthonormal columns
        assert la.op_norm(gram - la.eye(n)) <= 1e-12


def test_qft_column_zero_uniform():
    f = la.qft(3)
    np.testing.assert_allclose(f @ la.basis_vector(3, 0), np.ones(3) / np.sqrt(3), atol=1e-15)


def test_observable_to_projectors_pauli():
    p0, p1 = la.observable_to_projectors(SZ)
    np.testing.assert_allclose(p0, np.diag([1, 0]).astype(complex))
    np.testing.assert_allclose(p1, np.diag([0, 1]).astype(complex))
    p0, p1 = la.observable_to_projectors(la.eye(2))
    np.testing.assert_allclose(p0, la.eye(2))
    np.testing.assert_allclose(p1, np.zeros((2, 2)))


def projector_residual(p):
    return max(la.op_norm(p - la.dagger(p)), la.op_norm(p @ p - p))


def test_observable_round_trip_random(random_binary_observable):
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 6):
        for _ in range(10):
            m = random_binary_observable(dim, rng)
            p0, p1 = la.observable_to_projectors(m)
            np.testing.assert_allclose(p0 - p1, m, atol=1e-12)
            np.testing.assert_allclose(p0 + p1, la.eye(dim), atol=1e-12)
            assert projector_residual(p0) <= 1e-9 and projector_residual(p1) <= 1e-9
            assert la.op_norm(p0 @ p1) <= 1e-12


def test_observable_rejects_non_involution():
    with pytest.raises(PreconditionError) as err:
        la.observable_to_projectors(np.diag([1.0, 0.5]).astype(complex))
    assert err.value.residual is not None


def test_joint_projector_basic():
    np.testing.assert_allclose(la.joint_projector([SZ])[0], np.diag([1, 0]).astype(complex))
    zz = la.joint_projector([la.kron(SZ, la.eye(2)), la.kron(la.eye(2), SZ)])[1]  # outcome (0, 1)
    np.testing.assert_allclose(zz, la.kron(np.diag([1, 0]), np.diag([0, 1])), atol=1e-14)


def test_joint_projector_completeness_random(random_binary_observable):
    rng = np.random.default_rng(3)
    a = random_binary_observable(3, rng)
    obs = [la.kron(a, la.eye(2)), la.kron(la.eye(3), random_binary_observable(2, rng))]
    stack = la.joint_projector(obs)
    total = np.zeros((6, 6), dtype=complex)
    for o1 in (0, 1):
        for o2 in (0, 1):
            p = stack[2 * o1 + o2]
            assert projector_residual(p) <= 1e-10
            total += p
    np.testing.assert_allclose(total, la.eye(6), atol=1e-12)


def test_joint_projector_rejects_non_commuting():
    with pytest.raises(PE) as err:
        la.joint_projector([SZ, SX])
    assert err.value.residual > 1


def test_hermitian_exponential_unitary():
    rng = np.random.default_rng(11)
    h = la.random_hermitian(5, rng)
    assert abs(la.op_norm(h) - 1) < 1e-12
    u = la.hermitian_exponential(h, 0.3)
    assert la.op_norm(u @ la.dagger(u) - la.eye(5)) <= 1e-12
