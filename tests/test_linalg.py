import re

import numpy as np
import pytest

import lsgame.linalg as la
from dense_reference import joint_projector, observable_to_projectors, random_unitaries
from lsgame import PreconditionError
from lsgame.errors import PreconditionError as PE

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def residual(err):
    """The residual a reference check formats at the end of its message."""
    return float(re.fullmatch(r".* \(residual (\S+)\)", str(err.value)).group(1))


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
    p0, p1 = observable_to_projectors(SZ)
    np.testing.assert_allclose(p0, np.diag([1, 0]).astype(complex))
    np.testing.assert_allclose(p1, np.diag([0, 1]).astype(complex))
    p0, p1 = observable_to_projectors(la.eye(2))
    np.testing.assert_allclose(p0, la.eye(2))
    np.testing.assert_allclose(p1, np.zeros((2, 2)))


def projector_residual(p):
    return max(la.op_norm(p - la.dagger(p)), la.op_norm(p @ p - p))


def test_observable_round_trip_random(random_binary_observable):
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 6):
        for _ in range(10):
            m = random_binary_observable(dim, rng)
            p0, p1 = observable_to_projectors(m)
            np.testing.assert_allclose(p0 - p1, m, atol=1e-12)
            np.testing.assert_allclose(p0 + p1, la.eye(dim), atol=1e-12)
            assert projector_residual(p0) <= 1e-9 and projector_residual(p1) <= 1e-9
            assert la.op_norm(p0 @ p1) <= 1e-12


def test_observable_rejects_non_involution():
    with pytest.raises(PreconditionError) as err:
        observable_to_projectors(np.diag([1.0, 0.5]).astype(complex))
    assert residual(err) > 0


def test_joint_projector_basic():
    np.testing.assert_allclose(joint_projector([SZ])[0], np.diag([1, 0]).astype(complex))
    zz = joint_projector([np.kron(SZ, la.eye(2)), np.kron(la.eye(2), SZ)])[1]  # outcome (0, 1)
    np.testing.assert_allclose(zz, np.kron(np.diag([1, 0]), np.diag([0, 1])), atol=1e-14)


def test_joint_projector_completeness_random(random_binary_observable):
    rng = np.random.default_rng(3)
    a = random_binary_observable(3, rng)
    obs = [np.kron(a, la.eye(2)), np.kron(la.eye(3), random_binary_observable(2, rng))]
    stack = joint_projector(obs)
    total = np.zeros((6, 6), dtype=complex)
    for o1 in (0, 1):
        for o2 in (0, 1):
            p = stack[2 * o1 + o2]
            assert projector_residual(p) <= 1e-10
            total += p
    np.testing.assert_allclose(total, la.eye(6), atol=1e-12)


def test_joint_projector_rejects_non_commuting():
    with pytest.raises(PE) as err:
        joint_projector([SZ, SX])
    assert residual(err) > 1


def test_op_norm_names_first_non_finite_entry():
    a = la.eye(3)
    a[1, 2] = np.nan
    a[2, 0] = np.inf
    with pytest.raises(PreconditionError, match=r"matrix has a non-finite entry \(nan\+0j\) at \(1, 2\)"):
        la.op_norm(a)


def test_hermitian_exponential_unitary():
    # each unitary is exp(0.3i h) for the unit-norm Hermitian h built from
    # the same draws (real part, then imaginary part, matrix by matrix),
    # checked against the Taylor series of the exponential
    t = 0.3
    stack = la.rotate_bases(np.random.default_rng(11), np.stack([la.eye(5)] * 3), t)
    rng = np.random.default_rng(11)
    for u in stack:
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (g + la.dagger(g)) / 2
        h /= la.op_norm(h)
        angles = np.angle(np.linalg.eigvals(u))
        assert abs(np.max(np.abs(angles)) / t - 1) < 1e-12  # max|lambda(h)| = 1
        assert la.op_norm(u @ la.dagger(u) - la.eye(5)) <= 1e-12
        series, term = la.eye(5), la.eye(5)
        for k in range(1, 30):
            term = term @ (1j * t * h) / k
            series = series + term
        assert la.op_norm(u - series) <= 1e-12


def _random_bases(rng, count, n):
    q, _ = np.linalg.qr(rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    return q


def test_taylor_degree():
    assert [la.taylor_degree(t) for t in (1e-4, 1e-3, 1e-2, 0.1, 0.5)] == [3, 4, 6, 9, 14]


@pytest.mark.parametrize("n", [5, 24, 48])
@pytest.mark.parametrize("t", [1e-4, 1e-2, 0.5])
def test_rotate_bases_matches_formed_unitaries(n, t):
    # the Horner pass against exp(i t h) formed from h's eigenvectors and
    # multiplied onto V, on the same draws; the rotated bases stay unitary
    bases = _random_bases(np.random.default_rng(n), 4, n)
    got = la.rotate_bases(np.random.default_rng(7), bases, t)
    want = random_unitaries(np.random.default_rng(7), 4, n, t) @ bases
    assert np.max(np.abs(got - want)) <= 1e-13
    for v in got:
        assert la.op_norm(la.dagger(v) @ v - la.eye(n)) <= 1e-13


def test_worst_lets_a_nan_win():
    # max() keeps a NaN only when it comes first, and drops it otherwise
    assert la.worst([1.0, 3.0, 2.0]) == 3.0
    for values in ([float("nan"), 1.0], [1.0, float("nan"), 2.0], [2.0, 1.0, float("nan")]):
        assert np.isnan(la.worst(values)), values
