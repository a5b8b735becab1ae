"""Dense complex linear algebra substrate.

Plain complex128 numpy arrays serve as matrices and state vectors; this
module adds measurement bases, Fourier matrices and random rotations, the
algebra the rest of the library leans on.  It holds no eigensolver for
bases: the ideal strategy's are built per orbit or in closed form
(lsgame.strategy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def basis_vector(n: int, k: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def op_norm(a: np.ndarray) -> float:
    """Largest singular value; PreconditionError naming the first non-finite entry."""
    if not np.isfinite(a).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        raise PreconditionError(f"matrix has a non-finite entry {a[index]} at {index}")
    return float(np.linalg.norm(a, 2))


def worst(values) -> float:
    """The largest of a non-empty iterable of floats; a NaN wins, so no maximum hides one."""
    return max(values, key=lambda v: (math.isnan(v), v))


def qft(n: int) -> np.ndarray:
    """Fourier matrix F[j, k] = exp(2*pi*i*j*k/n)/sqrt(n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


@dataclass(frozen=True, eq=False)  # identity equality: vectors are arrays
class Basis:
    """A complete projective measurement stored as one orthonormal basis.

    outcomes is a (k, n) 0/1 matrix whose entry (a, c) is 1 when column c of
    vectors belongs to outcome a, so outcome a's projector is
    V diag(outcomes[a]) V^H; an outcome without columns is a zero row, the
    zero projector.  Both arrays are read-only, so bases may share them.
    """

    vectors: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        self.vectors.setflags(write=False)
        self.outcomes.setflags(write=False)

    def operator(self, weights) -> np.ndarray:
        """sum_a weights[a] P_a, one product V diag(w) V^H."""
        v = self.vectors
        return (v * (np.asarray(weights, dtype=float) @ self.outcomes)) @ dagger(v)

    def reflect(self, signs, x: np.ndarray) -> np.ndarray:
        """operator(signs) @ x for signs of +1 and -1, as x - 2 V_- (V_-^H x),
        V_- the columns of the answers signed -1: no n x n operator is formed,
        and only those columns enter the products."""
        minus = self.vectors[:, np.asarray(signs, dtype=float) @ self.outcomes < 0]
        return x - 2 * (minus @ (dagger(minus) @ x))

    def merged(self, outcome_of) -> "Basis":
        """The coarser measurement in which outcome a reads as outcome_of[a]:
        the same vectors object, with outcome a's row of outcomes added to
        row outcome_of[a]."""
        return Basis(self.vectors, np.eye(max(outcome_of) + 1)[:, outcome_of] @ self.outcomes)


def taylor_degree(t: float) -> int:
    """Least k with t^(k+1)/(k+1)! <= 2^-53: the degree at which the Taylor
    polynomial of exp(A), ||A|| = t, leaves a remainder below the unit
    roundoff (3, 4 and 6 at t = 1e-4, 1e-3 and 1e-2)."""
    k, term = 0, t
    while term > 2.0**-53:
        k += 1
        term *= t / (k + 1)
    return k


def rotate_bases(rng: np.random.Generator, vectors: np.ndarray, t: float) -> np.ndarray:
    """exp(i*t*h_k) V_k for each V_k of the (count, n, n) stack vectors, each
    h_k a random Hermitian matrix of unit operator norm.

    rng is consumed as count successive pairs of (n, n) standard-normal
    draws, real part then imaginary part.  One batched eigvalsh gives each
    scale max|lambda|, and Horner's rule applies the degree-k Taylor
    polynomial of the exponential, k = taylor_degree(t), to V in two
    buffers, Y <- V + (i t / (j max|lambda|)) h Y for j = k, ..., 1: neither
    the generators' eigenvectors nor the unitaries are formed.
    """
    count, n, _ = vectors.shape
    g = rng.standard_normal((count, 2, n, n))
    h = np.empty((count, n, n), dtype=complex)  # (g + g^H)/2, g = g[:, 0] + i g[:, 1]
    h.real = (g[:, 0] + g[:, 0].swapaxes(1, 2)) / 2
    h.imag = (g[:, 1] - g[:, 1].swapaxes(1, 2)) / 2
    del g  # the draws are spent: the Horner buffers take their place
    step = (1j * t / np.abs(np.linalg.eigvalsh(h)).max(axis=1))[:, None, None]
    y, buf = vectors.astype(complex), np.empty((count, n, n), dtype=complex)
    for j in range(taylor_degree(t), 0, -1):
        np.matmul(h, y, out=buf)
        buf *= step / j
        buf += vectors
        y, buf = buf, y
    return y
