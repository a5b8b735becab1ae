"""Dense complex linear algebra substrate.

Plain complex128 numpy arrays serve as matrices and state vectors; this
module adds the projector algebra, Fourier matrices and tolerance-aware
predicates the rest of the library leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import PreconditionError, ResourceError

#: Global verification tolerance; dimensions stay below ~50 per side, so
#: roundoff sits far beneath this.
DEFAULT_TOL = 1e-9

#: Cap on the element count of any matrix produced by kron.
MAX_KRON_ELEMENTS = 1 << 26


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a size guard."""
    size = a.size * b.size
    if size > MAX_KRON_ELEMENTS:
        raise ResourceError(f"kron result with {size} elements exceeds the cap")
    return np.kron(a, b)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def basis_vector(n: int, k: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def op_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def qft(n: int) -> np.ndarray:
    """Fourier matrix F[j, k] = exp(2*pi*i*j*k/n)/sqrt(n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return op_norm(a - dagger(a)) <= tol


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return op_norm(a @ dagger(a) - eye(a.shape[0])) <= tol


def is_projector(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return is_hermitian(a, tol) and op_norm(a @ a - a) <= tol


def involution_residual(m: np.ndarray) -> float:
    """How far m is from a binary observable (Hermitian with m^2 = 1)."""
    return max(op_norm(m - dagger(m)), op_norm(m @ m - eye(m.shape[0])))


def _halves(m: np.ndarray) -> np.ndarray:
    one = eye(m.shape[0])
    return np.stack(((one + m) / 2, (one - m) / 2))


def observable_to_projectors(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Split a binary observable into its stacked (+1, -1) eigenprojectors."""
    res = involution_residual(m)
    if res > tol:
        raise PreconditionError("operator is not a binary observable", res)
    return _halves(m)


def joint_projector(observables: list[np.ndarray], *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All 2^k products of (1 +/- m)/2 for k pairwise commuting binary observables.

    Outcomes are stacked in lexicographic order, the first observable's sign
    slowest: stack[o] projects onto outcome o, bit 0 meaning +1 and 1 meaning -1.
    """
    worst = 0.0
    for i, a in enumerate(observables):
        for b in observables[i + 1 :]:
            worst = max(worst, op_norm(a @ b - b @ a))
    if worst > tol:
        raise PreconditionError("observables do not commute", worst)
    out = _halves(observables[0])
    for m in observables[1:]:
        out = (out[:, None] @ _halves(m)[None]).reshape(-1, *m.shape)
    return out


def random_binary_observable(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random Hermitian involution with a random +/-1 spectrum."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    signs = rng.integers(0, 2, size=dim) * 2 - 1
    if np.all(signs == signs[0]):  # keep both eigenvalues present
        signs[0] = -signs[0]
    return q @ np.diag(signs.astype(complex)) @ dagger(q)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix scaled to unit operator norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + dagger(g)) / 2
    return h / op_norm(h)


def hermitian_exponential(h: np.ndarray, t: float) -> np.ndarray:
    """exp(i*t*h) for Hermitian h, via eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * t * vals)) @ dagger(vecs)


@dataclass
class StateVector:
    """Flat amplitude vector plus the ordered subsystem dimensions."""

    amps: np.ndarray
    factor_shape: tuple[int, ...]

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.amps.size != prod(self.factor_shape):
            raise PreconditionError(
                f"amplitude count {self.amps.size} does not match factors {self.factor_shape}"
            )

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.factor_shape)
