"""Dense complex linear algebra substrate.

Plain complex128 numpy arrays serve as matrices and state vectors; this
module adds the projector algebra and Fourier matrices the rest of the
library leans on.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, ResourceError

#: Global verification tolerance; dimensions stay below ~50 per side, so
#: roundoff sits far beneath this.
DEFAULT_TOL = 1e-9

#: Cap on the element count of any matrix produced by kron.  It cannot fire
#: below make_params' cap of d <= 31: the largest kron is eye(4) (x) the
#: (3, d-1, d-1) extension family, 43200 elements at d = 31.
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
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def op_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def qft(n: int) -> np.ndarray:
    """Fourier matrix F[j, k] = exp(2*pi*i*j*k/n)/sqrt(n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def involution_residual(m: np.ndarray) -> float:
    """How far m is from a binary observable (Hermitian with m^2 = 1)."""
    return max(op_norm(m - dagger(m)), op_norm(m @ m - eye(m.shape[0])))


def _gate_norm(a: np.ndarray) -> float:
    """op_norm(a) for a pass/fail gate at DEFAULT_TOL.

    The Frobenius norm bounds the operator norm from above, so when it is
    at most DEFAULT_TOL the gate passes and it stands in for the SVD.  Any
    value above the tolerance, NaN included, is the operator norm itself.
    """
    fro = float(np.linalg.norm(a))
    return fro if fro <= DEFAULT_TOL else op_norm(a)


def _halves(m: np.ndarray) -> np.ndarray:
    one = eye(m.shape[0])
    return np.stack(((one + m) / 2, (one - m) / 2))


def observable_to_projectors(m: np.ndarray) -> np.ndarray:
    """Split a binary observable into its stacked (+1, -1) eigenprojectors."""
    res = max(_gate_norm(m - dagger(m)), _gate_norm(m @ m - eye(m.shape[0])))
    if res > DEFAULT_TOL:
        raise PreconditionError("operator is not a binary observable", res)
    return _halves(m)


def joint_projector(observables: list[np.ndarray]) -> np.ndarray:
    """All 2^k products of (1 +/- m)/2 for k pairwise commuting binary observables.

    Outcomes are stacked in lexicographic order, the first observable's sign
    slowest: stack[o] projects onto outcome o, bit 0 meaning +1 and 1 meaning -1.
    """
    worst = 0.0
    for i, a in enumerate(observables):
        for b in observables[i + 1 :]:
            worst = max(worst, _gate_norm(a @ b - b @ a))
    if worst > DEFAULT_TOL:
        raise PreconditionError("observables do not commute", worst)
    out = _halves(observables[0])
    for m in observables[1:]:
        out = (out[:, None] @ _halves(m)[None]).reshape(-1, *m.shape)
    return out


def random_unitaries(rng: np.random.Generator, count: int, dim: int, t: float) -> np.ndarray:
    """(count, dim, dim) stack of exp(i*t*h), each h a random Hermitian matrix
    of unit operator norm.

    rng is consumed as count successive pairs of (dim, dim) standard-normal
    draws, real part then imaginary part.  One batched eigendecomposition
    gives both the scale max|lambda| and the exponential.
    """
    g = rng.standard_normal((count, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    vals, vecs = np.linalg.eigh((g + dagger(g)) / 2)
    scale = np.abs(vals).max(axis=1, keepdims=True)
    return (vecs * np.exp(1j * t * vals / scale)[:, None, :]) @ dagger(vecs)
