import contextlib
import warnings

import numpy as np
import pytest

# On a failing @given test, hypothesis's pytest plugin imports this module,
# and libcst warns on import; under filterwarnings = ["error"] that warning
# is an exception inside a pytest hook, which aborts the whole run.  Import
# it here once, with the warning ignored, so a failure is counted.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def random_binary_observable():
    """Factory (dim, rng) -> Haar-ish random Hermitian involution with both eigenvalues +/-1."""

    def make(dim: int, rng: np.random.Generator) -> np.ndarray:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(g)
        signs = rng.integers(0, 2, size=dim) * 2 - 1
        if np.all(signs == signs[0]):  # keep both eigenvalues present
            signs[0] = -signs[0]
        return q @ np.diag(signs.astype(complex)) @ q.conj().T

    return make
