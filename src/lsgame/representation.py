"""Explicit matrix representation of the solution group and its verifier.

The carrier space is W2 (x) W2 (x) W_{d-1}, dimension 4(d-1).  The images of
a1..a4 on W_{d-1} are written down explicitly; every other a-generator is a
conjugate of earlier ones, and the helper generators are assembled from
fixed block forms.  Nothing here is trusted: :func:`verify_representation`
recomputes every relation residual mechanically.

Basis conventions: W_k uses basis x_1..x_k stored at indices 0..k-1.  On
W_{d-1} the second basis u_0..u_{d-2} is the Fourier transform of the
x-basis reordered along powers of r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .groups import build_conjugacy_triples, h_name, q_name
from .linalg import dagger, eye, kron, op_norm, require_finite
from .lsg import LinearSystem
from .numtheory import PrimeParams

_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

#: the generator pairs whose products are the key unitaries O = a1 a2 and U = a3 a4
KEY_FACTORS = {"O": ("a1", "a2"), "U": ("a3", "a4")}


@dataclass
class Rep:
    """Generator name -> Hermitian unitary on the 4(d-1)-dimensional space."""

    params: PrimeParams
    dim: int
    table: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.table[name]
        except KeyError:
            raise StructuralError(f"representation has no generator {name!r}") from None


def x_index(j: int, d: int) -> int:
    """Array index of basis vector x_j of W_{d-1} (j taken mod d, nonzero)."""
    j %= d
    if j == 0:
        raise StructuralError("x_0 is not a basis vector of W_{d-1}")
    return j - 1


def u_basis(params: PrimeParams) -> np.ndarray:
    """Columns are u_0..u_{d-2} expressed in the x-basis of W_{d-1}."""
    d, r = params.d, params.r
    w = d - 1
    cols = np.zeros((w, w), dtype=complex)
    power = 1
    for t in range(w):
        for k in range(w):
            cols[x_index(power, d), k] += params.omega_dm1 ** (t * k)
        power = (power * r) % d
    return cols / np.sqrt(w)


def o_tilde_matrix(params: PrimeParams) -> np.ndarray:
    d = params.d
    diag = [params.omega_d ** j for j in range(1, d)]
    return np.diag(np.array(diag, dtype=complex))


def u_tilde_matrix(params: PrimeParams) -> np.ndarray:
    """Permutation sending x_{r^t} to x_{r^{t-1}}, i.e. x_k -> x_{k/r}."""
    d, r = params.d, params.r
    w = d - 1
    m = np.zeros((w, w), dtype=complex)
    r_inv = params.r_inverse()
    for k in range(1, d):
        m[x_index(k * r_inv, d), x_index(k, d)] = 1.0
    return m


def _base_generators_on_w(params: PrimeParams) -> dict[int, np.ndarray]:
    """Images of a1..a4 on W_{d-1}: explicit pairing / Fourier-pairing forms."""
    d = params.d
    w = d - 1
    half = w // 2

    a1 = np.zeros((w, w), dtype=complex)
    a2 = np.zeros((w, w), dtype=complex)
    for j in range(1, half + 1):
        a1[x_index(j, d), x_index(d - j, d)] = params.omega_d ** j
        a1[x_index(d - j, d), x_index(j, d)] = params.omega_d ** (-j)
    for j in range(1, d):
        a2[x_index(j, d), x_index(d - j, d)] = 1.0

    u = u_basis(params)

    def uket(k: int) -> np.ndarray:
        return u[:, k]

    def outer(k, l):  # |u_k><u_l|
        return np.outer(uket(k), uket(l).conj())

    a3 = outer(0, 0) + params.omega_dm1 ** half * outer(half, half)
    a4 = outer(0, 0) + outer(half, half)
    for k in range(1, (d - 3) // 2 + 1):
        a3 = a3 + params.omega_dm1 ** k * outer(k, w - k)
        a3 = a3 + params.omega_dm1 ** (-k) * outer(w - k, k)
        a4 = a4 + outer(w - k, k) + outer(k, w - k)
    return {1: a1, 2: a2, 3: a3, 4: a4}


def _derive_chain(params: PrimeParams) -> dict[int, np.ndarray]:
    """All a-generator images on W_{d-1}, closing the conjugacy relations."""
    r = params.r
    psi0 = _base_generators_on_w(params)
    triples = build_conjugacy_triples(r)
    pending = [t for t in triples]
    total = r + 5
    while len(psi0) < total:
        progressed = False
        for i, j, k in pending:
            if k not in psi0 and i in psi0 and j in psi0:
                psi0[k] = psi0[i] @ psi0[j] @ psi0[i]
                progressed = True
        pending = [t for t in pending if t[2] not in psi0]
        if not progressed:
            missing = sorted(set(range(1, total + 1)) - set(psi0))
            raise StructuralError(f"conjugacy chain cannot define generators {missing}")
    return psi0


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def _block_off(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """|x1><x2| (x) top + |x2><x1| (x) bottom."""
    n = top.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = top
    out[n:, :n] = bottom
    return out


def build_representation(params: PrimeParams) -> Rep:
    """Assemble the full generator table on W2 (x) W2 (x) W_{d-1}."""
    d, r = params.d, params.r
    w = d - 1
    n0 = r + 5
    psi0 = _derive_chain(params)
    id_w = eye(w)
    id_2w = eye(2 * w)

    # level-1 images on W2 (x) W_{d-1}
    psi1: dict[str, np.ndarray] = {"f0": kron(_X2, id_w)}
    for i in range(1, n0 + 1):
        ai = psi0[i]
        psi1[f"a{i}"] = kron(eye(2), ai)
        psi1[f"b{i}"] = _block_diag(ai, id_w)
        psi1[f"c{i}"] = _block_diag(id_w, ai)
        psi1[f"d{i}"] = kron(_X2, ai)
    triples = build_conjugacy_triples(r)
    for t in triples:
        _, j, k = t
        psi1[h_name(t)] = _block_diag(psi0[j], psi0[k])

    # level-2 images on W2 (x) (W2 (x) W_{d-1})
    table: dict[str, np.ndarray] = {}
    for name in list(psi1):
        if name != "f0":
            table[name] = kron(eye(2), psi1[name])
    pauli = {
        "f0": kron(eye(2), kron(_X2, id_w)),
        "f1": kron(_X2, kron(_X2, id_w)),
        "f2": kron(_X2, kron(eye(2), id_w)),
        "g0": kron(eye(2), kron(_Z2, id_w)),
        "g1": kron(_Z2, kron(_Z2, id_w)),
        "g2": kron(_Z2, kron(eye(2), id_w)),
        "m0": kron(_Z2, kron(_X2, id_w)),
        "m1": kron(_X2, kron(_Z2, id_w)),
        "m2": kron(_Y2, kron(_Y2, id_w)),
    }
    table.update(pauli)
    f0_1 = psi1["f0"]
    for i in range(1, n0 + 1):
        b, c = psi1[f"b{i}"], psi1[f"c{i}"]
        table[f"p{i}_1"] = kron(_X2, b)
        table[f"p{i}_2"] = _block_off(b @ f0_1, f0_1 @ b)
        table[f"p{i}_3"] = _block_diag(b @ f0_1 @ b, f0_1)
        table[f"p{i}_4"] = _block_diag(b @ c, id_2w)
        table[f"p{i}_5"] = _block_diag(b, c)
    for t in triples:
        i, j, k = t
        bj, di, ck = psi1[f"b{j}"], psi1[f"d{i}"], psi1[f"c{k}"]
        table[q_name(t, 1)] = kron(_X2, di)
        table[q_name(t, 2)] = kron(_X2, bj)
        table[q_name(t, 3)] = _block_off(bj @ di, di @ bj)
        table[q_name(t, 4)] = _block_diag(bj @ di @ bj, di)
        table[q_name(t, 5)] = _block_diag(bj @ ck, id_2w)
        table[q_name(t, 6)] = _block_diag(bj, ck)
    table["J"] = -eye(4 * w)

    return Rep(params=params, dim=4 * w, table=table)


def verify_representation(rep: Rep, system: LinearSystem) -> float:
    """Max operator-norm residual of Gamma's relations, read off the system.

    Every variable and the central sign J must be a Hermitian involution
    that commutes with J, and each row's product must be (-1)^c.
    PreconditionError naming the generator of a non-finite image.
    """
    identity = eye(rep.dim)
    jm = rep["J"]
    for name in (*system.variables, "J"):
        require_finite(rep[name], name)
    worst = 0.0
    for name in (*system.variables, "J"):
        m = rep[name]
        worst = max(worst, op_norm(m - dagger(m)), op_norm(m @ m - identity), op_norm(jm @ m - m @ jm))
    for row, c in zip(system.rows, system.rhs):
        prod = identity
        for v in row:
            prod = prod @ rep[system.variables[v]]
        worst = max(worst, op_norm(prod - (-1) ** c * identity))
    return worst


def key_unitaries(rep: Rep) -> tuple[np.ndarray, np.ndarray, float]:
    """(O, U) on W_{d-1} plus the conjugation residual ||U O U^+ - O^r||.

    Also cross-checks that the KEY_FACTORS products of the images reproduce
    O and U on the last factor and satisfy the same conjugation on the full space.
    """
    r = rep.params.r
    o, u = o_tilde_matrix(rep.params), u_tilde_matrix(rep.params)
    res = op_norm(u @ o @ dagger(u) - np.linalg.matrix_power(o, r))

    oo, uu = (rep[a] @ rep[b] for a, b in KEY_FACTORS.values())
    res = max(res, op_norm(oo - kron(eye(4), o)))
    res = max(res, op_norm(uu - kron(eye(4), u)))
    res = max(res, op_norm(uu @ oo @ dagger(uu) - np.linalg.matrix_power(oo, r)))
    return o, u, res
