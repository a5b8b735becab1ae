"""Exact representation of the solution group and its verifier.

The carrier space is W2 (x) W2 (x) W_{d-1}, dimension 4(d-1).  Every image
is monomial, one entry per row and column, each a 2d-th root of unity, so
each is held exactly as a :class:`Monomial`: a permutation and an integer
phase array.  The images of a1..a4 on W_{d-1} are written in closed form;
every other a-generator is a conjugate of earlier ones, and the helper
generators are assembled from fixed block forms, all in integer arithmetic.
Nothing here is trusted: :func:`verify_representation` rechecks every
relation by integer equality.

Basis conventions: W_k uses basis x_1..x_k stored at indices 0..k-1; on
W_{d-1} the subscript of x_k is read mod d.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .groups import build_conjugacy_triples, h_name, q_name
from .linalg import op_norm
from .lsg import LinearSystem
from .numtheory import PrimeParams

#: the generator pairs whose products are the key unitaries O = a1 a2 and U = a3 a4
KEY_FACTORS = {"O": ("a1", "a2"), "U": ("a3", "a4")}


@dataclass(frozen=True, eq=False)
class Monomial:
    """The unitary M e_c = exp(2 pi i phase[c] / order) e_perm[c].

    @, kron, negation and == act on the integer arrays, so they are exact;
    phases are compared mod order.  dense() gives the complex matrix.
    """

    perm: np.ndarray
    phase: np.ndarray
    order: int

    @classmethod
    def identity(cls, n: int, order: int) -> "Monomial":
        return cls(np.arange(n), np.zeros(n, dtype=int), order)

    def __matmul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.perm[other.perm], (other.phase + self.phase[other.perm]) % self.order, self.order)

    def __neg__(self) -> "Monomial":
        return Monomial(self.perm, (self.phase + self.order // 2) % self.order, self.order)

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, Monomial) and self.order == other.order and np.array_equal(self.perm, other.perm)
        return same and not ((self.phase - other.phase) % self.order).any()

    def kron(self, other: "Monomial") -> "Monomial":
        n = len(other.perm)
        perm = self.perm[:, None] * n + other.perm
        return Monomial(perm.ravel(), ((self.phase[:, None] + other.phase) % self.order).ravel(), self.order)

    def dense(self) -> np.ndarray:
        n = len(self.perm)
        out = np.zeros((n, n), dtype=complex)
        out[self.perm, np.arange(n)] = roots_of_unity(self.phase, self.order)
        return out


def roots_of_unity(phase: np.ndarray, order: int) -> np.ndarray:
    """exp(2 pi i phase / order) for an integer array phase, exact at quarter turns."""
    # phase/order = q/4 + m/(4 order) with integer q and |m| <= order/2: exact
    # quarter turns i^q times a rotation by an angle of at most pi/4
    q = np.rint(4 * phase / order).astype(int)
    turn = np.array([1, 1j, -1, -1j])[q % 4]
    return turn * np.exp(0.5j * np.pi * (4 * phase - q * order) / order)


@dataclass
class Rep:
    """Generator name -> its exact image, a Hermitian unitary on the 4(d-1)-dimensional space."""

    params: PrimeParams
    dim: int
    table: dict[str, Monomial]

    def __getitem__(self, name: str) -> Monomial:
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


def _on_w(params: PrimeParams, image, phase=None) -> Monomial:
    """x_k -> exp(2 pi i phase(k) / 2d) x_{image(k)} on W_{d-1}; phase 0 when None."""
    d = params.d
    perm = np.array([x_index(image(k), d) for k in range(1, d)])
    return Monomial(perm, np.zeros(d - 1, dtype=int) if phase is None else phase(np.arange(1, d)) % (2 * d), 2 * d)


def _base_generators_on_w(params: PrimeParams) -> dict[int, Monomial]:
    """Images of a1..a4 on W_{d-1}: a1: x_k -> omega_d^{-k} x_{-k},
    a2: x_k -> x_{-k}, a3: x_k -> x_{(kr)^{-1}}, a4: x_k -> x_{k^{-1}}."""
    d, r = params.d, params.r
    return {
        1: _on_w(params, operator.neg, lambda k: -2 * k),
        2: _on_w(params, operator.neg),
        3: _on_w(params, lambda k: pow(k * r, -1, d)),
        4: _on_w(params, lambda k: pow(k, -1, d)),
    }


def _derive_chain(params: PrimeParams) -> dict[int, Monomial]:
    """All a-generator images on W_{d-1}, closing the conjugacy relations."""
    r = params.r
    psi0 = _base_generators_on_w(params)
    pending = list(build_conjugacy_triples(r))
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


def _block_diag(a: Monomial, b: Monomial) -> Monomial:
    """|x1><x1| (x) a + |x2><x2| (x) b."""
    return Monomial(np.concatenate((a.perm, b.perm + len(a.perm))), np.concatenate((a.phase, b.phase)), a.order)


def _block_off(top: Monomial, bottom: Monomial) -> Monomial:
    """|x1><x2| (x) top + |x2><x1| (x) bottom."""
    m = _block_diag(bottom, top)
    return Monomial((m.perm + len(top.perm)) % len(m.perm), m.phase, m.order)


def build_representation(params: PrimeParams) -> Rep:
    """Assemble the full generator table on W2 (x) W2 (x) W_{d-1}."""
    d, r = params.d, params.r
    w = d - 1
    n0 = r + 5
    psi0 = _derive_chain(params)
    id2, id_w, id_2w = (Monomial.identity(n, 2 * d) for n in (2, w, 2 * w))
    x2 = Monomial(np.array([1, 0]), np.zeros(2, dtype=int), 2 * d)
    z2 = Monomial(np.arange(2), np.array([0, d]), 2 * d)

    # level-1 images on W2 (x) W_{d-1}
    psi1: dict[str, Monomial] = {"f0": x2.kron(id_w)}
    for i in range(1, n0 + 1):
        ai = psi0[i]
        psi1[f"a{i}"] = id2.kron(ai)
        psi1[f"b{i}"] = _block_diag(ai, id_w)
        psi1[f"c{i}"] = _block_diag(id_w, ai)
        psi1[f"d{i}"] = x2.kron(ai)
    triples = build_conjugacy_triples(r)
    for t in triples:
        _, j, k = t
        psi1[h_name(t)] = _block_diag(psi0[j], psi0[k])

    # level-2 images on W2 (x) (W2 (x) W_{d-1})
    table = {name: id2.kron(m) for name, m in psi1.items() if name != "f0"}
    pauli = {
        "f0": id2.kron(x2),
        "f1": x2.kron(x2),
        "f2": x2.kron(id2),
        "g0": id2.kron(z2),
        "g1": z2.kron(z2),
        "g2": z2.kron(id2),
        "m0": z2.kron(x2),
        "m1": x2.kron(z2),
        "m2": Monomial(np.arange(3, -1, -1), np.array([d, 0, 0, d]), 2 * d),  # Y (x) Y, Y = [[0, i], [-i, 0]]
    }
    table.update((name, m.kron(id_w)) for name, m in pauli.items())
    f0_1 = psi1["f0"]
    for i in range(1, n0 + 1):
        b, c = psi1[f"b{i}"], psi1[f"c{i}"]
        table[f"p{i}_1"] = x2.kron(b)
        table[f"p{i}_2"] = _block_off(b @ f0_1, f0_1 @ b)
        table[f"p{i}_3"] = _block_diag(b @ f0_1 @ b, f0_1)
        table[f"p{i}_4"] = _block_diag(b @ c, id_2w)
        table[f"p{i}_5"] = _block_diag(b, c)
    for t in triples:
        i, j, k = t
        bj, di, ck = psi1[f"b{j}"], psi1[f"d{i}"], psi1[f"c{k}"]
        table[q_name(t, 1)] = x2.kron(di)
        table[q_name(t, 2)] = x2.kron(bj)
        table[q_name(t, 3)] = _block_off(bj @ di, di @ bj)
        table[q_name(t, 4)] = _block_diag(bj @ di @ bj, di)
        table[q_name(t, 5)] = _block_diag(bj @ ck, id_2w)
        table[q_name(t, 6)] = _block_diag(bj, ck)
    table["J"] = -Monomial.identity(4 * w, 2 * d)

    return Rep(params=params, dim=4 * w, table=table)


def _gap(m: Monomial, target: Monomial) -> float:
    """0.0 when m == target, else the operator norm of their dense difference."""
    return 0.0 if m == target else op_norm(m.dense() - target.dense())


def verify_representation(rep: Rep, system: LinearSystem) -> float:
    """Max operator-norm residual of Gamma's relations, read off the system.

    Every variable and the central sign J must be an involution that
    commutes with J (a monomial unitary that squares to 1 is Hermitian), and
    each row's product must be (-1)^c.  Each relation is decided exactly, so
    one that holds adds 0.0.
    """
    jm = rep["J"]
    identity = Monomial.identity(rep.dim, jm.order)
    worst = 0.0
    for name in (*system.variables, "J"):
        m = rep[name]
        worst = max(worst, _gap(m @ m, identity), _gap(jm @ m, m @ jm))
    for row, c in zip(system.rows, system.rhs):
        prod = functools.reduce(operator.matmul, (rep[system.variables[v]] for v in row), identity)
        worst = max(worst, _gap(prod, -identity if c % 2 else identity))
    return worst


def key_unitaries(rep: Rep) -> float:
    """Residual of the key unitaries O = a1 a2 and U = a3 a4 (KEY_FACTORS).

    On W_{d-1}, O: x_k -> omega_d^k x_k and U: x_k -> x_{k/r} must satisfy
    U O = O^r U, and the images' KEY_FACTORS products must be I_4 (x) O and
    I_4 (x) U, which then satisfy it on the full space too.  Each relation
    is decided exactly, so one that holds adds 0.0.
    """
    params = rep.params
    o = _on_w(params, lambda k: k, lambda k: 2 * k)
    u = _on_w(params, lambda k: k * params.r_inverse())
    oo, uu = (rep[a] @ rep[b] for a, b in KEY_FACTORS.values())
    id4 = Monomial.identity(4, o.order)
    o_r = functools.reduce(operator.matmul, [o] * params.r)
    return max(_gap(u @ o, o_r @ u), _gap(oo, id4.kron(o)), _gap(uu, id4.kron(u)))
