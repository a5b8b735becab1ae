"""Exact representation of the solution group and its verifier.

The carrier space is W2 (x) W2 (x) W_{d-1}, dimension 4(d-1).  Every image
is monomial, one entry per row and column, each a 2d-th root of unity, so
each is held exactly as a :class:`Monomial`: a permutation and an integer
phase array.  The images of a1..a4 on W_{d-1} are written in closed form;
every other a-generator is a conjugate of earlier ones, and each gadget's
helpers are block forms in its x, y and z, all in integer arithmetic.
Nothing here is trusted: :func:`broken_relations` rechecks every relation
of Gamma, and :func:`broken_key_relations` the key unitaries' relations, by
integer equality, for the verifier and the ideal build alike.

Basis conventions: W_k uses basis x_1..x_k stored at indices 0..k-1; on
W_{d-1} the subscript of x_k is read mod d.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .groups import build_conjugacy_triples, conjugacy_gadgets, h_name
from .linalg import op_norm
from .lsg import LinearSystem, eq_label
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


def _gadget_images(x: Monomial, y: Monomial, z: Monomial, x2: Monomial) -> tuple[Monomial, ...]:
    """Images of the helpers h1..h6 of the gadget x y x = z (lsg.GADGET), from
    the level-1 images of x, y and z; x2 is the Pauli X on W2."""
    one = Monomial.identity(len(x.perm), x.order)
    return (x2.kron(x), x2.kron(y), _block_off(y @ x, x @ y),
            _block_diag(y @ x @ y, x), _block_diag(y @ z, one), _block_diag(y, z))


def build_representation(params: PrimeParams) -> Rep:
    """Assemble the full generator table on W2 (x) W2 (x) W_{d-1}."""
    d, r = params.d, params.r
    w = d - 1
    n0 = r + 5
    psi0 = _derive_chain(params)
    id2, id_w = (Monomial.identity(n, 2 * d) for n in (2, w))
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
    for t in build_conjugacy_triples(r):
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
    for x, y, z, helpers in conjugacy_gadgets(r):
        for name, image in zip(helpers, _gadget_images(psi1[x], psi1[y], psi1[z], x2)):
            table.setdefault(name, image)  # h1 at x = f0 is f1, whose Pauli image is already there
    table["J"] = -Monomial.identity(4 * w, 2 * d)

    return Rep(params=params, dim=4 * w, table=table)


def worst_gap(pairs) -> float:
    """The largest operator norm of left - right over (left, right) Monomial
    pairs, an equal pair reading 0.0 with no dense matrix; 0.0 for no pair."""
    return max((0.0 if left == right else op_norm(left.dense() - right.dense()) for left, right in pairs), default=0.0)


def broken_relations(rep: Rep, system: LinearSystem) -> list[tuple[str, Monomial, Monomial]]:
    """Gamma's relations that rep breaks, in order, each as (name, left, right).

    First each variable and then J: it squares to 1 and commutes with J.
    Then each row: the product of its three images, in order, is (-1)^c.
    Together these make each row's images commuting involutions (a monomial
    unitary that squares to 1 is Hermitian).  Each side is a Monomial
    product, so every relation is decided exactly.
    """
    jm = rep["J"]
    one = Monomial.identity(rep.dim, jm.order)
    images = [*map(rep.__getitem__, system.variables), jm]

    def relations():  # (name, left, right), one at a time
        for g, m in zip((*system.variables, "J"), images):
            yield f"{g}: the square is not 1", m @ m, one
            yield f"{g}: it does not commute with J", jm @ m, m @ jm
        for i, (row, c) in enumerate(zip(system.rows, system.rhs)):
            x, y, z = (images[v] for v in row)
            name = f"{eq_label(i)} ({', '.join(system.row_names(i))}): the product is not {'-1' if c % 2 else '+1'}"
            yield name, x @ y @ z, -one if c % 2 else one

    return [(name, left, right) for name, left, right in relations() if left != right]


def broken_key_relations(rep: Rep) -> list[tuple[str, Monomial, Monomial]]:
    """The key relations rep breaks, in order, each as (name, left, right).

    On W_{d-1}, O: x_k -> omega_d^k x_k and U: x_k -> x_{k/r} must satisfy
    U O = O^r U, and the images' KEY_FACTORS products must be I_4 (x) O and
    I_4 (x) U, which then satisfy it on the full space too.  Each relation
    is decided exactly, as in broken_relations.
    """
    params = rep.params
    o = _on_w(params, lambda k: k, lambda k: 2 * k)
    u = _on_w(params, lambda k: k * pow(params.r, -1, params.d))
    oo, uu = (rep[a] @ rep[b] for a, b in KEY_FACTORS.values())
    id4 = Monomial.identity(4, o.order)
    o_r = functools.reduce(operator.matmul, [o] * params.r)
    relations = (("U O = O^r U on W_{d-1}", u @ o, o_r @ u),
                 ("a1 a2 = I_4 (x) O", oo, id4.kron(o)), ("a3 a4 = I_4 (x) U", uu, id4.kron(u)))
    return [(name, left, right) for name, left, right in relations if left != right]
