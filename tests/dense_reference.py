"""Dense projector algebra, the reference the stored measurement bases are held to.

A binary observable splits into its two eigenprojectors (1 +/- m)/2, and k
commuting observables into the 2^k products of theirs, stacked as a
(2^k, n, n) array; a stored basis expands into the same kind of stack.
The sync and equation probes are rebuilt here from those stacks, with every
variable's observable formed and multiplied out.  random_unitaries forms the
rotations that lsgame.linalg.rotate_bases applies without forming them.
dense_table builds the representation's images as dense complex matrices,
a3 and a4 as sums over the Fourier basis u, the reference the exact
monomial images are held to.  brute_force_primitive is the oracle that
make_params' primitivity verdict is held to, and that enumerates the
admissible (d, r).  ideal_table_values gives the published closed forms of
the ideal correlation's extension-block and commutation tables, the oracle
the generated ideal correlation is held to, cell by cell, with
closed_form_deviation.
"""

import cmath
import itertools
import math

import numpy as np
from chsh_reference import involution_residual

from lsgame.errors import PreconditionError, StructuralError
from lsgame.groups import build_conjugacy_triples, h_name, q_name
from lsgame.linalg import dagger, eye, op_norm, worst
from lsgame.representation import x_index
from lsgame.strategy import COMM_GENS, comm_label, eq_label, ext_labels, var_label

#: tolerance of the dense checks; dimensions stay at most 120 per side
#: (4(d-1) at the cap d = 31), so roundoff sits far beneath this
DEFAULT_TOL = 1e-9


def brute_force_primitive(r, d):
    """r is primitive when its powers r^1..r^(d-1) hit every unit mod d."""
    return len({pow(r, e, d) for e in range(1, d)}) == d - 1


def projectors(basis):
    """The dense (k, n, n) stack of a basis's outcome projectors V_a V_a^H,
    V_a the columns that row a of the outcome matrix marks."""
    v = basis.vectors
    return np.stack([v[:, row == 1] @ dagger(v[:, row == 1]) for row in basis.outcomes])


def random_unitaries(rng, count, dim, t):
    """(count, dim, dim) stack of exp(i*t*h), each h a random Hermitian matrix
    of unit operator norm, from one batched eigendecomposition.

    rng is consumed as rotate_bases consumes it: count successive pairs of
    (dim, dim) standard-normal draws, real part then imaginary part.
    """
    g = rng.standard_normal((count, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    vals, vecs = np.linalg.eigh((g + dagger(g)) / 2)
    scale = np.abs(vals).max(axis=1, keepdims=True)
    return (vecs * np.exp(1j * t * vals / scale)[:, None, :]) @ dagger(vecs)


def family(strategy, party, question):
    """A strategy's measurement for a question as a dense projector stack."""
    return projectors(strategy.basis(party, question))


def _halves(m):
    one = eye(m.shape[0])
    return np.stack(((one + m) / 2, (one - m) / 2))


def observable_to_projectors(m):
    """Split a binary observable into its stacked (+1, -1) eigenprojectors."""
    res = involution_residual(m)
    if res > DEFAULT_TOL:
        raise PreconditionError(f"operator is not a binary observable (residual {res:.3e})")
    return _halves(m)


def joint_projector(observables):
    """All 2^k products of (1 +/- m)/2 for k pairwise commuting binary observables.

    Outcomes are stacked in lexicographic order, the first observable's sign
    slowest: stack[o] projects onto outcome o, bit 0 meaning +1 and 1 meaning -1.
    """
    worst = 0.0
    for i, a in enumerate(observables):
        for b in observables[i + 1 :]:
            worst = max(worst, op_norm(a @ b - b @ a))
    if worst > DEFAULT_TOL:
        raise PreconditionError(f"observables do not commute (residual {worst:.3e})")
    out = _halves(observables[0])
    for m in observables[1:]:
        out = (out[:, None] @ _halves(m)[None]).reshape(-1, *m.shape)
    return out


def variable_observable(strategy, party, gen):
    """P0 - P1 of the party's x(gen) projectors; where Alice has no x(gen),
    the signed sum over the triples of the first equation containing gen."""
    bases = strategy.alice if party == "A" else strategy.bob
    if var_label(gen) in bases:
        p = family(strategy, party, var_label(gen))
        return p[0] - p[1]
    system = strategy.test.system
    row = next(i for i in range(system.n_rows) if gen in system.row_names(i))
    pos = system.row_names(row).index(gen)
    p = family(strategy, party, eq_label(row))
    return sum((-1) ** bits[pos] * p[k] for k, bits in enumerate(itertools.product((0, 1), repeat=3)))


def sync_by_variable(strategy):
    """{gen: ||M(gen) S N(gen)^T - S||} over every variable."""
    s = strategy.state
    return {
        g: np.linalg.norm(variable_observable(strategy, "A", g) @ s @ variable_observable(strategy, "B", g).T - s)
        for g in strategy.test.system.variables
    }


def equation_residual(strategy):
    """max over equations of ||M(g1) M(g2) M(g3) S - (-1)^c S||, each M formed."""
    system, s = strategy.test.system, strategy.state
    obs = {g: variable_observable(strategy, "A", g) for g in system.variables}
    return max(
        np.linalg.norm(obs[g1] @ (obs[g2] @ (obs[g3] @ s)) - (-1) ** c * s)
        for (g1, g2, g3), c in ((system.row_names(i), system.rhs[i]) for i in range(system.n_rows))
    )


_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def omega_dm1(params):
    """exp(2 pi i / (d - 1)), the root of unity of the Fourier basis u."""
    return cmath.exp(2j * math.pi / (params.d - 1))


def u_basis(params):
    """Columns are u_0..u_{d-2} expressed in the x-basis of W_{d-1}."""
    d, r = params.d, params.r
    w = d - 1
    cols = np.zeros((w, w), dtype=complex)
    power = 1
    for t in range(w):
        for k in range(w):
            cols[x_index(power, d), k] += omega_dm1(params) ** (t * k)
        power = (power * r) % d
    return cols / np.sqrt(w)


def _base_generators_on_w(params):
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

    def uket(k):
        return u[:, k]

    def outer(k, l):  # |u_k><u_l|
        return np.outer(uket(k), uket(l).conj())

    a3 = outer(0, 0) + omega_dm1(params) ** half * outer(half, half)
    a4 = outer(0, 0) + outer(half, half)
    for k in range(1, (d - 3) // 2 + 1):
        a3 = a3 + omega_dm1(params) ** k * outer(k, w - k)
        a3 = a3 + omega_dm1(params) ** (-k) * outer(w - k, k)
        a4 = a4 + outer(w - k, k) + outer(k, w - k)
    return {1: a1, 2: a2, 3: a3, 4: a4}


def _derive_chain(params):
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


def _block_diag(a, b):
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def _block_off(top, bottom):
    """|x1><x2| (x) top + |x2><x1| (x) bottom."""
    n = top.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = top
    out[n:, :n] = bottom
    return out


def dense_table(params):
    """Generator name -> dense image on W2 (x) W2 (x) W_{d-1}, in the order
    of lsgame.representation.build_representation's table."""
    d, r = params.d, params.r
    w = d - 1
    n0 = r + 5
    psi0 = _derive_chain(params)
    id_w = eye(w)
    id_2w = eye(2 * w)

    # level-1 images on W2 (x) W_{d-1}
    psi1 = {"f0": np.kron(_X2, id_w)}
    for i in range(1, n0 + 1):
        ai = psi0[i]
        psi1[f"a{i}"] = np.kron(eye(2), ai)
        psi1[f"b{i}"] = _block_diag(ai, id_w)
        psi1[f"c{i}"] = _block_diag(id_w, ai)
        psi1[f"d{i}"] = np.kron(_X2, ai)
    triples = build_conjugacy_triples(r)
    for t in triples:
        _, j, k = t
        psi1[h_name(t)] = _block_diag(psi0[j], psi0[k])

    # level-2 images on W2 (x) (W2 (x) W_{d-1})
    table = {}
    for name in list(psi1):
        if name != "f0":
            table[name] = np.kron(eye(2), psi1[name])
    pauli = {
        "f0": np.kron(eye(2), np.kron(_X2, id_w)),
        "f1": np.kron(_X2, np.kron(_X2, id_w)),
        "f2": np.kron(_X2, np.kron(eye(2), id_w)),
        "g0": np.kron(eye(2), np.kron(_Z2, id_w)),
        "g1": np.kron(_Z2, np.kron(_Z2, id_w)),
        "g2": np.kron(_Z2, np.kron(eye(2), id_w)),
        "m0": np.kron(_Z2, np.kron(_X2, id_w)),
        "m1": np.kron(_X2, np.kron(_Z2, id_w)),
        "m2": np.kron(_Y2, np.kron(_Y2, id_w)),
    }
    table.update(pauli)
    f0_1 = psi1["f0"]
    for i in range(1, n0 + 1):
        b, c = psi1[f"b{i}"], psi1[f"c{i}"]
        table[f"p{i}_1"] = np.kron(_X2, b)
        table[f"p{i}_2"] = _block_off(b @ f0_1, f0_1 @ b)
        table[f"p{i}_3"] = _block_diag(b @ f0_1 @ b, f0_1)
        table[f"p{i}_4"] = _block_diag(b @ c, id_2w)
        table[f"p{i}_5"] = _block_diag(b, c)
    for t in triples:
        i, j, k = t
        bj, di, ck = psi1[f"b{j}"], psi1[f"d{i}"], psi1[f"c{k}"]
        table[q_name(t, 1)] = np.kron(_X2, di)
        table[q_name(t, 2)] = np.kron(_X2, bj)
        table[q_name(t, 3)] = _block_off(bj @ di, di @ bj)
        table[q_name(t, 4)] = _block_diag(bj @ di @ bj, di)
        table[q_name(t, 5)] = _block_diag(bj @ ck, id_2w)
        table[q_name(t, 6)] = _block_diag(bj, ck)
    table["J"] = -eye(4 * w)
    return table


def ideal_table_values(params, test):
    """Every closed-form entry of the published ideal-correlation tables.

    Keys are (x, y) question labels; inner keys are (row, col) indices into
    the table of that pair, read off a grid p(a, b) in the test's answer
    order.  The answers past a grid's last row or column are unconstrained.
    """
    d = params.d
    w = d - 1
    cos2 = math.cos(math.pi / (2 * d)) ** 2 / w
    sin2 = math.sin(math.pi / (2 * d)) ** 2 / w
    plus = (1 + math.sin(math.pi / d)) / (2 * w)
    minus = (1 - math.sin(math.pi / d)) / (2 * w)
    rest, one, half = (d - 3) / w, 1 / w, 1 / (2 * w)

    sub, z, x = ext_labels(test.n_vars)
    a1, a2 = var_label("a1"), var_label("a2")
    by_z = [[cos2, sin2], [sin2, cos2]]
    same = [[one, 0.0, 0.0], [0.0, one, 0.0], [0.0, 0.0, rest]]
    cross = [[half, half, 0.0], [half, half, 0.0], [0.0, 0.0, rest]]
    on_sub = [[one, 0.0], [one, 0.0], [0.0, rest]]
    grids = {
        (z, a1): by_z, (z, a2): by_z,
        (x, a1): [[minus, plus], [plus, minus]], (x, a2): [[plus, minus], [minus, plus]],
        (z, z): same, (x, x): same, (z, x): cross, (x, z): cross,
        (sub, sub): [[2 / w, 0.0], [0.0, rest]], (z, sub): on_sub, (x, sub): on_sub,
    }
    # the role-flipped pairs, each its partner's transpose
    grids.update(((qb, qa), list(zip(*grid))) for (qa, qb), grid in list(grids.items()) if (qb, qa) not in grids)
    # commutation block: Bob's answer (b1, b2) carries the basis question's
    # answer in b1 and the variable's in b2; mass[b1] is p of a match
    mass = (half, half, rest / 2)
    for q in (z, x):
        for g in COMM_GENS:
            y, v = comm_label(q, g), var_label(g)
            answers = test.bob_answers[y]
            grids[(q, y)] = [[mass[b1] * (a == b1) for b1, b2 in answers] for a in test.alice_answers[q]]
            grids[(v, y)] = [[mass[b1] * (a == b2) for b1, b2 in answers] for a in test.alice_answers[v]]
    return {key: {(i, j): p for i, row in enumerate(grid) for j, p in enumerate(row)} for key, grid in grids.items()}


def closed_form_deviation(corr, reference):
    """Largest |entry - closed form| over the cells that reference constrains; a NaN entry wins."""
    return worst(
        abs(float(corr.entries[key][ia, ib]) - want)
        for key, cells in reference.items()
        for (ia, ib), want in cells.items()
    )
