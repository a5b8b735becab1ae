"""Dense projector algebra, the reference the stored measurement bases are held to.

A binary observable splits into its two eigenprojectors (1 +/- m)/2, and k
commuting observables into the 2^k products of theirs, stacked as a
(2^k, n, n) array; a stored basis expands into the same kind of stack.
The sync and equation probes are rebuilt here from those stacks, with every
variable's observable formed and multiplied out.  random_unitaries forms the
rotations that lsgame.linalg.rotate_bases applies without forming them.
"""

import itertools

import numpy as np

from lsgame.errors import PreconditionError
from lsgame.linalg import DEFAULT_TOL, dagger, eye, op_norm
from lsgame.strategy import eq_label, var_label


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
    res = max(op_norm(m - dagger(m)), op_norm(m @ m - eye(m.shape[0])))
    if res > DEFAULT_TOL:
        raise PreconditionError("operator is not a binary observable", res)
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
        raise PreconditionError("observables do not commute", worst)
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
