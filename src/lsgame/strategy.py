"""The full nonlocal test, its ideal strategy, and correlation generation.

The full test glues three blocks over one uniform question distribution:

* the linear system game (equation questions for Alice, variable questions
  for Bob),
* a five-question extension of the weighted CHSH test whose middle two
  questions are identified with the variables x(a1), x(a2), and
* a commutation game in which Bob answers a pair (basis question, variable
  question) at once.

Question labels are strings: ``I7`` (equation), ``x(f0)`` (variable),
``ext:0`` / ``ext:<n+1>`` / ``ext:<n+2>`` (extension block, n = number of
variables), ``comm:<n+1>,f0`` (Bob's paired question).  Answer orders are
fixed by the tuples in FullTest.  A measurement is one read-only
:class:`~lsgame.linalg.Basis`: an ``n x n`` unitary and a 0/1 matrix whose
row a, in that answer order, marks the columns of the a-th answer.

:meth:`Strategy.observable` is the one source of binary observables: every
variable's observable, O and U, each derived once per set of bases and read
by the self-test, the residual probes and the embedded CHSH value.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from .errors import DomainError, PreconditionError, StructuralError
from .linalg import Basis, basis_vector, eye
from .lsg import LinearSystem, build_linear_system, eq_label
from .numtheory import PrimeParams
from .representation import KEY_FACTORS, Monomial, Rep, broken_key_relations, broken_relations, roots_of_unity, x_index

COMM_GENS = ("f0", "f2", "g0", "g2")

#: tolerance on the sum and on negative entries of a parsed correlation table
#: (generated entries are sums of squares, never negative, but a file may
#: come from elsewhere)
TABLE_TOL = 1e-9

_TRIPLES = tuple(
    (a0, a1, a2) for a0 in (0, 1) for a1 in (0, 1) for a2 in (0, 1)
)
_COMM_ANSWERS = tuple((b1, b2) for b1 in (0, 1, 2) for b2 in (0, 1))


def var_label(gen: str) -> str:
    return f"x({gen})"


def ext_labels(n_vars: int) -> tuple[str, str, str]:
    """The extension block's subspace, Z-basis and X-basis questions."""
    return "ext:0", f"ext:{n_vars + 1}", f"ext:{n_vars + 2}"


def comm_label(basis: str, gen: str) -> str:
    """Bob's paired question of a basis question and a variable."""
    return f"comm:{basis.removeprefix('ext:')},{gen}"


@dataclass(frozen=True)
class FullTest:
    """The linear system, answer orders and the uniform support of the test.

    The key order of each party's answer table is that party's question
    order, and shapes holds each support pair's table shape.  readout[party,
    name], for party "A" or "B" and a question label or variable, is the
    question whose basis carries that party's observable for name and the
    observable's eigenvalue on each of its answers.
    """

    system: LinearSystem
    alice_answers: dict[str, tuple]
    bob_answers: dict[str, tuple]
    support: tuple[tuple[str, str], ...]
    readout: dict[tuple[str, str], tuple[str, tuple[float, ...]]]

    @property
    def n_vars(self) -> int:
        return self.system.n_vars

    @functools.cached_property
    def shapes(self) -> dict[tuple[str, str], tuple[int, int]]:
        """Each support pair's table shape: (Alice's answers, Bob's answers)."""
        return {(x, y): (len(self.alice_answers[x]), len(self.bob_answers[y])) for x, y in self.support}


def build_full_test(params: PrimeParams) -> FullTest:
    """Enumerate questions, answer alphabets, and the uniform support."""
    system = build_linear_system(params.r)
    sub, z, x = ext_labels(system.n_vars)
    # the five extension questions, in question order
    ext_answers = {sub: (0, 2), var_label("a1"): (0, 1), var_label("a2"): (0, 1), z: (0, 1, 2), x: (0, 1, 2)}

    alice_answers: dict[str, tuple] = {eq_label(i): _TRIPLES for i in range(system.n_rows)}
    alice_answers.update(ext_answers)
    alice_answers.update((var_label(g), (0, 1)) for g in COMM_GENS)

    bob_answers: dict[str, tuple] = {var_label(g): (0, 1) for g in system.variables}
    bob_answers.update((q, ext_answers[q]) for q in (sub, z, x))
    bob_answers.update((comm_label(basis, g), _COMM_ANSWERS) for basis in (z, x) for g in COMM_GENS)

    support = [(eq_label(i), var_label(system.variables[v])) for i, v in system.valid_pairs]
    support += [(qa, qb) for qa in ext_answers for qb in ext_answers]
    for basis in (z, x):
        for g in COMM_GENS:
            y = comm_label(basis, g)
            support += [(basis, y), (var_label(g), y)]

    # own questions, and the variables asked, read +1, -1, then 0 on further answers;
    # Alice reads a variable she is not asked off its bit in its first equation
    readout = {}
    for party, answers in (("A", alice_answers), ("B", bob_answers)):
        own = {q: (q, (1.0, -1.0) + (0.0,) * (len(outcomes) - 2)) for q, outcomes in answers.items()}
        readout.update(((party, q), entry) for q, entry in own.items())
        readout.update(((party, g), own[var_label(g)]) for g in system.variables if var_label(g) in own)
    readout.update(
        (("A", g), (eq_label(row), tuple((-1.0) ** outcome[pos] for outcome in _TRIPLES)))
        for g, (row, pos) in system.first_position.items()
        if var_label(g) not in alice_answers
    )

    return FullTest(
        system=system,
        alice_answers=alice_answers,
        bob_answers=bob_answers,
        support=tuple(support),
        readout=readout,
    )


@dataclass(frozen=True, eq=False)  # identity equality: the state is an array
class Strategy:
    """Shared pure state plus one measurement basis per question per party.

    state is the (dim_a, dim_b) matrix S of psi = vec(S), row-major, so
    that (M (x) N) psi = vec(M S N^T).  Nothing is rebound after
    construction: the fields are frozen, the state is made read-only and
    alice and bob are read-only mappings of read-only bases, so strategies
    may share the state and the bases.

    What the bases alone determine (observables, the self-test's stage-two
    factors, ladders and left-out factors, the residual probes) is memoized
    in a table that belongs to the bases, keyed by the function that derives
    each entry and its arguments (derived): with_state makes a strategy with
    another state and the same bases, and shares that table, so every
    delta-0 and state record reads the ideal's entries across records.
    Every other construction, dataclasses.replace included, starts with an
    empty one.  Only build_ideal_strategy seeds it, under stage_one_columns'
    key alone, with the exact column support of the self-test's stage-one
    slices: at the ideal O = a1 a2 is I_4 (x) diag(omega_d^k), so P(j) has
    the 4 columns where O reads omega_d^j and P(0) none, read off O's
    integer phases; every other strategy reads all columns.  The correlation
    depends on the state, so each strategy memoizes its own and shares it
    with none.
    """

    params: PrimeParams
    test: FullTest
    state: np.ndarray
    alice: Mapping[str, Basis]
    bob: Mapping[str, Basis]
    #: derived()'s memo of what the bases determine, shared by with_state
    _by_bases: dict = field(default_factory=dict, init=False, repr=False)
    #: correlation()'s memo, at most one entry, owned by this object alone
    _correlation: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self.state.setflags(write=False)
        object.__setattr__(self, "alice", MappingProxyType(dict(self.alice)))
        object.__setattr__(self, "bob", MappingProxyType(dict(self.bob)))

    def with_state(self, state: np.ndarray) -> Strategy:
        """The same bases, and their memo, with another shared state."""
        out = Strategy(params=self.params, test=self.test, state=state, alice=self.alice, bob=self.bob)
        object.__setattr__(out, "_by_bases", self._by_bases)
        return out

    def derived(self, derive: Callable[..., Any], *args) -> Any:
        """derive(self, *args), memoized under (derive, *args) for every strategy with these bases.

        derive, a module function, reads nothing but the bases, args and other
        derived entries, so the key names every input; the arrays it returns
        (one, or held in nested tuples) are made read-only, as readers share them.
        """
        key = (derive, *args)
        if key not in self._by_bases:
            self._by_bases[key] = _freeze(derive(self, *args))
        return self._by_bases[key]

    def stage_one_columns(self, party: str) -> tuple:
        """Each control value j's columns of the party's P(j) =
        (1/d) sum_k omega_d^(-jk) O^k, the self-test's stage-one slice
        (isometry._gram_ladders); see the class docstring."""
        return self.derived(_stage_one_columns, party)

    def correlation(self) -> Correlation:
        """generate_correlation(self), formed once per strategy."""
        if not self._correlation:
            self._correlation.append(generate_correlation(self))
        return self._correlation[0]

    def basis(self, party: str, question: str) -> Basis:
        """Party "A" or "B"'s measurement basis for a question."""
        if party not in ("A", "B"):
            raise StructuralError(f"no party {party!r}: the parties are 'A' and 'B'")
        bases = self.alice if party == "A" else self.bob
        if question not in bases:
            raise StructuralError(f"{party} has no measurement for {question!r}")
        return bases[question]

    def observable(self, party: str, name: str) -> np.ndarray:
        """Party "A" or "B"'s binary observable for name, derived once, read-only.

        For a variable or a question label it is sum_a w_a P_a over the
        question and eigenvalues of test.readout.  For "O" or "U" it is the
        product of its KEY_FACTORS' observables, formed from their readouts
        and not memoized themselves.
        """
        return self.derived(_observable, party, name)


def _observable(strategy: Strategy, party: str, name: str) -> np.ndarray:
    readouts = [strategy.test.readout.get((party, factor)) for factor in KEY_FACTORS.get(name, (name,))]
    if None in readouts:
        raise StructuralError(f"{party} has no measurement for {name!r}")
    return functools.reduce(np.matmul, [strategy.basis(party, q).operator(signs) for q, signs in readouts])


def _stage_one_columns(strategy: Strategy, party: str) -> tuple:
    """Every column of each of the d slices, where no support is seeded."""
    return (slice(None),) * strategy.params.d


def _freeze(value):
    """value, with every array in it, at any depth of tuples, made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    return value


# --- extension-block geometry on W_{d-1} ------------------------------------


def v1_states(params: PrimeParams) -> dict[str, np.ndarray]:
    """The four states of the distinguished 2-dim subspace of W_{d-1}.

    "z0"/"z1" span the subspace; "x0"/"x1" are their uniform combinations.
    """
    d = params.d
    w = d - 1
    e_lo = basis_vector(w, x_index(1, d))
    e_hi = basis_vector(w, x_index(d - 1, d))
    phase = cmath.exp(-1j * math.pi / d)
    z0 = -(e_lo + phase * e_hi) / math.sqrt(2)
    z1 = 1j * (e_lo - phase * e_hi) / math.sqrt(2)
    return {
        "z0": z0,
        "z1": z1,
        "x0": (z0 + z1) / math.sqrt(2),
        "x1": (z0 - z1) / math.sqrt(2),
    }


def ext_bases(rep: Rep, n_vars: int) -> dict[str, Basis]:
    """Bases of the extension questions and of Bob's commutation questions,
    each lifted from columns C_b on W_{d-1} to W2 (x) W2 (x) W_{d-1}.

    Answer b of the subspace, Z-basis and X-basis questions (ext_labels
    order) gets the columns I_4 (x) C_b; the last answer owns the complement
    of span(x_1, x_{d-1}), empty at d = 3.  Answer (b1, b2), b2 fastest, of
    comm_label(q, g) gets E_{b2} (x) C_{b1}, C_{b1} the columns of answer b1
    of q and E_b the (-1)^b-eigenvectors of g's factor F on W2 (x) W2, read
    off rep[g] = F (x) I.  PreconditionError naming g unless rep[g] is F (x) I
    for an involution F.
    """
    params = rep.params
    d = params.d
    w = d - 1
    z0, z1, x0, x1 = (v[:, None] for v in v1_states(params).values())
    span = (x_index(1, d), x_index(d - 1, d))
    perp = eye(w)[:, [k for k in range(w) if k not in span]]
    sub, z, x = ext_labels(n_vars)
    on_w = {sub: (np.hstack((z0, z1)), perp), z: (z0, z1, perp), x: (x0, x1, perp)}
    halves = {}  # g -> (E_0, E_1)
    for g in COMM_GENS:
        m = rep[g]
        factor = Monomial(m.perm[::w] // w, m.phase[::w], m.order)
        if m != factor.kron(Monomial.identity(w, m.order)) or factor @ factor != Monomial.identity(4, m.order):
            raise PreconditionError(f"{g} is not an involution of W2 (x) W2 alone")
        signs, vecs = np.linalg.eigh(factor.dense())
        halves[g] = vecs[:, signs > 0], vecs[:, signs < 0]
    families = {q: (cols, (eye(4),)) for q, cols in on_w.items()}
    families.update((comm_label(q, g), (on_w[q], halves[g])) for q in (z, x) for g in COMM_GENS)
    out = {}
    for q, (cols_w, cols_4) in families.items():
        blocks = [np.kron(e, cols) for cols in cols_w for e in cols_4]  # answer (b1, b2), b2 fastest
        outcomes = np.repeat(np.eye(len(blocks)), [block.shape[1] for block in blocks], axis=1)
        out[q] = Basis(np.hstack(blocks), outcomes)
    return out


def ideal_state(params: PrimeParams) -> np.ndarray:
    """Two EPR pairs tensored with the (d-1)-dim index-reversing entangled
    state, as the matrix S of psi = vec(S)."""
    d = params.d
    w = d - 1
    epr = np.zeros((2, 2), dtype=complex)
    epr[0, 0] = epr[1, 1] = 1 / math.sqrt(2)
    ent = np.zeros((w, w), dtype=complex)
    for j in range(1, d):
        ent[x_index(j, d), x_index(d - j, d)] = 1 / math.sqrt(w)
    full = np.einsum("ij,kl,mn->ikmjln", epr, epr, ent)
    return full.reshape(4 * w, 4 * w)


def equation_bases(rep: Rep, system: LinearSystem) -> list[Basis]:
    """Each equation's joint eigenbasis of its images, built orbit by orbit.

    rep must satisfy every relation of Gamma (broken_relations), which
    build_ideal_strategy decides before it calls this: each row's images
    x, y, z are then commuting involutions with z = +-x y.  An index i's
    orbit, what the row's permutations reach from it, is {i, p_x i, p_y i,
    p_x p_y i}, of 1, 2 or 4 indices; its block of sum_j w_j (1 - A_j)/2,
    w = (4, 2, 1), comes from the permutations and phases, with no dense
    image, and its eigenspaces are the images' joint eigenspaces.  One
    batched eigh per block size serves every row, the eigenvectors fill the
    row's vectors at the orbit's indices, and a column's rounded eigenvalue
    is its outcome, an index into _TRIPLES.
    """
    n, rows = rep.dim, system.n_rows
    images = [[rep[g] for g in system.row_names(i)] for i in range(rows)]
    order = images[0][0].order
    perm = np.array([[m.perm for m in row] for row in images])  # (row, generator, index)
    phase = np.array([[m.phase for m in row] for row in images])
    value = roots_of_unity(phase, order)
    px, py = perm[:, 0], perm[:, 1]  # orbit: each index's least orbit member
    orbit = np.minimum.reduce([np.broadcast_to(np.arange(n), (rows, n)), px, py, np.take_along_axis(px, py, 1)])
    key = (np.arange(rows)[:, None] * n + orbit).ravel()  # row and orbit (np.unique would import numpy.ma)
    size = np.bincount(key, minlength=rows * n)[key]
    vectors, eigval = np.zeros((rows, n, n), dtype=complex), np.empty((rows, n))
    for s in sorted(set(size.tolist())):
        flat = np.flatnonzero(size == s)
        row, idx = np.divmod(flat[np.argsort(key[flat], kind="stable")].reshape(-1, s), n)  # one orbit per line
        at = (row[:, :1, None], np.arange(3)[:, None], idx[:, None, :])  # (orbit, generator, column)
        # block[o, j, a, b] = A_j[idx[o, a], idx[o, b]]
        block = np.where(idx[:, None, :, None] == perm[at][:, :, None, :], value[at][:, :, None, :], 0)
        eigval[row, idx], vecs = np.linalg.eigh(3.5 * np.eye(s) - 2 * block[:, 0] - block[:, 1] - 0.5 * block[:, 2])
        vectors[row[:, :, None], idx[:, :, None], idx[:, None, :]] = vecs
    outcome = np.rint(eigval).astype(int)
    return [Basis(vectors[i], np.eye(8)[:, outcome[i]]) for i in range(rows)]


def build_ideal_strategy(params: PrimeParams, rep: Rep, test: FullTest) -> Strategy:
    """Measurement bases from the representation, with no projector or dense image formed.

    An equation's basis is the joint eigenbasis of its variables' images,
    built orbit by orbit (equation_bases); a variable's, shared by both
    parties, is the first equation containing it read through its bit
    (Basis.merged), so it holds that equation's very vectors; the extension
    and commutation questions' are tensor products in closed form (ext_bases).
    Each party measures exactly the questions of its answer table in test,
    and the bases' memo is seeded with each party's stage_one_columns (see
    Strategy).

    StructuralError unless rep was built for params and test for params.r
    (the test depends on r alone).  Then the representation is decided once,
    before anything is formed, by one list: Gamma's broken relations, then
    the broken key relations, the list verify-rep reads first_broken from;
    PreconditionError names its first entry.  Past that gate, only ext_bases
    can refuse rep: PreconditionError naming a commutation variable that is
    not an involution of W2 (x) W2 alone.
    """
    built = rep.params
    if (built.d, built.r) != (params.d, params.r):
        raise StructuralError(f"representation was built for d={built.d}, r={built.r}, not d={params.d}, r={params.r}")
    if test.system.r != params.r:
        raise StructuralError(f"test was built for r={test.system.r}, not r={params.r}")
    broken = broken_relations(rep, test.system) + broken_key_relations(rep)
    if broken:
        raise PreconditionError(broken[0][0])
    bases = {eq_label(i): basis for i, basis in enumerate(equation_bases(rep, test.system))}
    bases.update(
        (var_label(g), bases[eq_label(row)].merged([outcome[pos] for outcome in _TRIPLES]))
        for g, (row, pos) in test.system.first_position.items()
    )
    bases.update(ext_bases(rep, test.n_vars))
    alice = {q: bases[q] for q in test.alice_answers}
    bob = {q: bases[q] for q in test.bob_answers}
    strategy = Strategy(params=params, test=test, state=ideal_state(params), alice=alice, bob=bob)
    first, second = KEY_FACTORS["O"]
    o, d = rep[first] @ rep[second], params.d  # I_4 (x) diag(omega_d^k), by the key relations
    columns = _freeze(tuple(np.flatnonzero(o.phase * d // o.order % d == j) for j in range(d)))
    for party in "AB":  # both parties measure a1 and a2 in the same bases
        strategy._by_bases[_stage_one_columns, party] = columns
    return strategy


# --- correlations ------------------------------------------------------------


def _strict(obj):
    """obj with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def dump_json(obj) -> str:
    """obj as strict JSON, keys sorted and indented by two: a NaN or
    infinite float is written as null."""
    return json.dumps(_strict(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass
class Correlation:
    """Conditional probability tables over the full test's support."""

    d: int
    r: int
    entries: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    @property
    def n_support(self) -> int:
        return len(self.entries)

    @property
    def shapes(self) -> dict[tuple[str, str], tuple[int, ...]]:
        """Each entry's table shape, to hold against FullTest.shapes or another correlation's."""
        return {pair: table.shape for pair, table in self.entries.items()}

    def to_json(self) -> str:
        items = [
            {"x": x, "y": y, "p": table.tolist()}
            for (x, y), table in self.entries.items()
        ]
        return dump_json({"d": self.d, "r": self.r, "n_support": self.n_support, "entries": items})

    @classmethod
    def from_json(cls, text: str) -> "Correlation":
        """Parse to_json's format; DomainError unless d, r and n_support are
        JSON integers, every x and y is a JSON string, every (x, y) pair
        appears once, n_support counts the entries, and every table is a
        2-D, finite distribution of JSON numbers (sum and negative entries
        within TABLE_TOL)."""
        try:
            data = json.loads(text)
            for key in ("d", "r", "n_support"):
                if type(data[key]) is not int:  # a float, a string or a bool
                    raise DomainError(f"correlation file field {key!r} is not an integer: {json.dumps(data[key])}")
            corr = cls(d=data["d"], r=data["r"])
            n_support = data["n_support"]
            for item in data["entries"]:
                key = (item["x"], item["y"])
                if not all(type(q) is str for q in key):  # a number, null or bool would not sort with the labels
                    raise DomainError(f"correlation entry {json.dumps(key)} has a question label that is not a string")
                if key in corr.entries:
                    raise DomainError(f"correlation file has a duplicate entry for {key}")
                table = np.array(item["p"], dtype=object)
                if not all(type(v) in (int, float) for v in table.flat):  # a string, a bool or a ragged row
                    raise DomainError(f"correlation table {key} has an entry that is not a JSON number")
                corr.entries[key] = table.astype(float)
        except DomainError:
            raise
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise DomainError(f"malformed correlation JSON ({type(exc).__name__}: {exc})") from None
        if n_support != corr.n_support:
            raise DomainError(f"correlation file declares n_support={n_support} but has {corr.n_support} entries")
        for key, t in corr.entries.items():
            if t.ndim != 2 or not np.isfinite(t).all() or abs(t.sum() - 1) > TABLE_TOL or t.min() < -TABLE_TOL:
                raise DomainError(f"correlation table {key} is not a 2-D probability table: {t.tolist()}")
        return corr


def shape_misfits(have: Mapping, want: Mapping) -> list[tuple]:
    """Sorted (pair, have's shape, want's shape) where two shape maps differ, None where absent."""
    return sorted((p, have.get(p), want.get(p)) for p in have.keys() | want.keys() if have.get(p) != want.get(p))


def misfit_message(subject: str, misfits: list[tuple]) -> str:
    """The error text for shape_misfits' list: the count, the first pair and its shape on each side."""
    pair, have, want = ("no table" if item is None else item for item in misfits[0])
    return f"{subject} in support or table shape at {len(misfits)} pairs, first {pair}: {have} against {want}"


def answer_table(left: np.ndarray, alice: Basis, bob: Basis) -> np.ndarray:
    """p(a, b) = ||V_a^H S conj(W_b)||^2 from left = V^H S: the squared
    entries of left conj(W), summed over the rows and columns that the two
    outcome matrices give to each answer pair."""
    cells = np.abs(left @ bob.vectors.conj()) ** 2
    return alice.outcomes @ cells @ bob.outcomes.T


def generate_correlation(strategy: Strategy, test: FullTest | None = None) -> Correlation:
    """p(a, b | x, y) = <psi| M_x^a (x) N_y^b |psi> over the test's support.

    With psi = vec(S), M^a = V_a V_a^H and N^b = W_b W_b^H, p is the squared
    Frobenius norm of V_a^H S conj(W_b), V_a and W_b the columns of answers
    a and b: cells of one product per pair.
    Every entry is a sum of squares, so none is negative.  The tables are
    read-only: a memoized correlation (Strategy.correlation) is shared by
    every reader of its strategy.
    """
    test = test or strategy.test
    s = strategy.state
    bob_questions: dict[str, list[str]] = {}
    for x, y in test.support:
        bob_questions.setdefault(x, []).append(y)
    tables = {}
    for x, ys in bob_questions.items():  # V_x^H S once per Alice question
        alice = strategy.basis("A", x)
        left = alice.vectors.conj().T @ s
        for y in ys:
            tables[(x, y)] = table = answer_table(left, alice, strategy.basis("B", y))
            table.setflags(write=False)
    corr = Correlation(d=strategy.params.d, r=strategy.params.r)
    corr.entries.update((pair, tables[pair]) for pair in test.support)
    return corr
