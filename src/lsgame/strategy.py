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
fixed by the tuples in FullTest.  A measurement family is one read-only
``(k, n, n)`` array whose first axis follows that answer order, so
``family[a]`` is the projector for the a-th answer.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StructuralError
from .linalg import basis_vector, eye, joint_projector, kron, observable_to_projectors
from .lsg import GameLS, build_ls_game
from .numtheory import PrimeParams
from .representation import Rep, x_index

COMM_GENS = ("f0", "f2", "g0", "g2")

#: tolerance on the sum and on negative entries of a parsed correlation table
#: (roundoff leaves entries of order -1e-15 where the ideal value is 0)
TABLE_TOL = 1e-9

_TRIPLES = tuple(
    (a0, a1, a2) for a0 in (0, 1) for a1 in (0, 1) for a2 in (0, 1)
)
_COMM_ANSWERS = tuple((b1, b2) for b1 in (0, 1, 2) for b2 in (0, 1))


def eq_label(i: int) -> str:
    return f"I{i + 1}"


def var_label(gen: str) -> str:
    return f"x({gen})"


@dataclass(frozen=True)
class FullTest:
    """Question/answer bookkeeping plus the uniform support of the test."""

    r: int
    game: GameLS
    alice_questions: tuple[str, ...]
    bob_questions: tuple[str, ...]
    alice_answers: dict[str, tuple]
    bob_answers: dict[str, tuple]
    support: tuple[tuple[str, str], ...]
    quoted_support: int

    @property
    def n_vars(self) -> int:
        return self.game.system.n_vars

    @property
    def pi(self) -> float:
        return 1.0 / len(self.support)

    @property
    def ext_sub(self) -> str:
        return "ext:0"

    @property
    def ext_z(self) -> str:
        return f"ext:{self.n_vars + 1}"

    @property
    def ext_x(self) -> str:
        return f"ext:{self.n_vars + 2}"

    def comm_label(self, zx: str, gen: str) -> str:
        num = self.n_vars + (1 if zx == "z" else 2)
        return f"comm:{num},{gen}"

    @property
    def ext_questions(self) -> tuple[str, ...]:
        return (self.ext_sub, var_label("a1"), var_label("a2"), self.ext_z, self.ext_x)


def build_full_test(params: PrimeParams) -> FullTest:
    """Enumerate questions, answer alphabets, and the uniform support."""
    game = build_ls_game(params.r)
    system = game.system
    n = system.n_vars
    ext_sub, ext_z, ext_x = "ext:0", f"ext:{n + 1}", f"ext:{n + 2}"
    ext_questions = (ext_sub, var_label("a1"), var_label("a2"), ext_z, ext_x)

    alice_qs = [eq_label(i) for i in range(system.n_rows)]
    alice_qs += list(ext_questions)
    alice_qs += [var_label(g) for g in COMM_GENS]

    bob_qs = [var_label(g) for g in system.variables]
    bob_qs += [ext_sub, ext_z, ext_x]
    comm_qs = [f"comm:{n + 1},{g}" for g in COMM_GENS] + [f"comm:{n + 2},{g}" for g in COMM_GENS]
    bob_qs += comm_qs

    ext_answers = {
        ext_sub: (0, 2),
        var_label("a1"): (0, 1),
        var_label("a2"): (0, 1),
        ext_z: (0, 1, 2),
        ext_x: (0, 1, 2),
    }
    alice_answers: dict[str, tuple] = {eq_label(i): _TRIPLES for i in range(system.n_rows)}
    alice_answers.update(ext_answers)
    alice_answers.update((var_label(g), (0, 1)) for g in COMM_GENS)

    bob_answers: dict[str, tuple] = {var_label(g): (0, 1) for g in system.variables}
    bob_answers.update((q, ext_answers[q]) for q in (ext_sub, ext_z, ext_x))
    bob_answers.update((q, _COMM_ANSWERS) for q in comm_qs)

    support = [(eq_label(i), var_label(system.variables[v])) for i, v in game.valid_pairs]
    support += [(x, y) for x in ext_questions for y in ext_questions]
    for zx_num in (n + 1, n + 2):
        for g in COMM_GENS:
            y = f"comm:{zx_num},{g}"
            support.append((f"ext:{zx_num}", y))
            support.append((var_label(g), y))

    return FullTest(
        r=params.r,
        game=game,
        alice_questions=tuple(alice_qs),
        bob_questions=tuple(bob_qs),
        alice_answers=alice_answers,
        bob_answers=bob_answers,
        support=tuple(support),
        quoted_support=game.quoted_pairs + 25 + 16,
    )


@dataclass
class Strategy:
    """Shared pure state plus one projector family per question per party.

    Each family is a (k, n, n) stack of projectors in the test's answer
    order.  Construction makes every family read-only, so strategies may
    share family arrays.
    """

    params: PrimeParams
    test: FullTest
    dim_a: int
    dim_b: int
    state: np.ndarray
    alice: dict[str, np.ndarray]
    bob: dict[str, np.ndarray]

    def __post_init__(self):
        for fam in (*self.alice.values(), *self.bob.values()):
            fam.setflags(write=False)

    def state_matrix(self) -> np.ndarray:
        return self.state.reshape(self.dim_a, self.dim_b)

    def alice_family(self, question: str) -> np.ndarray:
        try:
            return self.alice[question]
        except KeyError:
            raise StructuralError(f"Alice has no measurement for {question!r}") from None

    def bob_family(self, question: str) -> np.ndarray:
        try:
            return self.bob[question]
        except KeyError:
            raise StructuralError(f"Bob has no measurement for {question!r}") from None


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


def ext_projector_families(params: PrimeParams) -> dict[str, np.ndarray]:
    """Extension-block families on W_{d-1}, lifted to the full 4(d-1) space."""
    proj = {k: np.outer(v, v.conj()) for k, v in v1_states(params).items()}
    pi_v1 = proj["z0"] + proj["z1"]
    pi_perp = eye(params.d - 1) - pi_v1
    on_w = {
        "sub": (pi_v1, pi_perp),
        "z": (proj["z0"], proj["z1"], pi_perp),
        "x": (proj["x0"], proj["x1"], pi_perp),
    }
    return {key: kron(eye(4), np.stack(fam)) for key, fam in on_w.items()}


def ideal_state(params: PrimeParams) -> np.ndarray:
    """Two EPR pairs tensored with the (d-1)-dim index-reversing entangled state."""
    d = params.d
    w = d - 1
    epr = np.zeros((2, 2), dtype=complex)
    epr[0, 0] = epr[1, 1] = 1 / math.sqrt(2)
    ent = np.zeros((w, w), dtype=complex)
    for j in range(1, d):
        ent[x_index(j, d), x_index(d - j, d)] = 1 / math.sqrt(w)
    full = np.einsum("ij,kl,mn->ikmjln", epr, epr, ent)
    return full.reshape(4 * w * 4 * w)


def build_ideal_strategy(params: PrimeParams, rep: Rep, test: FullTest | None = None) -> Strategy:
    """Measurements from the representation; shared observables per variable."""
    if rep.params.d != params.d or rep.params.r != params.r:
        raise StructuralError("representation was built for different parameters")
    if test is None:
        test = build_full_test(params)
    system = test.game.system
    dim = rep.dim

    var_fams = {gen: observable_to_projectors(rep[gen]) for gen in system.variables}
    ext = ext_projector_families(params)
    ext_fams = {test.ext_sub: ext["sub"], test.ext_z: ext["z"], test.ext_x: ext["x"]}

    alice = {eq_label(i): joint_projector([rep[g] for g in system.row_names(i)]) for i in range(system.n_rows)}
    alice.update(ext_fams)
    alice.update((var_label(g), var_fams[g]) for g in ("a1", "a2") + COMM_GENS)

    bob = {var_label(gen): var_fams[gen] for gen in system.variables}
    bob.update(ext_fams)
    for zx in ("z", "x"):
        for g in COMM_GENS:
            # (b1, b2) -> basis projector b1 times variable projector b2, b2 fastest
            bob[test.comm_label(zx, g)] = (ext[zx][:, None] @ var_fams[g][None]).reshape(-1, dim, dim)

    return Strategy(
        params=params,
        test=test,
        dim_a=dim,
        dim_b=dim,
        state=ideal_state(params),
        alice=alice,
        bob=bob,
    )


# --- observables extracted from a (possibly perturbed) strategy -------------


def family_observable(fam: np.ndarray) -> np.ndarray:
    """P0 - P1: the binary observable of a family's first two outcomes."""
    return fam[0] - fam[1]


def bob_observable(strategy: Strategy, gen: str) -> np.ndarray:
    return family_observable(strategy.bob_family(var_label(gen)))


def alice_observable(strategy: Strategy, gen: str) -> np.ndarray:
    """Alice's binary observable for one variable.

    Uses her standalone variable family when the full test gives her one;
    otherwise marginalizes the joint family of the first equation containing
    the variable.
    """
    lbl = var_label(gen)
    if lbl in strategy.alice:
        return family_observable(strategy.alice[lbl])
    system = strategy.test.game.system
    for i in range(system.n_rows):
        names = system.row_names(i)
        if gen in names:
            signs = [(-1.0) ** outcome[names.index(gen)] for outcome in _TRIPLES]
            return np.tensordot(signs, strategy.alice_family(eq_label(i)), axes=1)
    raise StructuralError(f"no equation contains variable {gen!r}")


# --- correlations ------------------------------------------------------------


@dataclass
class Correlation:
    """Conditional probability tables over the full test's support."""

    d: int
    r: int
    entries: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    @property
    def n_support(self) -> int:
        return len(self.entries)

    def to_json(self) -> str:
        items = [
            {"x": x, "y": y, "p": [[float(v) for v in row] for row in table]}
            for (x, y), table in self.entries.items()
        ]
        payload = {"d": self.d, "r": self.r, "n_support": self.n_support, "entries": items}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Correlation":
        """Parse to_json's format; DomainError unless every (x, y) pair
        appears once, n_support counts the entries, and every table is a 2-D,
        finite distribution (sum and negative entries within TABLE_TOL)."""
        try:
            data = json.loads(text)
            corr = cls(d=int(data["d"]), r=int(data["r"]))
            n_support = int(data["n_support"])
            for item in data["entries"]:
                key = (item["x"], item["y"])
                if key in corr.entries:
                    raise DomainError(f"correlation file has a duplicate entry for {key}")
                corr.entries[key] = np.array(item["p"], dtype=float)
        except DomainError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"malformed correlation JSON ({type(exc).__name__}: {exc})") from None
        if n_support != corr.n_support:
            raise DomainError(f"correlation file declares n_support={n_support} but has {corr.n_support} entries")
        for key, t in corr.entries.items():
            if t.ndim != 2 or not np.isfinite(t).all() or abs(t.sum() - 1) > TABLE_TOL or t.min() < -TABLE_TOL:
                raise DomainError(f"correlation table {key} is not a 2-D probability table: {t.tolist()}")
        return corr


def generate_correlation(strategy: Strategy, test: FullTest | None = None) -> Correlation:
    """p(a, b | x, y) = <psi| M_x^a (x) N_y^b |psi> over the test's support.

    With psi = vec(S), p = tr(M rho), where rho = S N^T S^+ is the operator
    Bob's outcome steers Alice's side to; so p = sum_kl M[k, l] rho^T[k, l].
    Per Bob question the stack of rho^T = conj(S) N S^T is cached flattened
    to (k', n^2); Alice's family flattens to (k, n^2) as a view, so each
    table is one product Re(L R^T).
    """
    test = test or strategy.test
    s = strategy.state_matrix()
    s_conj = s.conj()
    corr = Correlation(d=strategy.params.d, r=strategy.params.r)
    rights: dict[str, np.ndarray] = {}
    for x, y in test.support:
        if y not in rights:
            fam = strategy.bob_family(y)
            rights[y] = (s_conj @ fam @ s.T).reshape(len(fam), -1)
        left = strategy.alice_family(x)
        corr.entries[(x, y)] = (left.reshape(len(left), -1) @ rights[y].T).real.copy()
    return corr


# --- closed-form reference values for the ideal correlation ------------------


def ideal_table_values(params: PrimeParams, test: FullTest) -> dict[tuple[str, str], dict[tuple[int, int], float]]:
    """Every closed-form entry of the published ideal-correlation tables.

    Keys are (x, y) question labels; inner keys are (row, col) indices into
    the correlation table of that pair.  Entries the construction leaves
    unconstrained are omitted.
    """
    d = params.d
    w = d - 1
    cos2 = math.cos(math.pi / (2 * d)) ** 2 / w
    sin2 = math.sin(math.pi / (2 * d)) ** 2 / w
    plus = (1 + math.sin(math.pi / d)) / (2 * w)
    minus = (1 - math.sin(math.pi / d)) / (2 * w)
    rest = (d - 3) / w

    out: dict[tuple[str, str], dict[tuple[int, int], float]] = {}

    za, xa = test.ext_z, test.ext_x
    a1, a2 = var_label("a1"), var_label("a2")
    # basis questions vs CHSH questions (and the role-flipped block)
    for y in (a1, a2):
        out[(za, y)] = {(0, 0): cos2, (1, 0): sin2, (0, 1): sin2, (1, 1): cos2}
    out[(xa, a1)] = {(0, 0): minus, (1, 0): plus, (0, 1): plus, (1, 1): minus}
    out[(xa, a2)] = {(0, 0): plus, (1, 0): minus, (0, 1): minus, (1, 1): plus}
    for (x, y), tab in list(out.items()):
        out[(y, x)] = {(b, a): v for (a, b), v in tab.items()}

    # basis/subspace questions against each other
    def sym3(diag_val: float, cross_val: float) -> dict[tuple[int, int], float]:
        return {
            (0, 0): diag_val, (0, 1): cross_val, (0, 2): 0.0,
            (1, 0): cross_val, (1, 1): diag_val, (1, 2): 0.0,
            (2, 0): 0.0, (2, 1): 0.0, (2, 2): rest,
        }

    out[(za, za)] = sym3(1 / w, 0.0)
    out[(xa, xa)] = sym3(1 / w, 0.0)
    out[(za, xa)] = sym3(1 / (2 * w), 1 / (2 * w))
    out[(xa, za)] = sym3(1 / (2 * w), 1 / (2 * w))
    sub = test.ext_sub
    out[(sub, sub)] = {(0, 0): 2 / w, (0, 1): 0.0, (1, 0): 0.0, (1, 1): rest}
    for q in (za, xa):
        out[(q, sub)] = {
            (0, 0): 1 / w, (1, 0): 1 / w, (2, 0): 0.0,
            (0, 1): 0.0, (1, 1): 0.0, (2, 1): rest,
        }
        out[(sub, q)] = {
            (0, 0): 1 / w, (0, 1): 1 / w, (0, 2): 0.0,
            (1, 0): 0.0, (1, 1): 0.0, (1, 2): rest,
        }

    # commutation block: Bob's paired questions
    n = test.n_vars
    for zx_num, zx_q in ((n + 1, za), (n + 2, xa)):
        for g in COMM_GENS:
            y = f"comm:{zx_num},{g}"
            tab_basis: dict[tuple[int, int], float] = {}
            for ia, a in enumerate((0, 1, 2)):
                for ib, (b1, b2) in enumerate(_COMM_ANSWERS):
                    if a == b1:
                        tab_basis[(ia, ib)] = rest / 2 if a == 2 else 1 / (2 * w)
                    else:
                        tab_basis[(ia, ib)] = 0.0
            out[(zx_q, y)] = tab_basis
            tab_var: dict[tuple[int, int], float] = {}
            for ia, a in enumerate((0, 1)):
                for ib, (b1, b2) in enumerate(_COMM_ANSWERS):
                    if a != b2:
                        tab_var[(ia, ib)] = 0.0
                    else:
                        tab_var[(ia, ib)] = rest / 2 if b1 == 2 else 1 / (2 * w)
            out[(var_label(g), y)] = tab_var
    return out


def table_deviation(corr: Correlation, reference: dict) -> float:
    """Largest |entry - closed form| over all constrained table entries."""
    worst = 0.0
    for key, cells in reference.items():
        if key not in corr.entries:
            raise StructuralError(f"correlation lacks support pair {key}")
        table = corr.entries[key]
        for (ia, ib), want in cells.items():
            worst = max(worst, abs(float(table[ia, ib]) - want))
    return worst
