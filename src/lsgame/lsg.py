"""The binary linear system Hx=c and its nonlocal-game envelope.

Each 3-term relation of the level-"Gamma" presentation becomes one parity
equation; the single sign relation contributes the only inhomogeneous row.
The game asks Alice for an assignment of one equation's three variables and
Bob for the value of one variable of that equation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DomainError, StructuralError
from .groups import build_presentation

#: quoted closed form for the number of valid question pairs; kept for
#: reporting because it disagrees with the enumerated count 3*(14r+62)
QUOTED_PAIR_COUNT = lambda r: 157 * r + 685  # noqa: E731


@dataclass(frozen=True)
class LinearSystem:
    """m x n system over Z2; every row has exactly three ones.

    rows[i] holds the column indices of the ones of equation i, in the
    normalized order inherited from the presentation; rhs[i] is c(i).
    """

    r: int
    variables: tuple[str, ...]
    rows: tuple[tuple[int, int, int], ...]
    rhs: tuple[int, ...]

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise StructuralError(f"unknown variable {name!r}") from None

    def row_names(self, i: int) -> tuple[str, str, str]:
        a, b, c = self.rows[i]
        return (self.variables[a], self.variables[b], self.variables[c])


def build_linear_system(r: int) -> LinearSystem:
    gamma = build_presentation("Gamma", r)
    index = {name: i for i, name in enumerate(gamma.generators)}
    rows = []
    rhs = []
    for rel in gamma.relations:
        if rel.kind == "linear":
            rows.append(tuple(index[s] for s in rel.lhs))
            rhs.append(0)
        elif rel.kind == "linearJ":
            rows.append(tuple(index[s] for s in rel.lhs))
            rhs.append(1)
    return LinearSystem(r, gamma.generators, tuple(rows), tuple(rhs))


def satisfying_assignments(system: LinearSystem, i: int) -> tuple[tuple[int, int, int], ...]:
    """The four assignments of row i's variables with the right parity."""
    want = system.rhs[i]
    return tuple(
        (a0, a1, a2)
        for a0 in (0, 1)
        for a1 in (0, 1)
        for a2 in (0, 1)
        if (a0 + a1 + a2) % 2 == want
    )


@dataclass(frozen=True)
class GameLS:
    """Nonlocal-game envelope: uniform distribution over (equation, member).

    valid_pairs lists (row index, column index) with the column belonging to
    the row; pi is uniform over them.  quoted_pairs records the closed-form
    count stated for this family, which differs from len(valid_pairs); the
    enumerated count is the one the distribution uses.
    """

    system: LinearSystem
    valid_pairs: tuple[tuple[int, int], ...]
    quoted_pairs: int

    @property
    def pi(self) -> float:
        return 1.0 / len(self.valid_pairs)

    @property
    def r(self) -> int:
        return self.system.r


def build_ls_game(r: int) -> GameLS:
    system = build_linear_system(r)
    pairs = tuple((i, v) for i, row in enumerate(system.rows) for v in row)
    return GameLS(system, pairs, QUOTED_PAIR_COUNT(r))


def score_ls(
    game: GameLS,
    question: tuple[int, int],
    answer: tuple[tuple[int, int, int], int],
) -> int:
    """1 iff Alice's triple satisfies the row and matches Bob at his variable."""
    i, v = question
    row = game.system.rows[i]
    if v not in row:
        raise DomainError(f"variable {v} is not in equation {i}")
    triple, b = answer
    if sum(triple) % 2 != game.system.rhs[i]:
        return 0
    return 1 if triple[row.index(v)] == b else 0


# --- output formats ----------------------------------------------------------


def system_to_text(system: LinearSystem) -> str:
    """One equation per line, ``x(f0) + x(f1) + x(f2) = 0`` style.

    A header line carries r and the full variable order, so the text
    determines the system exactly.
    """
    lines = [f"# r={system.r} vars={','.join(system.variables)}"]
    for row, c in zip(system.rows, system.rhs):
        names = [system.variables[v] for v in row]
        lines.append(f"x({names[0]}) + x({names[1]}) + x({names[2]}) = {c}")
    return "\n".join(lines) + "\n"


def system_to_json_dict(system: LinearSystem) -> dict:
    return {
        "r": system.r,
        "variables": list(system.variables),
        "rows": [
            {"vars": [system.variables[v] for v in row], "rhs": c}
            for row, c in zip(system.rows, system.rhs)
        ],
    }


def system_to_json(system: LinearSystem) -> str:
    return json.dumps(system_to_json_dict(system), sort_keys=True, indent=2) + "\n"

