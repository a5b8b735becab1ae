"""The solution group Gamma as the binary linear system Hx=c of the game LS(r).

Gamma has only order-2 generators, 3-term relations and a central sign J.
Each generator is one variable and each relation one parity equation; the
single sign relation f1 g1 m2 = J is the only inhomogeneous row.  The game
asks Alice for an assignment of one equation's three variables and Bob for
the value of one variable of that equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groups import build_conjugacy_triples, h_name, q_name

#: quoted closed form for the number of valid question pairs; kept for
#: reporting because it disagrees with the enumerated count 3*(14r+62)
QUOTED_PAIR_COUNT = lambda r: 157 * r + 685  # noqa: E731


@dataclass(frozen=True)
class LinearSystem:
    """m x n system over Z2; every row has exactly three ones.

    rows[i] holds the column indices of the ones of equation i, in the order
    of the equation's generator product; rhs[i] is c(i).
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

    @property
    def valid_pairs(self) -> tuple[tuple[int, int], ...]:
        """The game's (row, column) questions, each equation with each of its
        variables; the question distribution is uniform over them."""
        return tuple((i, v) for i, row in enumerate(self.rows) for v in row)

    def row_names(self, i: int) -> tuple[str, str, str]:
        a, b, c = self.rows[i]
        return (self.variables[a], self.variables[b], self.variables[c])

    @cached_property
    def first_position(self) -> dict[str, tuple[int, int]]:
        """Each variable's (row, position) in the first equation containing it."""
        out: dict[str, tuple[int, int]] = {}
        for i, row in enumerate(self.rows):
            for pos, v in enumerate(row):
                out.setdefault(self.variables[v], (i, pos))
        return out


def build_linear_system(r: int) -> LinearSystem:
    """Gamma's 16r+75 generators and 14r+62 equations, the sign row last."""
    n0 = r + 5
    triples = build_conjugacy_triples(r)
    variables: list[str] = []
    for letter in "abcd":
        variables += [f"{letter}{i}" for i in range(1, n0 + 1)]
    for i in range(1, n0 + 1):
        variables += [f"p{i}_{m}" for m in range(1, 6)]
    variables += [f"{letter}{i}" for letter in "fgm" for i in range(3)]
    variables += [h_name(t) for t in triples]
    for t in triples:
        variables += [q_name(t, m) for m in range(1, 7)]

    equations: list[tuple[str, str, str]] = []
    for i in range(1, n0 + 1):
        a, b, c, d = f"a{i}", f"b{i}", f"c{i}", f"d{i}"
        p = [f"p{i}_{m}" for m in range(1, 6)]
        # Canonical per-generator block; the shared relation f0 f1 f2 = e is
        # stored once, with the sign block below.
        equations += [
            (a, b, c),
            (a, "f0", d),
            (b, "f2", p[0]),
            (p[0], p[1], p[2]),
            ("f0", p[2], p[3]),
            (c, p[3], p[4]),
            ("f1", p[1], p[4]),
        ]
    for t in triples:
        i, j, k = t
        q = [q_name(t, m) for m in range(1, 7)]
        equations += [
            (h_name(t), f"b{j}", f"c{k}"),
            (f"d{i}", q[0], "f2"),
            (f"b{j}", "f2", q[1]),
            (q[1], q[2], q[3]),
            (f"d{i}", q[3], q[4]),
            (f"c{k}", q[4], q[5]),
            (q[0], q[2], q[5]),
        ]
    equations += [
        ("f0", "f1", "f2"),
        ("g0", "g1", "g2"),
        ("m0", "m1", "m2"),
        ("f0", "g2", "m0"),
        ("f2", "g0", "m1"),
        ("f1", "g1", "m2"),  # = J
    ]
    index = {name: v for v, name in enumerate(variables)}
    rows = tuple(tuple(index[s] for s in eq) for eq in equations)
    return LinearSystem(r, tuple(variables), rows, (0,) * (len(rows) - 1) + (1,))


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
