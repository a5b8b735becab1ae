"""The solution group Gamma as the binary linear system Hx=c of the game LS(r).

Gamma has only order-2 generators, 3-term relations and a central sign J.
Each generator is one variable and each relation one parity equation; the
single sign relation f1 g1 m2 = J is the only inhomogeneous row, and GADGET's
rows force each conjugacy x y x = z.  The game asks Alice for an assignment
of one equation's three variables and Bob for the value of one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groups import build_conjugacy_triples, conjugacy_gadgets, h_name

#: quoted closed form for the number of valid question pairs; kept for
#: reporting because it disagrees with the enumerated count 3*(14r+62)
QUOTED_PAIR_COUNT = lambda r: 157 * r + 685  # noqa: E731

#: the six rows, in product order, that force x y x = z over the helpers h1..h6
#: and the shared f2; at x = f0, h1 is f1 and the first row is the sign block's
GADGET = (
    ("x", "h1", "f2"),
    ("y", "f2", "h2"),
    ("h2", "h3", "h4"),
    ("x", "h4", "h5"),
    ("z", "h5", "h6"),
    ("h1", "h3", "h6"),
)


def eq_label(i: int) -> str:
    return f"I{i + 1}"


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


def _gadget_rows(x: str, y: str, z: str, helpers: tuple[str, ...]) -> list[tuple[str, ...]]:
    role = dict(x=x, y=y, z=z, f2="f2", **{f"h{m}": h for m, h in enumerate(helpers, 1)})
    return [tuple(map(role.__getitem__, row)) for row in GADGET]


def build_linear_system(r: int) -> LinearSystem:
    """Gamma's 16r+75 generators and 14r+62 equations, the sign row last."""
    n0 = r + 5
    triples = build_conjugacy_triples(r)
    gadgets = conjugacy_gadgets(r)
    variables: list[str] = []
    for letter in "abcd":
        variables += [f"{letter}{i}" for i in range(1, n0 + 1)]
    variables += [h for *_, helpers in gadgets[:n0] for h in helpers[1:]]  # h1 is f1
    variables += [f"{letter}{i}" for letter in "fgm" for i in range(3)]
    variables += [h_name(t) for t in triples]
    variables += [h for *_, helpers in gadgets[n0:] for h in helpers]

    equations: list[tuple[str, str, str]] = []
    for i, gadget in enumerate(gadgets[:n0], 1):
        # the gadget's first row, f0 f1 f2 = e, is stored once, with the sign block below
        equations += [(f"a{i}", f"b{i}", f"c{i}"), (f"a{i}", "f0", f"d{i}"), *_gadget_rows(*gadget)[1:]]
    for t, (x, y, z, helpers) in zip(triples, gadgets[n0:]):
        equations += [(h_name(t), y, z), *_gadget_rows(x, y, z, helpers)]
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
