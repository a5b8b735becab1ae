"""Symbolic group presentations feeding the linear system and its verifier.

Three nested presentations are built for a parameter r >= 2:

* level "P0": r+5 order-2 generators a1..a{r+5} with the r+3 conjugacy
  relations indexed by :func:`build_conjugacy_triples`.  Products a1*a2 and
  a3*a4 behave like a unitary pair (O, U) obeying U O U^-1 = O^r.
* level "P1": adds commuting-helper generators (b, c, d, f0, h) so every
  conjugacy relation of P0 is forced by relations of a fixed nice shape.
* level "Gamma": a solution group: only order-2 generators, 3-term linear
  relations, and a central sign J; its equations become the game's linear
  system.

Generator names are plain strings ("a3", "p2_4", "h1_5", "q4_1_5_2", "f0").
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

@dataclass(frozen=True)
class Relation:
    """One relation of a presentation.

    kind "linear"    : product of lhs generators equals identity.
    kind "linearJ"   : product of lhs generators equals the central sign J.
    kind "conjugacy" : lhs is (s_i, s_j, s_i) and the product equals rhs,
                       itself a generator.
    kind "order2"    : lhs is a single generator squaring to identity.
    """

    kind: str
    lhs: tuple[str, ...]
    rhs: str


@dataclass(frozen=True)
class Presentation:
    level: str
    r: int
    generators: tuple[str, ...]
    relations: tuple[Relation, ...]
    central: str | None = None


def _o_index(m: int) -> int:
    # relabeling: o1,o2 -> a1,a2; u1..u5 -> a3..a7; o3..or -> a8..a{r+5}
    return m if m <= 2 else m + 5


def _u_index(m: int) -> int:
    return m + 2


def build_conjugacy_triples(r: int) -> tuple[tuple[int, int, int], ...]:
    """The r+3 index triples (i, j, k) meaning a_i a_j a_i = a_k.

    Five triples tie the u-chain together; the remaining r-2 walk the o-chain
    o3..or, with the walk shape depending on the parity of r.  Returned in
    sorted order so downstream block enumeration is reproducible.
    """
    if r < 2:
        raise DomainError(f"r must be >= 2, got {r}")
    triples = [
        (_u_index(2), _o_index(1), _u_index(3)),  # u3 = u2 o1 u2
        (_u_index(2), _o_index(2), _u_index(4)),  # u4 = u2 o2 u2
        (_u_index(1), _u_index(3), _u_index(5)),  # u5 = u1 u3 u1
        (_u_index(1), _u_index(4), _o_index(2)),  # o2 = u1 u4 u1
        (_o_index(1), _o_index(r), _u_index(5)),  # u5 = o1 or o1
    ]
    if r % 2 == 0:
        for j in range(1, r // 2):
            triples.append((_o_index(1), _o_index(2 * j), _o_index(1 + 2 * j)))
            triples.append((_o_index(2), _o_index(1 + 2 * j), _o_index(2 + 2 * j)))
    else:
        triples.append((_o_index(2), _o_index(1), _o_index(3)))
        for j in range(1, (r - 3) // 2 + 1):
            triples.append((_o_index(1), _o_index(1 + 2 * j), _o_index(2 + 2 * j)))
            triples.append((_o_index(2), _o_index(2 + 2 * j), _o_index(3 + 2 * j)))
    for i, j, k in triples:
        if len({i, j, k}) != 3:
            raise DomainError(f"degenerate conjugacy triple {(i, j, k)}")
    return tuple(sorted(triples))


def h_name(triple: tuple[int, int, int]) -> str:
    _, j, k = triple
    return f"h{j}_{k}"


def q_name(triple: tuple[int, int, int], m: int) -> str:
    i, j, k = triple
    return f"q{i}_{j}_{k}_{m}"


def _p0_generators(r: int) -> list[str]:
    return [f"a{i}" for i in range(1, r + 6)]


def _order2(names) -> list[Relation]:
    return [Relation("order2", (s,), "e") for s in names]


def _build_p0(r: int) -> Presentation:
    gens = _p0_generators(r)
    rels = _order2(gens)
    for i, j, k in build_conjugacy_triples(r):
        rels.append(Relation("conjugacy", (f"a{i}", f"a{j}", f"a{i}"), f"a{k}"))
    return Presentation("P0", r, tuple(gens), tuple(rels))


def _build_p1(r: int) -> Presentation:
    n0 = r + 5
    triples = build_conjugacy_triples(r)
    gens: list[str] = []
    for letter in "abcd":
        gens += [f"{letter}{i}" for i in range(1, n0 + 1)]
    gens.append("f0")
    gens += [h_name(t) for t in triples]

    rels = _order2(gens)
    for i in range(1, n0 + 1):
        rels.append(Relation("linear", (f"a{i}", f"b{i}", f"c{i}"), "e"))
        rels.append(Relation("linear", (f"a{i}", "f0", f"d{i}"), "e"))
        rels.append(Relation("conjugacy", ("f0", f"b{i}", "f0"), f"c{i}"))
    for t in triples:
        i, j, k = t
        rels.append(Relation("linear", (h_name(t), f"b{j}", f"c{k}"), "e"))
        rels.append(Relation("conjugacy", (f"d{i}", f"b{j}", f"d{i}"), f"c{k}"))
    return Presentation("P1", r, tuple(gens), tuple(rels))


def _gamma_generators(r: int) -> list[str]:
    n0 = r + 5
    triples = build_conjugacy_triples(r)
    gens: list[str] = []
    for letter in "abcd":
        gens += [f"{letter}{i}" for i in range(1, n0 + 1)]
    for i in range(1, n0 + 1):
        gens += [f"p{i}_{m}" for m in range(1, 6)]
    gens += [f"{letter}{i}" for letter in "fgm" for i in range(3)]
    gens += [h_name(t) for t in triples]
    for t in triples:
        gens += [q_name(t, m) for m in range(1, 7)]
    return gens


def _build_gamma(r: int) -> Presentation:
    n0 = r + 5
    triples = build_conjugacy_triples(r)
    gens = _gamma_generators(r)

    rels = _order2(gens + ["J"])
    lin = lambda *w: Relation("linear", w, "e")  # noqa: E731
    for i in range(1, n0 + 1):
        a, b, c, d = f"a{i}", f"b{i}", f"c{i}", f"d{i}"
        p = [f"p{i}_{m}" for m in range(1, 6)]
        # Canonical per-generator block; the shared relation f0 f1 f2 = e is
        # stored once, inside the final sign block below.
        rels += [
            lin(a, b, c),
            lin(a, "f0", d),
            lin(b, "f2", p[0]),
            lin(p[0], p[1], p[2]),
            lin("f0", p[2], p[3]),
            lin(c, p[3], p[4]),
            lin("f1", p[1], p[4]),
        ]
    for t in triples:
        i, j, k = t
        q = [q_name(t, m) for m in range(1, 7)]
        rels += [
            lin(h_name(t), f"b{j}", f"c{k}"),
            lin(f"d{i}", q[0], "f2"),
            lin(f"b{j}", "f2", q[1]),
            lin(q[1], q[2], q[3]),
            lin(f"d{i}", q[3], q[4]),
            lin(f"c{k}", q[4], q[5]),
            lin(q[0], q[2], q[5]),
        ]
    rels += [
        lin("f0", "f1", "f2"),
        lin("g0", "g1", "g2"),
        lin("m0", "m1", "m2"),
        lin("f0", "g2", "m0"),
        lin("f2", "g0", "m1"),
        Relation("linearJ", ("f1", "g1", "m2"), "J"),
    ]
    return Presentation("Gamma", r, tuple(gens), tuple(rels), central="J")


def build_presentation(level: str, r: int) -> Presentation:
    """Full symbolic presentation at the requested level."""
    if r < 2:
        raise DomainError(f"r must be >= 2, got {r}")
    if level == "P0":
        return _build_p0(r)
    if level == "P1":
        return _build_p1(r)
    if level == "Gamma":
        return _build_gamma(r)
    raise DomainError(f"unknown presentation level {level!r}")


def presentation_stats(p: Presentation) -> dict[str, int]:
    """Generator count and relation counts by kind."""
    counts = {"generators": len(p.generators)}
    for kind in ("order2", "linear", "linearJ", "conjugacy"):
        counts[kind] = sum(1 for rel in p.relations if rel.kind == kind)
    # all 3-term equations, sign relation included
    counts["equations"] = counts["linear"] + counts["linearJ"]
    return counts

