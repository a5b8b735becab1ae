"""The conjugacy group P0 behind LS(r) and the generator names of its embedding.

P0 has r+5 order-2 generators a1..a{r+5} and the r+3 conjugacy relations
a_i a_j a_i = a_k indexed by :func:`build_conjugacy_triples`.  Products
a1*a2 and a3*a4 behave like a unitary pair (O, U) obeying U O U^-1 = O^r.
Slofstra's embedding takes P0 through P1, whose helpers h make b_j commute
with c_k, to the solution group Gamma, whose equations (:mod:`lsgame.lsg`)
force each x y x = z of P1 by one gadget (:func:`conjugacy_gadgets`).

Generator names are plain strings ("a3", "p2_4", "h1_5", "q4_1_5_2", "f0").
"""

from __future__ import annotations

from .errors import DomainError


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


def conjugacy_gadgets(r: int) -> tuple[tuple[str, str, str, tuple[str, ...]], ...]:
    """Gamma's conjugacy relations x y x = z as (x, y, z, helpers h1..h6): f0 b_i f0 = c_i
    for i = 1..r+5, whose h1 is f1, then d_i b_j d_i = c_k for each conjugacy triple."""
    gadgets = [("f0", f"b{i}", f"c{i}", ("f1", *(f"p{i}_{m}" for m in range(1, 6)))) for i in range(1, r + 6)]
    for t in build_conjugacy_triples(r):
        i, j, k = t
        gadgets.append((f"d{i}", f"b{j}", f"c{k}", tuple(q_name(t, m) for m in range(1, 7))))
    return tuple(gadgets)
