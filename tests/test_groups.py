import pytest

from lsgame import DomainError, build_conjugacy_triples, build_linear_system
from lsgame.groups import conjugacy_gadgets
from lsgame.lsg import GADGET


def test_triple_counts():
    for r in (2, 3, 5, 4, 6, 7):
        assert len(build_conjugacy_triples(r)) == r + 3


def test_triples_r2_content():
    triples = set(build_conjugacy_triples(2))
    # u3=u2 o1 u2, u4=u2 o2 u2, u5=u1 u3 u1, o2=u1 u4 u1, u5=o1 o2 o1
    assert triples == {(4, 1, 5), (4, 2, 6), (3, 5, 7), (3, 6, 2), (1, 2, 7)}


def test_triples_r3_content():
    triples = set(build_conjugacy_triples(3))
    assert len(triples) == 6
    assert (4, 1, 5) in triples  # u3 = u2 o1 u2 under the relabeling
    assert (2, 1, 8) in triples  # o3 = o2 o1 o2, the odd-r seed


def test_triples_r5_content():
    triples = set(build_conjugacy_triples(5))
    assert len(triples) == 8
    # odd-r chain: o3 = o2o1o2 then one (o4, o5) pair
    assert {(2, 1, 8), (1, 8, 9), (2, 9, 10)} <= triples


def test_triples_index_ranges():
    for r in (2, 3, 5, 8):
        for i, j, k in build_conjugacy_triples(r):
            assert {i, j, k} <= set(range(1, r + 6))
            assert len({i, j, k}) == 3


def test_triples_rejects_small_r():
    with pytest.raises(DomainError):
        build_conjugacy_triples(1)
    with pytest.raises(DomainError):
        build_linear_system(0)


def test_gamma_counts_r2():
    system = build_linear_system(2)
    assert system.n_vars == 107  # 16*2 + 75
    assert system.n_rows == 90  # 14*2 + 62
    assert sum(system.rhs) == 1


def test_gamma_counts_r3():
    system = build_linear_system(3)
    assert (system.n_vars, system.n_rows) == (123, 104)


def test_census_identities():
    for r in range(2, 9):
        system = build_linear_system(r)
        assert system.n_vars == 9 * (r + 5) + 9 + (r + 3) + 6 * (r + 3) == 16 * r + 75
        assert system.n_rows == 7 * (r + 5) + 7 * (r + 3) + 6 == 14 * r + 62
        assert sum(system.rhs) == 1
        # every generator of Gamma is a variable of some equation
        assert {v for row in system.rows for v in row} == set(range(system.n_vars))


def test_p0_counts():
    # P0: r+5 generators a1..a{r+5}, each in some of its r+3 conjugacy relations
    for r in (2, 3, 6):
        triples = build_conjugacy_triples(r)
        assert {n for t in triples for n in t} == set(range(1, r + 6))


def test_p1_has_commutation_helpers():
    # P1's helper relation h b_j c_k = e for each triple survives into Gamma
    system = build_linear_system(2)
    rows = {system.row_names(i) for i in range(system.n_rows)}
    for _, j, k in build_conjugacy_triples(2):
        assert (f"h{j}_{k}", f"b{j}", f"c{k}") in rows


def test_sign_relation_stored_once():
    system = build_linear_system(2)
    rows = [system.row_names(i) for i in range(system.n_rows)]
    assert rows.count(("f0", "f1", "f2")) == 1
    assert rows.count(("f1", "g1", "m2")) == 1
    assert system.rhs[rows.index(("f1", "g1", "m2"))] == 1


def test_generators_unique():
    system = build_linear_system(5)
    assert len(set(system.variables)) == system.n_vars


@pytest.mark.parametrize("r", [2, 3, 7])
def test_gadget_rows_are_system_rows(r):
    # each instance x y x = z contributes GADGET's rows, in product order: the
    # last five as one run of the system and the first one either with them
    # or, for x = f0, as the sign block's f0 f1 f2
    system = build_linear_system(r)
    rows = [system.row_names(i) for i in range(system.n_rows)]
    gadgets = conjugacy_gadgets(r)
    assert len(gadgets) == (r + 5) + (r + 3)
    helpers = [h for *_, hs in gadgets for h in hs if h != "f1"]
    assert len(set(helpers)) == len(helpers) and set(helpers) <= set(system.variables)
    for x, y, z, hs in gadgets:
        role = {"x": x, "y": y, "z": z, "f2": "f2", **{f"h{m}": h for m, h in enumerate(hs, 1)}}
        want = [tuple(role[s] for s in row) for row in GADGET]
        start = rows.index(want[1])
        assert rows[start:start + 5] == want[1:], (x, y, z)
        if x == "f0":
            assert hs[0] == "f1" and want[0] == ("f0", "f1", "f2") == rows[-6], (x, y, z)
        else:
            assert rows[start - 1] == want[0], (x, y, z)
