import pytest

from lsgame import (
    DomainError,
    Relation,
    build_conjugacy_triples,
    build_presentation,
    presentation_stats,
)


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
        build_presentation("Gamma", 0)


def test_gamma_counts_r2():
    g = build_presentation("Gamma", 2)
    stats = presentation_stats(g)
    assert stats["generators"] == 107  # 16*2 + 75
    assert stats["equations"] == 90  # 14*2 + 62
    assert stats["linearJ"] == 1
    assert g.central == "J"


def test_gamma_counts_r3():
    stats = presentation_stats(build_presentation("Gamma", 3))
    assert stats["generators"] == 123
    assert stats["equations"] == 104


def test_census_identities():
    for r in range(2, 9):
        stats = presentation_stats(build_presentation("Gamma", r))
        assert stats["generators"] == 9 * (r + 5) + 9 + (r + 3) + 6 * (r + 3) == 16 * r + 75
        assert stats["equations"] == 7 * (r + 5) + 7 * (r + 3) + 6 == 14 * r + 62
        assert stats["order2"] == stats["generators"] + 1  # J included


def test_p0_counts():
    stats = presentation_stats(build_presentation("P0", 2))
    assert stats["generators"] == 7
    assert stats["conjugacy"] == 5


def test_p1_has_commutation_helpers():
    relations = set(build_presentation("P1", 2).relations)
    for _, j, k in build_conjugacy_triples(2):
        assert Relation("linear", (f"h{j}_{k}", f"b{j}", f"c{k}"), "e") in relations


def test_sign_relation_stored_once():
    relations = build_presentation("Gamma", 2).relations
    assert relations.count(Relation("linear", ("f0", "f1", "f2"), "e")) == 1
    assert relations.count(Relation("linearJ", ("f1", "g1", "m2"), "J")) == 1


def test_conjugacy_line_format():
    # u3 = u2 o1 u2 under the relabeling: a4 a1 a4 = a5
    relations = build_presentation("P0", 2).relations
    assert Relation("conjugacy", ("a4", "a1", "a4"), "a5") in relations


def test_unknown_level():
    with pytest.raises(DomainError):
        build_presentation("P2", 2)


def test_generators_unique():
    for level in ("P0", "P1", "Gamma"):
        p = build_presentation(level, 5)
        assert len(set(p.generators)) == len(p.generators)
