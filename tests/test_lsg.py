import json

import numpy as np
import pytest

from lsgame import (
    Correlation,
    build_full_test,
    build_linear_system,
    ls_winning_probability_from_correlation,
    make_params,
    system_to_text,
)
from lsgame.lsg import QUOTED_PAIR_COUNT, system_to_json_dict
from lsgame.strategy import eq_label, var_label


def test_dimensions_r2():
    system = build_linear_system(2)
    assert (system.n_rows, system.n_vars) == (90, 107)


def test_every_row_has_three_distinct_vars():
    for r in (2, 3, 5):
        system = build_linear_system(r)
        for row in system.rows:
            assert len(set(row)) == 3


def test_single_inhomogeneous_row():
    system = build_linear_system(2)
    hot = [i for i, c in enumerate(system.rhs) if c == 1]
    assert len(hot) == 1
    assert set(system.row_names(hot[0])) == {"f1", "g1", "m2"}


def test_satisfying_sets_have_size_four():
    # Alice's winning answers to an equation: the triples with its parity
    test = build_full_test(make_params(3))
    system = test.system
    for i in range(system.n_rows):
        wins = [t for t in test.alice_answers[eq_label(i)] if sum(t) % 2 == system.rhs[i]]
        assert len(wins) == 4
        for triple in wins:
            assert sum(triple) % 2 == system.rhs[i]


def test_valid_pair_count():
    for r in (2, 3):
        system = build_linear_system(r)
        assert len(system.valid_pairs) == 3 * (14 * r + 62)
        assert QUOTED_PAIR_COUNT(r) == 157 * r + 685


def deterministic_value(answer):
    """The linear system block's winning probability when, at equation i and
    Bob's variable in position pos, Alice answers the triple and Bob the bit
    of answer(i, pos) = (triple, bit)."""
    test = build_full_test(make_params(3))
    system = test.system
    corr = Correlation(d=3, r=2)
    for i, v in system.valid_pairs:
        triple, bit = answer(i, system.rows[i].index(v))
        table = np.zeros((8, 2))
        table[test.alice_answers[eq_label(i)].index(triple), bit] = 1.0
        corr.entries[(eq_label(i), var_label(system.variables[v]))] = table
    return ls_winning_probability_from_correlation(corr, test), len(system.valid_pairs)


def test_score_homogeneous_row():
    # all zeros has every row's parity but the sign row's
    value, n = deterministic_value(lambda i, pos: ((0, 0, 0), 0))
    assert value == pytest.approx(1 - 3 / n, abs=1e-12)
    # Bob's bit must equal Alice's at his variable
    assert deterministic_value(lambda i, pos: ((0, 0, 0), 1))[0] == 0.0


def test_score_sign_row():
    # an odd triple has only the sign row's parity, and wins there when Bob
    # repeats the triple's bit at his own position
    value, n = deterministic_value(lambda i, pos: ((1, 0, 0), int(pos == 0)))
    assert value == pytest.approx(3 / n, abs=1e-12)
    assert deterministic_value(lambda i, pos: ((1, 0, 0), int(pos != 0)))[0] == 0.0


def test_text_round_trip():
    # the header carries r and the variable order, so each line names its row exactly
    system = build_linear_system(3)
    index = {name: v for v, name in enumerate(system.variables)}
    header, *lines = system_to_text(system).splitlines()
    assert header == f"# r=3 vars={','.join(system.variables)}"
    assert len(lines) == system.n_rows
    for line, row, c in zip(lines, system.rows, system.rhs):
        lhs, rhs = line.split(" = ")
        names = [term[2:-1] for term in lhs.split(" + ")]  # x(name) -> name
        assert (tuple(index[name] for name in names), int(rhs)) == (row, c)


def test_json_round_trip():
    system = build_linear_system(2)
    index = {name: v for v, name in enumerate(system.variables)}
    data = json.loads(json.dumps(system_to_json_dict(system)))
    assert (data["r"], tuple(data["variables"])) == (2, system.variables)
    assert [tuple(index[name] for name in row["vars"]) for row in data["rows"]] == list(system.rows)
    assert [row["rhs"] for row in data["rows"]] == list(system.rhs)


def test_text_format_shape():
    text = system_to_text(build_linear_system(2))
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(lines) == 90
    assert "x(f1) + x(g1) + x(m2) = 1" in lines
    assert sum(ln.endswith("= 1") for ln in lines) == 1
