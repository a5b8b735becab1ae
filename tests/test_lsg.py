import json

import pytest

from lsgame import (
    DomainError,
    build_linear_system,
    build_ls_game,
    satisfying_assignments,
    score_ls,
    system_to_json,
    system_to_text,
)


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
    system = build_linear_system(2)
    for i in range(system.n_rows):
        wins = satisfying_assignments(system, i)
        assert len(wins) == 4
        for triple in wins:
            assert sum(triple) % 2 == system.rhs[i]


def test_valid_pair_count():
    for r in (2, 3):
        game = build_ls_game(r)
        assert len(game.valid_pairs) == 3 * (14 * r + 62)
        assert game.quoted_pairs == 157 * r + 685
        assert abs(game.pi * len(game.valid_pairs) - 1.0) < 1e-15


def test_score_homogeneous_row():
    game = build_ls_game(2)
    system = game.system
    # the row f0 + f1 + f2 = 0
    target = next(
        i for i in range(system.n_rows)
        if set(system.row_names(i)) == {"f0", "f1", "f2"}
    )
    f0 = system.var_index("f0")
    pos = system.rows[target].index(f0)
    assert system.row_names(target)[pos] == "f0"
    assert score_ls(game, (target, f0), ((0, 0, 0), 0)) == 1
    assert score_ls(game, (target, f0), ((1, 0, 0), 1)) == 0  # parity violated


def test_score_sign_row():
    game = build_ls_game(2)
    system = game.system
    target = system.rhs.index(1)
    names = system.row_names(target)
    f1_col = system.var_index("f1")
    answer = tuple(1 if g == "f1" else 0 for g in names)
    assert score_ls(game, (target, f1_col), (answer, 1)) == 1
    assert score_ls(game, (target, f1_col), (answer, 0)) == 0


def test_score_rejects_foreign_variable():
    game = build_ls_game(2)
    system = game.system
    outside = next(
        v for v in range(system.n_vars) if v not in system.rows[0]
    )
    with pytest.raises(DomainError):
        score_ls(game, (0, outside), ((0, 0, 0), 0))


def test_text_round_trip():
    # the header carries r and the variable order, so each line names its row exactly
    system = build_linear_system(3)
    header, *lines = system_to_text(system).splitlines()
    assert header == f"# r=3 vars={','.join(system.variables)}"
    assert len(lines) == system.n_rows
    for line, row, c in zip(lines, system.rows, system.rhs):
        lhs, rhs = line.split(" = ")
        names = [term[2:-1] for term in lhs.split(" + ")]  # x(name) -> name
        assert (tuple(map(system.var_index, names)), int(rhs)) == (row, c)


def test_json_round_trip():
    system = build_linear_system(2)
    data = json.loads(system_to_json(system))
    assert (data["r"], tuple(data["variables"])) == (2, system.variables)
    assert [tuple(map(system.var_index, row["vars"])) for row in data["rows"]] == list(system.rows)
    assert [row["rhs"] for row in data["rows"]] == list(system.rhs)


def test_text_format_shape():
    text = system_to_text(build_linear_system(2))
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(lines) == 90
    assert "x(f1) + x(g1) + x(m2) = 1" in lines
    assert sum(ln.endswith("= 1") for ln in lines) == 1
