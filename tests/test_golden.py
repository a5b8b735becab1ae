"""The CLI's artifacts against the goldens of tests/golden (see goldens.py)."""

import math

import pytest
from goldens import CASES, GOLDEN, assert_close, assert_matches, merge, parse_csv, run

from lsgame.strategy import dump_json


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    how, stream, argv = CASES[name]
    assert_matches(how, run(argv, str(tmp_path))[stream], (GOLDEN / name).read_bytes())


def test_csv_cells_compare_as_numbers():
    want = parse_csv(b"kind,delta,dist\nrotate,0.001,0.25\n")
    assert want == [["kind", "delta", "dist"], ["rotate", 0.001, 0.25]]
    assert_close(parse_csv(b"kind,delta,dist\nrotate,0.001,0.25000000000000006\n"), want)
    for moved in (b"kind,delta,dist\nrotate,0.001,0.2500001\n", b"kind,delta,dist\nstate,0.001,0.25\n"):
        with pytest.raises(AssertionError):
            assert_close(parse_csv(moved), want)


def test_merge_rewrites_only_what_moved():
    # a float one ulp off still passes and is kept, a new key is taken, and
    # so is a number that moved past the tolerance
    old = 0.1 + 0.2
    want = dump_json({"epsilon": old, "moved": 0.25, "rows": [{"d": 3}]}).encode()
    got = dump_json({"epsilon": math.nextafter(old, 1.0), "moved": 0.5, "rows": [{"d": 3, "new": 2.5e-15}]}).encode()
    merged = merge("parsed", got, want)
    assert merged == dump_json({"epsilon": old, "moved": 0.5, "rows": [{"d": 3, "new": 2.5e-15}]}).encode()
    assert_matches("parsed", got, merged)
    csv_want = b"kind,dist\nrotate,0.25\nstate,0.4\n"
    csv_got = b"kind,dist\nrotate,0.25000000000000006\nstate,0.5\n"
    assert merge("csv", csv_got, csv_want) == b"kind,dist\nrotate,0.25\nstate,0.5\n"
    assert merge("exact", b"new", b"old") == b"new"
