"""The CLI's artifacts against the goldens of tests/golden (see goldens.py)."""

import csv
import io
import json
import math

import pytest
from goldens import ABS_TOL, CASES, GOLDEN, REL_TOL, run


def assert_close(got, want, where="$"):
    """got equals want as parsed JSON, numbers within ABS_TOL + REL_TOL * |want|."""
    numbers = (int, float)
    if isinstance(want, numbers) and not isinstance(want, bool):
        assert isinstance(got, numbers) and not isinstance(got, bool), (where, got, want)
        assert math.isclose(got, want, rel_tol=0, abs_tol=ABS_TOL + REL_TOL * abs(want)), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (where, got, want)
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want and type(got) is type(want), (where, got, want)


def csv_cell(text: str):
    """A CSV cell as an int or a finite float when it reads as one, else as its text."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        return value if math.isfinite(value) else text
    return text


def parse_csv(data: bytes) -> list:
    return [[csv_cell(cell) for cell in row] for row in csv.reader(io.StringIO(data.decode()))]


PARSE = {"parsed": json.loads, "csv": parse_csv}


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    how, stream, argv = CASES[name]
    got, want = run(argv, str(tmp_path))[stream], (GOLDEN / name).read_bytes()
    if how == "exact":
        assert got == want, name
    else:
        assert_close(PARSE[how](got), PARSE[how](want))


def test_csv_cells_compare_as_numbers():
    want = parse_csv(b"kind,delta,dist\nrotate,0.001,0.25\n")
    assert want == [["kind", "delta", "dist"], ["rotate", 0.001, 0.25]]
    assert_close(parse_csv(b"kind,delta,dist\nrotate,0.001,0.25000000000000006\n"), want)
    for moved in (b"kind,delta,dist\nrotate,0.001,0.2500001\n", b"kind,delta,dist\nstate,0.001,0.25\n"):
        with pytest.raises(AssertionError):
            assert_close(parse_csv(moved), want)
