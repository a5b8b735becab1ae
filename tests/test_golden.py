"""The CLI's artifacts against the goldens of tests/golden (see goldens.py)."""

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


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    how, argv = CASES[name]
    got, want = run(argv, str(tmp_path)), (GOLDEN / name).read_bytes()
    if how == "exact":
        assert got == want, name
    else:
        assert_close(json.loads(got), json.loads(want))
