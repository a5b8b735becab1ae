"""The CLI's artifacts against the goldens of tests/golden (see goldens.py)."""

import pytest
from goldens import CASES, GOLDEN, assert_close, assert_matches, parse_csv, run


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
