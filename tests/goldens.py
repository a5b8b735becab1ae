"""Golden outputs of the CLI, pinned under tests/golden, and the script that
rewrites them:

    PYTHONPATH=src python tests/goldens.py

runs every case of CASES in process and writes its file, unless the golden
there still passes as the tests compare it (assert_matches): a golden that
the BLAS kernels would only move by an ulp is kept.  A golden that fails is
merged (merge): each of its numbers that still passes is kept, and only a
number that moved or a new one is taken from the run.  It prints which
files it kept, merged or wrote.  A case pins one stream of one command:
its --out file, or what it writes to stderr.  It is held to its golden file
in one of three ways:

- "exact": byte for byte;
- "parsed": as JSON, number by number within ABS_TOL + REL_TOL * |golden|,
  since its floats may move in the last ulp with the BLAS kernels;
- "csv": row by row and cell by cell, a cell that reads as a number within
  the same bound and any other cell as text.

A command whose arguments end in --in scores the gen-correlation output of
its own --d and --r, written first to the work folder.  A golden that
changes is a change of the tests: say why next to it in CHANGES.md.
"""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import sys
import tempfile

from lsgame.cli import main
from lsgame.strategy import dump_json

GOLDEN = pathlib.Path(__file__).parent / "golden"
ABS_TOL = 1e-12
REL_TOL = 1e-9

#: golden file name -> (how it is compared, the stream it pins, the lsgame arguments)
CASES = {
    "gen-game_d5.json": ("exact", "out", ["gen-game", "--d", "5"]),
    "gen-game_d5.txt": ("exact", "out", ["gen-game", "--d", "5", "--format", "text"]),
    # an odd r: the o-chain walks its odd branch, and every conjugacy gadget of that walk is pinned
    "gen-game_d11_r7.txt": ("exact", "out", ["gen-game", "--d", "11", "--r", "7", "--format", "text"]),
    "verify-rep_d5.json": ("exact", "out", ["verify-rep", "--d", "5"]),
    "verify-rep_d13_r7.json": ("exact", "out", ["verify-rep", "--d", "13", "--r", "7"]),
    "eval-in_d5.json": ("parsed", "out", ["eval", "--d", "5", "--in"]),
    "eval-in_d31_r24.json": ("parsed", "out", ["eval", "--d", "31", "--r", "24", "--in"]),
    "eval_d5_delta.json": ("parsed", "out", ["eval", "--d", "5", "--delta", "1e-3", "--seed", "3"]),
    "self-test_d5.json": ("parsed", "out", ["self-test", "--d", "5"]),
    "self-test_d5_rotate.json": (
        "parsed", "out", ["self-test", "--d", "5", "--kind", "rotate", "--delta", "1e-3", "--seed", "3"]
    ),
    # a root other than the smallest: the UA/UB targets and the powers of U depend on r
    "self-test_d13_r7_rotate.json": (
        "parsed", "out", ["self-test", "--d", "13", "--r", "7", "--kind", "rotate", "--delta", "1e-3", "--seed", "3"]
    ),
    "sweep_d3.csv": ("csv", "out", ["sweep", "--d", "3", "--trials", "2", "--kind", "all"]),
    "sweep_d3_fit.json": ("parsed", "err", ["sweep", "--d", "3", "--trials", "2", "--kind", "all"]),
    "demo-family.json": ("parsed", "out", ["demo-family"]),
}


def run(argv: list[str], workdir: str) -> dict[str, bytes]:
    """What lsgame writes for argv, run in process with its files in workdir:
    {"out": its --out file, "err": its stderr}."""
    if argv[-1] == "--in":
        corr = os.path.join(workdir, "corr.json")
        if main(["gen-correlation", *argv[1:-1], "--out", corr]) != 0:
            raise RuntimeError(f"gen-correlation {argv[1:-1]} failed")
        argv = [*argv, corr]
    out = os.path.join(workdir, "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", out])
    if code != 0:
        raise RuntimeError(f"lsgame {argv} exited {code}: {err.getvalue()}")
    return {"out": pathlib.Path(out).read_bytes(), "err": err.getvalue().encode()}


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


def assert_matches(how: str, got: bytes, want: bytes) -> None:
    """got passes for the golden want, compared the case's way (see CASES)."""
    if how == "exact":
        assert got == want
    else:
        assert_close(PARSE[how](got), PARSE[how](want))


def keep_passing(got, want, read=lambda value: value):
    """got, with each leaf of want kept where the two still compare equal
    (assert_close, on the leaves as read gives them); a key or item that
    want lacks, or a list that changed length, is got's."""
    if isinstance(got, dict) and isinstance(want, dict):
        return {key: keep_passing(value, want[key], read) if key in want else value for key, value in got.items()}
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [keep_passing(g, w, read) for g, w in zip(got, want)]
    try:
        assert_close(read(got), read(want))
    except AssertionError:
        return got
    return want


def merge(how: str, got: bytes, want: bytes) -> bytes:
    """What to write for a golden want that got fails: got, keeping every
    number of a "parsed" golden and every cell of a "csv" one that still
    passes, written as the CLI writes it.  An "exact" golden, or one that
    no longer parses, is got whole."""
    try:
        if how == "parsed":
            return dump_json(keep_passing(json.loads(got), json.loads(want))).encode()
        if how == "csv":
            got_rows, want_rows = (list(csv.reader(io.StringIO(data.decode()))) for data in (got, want))
            return "".join(",".join(row) + "\n" for row in keep_passing(got_rows, want_rows, csv_cell)).encode()
    except ValueError:
        pass
    return got


if __name__ == "__main__":
    if not __debug__:  # under -O every assert of the comparison is stripped, and every golden would be kept
        sys.exit("run goldens.py without -O: it compares with assert")
    GOLDEN.mkdir(exist_ok=True)
    for name, (how, stream, argv) in CASES.items():
        golden = GOLDEN / name
        with tempfile.TemporaryDirectory() as workdir:
            got = run(argv, workdir)[stream]
        try:
            want = golden.read_bytes()
            assert_matches(how, got, want)
            verb = "kept"
        except OSError:  # no golden yet
            golden.write_bytes(got)
            verb = "wrote"
        except (ValueError, AssertionError):  # one that no longer parses, or one that moved
            golden.write_bytes(merge(how, got, want))
            verb = "merged"
        sys.stdout.write(f"{verb} {golden}\n")
