"""Golden outputs of the CLI, pinned under tests/golden, and the script that
rewrites them:

    PYTHONPATH=src python tests/goldens.py

runs every case of CASES in process and overwrites its file.  A case pins
one stream of one command: its --out file, or what it writes to stderr.  It
is held to its golden file in one of three ways:

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
import io
import os
import pathlib
import sys
import tempfile

from lsgame.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
ABS_TOL = 1e-12
REL_TOL = 1e-9

#: golden file name -> (how it is compared, the stream it pins, the lsgame arguments)
CASES = {
    "gen-game_d5.json": ("exact", "out", ["gen-game", "--d", "5"]),
    "gen-game_d5.txt": ("exact", "out", ["gen-game", "--d", "5", "--format", "text"]),
    "verify-rep_d5.json": ("exact", "out", ["verify-rep", "--d", "5"]),
    "verify-rep_d13_r7.json": ("exact", "out", ["verify-rep", "--d", "13", "--r", "7"]),
    "eval-in_d5.json": ("parsed", "out", ["eval", "--d", "5", "--in"]),
    "eval-in_d31_r24.json": ("parsed", "out", ["eval", "--d", "31", "--r", "24", "--in"]),
    "eval_d5_delta.json": ("parsed", "out", ["eval", "--d", "5", "--delta", "1e-3", "--seed", "3"]),
    "self-test_d5.json": ("parsed", "out", ["self-test", "--d", "5"]),
    "self-test_d5_rotate.json": (
        "parsed", "out", ["self-test", "--d", "5", "--kind", "rotate", "--delta", "1e-3", "--seed", "3"]
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (_, stream, argv) in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN / name).write_bytes(run(argv, workdir)[stream])
        sys.stdout.write(f"wrote {GOLDEN / name}\n")
