"""Golden outputs of the CLI, pinned under tests/golden, and the script that
rewrites them:

    PYTHONPATH=src python tests/goldens.py

runs every case of CASES in process and overwrites its file.  An "exact"
case is held to its file byte for byte.  A "parsed" case is held to it as
JSON, number by number within ABS_TOL + REL_TOL * |golden|, since its floats
may move in the last ulp with the BLAS kernels.  An eval case scores, with
--in, the gen-correlation output of its own --d and --r, written first to
the work folder.  A golden that changes is a change of the tests: say why
next to it in CHANGES.md.
"""

import os
import pathlib
import sys
import tempfile

from lsgame.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
ABS_TOL = 1e-12
REL_TOL = 1e-9

#: golden file name -> (how it is compared, the lsgame arguments)
CASES = {
    "gen-game_d5.json": ("exact", ["gen-game", "--d", "5"]),
    "gen-game_d5.txt": ("exact", ["gen-game", "--d", "5", "--format", "text"]),
    "verify-rep_d5.json": ("exact", ["verify-rep", "--d", "5"]),
    "verify-rep_d13_r7.json": ("exact", ["verify-rep", "--d", "13", "--r", "7"]),
    "eval-in_d5.json": ("parsed", ["eval", "--d", "5"]),
    "eval-in_d31_r24.json": ("parsed", ["eval", "--d", "31", "--r", "24"]),
}


def run(argv: list[str], workdir: str) -> bytes:
    """What lsgame writes for argv, run in process with its files in workdir."""
    if argv[0] == "eval":
        corr = os.path.join(workdir, "corr.json")
        if main(["gen-correlation", *argv[1:], "--out", corr]) != 0:
            raise RuntimeError(f"gen-correlation {argv[1:]} failed")
        argv = [*argv, "--in", corr]
    out = os.path.join(workdir, "out")
    if main([*argv, "--out", out]) != 0:
        raise RuntimeError(f"lsgame {argv} failed")
    return pathlib.Path(out).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (_, argv) in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN / name).write_bytes(run(argv, workdir))
        sys.stdout.write(f"wrote {GOLDEN / name}\n")
