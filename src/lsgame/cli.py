"""Command-line front door.

Subcommands: gen-game, verify-rep, gen-correlation, eval, self-test, sweep,
demo-family.  Exit codes: 0 success, 2 bad input or usage, an unreadable
input file, an unwritable output file (checked before any work) or a size
cap exceeded (DomainError, PreconditionError, ResourceError), 3 verification
failure; any other library error exits 1.  Errors go to stderr as JSON.
JSON output is strict: a NaN or infinite value is written as null.
Identical flags and seeds produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import math
import os
import sys

from .errors import DomainError, LsgameError, PreconditionError, ResourceError
from .evaluation import (
    correlation_distance, embedded_chsh_value, ls_winning_probability_from_correlation, table_deviation,
)
from .linalg import worst
from .lsg import QUOTED_PAIR_COUNT, build_linear_system, system_to_json_dict, system_to_text
from .numtheory import make_params
from .representation import broken_key_relations, broken_relations, build_representation, worst_gap
from .robustness import KINDS, PerturbationSpec, certify, fit_bound, perturb_strategy, records_to_csv, run_sweep
from .strategy import Correlation, build_full_test, build_ideal_strategy, dump_json, misfit_message, shape_misfits

DEMO_PRIMES = (3, 5, 7, 11, 13)

#: the bound on every self-test distance at --delta 0: self-test's default, demo-family's gate
SELFTEST_TOLERANCE = 1e-8


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path!r}: {exc.strerror}") from None


def _check_writable(path: str | None) -> None:
    """DomainError now, before any long work, when _write could not open path.

    Checks that path is not empty, not a directory, and that its directory
    exists, is a directory and is writable; the file itself is neither
    created nor truncated here.
    """
    if path is None or path == "-":
        return
    folder = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        try:
            os.stat(folder)
            code = errno.ENOTDIR  # it exists, and is no directory
        except OSError as exc:  # missing (ENOENT), or under a regular file (ENOTDIR)
            code = exc.errno
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise DomainError(f"cannot write {path!r}: {os.strerror(code)}")


def _ideal(params, test=None):
    """The ideal strategy, on test (default: params' full test)."""
    return build_ideal_strategy(params, build_representation(params), build_full_test(params) if test is None else test)


def _spec(args) -> PerturbationSpec:
    """--kind/--delta/--seed as a perturbation; an unset flag (eval leaves
    them unset) means both, 0 and 0.  PerturbationSpec rejects a negative or
    NaN magnitude and a negative seed with DomainError, at delta 0 too."""
    return PerturbationSpec(
        kind=args.kind or "both",
        magnitude=0.0 if args.delta is None else args.delta,
        seed=args.seed or 0,
    )


def _within(values, tol: float) -> bool:
    """Gate: every value is finite and at most tol (NaN fails)."""
    return all(math.isfinite(v) and v <= tol for v in values)


#: characters an --in file may hold per table cell of the (d, r) support;
#: gen-correlation writes about 38 per cell, and at most 61 in any one entry
CHARS_PER_CELL = 128


def _read_correlation(path: str, params, test) -> Correlation:
    """A correlation file, checked against the command's (d, r) and test.shapes (DomainError);
    ResourceError, before parsing, past CHARS_PER_CELL per cell of those shapes."""
    cap = CHARS_PER_CELL * sum(rows * cols for rows, cols in test.shapes.values())
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(cap + 1)
    except OSError as exc:
        raise DomainError(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if len(text) > cap:
        raise ResourceError(f"{path!r} is longer than the cap of {cap} characters for d={params.d}, r={params.r}")
    corr = Correlation.from_json(text)
    if (corr.d, corr.r) != (params.d, params.r):
        raise DomainError(f"correlation file is for d={corr.d}, r={corr.r}, not d={params.d}, r={params.r}")
    if misfits := shape_misfits(corr.shapes, test.shapes):
        raise DomainError(misfit_message("correlation file differs from the game's", misfits))
    return corr


def cmd_gen_game(args) -> int:
    params = make_params(args.d, args.r)
    test = build_full_test(params)
    system = test.system
    if args.format == "text":
        _write(args.out, system_to_text(system))
    else:
        payload = system_to_json_dict(system)
        payload["game"] = {
            "valid_pairs": len(system.valid_pairs),
            "quoted_pairs": QUOTED_PAIR_COUNT(system.r),
            "support": len(test.support),
            "quoted_support": QUOTED_PAIR_COUNT(system.r) + len(test.support) - len(system.valid_pairs),
        }
        _write(args.out, dump_json(payload))
    return 0


def cmd_verify_rep(args) -> int:
    params = make_params(args.d, args.r)
    rep = build_representation(params)
    broken = broken_relations(rep, build_linear_system(params.r))
    residual = worst_gap(rel[1:] for rel in broken)
    broken_key = broken_key_relations(rep)
    conj_residual = worst_gap(rel[1:] for rel in broken_key)
    # every relation is decided exactly: a holding one reads 0.0, and a NaN fails
    ok = residual == 0.0 and conj_residual == 0.0
    payload = {
        "d": params.d,
        "r": params.r,
        "relation_residual": residual,
        "conjugation_residual": conj_residual,
        "first_broken": next((name for name, _, _ in broken + broken_key), None),
        "ok": ok,
    }
    _write(args.out, dump_json(payload))
    return 0 if ok else 3


def cmd_gen_correlation(args) -> int:
    ideal = _ideal(make_params(args.d, args.r))
    _write(args.out, ideal.correlation().to_json())
    return 0


def cmd_eval(args) -> int:
    if args.infile is not None:
        given = [f"--{name}" for name in ("delta", "kind", "seed") if getattr(args, name) is not None]
        if given:
            raise DomainError(f"--in scores the file as written and takes no {', '.join(given)}")
    params = make_params(args.d, args.r)
    test = build_full_test(params)
    # a bad file fails before the representation and strategy are built
    corr = _read_correlation(args.infile, params, test) if args.infile is not None else None
    ideal = _ideal(params, test)
    if corr is not None:
        payload = {"table_deviation": table_deviation(corr, ideal.correlation())}
    else:
        spec = _spec(args)
        strategy = perturb_strategy(ideal, spec)
        corr = strategy.correlation()
        chsh, sos = embedded_chsh_value(strategy)
        payload = {"chsh": chsh, "sos": sos, **spec.fields(params)}
    payload["winning_probability"] = ls_winning_probability_from_correlation(corr, test)
    payload["epsilon"] = correlation_distance(corr, ideal.correlation())
    _write(args.out, dump_json(payload))
    return 0


def cmd_self_test(args) -> int:
    if not args.tolerance >= 0:  # NaN included
        raise DomainError(f"--tolerance must be a non-negative number, got {args.tolerance}")
    ideal = _ideal(make_params(args.d, args.r))
    rec = certify(ideal, ideal.correlation(), _spec(args))
    _write(args.out, dump_json(dataclasses.asdict(rec)))
    if rec.delta == 0 and not _within(rec.distances.values(), args.tolerance):
        return 3
    return 0


def cmd_sweep(args) -> int:
    ideal = _ideal(make_params(args.d, args.r))
    kinds = KINDS if args.kind == "all" else (args.kind,)
    try:
        magnitudes = [float(x) for x in args.deltas.split(",") if x]
    except ValueError as exc:
        raise DomainError(f"--deltas must be comma-separated numbers: {exc}") from None
    records = run_sweep(ideal, ideal.correlation(), magnitudes, args.trials, kinds, args.seed)
    _write(args.out, records_to_csv(records))
    try:
        fit = fit_bound(records)
    except DomainError as exc:  # a non-finite record or too few epsilon values: say so, and still exit 0
        fit = {"fit": None, "reason": str(exc)}
    sys.stderr.write(dump_json(fit))
    return 0


def cmd_demo_family(args) -> int:
    lines = []
    ok = True
    for d in DEMO_PRIMES:
        # the ideal build has already refused a broken relation of Gamma or a broken key relation
        ideal = _ideal(make_params(d, None))
        rec = certify(ideal, ideal.correlation(), PerturbationSpec("both", 0.0, 0))  # self-test --d d's record
        max_residual = worst(rec.residuals.values())
        good = _within([*rec.distances.values(), max_residual], SELFTEST_TOLERANCE)
        ok = ok and good
        lines.append(
            {
                "d": d,
                "r": ideal.params.r,
                "max_selftest_distance": worst(rec.distances.values()),
                "junk_norm": rec.junk_norm,
                "epsilon": rec.epsilon,
                "max_residual": max_residual,
                "ok": bool(good),
            }
        )
    _write(args.out, dump_json({"family": lines, "ok": ok}))
    return 0 if ok else 3


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError, which main writes as JSON (exit 2)."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lsgame")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, need_d=True, seed=False):
        """A subcommand with --out and only the shared flags it reads."""
        p = sub.add_parser(name, help=help_text)
        if need_d:
            p.add_argument("--d", type=int, required=True, help="odd prime parameter")
            p.add_argument("--r", type=int, default=None, help="primitive root (default: smallest)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(func=func)
        return p

    p = command("gen-game", cmd_gen_game, "emit the linear system and game sizes")
    p.add_argument("--format", choices=("json", "text"), default="json")

    command("verify-rep", cmd_verify_rep, "build the representation and verify all relations")

    command("gen-correlation", cmd_gen_correlation, "emit the ideal correlation")

    p = command("eval", cmd_eval, "score a correlation file or a (perturbed) strategy")
    p.add_argument("--in", dest="infile", default=None, help="correlation JSON to score")
    # left unset, not defaulted, so that cmd_eval can refuse them next to --in
    p.add_argument("--delta", type=float, default=None, help="default 0")
    p.add_argument("--kind", choices=KINDS, default=None, help="default both")
    p.add_argument("--seed", type=int, default=None, help="default 0")

    p = command("self-test", cmd_self_test, "isometry distance report for ideal or perturbed strategy", seed=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--tolerance", type=float, default=SELFTEST_TOLERANCE, help="gate on the distances at --delta 0")
    p.add_argument("--kind", choices=KINDS, default="both")

    p = command("sweep", cmd_sweep, "perturbation sweep to CSV", seed=True)
    p.add_argument("--deltas", default="1e-4,1e-3,1e-2", help="comma-separated magnitudes")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--kind", choices=KINDS + ("all",), default="both")

    command("demo-family", cmd_demo_family, "verify-rep + self-test across d in {3,5,7,11,13}", need_d=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_writable(args.out)
        return args.func(args)
    except LsgameError as exc:
        sys.stderr.write(dump_json({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2 if isinstance(exc, (DomainError, PreconditionError, ResourceError)) else 1


if __name__ == "__main__":
    sys.exit(main())
