"""Output checks for the benchmark workloads.

Every check is either a computation made here, apart from the program, or a
property the method must have.  Each function returns a list of failure
messages; an empty list means the operation's outputs are correct.  Question
labels and answer orders follow the conventions documented in README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

DISTANCE_LABELS = (
    "psi", "OA_psi", "OB_psi", "UA_psi", "UB_psi",
    "M1_psi", "M2_psi", "N1_psi", "N2_psi",
)

# The sweep CSV header as the README documents it.
SWEEP_HEADER = (
    "d,r,kind,delta,seed,epsilon,dist_psi,dist_OA,dist_OB,dist_UA,dist_UB,"
    "dist_M1,dist_M2,dist_N1,dist_N2,junk_norm,res_sync,res_equation,"
    "res_conjugacy,res_psi1_norm,res_eig_bob,res_eig_alice,res_comm"
)

TRIPLES = [(a0, a1, a2) for a0 in (0, 1) for a1 in (0, 1) for a2 in (0, 1)]
PAIRED = [(b1, b2) for b1 in (0, 1, 2) for b2 in (0, 1)]


def _expect(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# --- certify ------------------------------------------------------------------


def check_sweep_record(rec, kind: str, delta: float, state_shift: float | None) -> list[str]:
    """One sweep record.  state_shift is ||psi' - psi|| for kind "state".

    For kind "state" the operators are the ideal ones, so every isometry is
    fixed and norm-preserving: each distance moves by at most the state
    shift, and each table's L1 change is bounded by the trace distance,
    itself at most 2 ||psi' - psi||.
    """
    failures: list[str] = []
    values = [rec.epsilon, rec.junk_norm] + list(rec.distances.values()) + list(rec.residuals.values())
    _expect(failures, all(math.isfinite(v) and v >= 0 for v in values), "a value is negative or not finite")
    _expect(failures, set(rec.distances) == set(DISTANCE_LABELS), "distance labels differ")
    norm_sum = rec.distances.get("psi", math.nan) ** 2 + rec.junk_norm ** 2
    _expect(failures, abs(norm_sum - 1.0) <= 1e-10, f"dist_psi^2 + junk_norm^2 = {norm_sum!r}")
    if delta == 0:
        worst = max(rec.distances.values())
        _expect(failures, worst <= 1e-8, f"ideal distance {worst:.3e} above 1e-8")
        _expect(failures, rec.epsilon == 0.0, f"ideal epsilon {rec.epsilon!r} is not 0")
    if kind == "state":
        for label, dist in rec.distances.items():
            _expect(failures, dist <= state_shift + 1e-8, f"{label} {dist:.3e} above the state shift {state_shift:.3e}")
        _expect(failures, rec.epsilon <= 2 * state_shift + 1e-12, f"epsilon {rec.epsilon:.3e} above 2x state shift")
    return failures


# --- tables of the ideal correlation --------------------------------------------


def closed_form_tables(d: int, n_vars: int) -> dict[tuple[str, str], dict[tuple[int, int], float]]:
    """The published closed-form entries of the ideal correlation at d.

    Extension block: ext:0 (subspace, answers 0/2), ext:<n+1> (Z basis) and
    ext:<n+2> (X basis), answers 0/1 inside the distinguished 2-dim subspace
    and 2 outside it; x(a1), x(a2) are the weighted-CHSH variable questions.
    Commutation block: Bob answers (basis outcome, variable bit) pairs.
    """
    w = d - 1
    c = math.cos(math.pi / (2 * d)) ** 2 / w
    s = math.sin(math.pi / (2 * d)) ** 2 / w
    plus = (1 + math.sin(math.pi / d)) / (2 * w)
    minus = (1 - math.sin(math.pi / d)) / (2 * w)
    rest = (d - 3) / w
    sub, z, x = "ext:0", f"ext:{n_vars + 1}", f"ext:{n_vars + 2}"

    def grid(rows):
        return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}

    def flip(table):
        return {(j, i): v for (i, j), v in table.items()}

    out = {}
    chsh = {
        (z, "x(a1)"): [[c, s], [s, c]],
        (z, "x(a2)"): [[c, s], [s, c]],
        (x, "x(a1)"): [[minus, plus], [plus, minus]],
        (x, "x(a2)"): [[plus, minus], [minus, plus]],
    }
    for (q, y), rows in chsh.items():
        out[(q, y)] = grid(rows)
        out[(y, q)] = flip(out[(q, y)])
    same = grid([[1 / w, 0, 0], [0, 1 / w, 0], [0, 0, rest]])
    cross = grid([[1 / (2 * w), 1 / (2 * w), 0], [1 / (2 * w), 1 / (2 * w), 0], [0, 0, rest]])
    out[(z, z)] = out[(x, x)] = same
    out[(z, x)] = out[(x, z)] = cross
    out[(sub, sub)] = grid([[2 / w, 0], [0, rest]])
    for q in (z, x):
        out[(q, sub)] = grid([[1 / w, 0], [1 / w, 0], [0, rest]])
        out[(sub, q)] = flip(out[(q, sub)])

    def paired(outcome: int, bit: int) -> float:
        return rest / 2 if outcome == 2 else 1 / (2 * w)

    for num, q in ((n_vars + 1, z), (n_vars + 2, x)):
        for g in ("f0", "f2", "g0", "g2"):
            y = f"comm:{num},{g}"
            out[(q, y)] = {
                (a, j): paired(b1, b2) if a == b1 else 0.0
                for a in range(3) for j, (b1, b2) in enumerate(PAIRED)
            }
            out[(f"x({g})", y)] = {
                (a, j): paired(b1, b2) if a == b2 else 0.0
                for a in range(2) for j, (b1, b2) in enumerate(PAIRED)
            }
    return out


def ls_win_probability(entries: dict, rows: list[dict]) -> float:
    """Average over (equation, member variable) pairs of the winning mass:
    Alice's triple has the equation's parity and agrees with Bob's bit.
    rows are gen-game's equations: {"vars": [three names], "rhs": 0 or 1}."""
    total, pairs = 0.0, 0
    for i, row in enumerate(rows):
        for pos, var in enumerate(row["vars"]):
            table = entries[(f"I{i + 1}", f"x({var})")]
            for ia, triple in enumerate(TRIPLES):
                if sum(triple) % 2 == row["rhs"]:
                    total += float(table[ia, triple[pos]])
            pairs += 1
    return total / pairs


def embedded_chsh(entries: dict, d: int, n_vars: int) -> tuple[float, float]:
    """(value, -2 sqrt(1 + alpha^2)) of the extension block's weighted CHSH.

    Alice's basis projectors lie inside the subspace, so the value on the
    subspace-conditioned state is the correlator sum divided by the
    subspace probability.
    """
    alpha = -1.0 / math.tan(math.pi / d)
    z, x = f"ext:{n_vars + 1}", f"ext:{n_vars + 2}"

    def corr(q, y):
        t = entries[(q, y)]
        return sum((-1) ** (a + b) * float(t[a, b]) for a in (0, 1) for b in (0, 1))

    p_sub = float(entries[("ext:0", "ext:0")][0].sum())
    value = (alpha * (corr(z, "x(a1)") + corr(z, "x(a2)")) + corr(x, "x(a1)") - corr(x, "x(a2)")) / p_sub
    return value, -2 * math.sqrt(1 + alpha * alpha)


def check_tables(entries: dict, d: int, game: dict) -> list[str]:
    """The ideal correlation at d against the game gen-game wrote."""
    failures: list[str] = []
    n_vars = len(game["variables"])
    low = min(float(t.min()) for t in entries.values())
    _expect(failures, low >= -1e-12, f"table entry {low:.3e} below -1e-12")
    worst_sum = max(abs(float(t.sum()) - 1.0) for t in entries.values())
    _expect(failures, worst_sum <= 1e-12, f"table sum off by {worst_sum:.3e}")
    worst_cf = 0.0
    for key, cells in closed_form_tables(d, n_vars).items():
        table = entries[key]
        for (ia, ib), want in cells.items():
            worst_cf = max(worst_cf, abs(float(table[ia, ib]) - want))
    _expect(failures, worst_cf <= 1e-12, f"closed-form entry off by {worst_cf:.3e}")
    win = ls_win_probability(entries, game["rows"])
    _expect(failures, abs(win - 1.0) <= 1e-12, f"LS winning probability {win!r}")
    value, extremal = embedded_chsh(entries, d, n_vars)
    _expect(failures, abs(value - extremal) <= 1e-10, f"embedded CHSH {value!r}, want {extremal!r}")
    return failures


# --- cli ----------------------------------------------------------------------


def check_cli(outputs: dict[str, tuple[int, str]], files: dict[str, bytes], reference: bytes | None,
              d: int, variables: int, equations: int, sweep_rows: int) -> list[str]:
    """outputs: command name -> (exit code, stdout); files: name -> bytes written.

    The correlation file is parsed here with plain json, not by the program,
    and its tables are checked against values computed here.
    """
    failures: list[str] = []
    for name, (code, _) in outputs.items():
        _expect(failures, code == 0, f"{name} exited {code}")
    if failures:
        return failures
    if reference is not None:
        _expect(failures, files["correlation"] == reference, "gen-correlation output differs between operations")
    game = json.loads(files["game"])
    _expect(failures, len(game["variables"]) == variables, f"gen-game: {len(game['variables'])} variables")
    _expect(failures, len(game["rows"]) == equations, f"gen-game: {len(game['rows'])} equations")
    residual = json.loads(outputs["verify-rep"][1])["relation_residual"]
    _expect(failures, residual <= 1e-9, f"verify-rep relation residual {residual!r}")
    corr = json.loads(files["correlation"])
    entries = {(e["x"], e["y"]): np.array(e["p"], dtype=float) for e in corr["entries"]}
    support = game["game"]["support"]
    _expect(failures, len(entries) == support, f"{len(entries)} tables, gen-game's support has {support} pairs")
    failures += check_tables(entries, d, game)
    scored = json.loads(outputs["eval-in"][1])
    _expect(failures, scored["epsilon"] == 0.0, f"eval --in epsilon {scored['epsilon']!r}")
    _expect(failures, abs(scored["winning_probability"] - 1.0) <= 1e-12,
            f"eval --in winning probability {scored['winning_probability']!r}")
    report = json.loads(outputs["self-test"][1])
    worst = max(report["distances"].values())
    _expect(failures, worst <= 1e-8, f"self-test distance {worst:.3e} above 1e-8")
    text = files["sweep"].decode()
    header, *rows = text.splitlines()
    _expect(failures, header == SWEEP_HEADER, "sweep CSV header differs from the documented one")
    _expect(failures, len(rows) == sweep_rows, f"sweep CSV has {len(rows)} rows, want {sweep_rows}")
    for row in csv.reader(io.StringIO("\n".join(rows))):
        numbers = [float(v) for i, v in enumerate(row) if i != 2]
        _expect(failures, all(math.isfinite(v) for v in numbers), "sweep CSV has a non-finite value")
    return failures
