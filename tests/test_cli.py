import json
import re
from pathlib import Path

import numpy as np
import pytest

from lsgame import PreconditionError, build_full_test, build_ideal_strategy, build_representation, make_params
from lsgame.cli import main
from lsgame.lsg import build_linear_system
from lsgame.representation import Monomial


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_game_text(tmp_path, capsys):
    out = tmp_path / "game.txt"
    code, _, _ = run(["gen-game", "--d", "3", "--format", "text", "--out", str(out)], capsys)
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 90
    assert "x(f1) + x(g1) + x(m2) = 1" in lines


def test_gen_game_json_counts(capsys):
    code, out, _ = run(["gen-game", "--d", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 90
    assert payload["game"]["valid_pairs"] == 270
    assert payload["game"]["support"] == 311
    assert payload["game"]["quoted_pairs"] == 999
    assert payload["game"]["quoted_support"] == 157 * 2 + 726


def test_verify_rep(capsys):
    code, out, _ = run(["verify-rep", "--d", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["relation_residual"] == 0.0
    assert payload["conjugation_residual"] == 0.0
    assert payload["first_broken"] is None
    assert payload["ok"] is True


def test_verify_rep_tolerance_gate(monkeypatch, capsys):
    # the residuals are exact, so the verdict is residual == 0 and takes no
    # --tolerance, and a sign-flipped generator fails it
    import lsgame.cli as cli

    assert_domain_error(*run(["verify-rep", "--d", "5", "--tolerance", "0"], capsys), "unrecognized arguments")

    build = cli.build_representation

    def flipped(params):
        rep = build(params)
        rep.table["f0"] = -rep.table["f0"]
        return rep

    monkeypatch.setattr(cli, "build_representation", flipped)
    code, out, _ = run(["verify-rep", "--d", "5"], capsys)
    assert code == 3
    assert json.loads(out)["ok"] is False


def test_verify_rep_names_first_broken(monkeypatch, capsys):
    # a1 and a2 exchanged: each is still an involution commuting with J, so
    # the first relation broken is the first row's product
    import lsgame.cli as cli

    build = cli.build_representation

    def exchanged(params):
        rep = build(params)
        rep.table["a1"], rep.table["a2"] = rep.table["a2"], rep.table["a1"]
        return rep

    monkeypatch.setattr(cli, "build_representation", exchanged)
    code, out, _ = run(["verify-rep", "--d", "3"], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["first_broken"] == "I1 (a1, b1, c1): the product is not +1"
    assert payload["relation_residual"] > 0
    assert payload["ok"] is False


def test_self_test_ideal(capsys):
    code, out, _ = run(["self-test", "--d", "3", "--delta", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert max(payload["distances"].values()) <= 1e-8
    assert abs(payload["junk_norm"] - 1) <= 1e-8
    assert payload["epsilon"] <= 1e-12


def test_self_test_perturbed_reports(capsys):
    code, out, _ = run(["self-test", "--d", "3", "--delta", "1e-3", "--seed", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] > 0


def test_gen_correlation_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["gen-correlation", "--d", "3", "--out", str(a)], capsys)[0] == 0
    assert run(["gen-correlation", "--d", "3", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_deterministic(tmp_path, capsys):
    argv = ["sweep", "--d", "3", "--deltas", "1e-3", "--trials", "2", "--kind", "state", "--seed", "9"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(argv + ["--out", str(a)], capsys)[0] == 0
    assert run(argv + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("d,r,kind,delta,seed,epsilon,dist_psi")


def test_eval_correlation_file(tmp_path, capsys):
    corr_path = tmp_path / "corr.json"
    assert run(["gen-correlation", "--d", "3", "--out", str(corr_path)], capsys)[0] == 0
    code, out, _ = run(["eval", "--d", "3", "--in", str(corr_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["winning_probability"] - 1) <= 1e-10
    assert payload["epsilon"] == 0.0
    assert payload["table_deviation"] == 0.0


def test_eval_in_reads_every_cell(tmp_path, capsys):
    # 1e-3 moved inside one linear-system table, which still sums to 1: no
    # closed-form cell of the extension or commutation block moves
    ideal_path, moved_path = tmp_path / "ideal.json", tmp_path / "moved.json"
    assert run(["gen-correlation", "--d", "5", "--out", str(ideal_path)], capsys)[0] == 0
    data = json.loads(ideal_path.read_text())
    table = next(e["p"] for e in data["entries"] if (e["x"], e["y"]) == ("I1", "x(a1)"))
    cells = [(i, j) for i, row in enumerate(table) for j, _ in enumerate(row)]
    (ia, ja), (ib, jb) = max(cells, key=lambda c: table[c[0]][c[1]]), min(cells, key=lambda c: table[c[0]][c[1]])
    table[ia][ja] -= 1e-3
    table[ib][jb] += 1e-3
    moved_path.write_text(json.dumps(data))
    code, out, _ = run(["eval", "--d", "5", "--in", str(moved_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["table_deviation"] - 1e-3) <= 1e-12
    assert payload["epsilon"] > 0


def test_eval_strategy_report(capsys):
    code, out, _ = run(["eval", "--d", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"winning_probability", "chsh", "sos", "epsilon", "d", "r", "kind", "delta", "seed"}
    assert abs(payload["winning_probability"] - 1) <= 1e-10
    assert payload["epsilon"] <= 1e-12
    assert payload["sos"]["deficit"] == payload["chsh"]["imax"] + payload["chsh"]["value"]


def test_eval_and_self_test_read_one_epsilon(tmp_path, capsys):
    # one path to each score: eval's strategy branch at delta 0 and its file
    # branch on the same ideal write the same winning probability and
    # epsilon, and eval's epsilon at delta > 0 is self-test's, to the bit
    corr_path = tmp_path / "corr.json"
    assert run(["gen-correlation", "--d", "5", "--out", str(corr_path)], capsys)[0] == 0
    scores = [json.loads(run(["eval", "--d", "5", *flags], capsys)[1]) for flags in ([], ["--in", str(corr_path)])]
    for key in ("winning_probability", "epsilon"):
        assert scores[0][key] == scores[1][key], key
    for kind in ("state", "rotate", "both"):
        flags = ["--d", "5", "--kind", kind, "--delta", "1e-3", "--seed", "3"]
        evaluated, tested = (json.loads(run([command, *flags], capsys)[1]) for command in ("eval", "self-test"))
        assert evaluated["epsilon"] > 0
        assert evaluated["epsilon"] == tested["epsilon"], kind


def test_demo_family(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["demo-family", "--out", str(a)], capsys)[0] == 0
    assert run(["demo-family", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert [row["d"] for row in payload["family"]] == [3, 5, 7, 11, 13]
    assert payload["ok"] is True
    for row in payload["family"]:
        # no rep_residual: the ideal build refuses a broken key relation before any row is written
        assert set(row) == {"d", "r", "max_selftest_distance", "junk_norm", "epsilon", "max_residual", "ok"}
        assert row["max_selftest_distance"] <= 1e-8
        assert row["max_residual"] <= 1e-8
        assert row["epsilon"] == 0.0  # the ideal's own delta-0 record, as self-test --d d writes it


@pytest.mark.parametrize("value, written", [(1e-3, 1e-3), (float("nan"), None)])
def test_demo_family_gates_residual_probes(value, written, monkeypatch, capsys):
    # one probe off at d = 5 fails that row, and only that row
    import lsgame.cli as cli
    import lsgame.robustness as robustness

    real_residuals = robustness.relation_residuals

    def off_at_five(strategy):
        residuals = real_residuals(strategy)
        if strategy.params.d == 5:
            residuals["comm"] = value
        return residuals

    monkeypatch.setattr(robustness, "relation_residuals", off_at_five)
    monkeypatch.setattr(cli, "DEMO_PRIMES", (3, 5))
    code, out, _ = run(["demo-family"], capsys)
    assert code == 3
    payload = json.loads(out, parse_constant=reject_constant)
    assert payload["ok"] is False
    assert [row["ok"] for row in payload["family"]] == [True, False]
    assert payload["family"][1]["max_residual"] == written


def test_bad_prime_exits_2(capsys):
    code, _, err = run(["gen-game", "--d", "4"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_bad_root_exits_2(capsys):
    code, _, err = run(["verify-rep", "--d", "7", "--r", "2"], capsys)
    assert code == 2
    assert "primitive" in json.loads(err)["error"]["message"]


def test_resource_cap_exits_2(monkeypatch, capsys):
    import lsgame.isometry as iso

    monkeypatch.setattr(iso, "MAX_SELFTEST_ELEMENTS", 100)
    for argv in (["self-test", "--d", "3"], ["sweep", "--d", "3", "--trials", "1"]):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ResourceError"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-rep", "--d", "3", "--format", "json"],
        ["gen-game", "--d", "3", "--seed", "1"],
        ["gen-correlation", "--d", "3", "--tolerance", "1e-3"],
        ["eval", "--d", "3", "--tolerance", "1e-3"],
        ["sweep", "--d", "3", "--format", "csv"],
        ["demo-family", "--seed", "1"],
        # verify-rep and demo-family decide exactly and take no tolerance
        ["verify-rep", "--d", "3", "--tolerance", "1e-9"],
        ["demo-family", "--tolerance", "1e-9"],
    ],
)
def test_ignored_flags_rejected(argv, capsys):
    assert_domain_error(*run(argv, capsys), "unrecognized arguments")


@pytest.mark.parametrize(
    "argv, word",
    [
        (["self-test", "--d", "abc"], "argument --d: invalid int value: 'abc'"),
        (["sweep", "--d", "3", "--trials", "1.5"], "argument --trials: invalid int value: '1.5'"),
        (["gen-game", "--d", "3", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["verify-rep"], "the following arguments are required: --d"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_errors_are_json(argv, word, capsys):
    # a usage error reaches stderr as JSON with exit 2, like any other bad input
    assert_domain_error(*run(argv, capsys), word)


def test_help_is_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["self-test", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lsgame self-test")


@pytest.mark.parametrize(
    "flags, word",
    [
        (["--delta", "0.3", "--kind", "rotate", "--seed", "-4"], "--delta, --kind, --seed"),
        (["--delta", "0"], "--delta"),
        (["--kind", "both"], "--kind"),
        (["--seed", "0"], "--seed"),
    ],
)
def test_eval_in_rejects_perturbation_flags(flags, word, monkeypatch, capsys):
    # --in scores the file as written; these flags used to be ignored next to it
    import lsgame.cli as cli

    monkeypatch.setattr(cli, "make_params", lambda *a: pytest.fail("the game was built"))
    for infile in ("corr.json", ""):  # an empty path used to take the --delta branch
        assert_domain_error(*run(["eval", "--d", "3", "--in", infile, *flags], capsys), word)


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_gates_fail_closed_on_nan(monkeypatch, capsys):
    # a NaN after the first label used to vanish in max() and pass the gate
    import lsgame.cli as cli
    import lsgame.robustness as robustness

    real_report = robustness.selftest_report

    def nan_report(strategy):
        report = real_report(strategy)
        report.distances["OA_psi"] = float("nan")
        return report

    monkeypatch.setattr(robustness, "selftest_report", nan_report)  # self-test and demo-family, through certify
    monkeypatch.setattr(cli, "DEMO_PRIMES", (3,))
    assert run(["self-test", "--d", "3"], capsys)[0] == 3
    code, out, _ = run(["demo-family"], capsys)
    assert code == 3
    payload = json.loads(out, parse_constant=reject_constant)  # strict JSON: NaN is written as null
    assert payload["ok"] is False
    assert payload["family"][0]["max_selftest_distance"] is None

    gaps = iter([0.0, float("nan")])  # Gamma's relations hold; only the key relations' residual is NaN
    monkeypatch.setattr(cli, "worst_gap", lambda pairs: next(gaps))
    code, out, _ = run(["verify-rep", "--d", "3"], capsys)
    assert code == 3
    payload = json.loads(out, parse_constant=reject_constant)
    assert payload["ok"] is False
    assert payload["relation_residual"] == 0.0
    assert payload["conjugation_residual"] is None


@pytest.mark.parametrize("delta", ["-0.5", "nan"])
def test_bad_delta_exits_2(delta, capsys):
    # a negative delta used to skip both the perturbation and the gate
    code, out, err = run(["self-test", "--d", "3", f"--delta={delta}", "--tolerance", "1e-30"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_negative_zero_delta_is_zero(capsys):
    # -0.0 passes the range check; stored as 0.0, a zero magnitude has one artifact
    assert run(["self-test", "--d", "3", "--delta=-0.0"], capsys) == run(["self-test", "--d", "3"], capsys)
    assert '"delta": 0.0,' in run(["eval", "--d", "3", "--delta=-0.0"], capsys)[1]


@pytest.mark.parametrize("value", ["nan", "-1e-8"])
def test_bad_tolerance_exits_2(value, capsys):
    # a NaN or negative tolerance is bad input, not a verification failure
    code, out, err = run(["self-test", "--d", "3", f"--tolerance={value}"], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError"
    assert "--tolerance" in error["message"]


def test_demo_family_refuses_a_broken_relation(monkeypatch, capsys):
    # the ideal build checks every relation of Gamma before demo-family reads
    # a residual, so a broken one is a precondition error, not a failed row
    import lsgame.cli as cli

    build = cli.build_representation

    def negated(params):
        rep = build(params)
        rep.table["f0"] = -rep.table["f0"]
        return rep

    monkeypatch.setattr(cli, "build_representation", negated)
    code, out, err = run(["demo-family"], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error == {"type": "PreconditionError", "message": "I2 (a1, f0, d1): the product is not +1"}


def test_demo_family_gates_conjugation(monkeypatch, capsys, swap_x1_x2):
    # the ideal build checks the key relations verify-rep checks, so a
    # representation whose a1 a2 is not I_4 (x) O is a precondition error,
    # not a failed row
    import lsgame.cli as cli

    build = cli.build_representation
    monkeypatch.setattr(cli, "build_representation", lambda params: swap_x1_x2(build(params)))
    code, out, err = run(["demo-family"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"type": "PreconditionError", "message": "a1 a2 = I_4 (x) O"}


def test_verify_rep_names_a_broken_key_relation(monkeypatch, capsys, swap_x1_x2):
    # every relation of Gamma holds, so first_broken falls through to the
    # first broken key relation instead of reading null beside ok: false
    import lsgame.cli as cli

    build = cli.build_representation
    monkeypatch.setattr(cli, "build_representation", lambda params: swap_x1_x2(build(params)))
    code, out, _ = run(["verify-rep", "--d", "5"], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["first_broken"] == "a1 a2 = I_4 (x) O"
    assert payload["relation_residual"] == 0.0
    assert payload["conjugation_residual"] == 1.7320508075688772
    assert payload["ok"] is False


def _step_p1_3(rep):
    m = rep["p1_3"]
    rep.table["p1_3"] = Monomial(m.perm, (m.phase + (np.arange(len(m.phase)) == 5)) % m.order, m.order)


def _non_commuting_first_image(rep):
    names = build_linear_system(rep.params.r).row_names(0)
    second = rep[names[1]]
    rep.table[names[0]] = next(m for m in rep.table.values() if m @ second != second @ m)


@pytest.mark.parametrize(
    "faults, first",
    [
        pytest.param((), None, id="none"),
        pytest.param(("f0",), "I2 (a1, f0, d1): the product is not +1", id="f0 negated"),
        pytest.param((_step_p1_3,), "p1_3: the square is not 1", id="p1_3 phase stepped"),
        pytest.param((_non_commuting_first_image,), "I1 (a1, b1, c1): the product is not +1", id="row image swapped"),
        pytest.param(("swap",), "a1 a2 = I_4 (x) O", id="swap_x1_x2"),
        pytest.param(("swap", "a1"), "I1 (a1, b1, c1): the product is not +1", id="swap_x1_x2 and a1 negated"),
    ],
)
def test_verify_rep_and_build_agree(faults, first, monkeypatch, capsys, swap_x1_x2):
    # verify-rep and the ideal build decide a representation by one list:
    # verify-rep exits 3 naming first_broken exactly when the build raises
    # PreconditionError naming it, and the build does so before any basis
    # builder runs (a generator name is a fault that negates its image)
    import lsgame.cli as cli
    import lsgame.strategy as strategy

    def faulted(params):
        rep = build_representation(params)
        for fault in faults:
            if fault == "swap":
                swap_x1_x2(rep)
            elif isinstance(fault, str):
                rep.table[fault] = -rep[fault]
            else:
                fault(rep)
        return rep

    monkeypatch.setattr(cli, "build_representation", faulted)
    code, out, _ = run(["verify-rep", "--d", "5"], capsys)
    assert (code, json.loads(out)["first_broken"]) == (0 if first is None else 3, first)

    def no_builder(*args):
        raise AssertionError("a basis builder ran")

    for name in ("equation_bases", "ext_bases", "ideal_state"):
        monkeypatch.setattr(strategy, name, no_builder)
    p = make_params(5)
    error, message = (AssertionError, "a basis builder ran") if first is None else (PreconditionError, first)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build_ideal_strategy(p, faulted(p), build_full_test(p))


def test_eval_rejects_mismatched_correlation_file(tmp_path, capsys):
    d7r5 = tmp_path / "d7r5.json"
    d3 = tmp_path / "d3.json"
    short = tmp_path / "short.json"
    extra = tmp_path / "extra.json"
    assert run(["gen-correlation", "--d", "7", "--r", "5", "--out", str(d7r5)], capsys)[0] == 0
    assert run(["gen-correlation", "--d", "3", "--out", str(d3)], capsys)[0] == 0
    payload = json.loads(d3.read_text())
    entries, n_support = payload["entries"], payload["n_support"]
    short.write_text(json.dumps({**payload, "entries": entries[1:], "n_support": n_support - 1}))
    added = {"x": "I1", "y": "ext:0", "p": [[1 / 16] * 2] * 8}  # a valid table for a pair the game does not ask
    extra.write_text(json.dumps({**payload, "entries": [*entries, added], "n_support": n_support + 1}))
    cases = (
        (["--d", "7"], d7r5, "r=5"),
        (["--d", "5"], d3, "d=3"),
        (["--d", "3"], short, "support"),
        (["--d", "3"], extra, "at 1 pairs, first ('I1', 'ext:0'): (8, 2) against no table"),
    )
    for flags, path, word in cases:
        code, out, err = run(["eval", *flags, "--in", str(path)], capsys)
        assert code == 2, (flags, path)
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert word in error["message"]


def _broken(case, text):
    """The correlation file `text` broken in one way."""
    if case == "truncated":
        return text[: len(text) // 2]
    if case == "deep-nesting":  # used to escape as a RecursionError
        return "[" * 100_000
    payload = json.loads(text)
    table = payload["entries"][1]["p"]
    if case == "nan":
        table[0][0] = float("nan")
    elif case == "entry-5":
        table[0][0] = 5.0
    elif case == "mass-shift":  # 0.2 from the smallest entry to the largest: same sum
        cells = sorted((v, i, j) for i, row in enumerate(table) for j, v in enumerate(row))
        (_, i, j), (_, k, l) = cells[0], cells[-1]
        table[i][j] -= 0.2
        table[k][l] += 0.2
    elif case == "sum-0.5":
        payload["entries"][1]["p"] = [[0.5]]
    elif case == "shape":
        payload["entries"][1]["p"] = [[1.0]]
    elif case == "duplicate":  # a valid table for a pair already present
        first = payload["entries"][0]
        payload["entries"].append({**first, "p": first["p"][::-1]})
        payload["n_support"] = 999
    elif case == "n_support":
        payload["n_support"] += 1
    elif case == "d-float":  # int() used to truncate it to the right d
        payload["d"] += 0.9
    elif case == "d-string":
        payload["d"] = str(payload["d"])
    elif case == "r-bool":
        payload["r"] = True
    elif case == "entry-string":  # numpy used to parse it as the number
        table[0][0] = str(table[0][0])
    elif case == "entry-bool":
        table[0][0] = True
    elif case == "entry-huge":  # used to escape as an OverflowError
        table[0][0] = 10**400
    elif case == "x-number":  # used to escape as a TypeError from sorting the support
        payload["entries"][1]["x"] = 5
    elif case == "y-null":
        payload["entries"][1]["y"] = None
    elif case == "x-bool":
        payload["entries"][1]["x"] = True
    return json.dumps(payload)


@pytest.mark.parametrize(
    "case, word",
    [
        ("nan", "probability table"),
        ("entry-5", "probability table"),
        ("mass-shift", "probability table"),
        ("sum-0.5", "probability table"),
        ("shape", "shape"),
        ("truncated", "malformed"),
        ("duplicate", "duplicate entry for ('I1', 'x(a1)')"),
        ("n_support", "n_support"),
        ("d-float", "'d' is not an integer"),
        ("d-string", "'d' is not an integer"),
        ("r-bool", "'r' is not an integer"),
        ("entry-string", "not a JSON number"),
        ("entry-bool", "not a JSON number"),
        ("entry-huge", "OverflowError"),
        ("x-number", "entry [5, \"x(b1)\"] has a question label that is not a string"),
        ("y-null", "not a string"),
        ("x-bool", "not a string"),
        ("deep-nesting", "RecursionError"),
    ],
)
def test_eval_rejects_malformed_correlation_file(case, word, tmp_path, capsys):
    path = tmp_path / "corr.json"
    assert run(["gen-correlation", "--d", "3", "--out", str(path)], capsys)[0] == 0
    path.write_text(_broken(case, path.read_text()))
    code, out, err = run(["eval", "--d", "3", "--in", str(path)], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError"
    assert word in error["message"]


def test_sweep_says_why_it_has_no_fit(capsys):
    # two records give at most two distinct epsilon values: too few to fit
    code, out, err = run(["sweep", "--d", "3", "--deltas", "1e-3", "--trials", "2"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3  # header and two records
    assert json.loads(err) == {"fit": None, "reason": "need at least 3 distinct positive epsilon values among the even-seed records"}


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--deltas", "abc"], ["--deltas", ","]])
def test_sweep_rejects_empty_or_unparsable(flags, capsys):
    code, out, err = run(["sweep", "--d", "3", *flags], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "DomainError"


def assert_domain_error(code, out, err, word):
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError"
    assert word in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--d", "3", "--delta", "1e-3", "--seed=-1"],
        ["sweep", "--d", "3", "--deltas", "1e-3", "--trials", "1", "--seed=-1"],
        ["eval", "--d", "3", "--seed=-1"],  # delta 0 used to skip the seed check
        ["self-test", "--d", "3", "--seed=-1"],
    ],
)
def test_negative_seed_exits_2(argv, capsys):
    # numpy's default_rng used to end these in a ValueError traceback, and
    # sweep named its first record's seed, -1000000, not the one given
    code, out, err = run(argv, capsys)
    assert_domain_error(code, out, err, "seed")
    assert json.loads(err)["error"]["message"].endswith("got -1")


@pytest.mark.parametrize(
    "flags",
    [
        ["--deltas", "1e-4,1e-3", "--trials", "1001"],
        ["--deltas", ",".join(["1e-3"] * 101), "--trials", "1"],
    ],
)
def test_sweep_too_large_for_distinct_seeds_exits_2(flags, monkeypatch, capsys):
    # at 1001 trials and 2 magnitudes, 6006 records had only 6003 distinct seeds
    import lsgame.robustness as rob

    def no_perturbation(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(rob, "perturb_strategy", no_perturbation)
    assert_domain_error(*run(["sweep", "--d", "3", "--kind", "all", *flags], capsys), "at most")


@pytest.mark.parametrize(
    "case, word",
    [("missing", "missing.json"), ("directory", "cannot read"), ("latin-1", "UTF-8"), ("empty", "cannot read ''")],
)
def test_unreadable_correlation_file_exits_2(case, word, tmp_path, capsys):
    # each of these used to end in an OSError or UnicodeDecodeError traceback,
    # and an empty path in a report on the ideal strategy
    path = tmp_path / "missing.json"
    if case == "empty":
        path = ""
    elif case == "directory":
        path = tmp_path
    elif case == "latin-1":
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"d": 3, "r": 2, "label": "\xe9"}')
    assert_domain_error(*run(["eval", "--d", "3", "--in", str(path)], capsys), word)


def test_eval_in_reads_at_most_the_cap(tmp_path, capsys):
    # a 100 MiB file of spaces used to be read whole before it was parsed:
    # the cap is CHARS_PER_CELL characters per table cell of the support, a
    # valid file padded to the cap is scored, and one character more is refused
    from lsgame.cli import CHARS_PER_CELL

    path = tmp_path / "corr.json"
    assert run(["gen-correlation", "--d", "5", "--out", str(path)], capsys)[0] == 0
    text = path.read_text()
    cap = CHARS_PER_CELL * sum(len(e["p"]) * len(e["p"][0]) for e in json.loads(text)["entries"])
    path.write_text(text + " " * (cap - len(text)))
    assert run(["eval", "--d", "5", "--in", str(path)], capsys)[0] == 0
    path.write_text(text + " " * (cap + 1 - len(text)))
    code, out, err = run(["eval", "--d", "5", "--in", str(path)], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ResourceError"
    assert f"cap of {cap} characters" in error["message"]


def test_eval_in_accepts_largest_valid_file(tmp_path, capsys):
    # r = 27 is the largest admissible root, so (29, 27) has the largest
    # support and the longest gen-correlation output
    path = tmp_path / "corr.json"
    assert run(["gen-correlation", "--d", "29", "--r", "27", "--out", str(path)], capsys)[0] == 0
    code, out, _ = run(["eval", "--d", "29", "--r", "27", "--in", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["epsilon"] == 0.0


def test_unwritable_output_exits_2(tmp_path, capsys):
    # --out into a missing directory used to end in a FileNotFoundError traceback
    out = tmp_path / "no-such-dir" / "game.json"
    assert_domain_error(*run(["gen-game", "--d", "3", "--out", str(out)], capsys), "no-such-dir")


def test_huge_d_rejected_before_primality_test(monkeypatch, capsys):
    # trial division of this 19-digit prime used to run for minutes
    import lsgame.numtheory as nt

    real = nt.is_odd_prime

    def guarded(d):
        assert d <= nt.MAX_PRIME, f"primality test of d={d} above the cap"
        return real(d)

    monkeypatch.setattr(nt, "is_odd_prime", guarded)
    assert_domain_error(*run(["gen-game", "--d", "1000000000000000003"], capsys), "above the cap")


def test_eval_in_checks_file_before_building(monkeypatch, tmp_path, capsys):
    # a bad --in file used to be reported only after the whole ideal build
    import lsgame.cli as cli

    d7r5, d7 = tmp_path / "d7r5.json", tmp_path / "d7.json"
    assert run(["gen-correlation", "--d", "7", "--r", "5", "--out", str(d7r5)], capsys)[0] == 0
    assert run(["gen-correlation", "--d", "7", "--out", str(d7)], capsys)[0] == 0
    payload = json.loads(d7.read_text())
    payload["entries"][0]["p"] = [[0.5, 0.5]]  # a probability table of one row, where the game has eight
    d7.write_text(json.dumps(payload))

    def no_build(*args):
        raise AssertionError("the representation was built")

    monkeypatch.setattr(cli, "build_representation", no_build)
    assert_domain_error(*run(["eval", "--d", "7", "--in", str(tmp_path / "missing.json")], capsys), "cannot read")
    assert_domain_error(*run(["eval", "--d", "7", "--in", str(d7r5)], capsys), "r=5")
    assert_domain_error(*run(["eval", "--d", "7", "--in", str(d7)], capsys), "(1, 2) against (8, 2)")


@pytest.mark.parametrize("command", [["sweep", "--d", "3"], ["demo-family"]])
def test_out_checked_before_long_work(command, monkeypatch, tmp_path, capsys):
    # an unwritable --out used to be found only after the sweep had run
    import lsgame.cli as cli

    def no_work(*args):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "run_sweep", no_work)
    monkeypatch.setattr(cli, "build_representation", no_work)
    for out in (tmp_path / "no-such-dir" / "x.csv", tmp_path, ""):  # "" used to fail only in _write
        assert_domain_error(*run([*command, "--out", str(out)], capsys), "cannot write")
    assert list(tmp_path.iterdir()) == []


def test_out_under_a_regular_file_names_not_a_directory(tmp_path, capsys):
    # the early check used to read a folder that is, or lies under, a regular
    # file as missing; open itself fails there with ENOTDIR, and so does the check
    plain = tmp_path / "plain"
    plain.write_text("kept\n")
    for out in (plain / "x", plain / "x" / "y"):
        with pytest.raises(NotADirectoryError):
            open(out, "w")
        code, stdout, err = run(["verify-rep", "--d", "3", "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        error = json.loads(err)["error"]
        assert error == {"type": "DomainError", "message": f"cannot write {str(out)!r}: Not a directory"}
    assert plain.read_text() == "kept\n"


def test_out_not_truncated_before_writing(monkeypatch, tmp_path, capsys):
    import lsgame.cli as cli
    from lsgame import DomainError

    def failing_sweep(*args):
        raise DomainError("sweep failed")

    out = tmp_path / "sweep.csv"
    out.write_text("earlier contents\n")
    monkeypatch.setattr(cli, "run_sweep", failing_sweep)
    assert_domain_error(*run(["sweep", "--d", "3", "--out", str(out)], capsys), "sweep failed")
    assert out.read_text() == "earlier contents\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a /dev/full device")
def test_write_failure_is_a_domain_error(capsys):
    # /dev/full passes the early check, and the write itself fails: that is
    # a JSON DomainError with exit 2, not a traceback
    code, out, err = run(["verify-rep", "--d", "3", "--out", "/dev/full"], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error == {"type": "DomainError", "message": "cannot write '/dev/full': No space left on device"}


def test_self_test_and_sweep_write_one_record(tmp_path, capsys):
    # both commands write robustness.certify's record: the self-test JSON is
    # the record whole, and it names the sweep row that holds the same one
    import dataclasses

    from lsgame.isometry import REPORT_LABELS
    from lsgame.robustness import RESIDUAL_LABELS, SweepRecord

    def names(rec):
        return int(rec["d"]), int(rec["r"]), rec["kind"], float(rec["delta"]), int(rec["seed"])

    # the sweep's record seeds are 0 and 1 at 1e-4, 1000 and 1001 at 1e-3
    code, out, _ = run(["self-test", "--d", "5", "--kind", "rotate", "--delta", "1e-3", "--seed", "1001"], capsys)
    assert code == 0
    single = json.loads(out)
    assert set(single) == {field.name for field in dataclasses.fields(SweepRecord)}
    csv_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--d", "5", "--kind", "rotate", "--deltas", "1e-4,1e-3", "--trials", "2", "--seed", "0"]
    assert run(argv + ["--out", str(csv_path)], capsys)[0] == 0
    header, *rows = (line.split(",") for line in csv_path.read_text().splitlines())
    matches = [swept for swept in (dict(zip(header, row)) for row in rows) if names(swept) == names(single)]
    assert len(matches) == 1, (names(single), len(rows))
    swept = matches[0]
    assert float(swept["epsilon"]) == single["epsilon"]
    assert float(swept["junk_norm"]) == single["junk_norm"]
    for label in REPORT_LABELS:
        assert float(swept["dist_" + label.removesuffix("_psi")]) == single["distances"][label], label
    for label in RESIDUAL_LABELS:
        assert float(swept["res_" + label]) == single["residuals"][label], label


def test_sweep_without_fit_on_a_non_finite_record(monkeypatch, capsys):
    # a NaN psi distance used to turn C_fit into NaN, so that nothing held
    # out read as a violation; now the sweep says which record has it
    import lsgame.robustness as robustness

    real_report = robustness.selftest_report

    def nan_report(strategy):
        report = real_report(strategy)
        report.distances["psi"] = float("nan")
        return report

    monkeypatch.setattr(robustness, "selftest_report", nan_report)
    code, out, err = run(["sweep", "--d", "3", "--deltas", "1e-3", "--trials", "1", "--seed", "2"], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[6] == "nan"  # dist_psi
    fit = json.loads(err)
    assert fit["fit"] is None
    assert "record (both, delta=0.001, seed=2000000)" in fit["reason"]
