import json

import pytest

from lsgame.cli import main


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


def test_verify_rep(capsys):
    code, out, _ = run(["verify-rep", "--d", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["relation_residual"] <= 1e-10
    assert payload["conjugation_residual"] <= 1e-10
    assert payload["ok"] is True


def test_verify_rep_tolerance_gate(capsys):
    code, out, _ = run(["verify-rep", "--d", "5", "--tolerance", "1e-20"], capsys)
    assert code == 3
    assert json.loads(out)["ok"] is False


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
    assert payload["epsilon"] <= 1e-12
    assert payload["table_deviation"] <= 1e-10


def test_eval_strategy_report(capsys):
    code, out, _ = run(["eval", "--d", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert {"winning_probability", "chsh", "sos", "epsilon"} <= set(payload)


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
        assert row["rep_residual"] <= 1e-9
        assert row["max_selftest_distance"] <= 1e-8


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
    ],
)
def test_ignored_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_gates_fail_closed_on_nan(monkeypatch, capsys):
    # a NaN after the first label used to vanish in max() and pass the gate
    import lsgame.cli as cli

    real_report = cli.selftest_report

    def nan_report(*args):
        report = real_report(*args)
        report.distances["OA_psi"] = float("nan")
        return report

    monkeypatch.setattr(cli, "selftest_report", nan_report)
    monkeypatch.setattr(cli, "DEMO_PRIMES", (3,))
    assert run(["self-test", "--d", "3"], capsys)[0] == 3
    code, out, _ = run(["demo-family"], capsys)
    assert code == 3
    payload = json.loads(out, parse_constant=reject_constant)  # strict JSON: NaN is written as null
    assert payload["ok"] is False
    assert payload["family"][0]["max_selftest_distance"] is None

    monkeypatch.setattr(cli, "key_unitaries", lambda rep: (None, None, float("nan")))
    code, out, _ = run(["verify-rep", "--d", "3"], capsys)
    assert code == 3
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("delta", ["-0.5", "nan"])
def test_bad_delta_exits_2(delta, capsys):
    # a negative delta used to skip both the perturbation and the gate
    code, out, err = run(["self-test", "--d", "3", f"--delta={delta}", "--tolerance", "1e-30"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_eval_rejects_mismatched_correlation_file(tmp_path, capsys):
    d7r5 = tmp_path / "d7r5.json"
    d3 = tmp_path / "d3.json"
    short = tmp_path / "short.json"
    assert run(["gen-correlation", "--d", "7", "--r", "5", "--out", str(d7r5)], capsys)[0] == 0
    assert run(["gen-correlation", "--d", "3", "--out", str(d3)], capsys)[0] == 0
    payload = json.loads(d3.read_text())
    payload["entries"] = payload["entries"][1:]
    payload["n_support"] -= 1
    short.write_text(json.dumps(payload))
    cases = (
        (["--d", "7"], d7r5, "r=5"),
        (["--d", "5"], d3, "d=3"),
        (["--d", "3"], short, "support"),
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


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--deltas", "abc"], ["--deltas", ","]])
def test_sweep_rejects_empty_or_unparsable(flags, capsys):
    code, out, err = run(["sweep", "--d", "3", *flags], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "DomainError"
