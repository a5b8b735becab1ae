"""The README's in-process pipeline runs as written."""

import ast
import contextlib
import io
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_pipeline_runs():
    text = README.read_text(encoding="utf-8")
    after = text.split("A typical in-process pipeline", 1)[1]
    code = after.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    report = ast.literal_eval(out.getvalue())
    assert set(report) == {"d", "r", "kind", "delta", "seed", "epsilon", "distances", "junk_norm", "residuals"}
    assert max(report["distances"].values()) <= 1e-8
    assert abs(report["junk_norm"] - 1) <= 1e-8
    assert report["epsilon"] == 0.0
