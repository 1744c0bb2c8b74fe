"""The README's code runs as written against the current API."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    after = readme.split("A quick library-level example", 1)[1]
    code = re.search(r"```python\n(.*?)```", after, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example opens a bundled netlist by relative path
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    times, n = scope["solution"].trajectory.times, scope["circuit"].n
    assert scope["mean"].shape == scope["std"].shape == (times.size, n)
