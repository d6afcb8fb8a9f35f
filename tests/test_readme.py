"""The README's Python example runs as written."""

import re
from pathlib import Path

import sparsid.recursion as rec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    assert rec.snapshot(names["state"]).mean_blocks().shape == (3, 10)
    assert capsys.readouterr().out  # it prints the posterior means
