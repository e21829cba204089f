"""Each demo script runs clean and prints something, and the README's quick
start runs as written and prints what its comments say."""

import os
import pathlib
import subprocess
import sys

import pytest

from conftest import TARGET
from metastable import autoprog

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # the child imports this checkout's package, whatever PYTHONPATH said
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_demos_exist():
    assert len(DEMOS) == 5


def test_readme_quick_start_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    verify_line = 'print(autoprog.verify(doc, "c").equal)         # True\n'
    assert verify_line in code
    with_c = autoprog.toolchain_available("c")
    if not with_c:  # generating C needs no compiler; only verifying it does
        code = code.replace(verify_line, "")
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [TARGET, "110 19", "True"]
    if with_c:
        assert lines[-1] == "True"
