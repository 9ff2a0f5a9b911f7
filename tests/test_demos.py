"""Smoke test: the narrated demos still run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted(
    p.name for p in (ROOT / "demos").glob("[0-9][0-9]_*.py")))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    """The ```python block under README.md's Quick start runs and finds the
    multi-view track from the single view."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    scope = {}
    exec(compile(code, "README.md (Quick start)", "exec"), scope)
    assert scope["track"] == 7
