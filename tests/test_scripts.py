"""Smoke runs of the scripts under scripts/, each in its own interpreter
with src on the path, as a user runs them from a checkout."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def test_run_all_types_writes_passing_reports(tmp_path):
    proc = _run_script("run_all_types.py", "--out-dir", "tmp", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    paths = sorted((tmp_path / "tmp").iterdir())
    assert [p.name for p in paths] == sorted(
        f"report_{label}_42.json" for label in ("A1", "A2", "A1xA1", "B2", "C2", "A3"))
    for path in paths:
        data = json.loads(path.read_text())
        assert data["schema"] == "report_v4", path.name
        assert all(c["status"] != "fail" for c in data["checks"]), path.name

