"""conftest.py stops a session whose PYTHONPATH names another ospoly, and
lets one through whose PYTHONPATH names this checkout's src."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _collect(pythonpath):
    env = {**os.environ, "PYTHONPATH": pythonpath}
    cmd = [sys.executable, "-m", "pytest", "-q", "--co", "-p", "no:cacheprovider",
           "tests/test_stdlib_only.py"]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def test_another_ospoly_on_pythonpath_stops_the_session(tmp_path):
    (tmp_path / "ospoly").mkdir()
    (tmp_path / "ospoly" / "__init__.py").write_text("")
    run = _collect(f"src{os.pathsep}{tmp_path}")
    assert run.returncode == 4
    assert f"PYTHONPATH entry {tmp_path} holds an ospoly package" in run.stdout + run.stderr


def test_this_checkouts_src_on_pythonpath_runs():
    assert _collect(f"src{os.pathsep}{ROOT / 'src'}").returncode == 0
