"""Stop a session whose PYTHONPATH names another checkout's ospoly.

pyproject.toml sets pytest's ``pythonpath = ["src"]``, which goes ahead of
PYTHONPATH, so ``PYTHONPATH=<other checkout>/src pytest`` would silently test
this checkout's code instead.
"""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        path = Path(entry).resolve()
        if (path / "ospoly").is_dir() and path != SRC:
            pytest.exit(
                f"PYTHONPATH entry {entry} holds an ospoly package, but pytest imports "
                f"{SRC / 'ospoly'} ahead of it (pyproject.toml: pythonpath = ['src']); "
                "run pytest from the root of that checkout instead",
                returncode=4,
            )
