"""The benchmark's pinned reports, replayed as a tier-1 test.

bench/pinned/<workload>.json holds every report of a ladder at seed 0.  The
first four closure rungs, every series rung and every kernel rung run in
well under a second each; each must reproduce its pinned report field for
field.  bench/ladders.py and the pins are read from their files and nothing
is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ospoly
from ospoly import slices

LADDERS = Path(__file__).resolve().parents[1] / "bench" / "ladders.py"


def _load_ladders():
    spec = importlib.util.spec_from_file_location("bench_ladders", LADDERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ladders = _load_ladders()


def replay(workload, rung):
    check = ladders.build_checks(workload, ladders.DEFAULT_SEED, ospoly)[rung]
    pinned = ladders.load_pins(workload)[rung]
    report = getattr(slices, check.verifier)(*check.args, **check.kwargs)
    assert json.loads(json.dumps(report.to_dict())) == pinned


@pytest.mark.parametrize("rung", range(4))
def test_closure_rung_matches_its_pin(rung):
    replay("closure", rung)


@pytest.mark.parametrize(
    "workload, rung",
    [(w, rung) for w in ("series", "kernel") for rung in range(len(ladders.LADDERS[w][1]))],
)
def test_series_and_kernel_rungs_match_their_pins(workload, rung):
    replay(workload, rung)
