"""The benchmark's pinned reports, replayed as a tier-1 test.

bench/pinned/<workload>.json holds every report of a ladder at seed 0.  Every
rung of the three ladders runs in well under a second; each must reproduce
its pinned report field for field.  bench/ladders.py and the pins are read
from their files and nothing is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ospoly
from ospoly import linalg, slices

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


@pytest.mark.parametrize("rung", range(len(ladders.LADDERS["closure"][1])))
def test_closure_rung_matches_its_pin(rung):
    replay("closure", rung)


def test_closure_top_rung_work_is_pinned(monkeypatch):
    """The closure ladder's top rung, A'(2,2,{1,2}) k2 D10 m3, runs two
    windowed closures: the kernel builds 13,574 images (one act_on_terms
    call each) and 702 rows are accepted, generators included.  A faster
    closure must build the same images, each for less."""
    calls = {"images": 0, "accepted": 0}
    real_act, real_insert = slices.act_on_terms, linalg.Echelon.insert

    def counting_act(*args):
        calls["images"] += 1
        return real_act(*args)

    def counting_insert(self, vec):
        row = real_insert(self, vec)
        calls["accepted"] += row is not None
        return row

    monkeypatch.setattr(slices, "act_on_terms", counting_act)
    monkeypatch.setattr(linalg.Echelon, "insert", counting_insert)
    replay("closure", len(ladders.LADDERS["closure"][1]) - 1)
    assert calls == {"images": 13574, "accepted": 702}


def test_kernel_top_rung_work_is_pinned(monkeypatch):
    """The kernel ladder's top rung, A(2,2,1) k2 D16 m4, builds 2,848 images
    (one act_on_terms call each): the lowering image of each of the 944
    slice monomials of degree <= D - margin = 12, the raising image of each
    of the 952 monomials of the source slice (k0, <= 14), and the lowering
    image of each of the 952 raised rows.  A faster direct sum must build
    the same images, each for less."""
    calls = 0
    real_act = slices.act_on_terms

    def counting_act(*args):
        nonlocal calls
        calls += 1
        return real_act(*args)

    monkeypatch.setattr(slices, "act_on_terms", counting_act)
    replay("kernel", len(ladders.LADDERS["kernel"][1]) - 1)
    assert calls == 2848


def test_series_ladder_work_is_pinned(monkeypatch):
    """One pass over the series ladder makes 2,056 Echelon.insert calls:
    each term's window rows come from one forward elimination
    (``linalg.rank_profile``), and the eta term's rows, a basis as built,
    are eliminated there only."""
    calls = 0
    real_insert = linalg.Echelon.insert

    def counting_insert(self, vec):
        nonlocal calls
        calls += 1
        return real_insert(self, vec)

    monkeypatch.setattr(linalg.Echelon, "insert", counting_insert)
    for rung in range(len(ladders.LADDERS["series"][1])):
        replay("series", rung)
    assert calls == 2056


@pytest.mark.parametrize(
    "workload, rung",
    [(w, rung) for w in ("series", "kernel") for rung in range(len(ladders.LADDERS[w][1]))],
)
def test_series_and_kernel_rungs_match_their_pins(workload, rung):
    replay(workload, rung)
