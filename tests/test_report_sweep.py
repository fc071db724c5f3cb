"""Every verifier's report on a fixed grid of windows, pinned by digest.

The grid, all at margin 2:
  direct sums and composition series: both parities, m1 0..3, n 0..2, every
    r, k -1..5, D 4/6/8 (D 8 skipped when m1 = 3);
  A': both parities, m1 <= 2, n <= 2, T in {{}, {1..n}, {n+1..2n}, {1, 2n}}
    (deduplicated), k -1..4, D 4/6.
Each case is recorded as its report's ``to_dict()`` JSON (sorted keys) or
as the text of the ValueError it raises.  golden/report_sweep_sha256.json
holds one SHA-256 per (verifier, ``cfg.describe()``) group, so a failure
names the groups whose reports changed.

Run as a script from a checkout's root to print one JSON line per case,
so that two checkouts compare with one ``diff``:

    PYTHONPATH=src python tests/test_report_sweep.py > sweep.jsonl

``--freeze`` rewrites the digest file from this checkout instead.
"""

import hashlib
import json
import sys
from functools import cache
from pathlib import Path

import pytest

from ospoly import slices
from ospoly.linalg import span
from ospoly.osp import RepConfig, config_a, config_aprime, delta_eta
from ospoly.slices import (
    MonomialIndex,
    SliceKey,
    eta_span_of_slice,
    verify_aprime_structure,
    verify_composition_series,
    verify_direct_sum,
)
from oracles import naive_apply, parse_poly

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "report_sweep_sha256.json"
KERNEL_PINS = Path(__file__).resolve().parents[1] / "bench" / "pinned" / "kernel.json"
MARGIN = 2


def _a_windows():
    for parity in ("even", "odd"):
        for m1 in range(4):
            for n in range(3):
                for r in range(m1 + 1):
                    for k in range(-1, 6):
                        for D in (4, 6) if m1 == 3 else (4, 6, 8):
                            yield config_a(m1, n, r, parity), k, D


def _swap_sets(n):
    sets = [(), tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1))]
    if n:
        sets.append((1, 2 * n))
    return sorted(set(map(frozenset, sets)), key=sorted)


def _aprime_windows():
    for parity in ("even", "odd"):
        for m1 in range(3):
            for n in range(3):
                for T in _swap_sets(n):
                    for k in range(-1, 5):
                        for D in (4, 6):
                            yield config_aprime(m1, n, T, parity), k, D


def grid():
    """(verifier, cfg, k, D) per case, in a fixed order."""
    for verify in (verify_direct_sum, verify_composition_series):
        for cfg, k, D in _a_windows():
            yield verify, cfg, k, D
    for cfg, k, D in _aprime_windows():
        yield verify_aprime_structure, cfg, k, D


@cache
def sweep():
    """One (verifier name, cfg.describe(), k, D, outcome) per case, the
    outcome the report's sorted-key JSON or ``ValueError: <text>``."""
    out = []
    for verify, cfg, k, D in grid():
        try:
            outcome = json.dumps(verify(cfg, k, D, MARGIN).to_dict(), sort_keys=True)
        except ValueError as exc:
            outcome = f"ValueError: {exc}"
        out.append((verify.__name__, cfg.describe(), k, D, outcome))
    return tuple(out)


def digests(cases) -> dict[str, str]:
    groups = {}
    for name, described, k, D, outcome in cases:
        line = json.dumps([k, D, outcome]) + "\n"
        groups.setdefault(f"{name} {described}", hashlib.sha256()).update(line.encode())
    return {group: h.hexdigest() for group, h in groups.items()}


def test_every_report_matches_its_pinned_digest():
    want = json.loads(DIGESTS.read_text())
    got = digests(sweep())
    differ = sorted(g for g in want.keys() | got.keys() if want.get(g) != got.get(g))
    assert not differ, f"{len(differ)} groups differ: {differ}"


def _failing_direct_sums(source):
    """The reports of the failing direct sums of one source: the sweep, the
    direct_sum_* goldens or the kernel ladder's pins."""
    if source == "sweep":
        reports = [
            json.loads(o) for v, _, _, _, o in sweep()
            if v == "verify_direct_sum" and not o.startswith("ValueError")
        ]
    elif source == "goldens":
        reports = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("direct_sum_*.json"))]
    else:
        reports = json.loads(KERNEL_PINS.read_text())
    return [rep for rep in reports if rep["claim_id"] == "direct-sum" and rep["status"] == "fail"]


@pytest.mark.parametrize("source", ["sweep", "goldens", "kernel-pins"])
def test_every_failing_direct_sum_has_certified_witnesses(source):
    """Each witness of a failing direct sum, read back from its text, is a
    nonzero polynomial of degree <= D that the naive lowering action kills
    and that lies in the span of the raised rows: a vector of the meet."""
    reports = _failing_direct_sums(source)
    assert reports
    for rep in reports:
        cfg, k, D = RepConfig(**rep["cfg"]), rep["k"], rep["D"]
        case = f"{cfg.describe()} k{k} D{D}"
        assert rep["witnesses"], case
        idx = MonomialIndex(SliceKey(cfg, k, D))
        raised = span(eta_span_of_slice(idx))
        lower, _ = delta_eta(cfg)
        for text in rep["witnesses"]:
            w = parse_poly(text, cfg.signature)
            assert not w.is_zero() and w.max_degree() <= D, (case, text)
            assert naive_apply(lower, w).is_zero(), (case, text)
            assert raised.contains(idx.vec(w)), (case, text)


def test_series_stability_is_tried_only_where_a_leak_can_occur(monkeypatch):
    """The two arguments behind the series' stability check, on every term
    the verifier builds over the sweep's series grid: under every root
    element, no eta term leaks, and each <x_m1^k> term leaks first where it
    does under the roots its closure reported as escaped alone."""
    real_eta, real_closure = slices.eta_image, slices.generate_submodule
    stable = slices._stable_under_action
    seen = {"eta": 0, "x": 0, "restricted": 0, "leaks": 0}

    def eta_term(idx, power):
        rows = real_eta(idx, power)
        assert stable(rows, span(rows), idx, idx.roots) is None, idx.key
        seen["eta"] += 1
        return rows

    def x_term(idx, gens, on_row=None, escaped=None):
        rows = real_closure(idx, gens, on_row, escaped)
        if escaped is not None:
            ech, tried = span(rows), [idx.roots[j] for j in sorted(escaped)]
            leak = stable(rows, ech, idx, idx.roots)
            assert stable(rows, ech, idx, tried) == leak, idx.key
            seen["x"] += 1
            seen["restricted"] += len(tried) < len(idx.roots)
            seen["leaks"] += leak is not None
        return rows

    monkeypatch.setattr(slices, "eta_image", eta_term)
    monkeypatch.setattr(slices, "generate_submodule", x_term)
    for cfg, k, D in _a_windows():
        try:
            verify_composition_series(cfg, k, D, MARGIN)
        except ValueError:
            pass
    # no closure skipped images under every root, and no term leaks
    assert seen == {"eta": 102, "x": 54, "restricted": 54, "leaks": 0}


if __name__ == "__main__":
    if sys.argv[1:] == ["--freeze"]:
        DIGESTS.write_text(json.dumps(digests(sweep()), indent=1, sort_keys=True) + "\n")
    else:
        for name, described, k, D, outcome in sweep():
            print(json.dumps({"verifier": name, "cfg": described, "k": k, "D": D,
                              "outcome": outcome}))
