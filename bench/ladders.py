"""The benchmark's three verifier ladders and the report gate.

Each ladder is a fixed list of rungs for one ``verify_*`` entry point; the
last rung is the ladder's largest window (its "top rung").  Only the
``closure`` ladder consumes the workload seed, as ``verify_aprime_structure``'s
``seed``; ``series`` and ``kernel`` are deterministic and ignore it.

The gate compares each report with the one pinned in ``pinned/<workload>.json``
(reports of this ladder at seed 0).  A check fails the gate if it raises, if
its status differs from the pinned one, or, when its report does not depend
on the seed or the seed is 0, if any field of ``to_dict()`` differs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

PINNED_DIR = Path(__file__).resolve().parent / "pinned"
DEFAULT_SEED = 0

# verifier, (family, config args, k, D, margin, extra keyword arguments)
LADDERS = {
    "series": (
        "verify_composition_series",
        [
            ("A", (2, 2, 0), 2, 8, 4, {}),
            ("A", (1, 1, 0), 2, 8, 4, {}),
            ("A", (3, 1, 1), 1, 5, 2, {}),
            ("A", (2, 1, 1), 2, 8, 4, {}),
            ("A", (2, 1, 1), 2, 10, 4, {}),
        ],
    ),
    "closure": (
        "verify_aprime_structure",
        [
            ("Aprime", (1, 2, ()), 1, 6, 3, {"num_seeds": 2}),
            ("Aprime", (1, 2, (3, 4)), 1, 10, 3, {}),
            ("Aprime", (1, 3, (1, 2, 3)), 1, 8, 3, {}),
            ("Aprime", (2, 2, (1, 3)), 1, 8, 3, {}),
            ("Aprime", (2, 2, (1, 2)), 2, 10, 3, {}),
        ],
    ),
    "kernel": (
        "verify_direct_sum",
        [
            ("A", (2, 1, 0), 4, 4, 0, {}),
            ("A", (1, 1, 0), 2, 4, 0, {}),
            ("A", (2, 1, 1), 2, 14, 4, {}),
            ("A", (3, 1, 2), 2, 10, 4, {}),
            ("A", (2, 2, 2), 2, 12, 4, {}),
            ("A", (2, 2, 1), 2, 16, 4, {}),
        ],
    ),
}
SEEDED_VERIFIERS = {"verify_aprime_structure"}


@dataclass
class Check:
    """One verifier call of a ladder, with its inputs built."""

    check_id: str
    verifier: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    seeded: bool = False


def build_checks(workload: str, seed: int, ospoly) -> list[Check]:
    """The workload's ladder as ready-to-run checks; the seed reaches only
    the seeded verifier."""
    if workload not in LADDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(LADDERS)}")
    verifier, rungs = LADDERS[workload]
    seeded = verifier in SEEDED_VERIFIERS
    checks = []
    for family, params, k, D, margin, extra in rungs:
        if family == "A":
            cfg = ospoly.config_a(*params)
        else:
            m1, n, T = params
            cfg = ospoly.config_aprime(m1, n, T)
        kwargs = dict(extra, seed=seed) if seeded else dict(extra)
        check_id = f"{family}{params}-k{k}-D{D}-m{margin}".replace(" ", "")
        checks.append(Check(check_id, verifier, (cfg, k, D, margin), kwargs, seeded))
    return checks


def load_pins(workload: str) -> list[dict]:
    with open(PINNED_DIR / f"{workload}.json") as fh:
        return json.load(fh)


MISSING = "<missing>"


def first_difference(got, want, path: str = "report"):
    """(path, got, want) at the first field where two JSON values differ,
    or None when they are equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            diff = first_difference(
                got.get(key, MISSING), want.get(key, MISSING), f"{path}.{key}"
            )
            if diff:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i in range(max(len(got), len(want))):
            diff = first_difference(
                got[i] if i < len(got) else MISSING,
                want[i] if i < len(want) else MISSING,
                f"{path}[{i}]",
            )
            if diff:
                return diff
        return None
    if got == want and type(got) is type(want):
        return None
    return path, got, want


def gate(report: dict, pinned: dict, seed: int, seeded: bool) -> str | None:
    """Why a report fails the gate, or None when it passes."""
    if report.get("status") != pinned.get("status"):
        return f"status: got {report.get('status')!r}, pinned {pinned.get('status')!r}"
    if seeded and seed != DEFAULT_SEED:
        return None
    diff = first_difference(json.loads(json.dumps(report)), pinned)
    if diff is None:
        return None
    path, got, want = diff
    return f"{path}: got {got!r}, pinned {want!r}"
