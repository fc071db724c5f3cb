"""Write the pinned reports the benchmark's gate compares against.

    python3 bench/pin.py [workload ...]

Runs each ladder once at seed 0 and stores every check's
VerificationReport.to_dict() in pinned/<workload>.json.  Re-pin only for a
change that is meant to alter reports, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys

from ladders import DEFAULT_SEED, LADDERS, PINNED_DIR, build_checks
from worker import import_ospoly


def pin(workload: str, ospoly) -> None:
    from ospoly import slices

    reports = [
        getattr(slices, c.verifier)(*c.args, **c.kwargs).to_dict()
        for c in build_checks(workload, DEFAULT_SEED, ospoly)
    ]
    PINNED_DIR.mkdir(exist_ok=True)
    with open(PINNED_DIR / f"{workload}.json", "w") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(workload, [r["status"] for r in reports])


if __name__ == "__main__":
    ospoly = import_ospoly()
    for workload in sys.argv[1:] or sorted(LADDERS):
        pin(workload, ospoly)
