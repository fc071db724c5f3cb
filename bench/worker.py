"""One benchmark process: set up a workload's ladder and run it once.

Started by run.py in a fresh interpreter for every pass, so nothing one pass
computes can be reused by the next, and set-up time and peak memory belong
to this process alone.  Prints one JSON object as its last stdout line:

    setup_s      launch (--t-launch, a time.monotonic() reading taken by the
                 parent just before starting this process) to the end of
                 set-up: interpreter start, import of ospoly from the
                 checkout's src/, building the ladder's inputs
    wall_s       the whole ladder, summed over its checks
    top_rung_s   the ladder's last (largest) check
    peak_rss_mb  peak resident memory of this process
    attempted / failed   checks run and checks failing the gate
    layers       per-layer metrics (only with --mode trace)

With --mode setup the process stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def import_ospoly():
    """Import ospoly from the checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC_DIR))
    import ospoly

    if Path(ospoly.__file__).resolve().parent != SRC_DIR / "ospoly":
        raise ImportError(f"ospoly imported from {ospoly.__file__}, not {SRC_DIR}")
    return ospoly


def run_ladder(checks, pins, seed, slices, tracer=None) -> dict:
    """Run each check once, timing it and gating its report."""
    from ladders import gate

    times, failed = [], 0
    for i, check in enumerate(checks):
        if tracer is not None:
            tracer.check_id = i
        verifier = getattr(slices, check.verifier)
        t0 = time.perf_counter()
        try:
            report = verifier(*check.args, **check.kwargs)
        except Exception:
            times.append(time.perf_counter() - t0)
            failed += 1
            print(f"check {check.check_id} raised:", file=sys.stderr)
            traceback.print_exc()
            continue
        times.append(time.perf_counter() - t0)
        why = gate(report.to_dict(), pins[i], seed, check.seeded)
        if why:
            failed += 1
            print(f"check {check.check_id} differs from its pinned report: {why}",
                  file=sys.stderr)
    return {
        "wall_s": sum(times),
        "top_rung_s": times[-1],
        "attempted": len(checks),
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--t-launch", type=float, required=True)
    parser.add_argument("--spans-out", help="file for the spans of a traced pass")
    args = parser.parse_args(argv)

    ospoly = import_ospoly()
    from ospoly import slices
    from ladders import build_checks, load_pins

    checks = build_checks(args.workload, args.seed, ospoly)
    pins = load_pins(args.workload)
    if len(pins) != len(checks):
        raise ValueError(f"{len(pins)} pinned reports for {len(checks)} checks")
    out = {"setup_s": time.monotonic() - args.t_launch}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
    try:
        out.update(run_ladder(checks, pins, args.seed, slices, tracer))
    finally:
        if tracer is not None:
            tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.start)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
