"""Benchmark of ospoly's verifier ladders, run from the root of a checkout.

    python3 bench/run.py --workload {series,closure,kernel} --seed N \
        --seconds S --trace {0,1}

Every pass runs the workload's ladder once in a fresh interpreter
(worker.py), so no pass can reuse what an earlier one computed.  Passes
repeat until --seconds is used up (at least MIN_PASSES); the run also starts
SETUP_REPEATS processes that only set up.  Reported values are medians over
the passes (setup_s: over every process).

--trace 0 reports the end-to-end metrics: wall_s, top_rung_s, setup_s,
peak_rss_mb.  --trace 1 alternates an untraced and a traced pass and reports
the per-layer metrics of tracer.py plus trace_overhead (traced over untraced
wall_s); the traced pass also writes its spans to out/spans-<workload>.tsv.

Every check's report is gated against pinned/<workload>.json (see
ladders.py); "attempted" and "failed" count checks over all passes.  The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, when a process fails or the checkout
has no src/ospoly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ladders import LADDERS
from tracer import metric_names, metric_unit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 9
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a run never starts a process it could not finish by then

END_TO_END = {"wall_s": "s", "top_rung_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one workload and seed, one at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def launch(self, mode: str) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if mode == "trace":
            OUT_DIR.mkdir(exist_ok=True)
            cmd += ["--spans-out", str(OUT_DIR / f"spans-{self.workload}.tsv")]
        t_launch = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t-launch", repr(t_launch)], cwd=ROOT,
                stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - t_launch),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process ran past the run's time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} process printed no result")
        return json.loads(lines[-1])

    def repeat(self, modes: tuple[str, ...], seconds: float, min_rounds: int) -> list[list[dict]]:
        """Rounds of one process per mode, until the next round would end
        after `seconds` (at least min_rounds, none past the deadline)."""
        start = time.monotonic()
        rounds = []
        while True:
            t0 = time.monotonic()
            rounds.append([self.launch(mode) for mode in modes])
            now = time.monotonic()
            last = now - t0
            if now + last > self.deadline:
                break
            if len(rounds) >= min_rounds and now - start + last > seconds:
                break
        return rounds


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics: medians over passes (setup_s: over every process)."""
    setups = [runner.launch("setup") for _ in range(SETUP_REPEATS)]
    passes = [r[0] for r in runner.repeat(("pass",), seconds, MIN_PASSES)]
    metrics = {
        name: statistics.median(p[name] for p in passes)
        for name in ("wall_s", "top_rung_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(p["setup_s"] for p in setups + passes)
    return metrics, passes


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """Per-layer metrics: medians over traced passes, each paired with an
    untraced pass for trace_overhead."""
    rounds = runner.repeat(("pass", "trace"), seconds, 1)
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace_overhead"] = (
        statistics.median(t["wall_s"] for t in traced)
        / statistics.median(p["wall_s"] for p in plain)
    )
    return metrics, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of ospoly's verifier ladders.")
    parser.add_argument("--workload", required=True, choices=sorted(LADDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ospoly" / "__init__.py").is_file():
        print(f"no src/ospoly under {ROOT}: run from the root of an ospoly checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, passes = measure_layers(runner, args.seconds)
            units = {name: metric_unit(name) for name in metric_names()}
        else:
            metrics, passes = measure(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    per_pass = len(LADDERS[args.workload][1])
    traced = ", half of them traced" if args.trace else ""
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes{traced}")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  checks_failed = {failed} of {attempted} ({per_pass} checks per pass)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
