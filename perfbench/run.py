"""Solve/verify benchmark of affine_chabauty.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 it times solve/verify samples on fresh engines and measures
set-up time in fresh interpreters, both calibrated to a reference host
speed (hostspeed.py); with --trace 1 it runs the traced pass
and the op-counting pass and reports the per-layer metrics.  Every sample
is checked against the workload's reference outcome.  A table goes to
standard error, a record of the run to .perfbench/, and the last line of
standard output is the result as one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 15
TIMEOUT_S = 170

# name -> (unit, better); BENCHMARK.json's end_to_end lists the same metrics.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "certified_prec": ("digits", "higher"),
}
# Printed and recorded, but not in BENCHMARK.json: each is 0 or undefined
# on some workload, and a bound is a share of the parent's median.
QUALITY = {
    "extra_candidates": "count",
    "unresolved_discs": "count",
    "error_rate": "ratio",
}
# wall_s and setup_s are calibrated to a reference host speed (hostspeed.py).
# The raw medians are printed and recorded too, but not gated: they swing
# with the shared host's speed by more than any bound the benchmark may set.
RAW = {
    "raw_wall_s": "s",
    "raw_setup_s": "s",
}


def worker(*args: str, deadline: float) -> dict:
    """Run worker.py to completion (killed at ``deadline``, a monotonic time)."""
    # PYTHONHASHSEED fixes set iteration order, so that counts repeat exactly.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=deadline - time.monotonic(),
                          check=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_run(wl, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    def probe():
        return worker("probe", "--workload", wl.name, deadline=deadline)

    # The seed places the workload's worker among the set-up probes.
    before = random.Random(seed).randint(0, SETUP_PROBES)
    setups = [probe() for _ in range(before)]
    res = worker("timed", "--workload", wl.name, "--seconds", str(seconds),
                 "--seed", str(seed), deadline=deadline)
    setups += [probe() for _ in range(SETUP_PROBES - before)]
    samples = res["samples"]
    ran = [s for s in samples if s["cal_s"] is not None] or [{"wall_s": 0.0, "cal_s": 0.0}]
    outcomes = [s["outcome"] for s in samples if s["outcome"]]
    precs = [o["certified_prec"] or 0 for o in outcomes]
    metrics = {
        "wall_s": median(s["cal_s"] for s in ran),
        "setup_s": median(p["cal_s"] for p in setups),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "certified_prec": min(precs) if len(precs) == len(samples) else 0,
    }
    solved = wl.mode == "solve" and outcomes
    quality = {
        "extra_candidates": max(o["extra_candidates"] for o in outcomes) if solved else None,
        "unresolved_discs": max(o["unresolved_discs"] for o in outcomes) if solved else None,
        "error_rate": _failed(samples) / len(samples),
    }
    raw = {"raw_wall_s": median(s["wall_s"] for s in ran),
           "raw_setup_s": median(p["setup_s"] for p in setups)}
    record = {"wall_s_samples": [s["cal_s"] for s in samples],
              "raw_wall_s_samples": [s["wall_s"] for s in samples],
              "setup_s_samples": [p["cal_s"] for p in setups],
              "raw_setup_s_samples": [p["setup_s"] for p in setups],
              "quality": quality, "raw": raw}
    return _result(samples, {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}), record


def traced_run(wl, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    res = worker("traced", "--workload", wl.name, "--seconds", str(seconds),
                 "--seed", str(seed), deadline=deadline)
    units = {d["name"]: d["unit"] for d in spans.per_layer_declarations()}
    layers = res["layers"]
    record = {"wall_s_samples": res["walls"]}
    return _result(res["samples"], {k: (layers[k], u) for k, u in units.items()}), record


def _failed(samples: list) -> int:
    return sum(1 for s in samples if s["problems"])


def _result(samples: list, metrics: dict) -> dict:
    failed = _failed(samples)
    for s in samples:
        for problem in s["problems"]:
            print(f"FAILED sample: {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not wl.problem_path(ROOT).is_file():
        print(f"no program here: {wl.problem_path(ROOT)} is missing", file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    try:
        result, record = run(wl, args.seed, args.seconds, time.monotonic() + TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"worker failed: {e}", file=sys.stderr)
        return 1

    print(f"{wl.name} seed {args.seed} trace {args.trace}: attempted "
          f"{result['attempted']}, failed {result['failed']}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"  {k:48s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for k, v in record.get("raw", {}).items():
        print(f"  {k:48s} {v:>14.6g} {RAW[k]}", file=sys.stderr)
    for k, v in record.get("quality", {}).items():
        shown = "-" if v is None else f"{v:.6g}"
        print(f"  {k:48s} {shown:>14s} {QUALITY[k]}", file=sys.stderr)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, **record, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
