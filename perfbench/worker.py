"""Benchmark worker: runs the samples of one workload in one process.

Started by run.py, one process at a time, never with threads:

    python3 perfbench/worker.py probe  --workload NAME
    python3 perfbench/worker.py timed  --workload NAME --seconds S --seed N
    python3 perfbench/worker.py traced --workload NAME --seconds S --seed N

Every sample builds a fresh engine with ``load_problem``: all caches live on
the Engine and its Integrator, so a sample pays for Frobenius exactly as one
CLI run does.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import gate
import hostspeed
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
MIN_TIMED_SAMPLES = 2


def import_program():
    """Import affine_chabauty from this checkout's src/, never another copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import affine_chabauty
    where = Path(affine_chabauty.__file__).resolve().parent
    if where != (src / "affine_chabauty").resolve():
        raise SystemExit(f"affine_chabauty imported from {where}, not from {src}")
    return affine_chabauty


def run_sample(program, wl, reference: dict, calibrate: bool = False) -> dict:
    """One solve or verify on a fresh engine; only the call itself is timed.

    With ``calibrate`` the host's speed is measured alongside (hostspeed.py)
    and the sample also gets ``cal_s``; traced samples are not calibrated,
    so that the kernel's time does not land in their spans.
    """
    gc.collect()
    clock = hostspeed.Calibrated() if calibrate else hostspeed.Stopwatch()
    try:
        engine = program.load_problem(wl.problem_path(ROOT), p_override=wl.p,
                                      prec_override=wl.prec)
        call = engine.solve if wl.mode == "solve" else engine.verify
        with clock:
            report = call()
    except Exception as e:  # a failing sample is counted; the run goes on
        traceback.print_exc(file=sys.stderr)
        return {"wall_s": 0.0, "cal_s": None, "outcome": None,
                "problems": [f"raised {type(e).__name__}: {e}"]}
    got = gate.outcome(wl.mode, report)
    return {"wall_s": clock.raw_s, "cal_s": clock.calibrated_s, "outcome": got,
            "problems": gate.check(reference, got)}


def timed(program, wl, reference, seconds: float) -> dict:
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_TIMED_SAMPLES or time.perf_counter() - start < seconds:
        samples.append(run_sample(program, wl, reference, calibrate=True))
    return {"samples": samples,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def traced(program, wl, reference, seconds: float, seed: int) -> dict:
    """Untraced and traced samples in pairs, then one op-counting sample.

    The seed picks which side of the first pair runs first; the order then
    alternates, so that drift during the run falls on both sides.
    """
    plain, layered, all_spans = [], [], []
    traced_first = random.Random(seed).random() < 0.5
    start = time.perf_counter()
    while not layered or time.perf_counter() - start < seconds:
        for with_trace in (traced_first, not traced_first):
            if not with_trace:
                plain.append(run_sample(program, wl, reference))
                continue
            tracer = spans.Tracer()
            patches = spans.install_layers(tracer)
            try:
                s = run_sample(program, wl, reference)
            finally:
                patches.undo()
            s["layers"] = spans.layer_metrics(tracer.spans)
            layered.append(s)
            all_spans.append([[x.name, x.start, x.end, x.parent] for x in tracer.spans])
        traced_first = not traced_first
    counts: dict = {}
    patches = spans.count_ops(counts)
    try:
        counted = run_sample(program, wl, reference)
    finally:
        patches.undo()
    counted["ops"] = counts

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{wl.name}-seed{seed}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"], "samples": all_spans}))

    first = layered[0]["layers"]
    layers = {k: (median(s["layers"][k] for s in layered) if k.endswith("_s") else v)
              for k, v in first.items()}
    layers["trace.overhead_s"] = (median(s["wall_s"] for s in layered)
                                  - median(s["wall_s"] for s in plain))
    layers.update(counts)
    return {"samples": plain + layered + [counted], "layers": layers,
            "walls": {"untraced": [s["wall_s"] for s in plain],
                      "traced": [s["wall_s"] for s in layered],
                      "counting": counted["wall_s"]}}


def probe(wl) -> dict:
    """Set-up time in this fresh interpreter: import until load_problem returns."""
    with hostspeed.Calibrated() as clock:
        program = import_program()
        program.load_problem(wl.problem_path(ROOT), p_override=wl.p, prec_override=wl.prec)
    return {"setup_s": clock.raw_s, "cal_s": clock.calibrated_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "timed", "traced"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "probe":
        result = probe(wl)
    else:
        reference = json.loads(
            (Path(__file__).resolve().parent / "reference" / f"{wl.name}.json").read_text())
        program = import_program()
        if args.mode == "timed":
            result = timed(program, wl, reference, args.seconds)
        else:
            result = traced(program, wl, reference, args.seconds, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
