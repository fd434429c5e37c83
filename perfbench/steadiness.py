"""Steadiness report: run the benchmark in rounds and compare them.

    python3 perfbench/steadiness.py [--runs 10] [--rounds 2] [--trace 0|1]
                                    [--workloads a,b]

Each round runs every workload --runs times, each run with its own seed,
interleaving the workloads so that drift on the machine falls on all of
them.  For every metric and workload it prints each round's median, the
spread (distance between the first and third quartile of the round's
values, as a share of its median) and the shift of the last round's median
from the first's, signed so that positive is worse.  With --trace 0 it
checks each spread against a third of the metric's bound in BENCHMARK.json
and each shift against the bound; with --trace 1 it checks that every
count repeats exactly.  With --runs 1 --rounds 1 it is one pass over all
workloads that prints every metric by name and unit.  Raw values go to
.perfbench/steadiness-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from run import QUALITY, RAW

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".models", ".computed")


def spread(values: list) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else None


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=200, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" /
                         f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values.update(record.get("raw", {}))
    values.update(record.get("quality", {}))
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",")
    decl = {m["name"]: m for m in bench["end_to_end" if not args.trace else "per_layer"]}

    runs = {w: [[] for _ in range(args.rounds)] for w in workloads}
    for r in range(args.rounds):
        for i in range(args.runs):
            for w in workloads:
                got = run_once(w, 1000 * (r + 1) + i, seconds, args.trace)
                runs[w][r].append(got)
                print(f"round {r + 1} run {i + 1} {w}: correct {got['correct']} "
                      f"attempted {got['attempted']} failed {got['failed']}", file=sys.stderr)
    out = ROOT / ".perfbench" / f"steadiness-trace{args.trace}.json"
    out.write_text(json.dumps(runs, indent=1))

    ok = all(g["correct"] for w in workloads for rnd in runs[w] for g in rnd)
    for w in workloads:
        print(f"\n{w}  ({args.rounds} round(s) of {args.runs} run(s), {seconds} s each)")
        names = list(runs[w][0][0]["values"])
        for name in names:
            rounds = [[g["values"][name] for g in rnd] for rnd in runs[w]]
            ok &= report_metric(name, rounds, decl.get(name), args.trace)
    print("\nall checks pass" if ok else "\nSOME CHECKS FAIL")
    return 0 if ok else 1


def report_metric(name: str, rounds: list, decl: dict | None, trace: int) -> bool:
    unit = decl["unit"] if decl else {**QUALITY, **RAW}[name]
    if any(v is None for rnd in rounds for v in rnd):
        print(f"  {name:46s} {'-':>12s} {unit}")
        return True
    medians = [median(rnd) for rnd in rounds]
    spreads = [spread(rnd) for rnd in rounds]
    cols = "  ".join(f"{m:>12.6g} ±{s * 100 if s is not None else 0:5.1f}%"
                     for m, s in zip(medians, spreads))
    if name in RAW:
        print(f"  {name:46s} {cols} {unit:7s} (not gated)")
        return True
    if not decl or trace and name.endswith(COUNT_SUFFIXES):
        # quality counters and traced counts must repeat exactly
        exact = len({v for rnd in rounds for v in rnd}) == 1
        print(f"  {name:46s} {cols} {unit:7s} {'exact' if exact else 'VARIES'}")
        return exact
    if "bound" not in decl:
        print(f"  {name:46s} {cols} {unit}")
        return True
    bound = decl["bound"]
    sign = 1 if decl["better"] == "lower" else -1
    shift = (sign * (medians[-1] - medians[0]) / medians[0]) if medians[0] else 0.0
    steady = name == "setup_s" or all(s is None or s <= bound / 3 for s in spreads)
    within = shift <= bound
    verdict = ("ok" if steady and within else
               ("SPREAD > bound/3" if not steady else "") +
               ("" if within else " SHIFT > bound"))
    print(f"  {name:46s} {cols} {unit:7s} shift {shift * 100:+5.1f}% "
          f"bound {bound * 100:.0f}% {verdict}")
    return steady and within


if __name__ == "__main__":
    raise SystemExit(main())
