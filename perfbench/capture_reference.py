"""Capture the reference outcome of each workload into reference/<workload>.json.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

The references in the repository were captured from the program as it was
when the benchmark was defined.  Re-capturing moves the correctness gate,
so do it only for a change that is meant to move the outcome, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gate
from worker import ROOT, import_program
from workloads import WORKLOADS


def main(names) -> int:
    program = import_program()
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        engine = program.load_problem(wl.problem_path(ROOT), p_override=wl.p,
                                      prec_override=wl.prec)
        report = engine.solve() if wl.mode == "solve" else engine.verify()
        ref = gate.outcome(wl.mode, report)
        out = Path(__file__).resolve().parent / "reference" / f"{name}.json"
        out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"{name}: certified_prec {ref['certified_prec']} -> {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
