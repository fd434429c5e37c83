"""Command line interface: solve and verify problem files.

Exit codes: 0 complete, 2 partial (unresolved discs or failing types),
1 error with a machine-readable record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ChabautyError
from .problem import load_problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="affine-chabauty",
        description="S-integral points on affine curves via p-adic integrals "
                    "of logarithmic differentials")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="compute the p-adic locus per reduction type")
    ps.add_argument("problem", type=Path)
    ps.add_argument("--p", type=int, default=None, help="override the auxiliary prime")
    ps.add_argument("--prec", type=int, default=None, help="override working precision")
    ps.add_argument("--sigma", type=int, default=None,
                    help="solve only the reduction type with this index "
                         "(0-based, in enumeration order)")
    ps.add_argument("--out", type=Path, default=None, help="report path (JSON)")

    pv = sub.add_parser("verify", help="vanishing checks on the known points")
    pv.add_argument("problem", type=Path)
    pv.add_argument("--p", type=int, default=None)
    pv.add_argument("--prec", type=int, default=None)
    pv.add_argument("--out", type=Path, default=None)

    args = parser.parse_args(argv)
    try:
        engine = load_problem(args.problem, p_override=args.p, prec_override=args.prec)
    except (ChabautyError, OSError, ValueError) as e:
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 1

    try:
        if args.command == "solve":
            report = engine.solve(sigma=args.sigma)
            _emit(report, args)
            _print_solve_summary(report)
            return 0 if report["status"] == "complete" else 2
        report = engine.verify()
        _emit(report, args)
        _print_verify_summary(report)
        return 0 if report["pass"] else 2
    except (ChabautyError, OSError) as e:  # OSError: the report could not be written
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


def _emit(report: dict, args) -> None:
    out = args.out
    if out is None:  # <problem>.report.json in the current directory
        out = Path(args.problem.with_suffix(".report.json").name)
    out.write_text(json.dumps(report, indent=2))
    print(f"report written to {out}")


def _print_solve_summary(report: dict) -> None:
    print(f"problem {report['problem']}  p={report['p']}  precision O({report['p']}^{report['prec']})")
    for entry in report["reduction_types"]:
        cond = entry.get("condition", {})
        print(f"  {entry['label']}: condition "
              f"{'holds' if cond.get('holds') else 'FAILS'} (slack {cond.get('slack')})")
        if "error" in entry:
            print(f"    error: {entry['error']}")
        if "kernel" in entry:
            for vec in entry["kernel"]:
                print("    kernel: (" + ", ".join(vec) + ")")
        for drec in entry.get("discs", []):
            if drec["status"] == "ok":
                pts = ", ".join(
                    (f"({r['matched'][0]},{r['matched'][1]})" if r["matched"]
                     else f"extra x={r['x']}") for r in drec["roots"]) or "empty"
                print(f"    {drec['disc']}: bound {drec['bound']}, {pts}")
            else:
                print(f"    {drec['disc']}: {drec['status']}"
                      + (f" ({drec.get('reason', '')})" if drec["status"] == "unresolved" else ""))
    pts = report.get("points", {})
    print(f"  matched known points: {len(pts.get('matched_known', []))}; "
          f"extra candidates: {len(pts.get('extra_candidates', []))}; "
          f"unresolved discs: {len(pts.get('unresolved_discs', []))}; "
          f"failed types: {sum('error' in e for e in report['reduction_types'])}")
    print(f"  status: {report['status']}")


def _print_verify_summary(report: dict) -> None:
    print(f"problem {report['problem']}: verify {'PASS' if report['pass'] else 'FAIL'}")
    for row in report["points"]:
        mark = "ok " if row.get("pass") else "FAIL"
        detail = row["error"] if "error" in row else \
            f"residual valuations {row.get('residual_valuations', [])}"
        print(f"  [{mark}] ({row['point'][0]}, {row['point'][1]})  {detail}  [{row.get('sigma')}]")
    dets = report.get("determinants", [])
    if dets:
        worst = min((d["valuation"] for d in dets),
                    key=lambda v: 10 ** 9 if v == "inf" else v)
        print(f"  determinant criterion: {len(dets)} subsets, "
              f"all {'vanish' if all(d['pass'] for d in dets) else 'DO NOT vanish'}"
              f" (worst valuation {worst})")


if __name__ == "__main__":
    raise SystemExit(main())
