"""Precision ladder: a solve or verify report against the same run at a higher precision.

    python tests/precision_ladder.py LOW.json HIGH.json

For two solve reports, exits 1 and names each field if a matrix, kernel, c, t, x
or y value printed in LOW contradicts HIGH (compared by `parse_padic` to the
lesser of the two precisions), or if a disc has a different number of roots.  A
reduction type or disc that only one report holds counts as a difference.

For two verify reports, exits 1 if either report fails, if their (point, sigma)
rows differ, if their determinant subsets differ, or if a determinant's
precision is lower in HIGH than in LOW.
"""

import json
import sys
from itertools import zip_longest

from affine_chabauty.padics import parse_padic


def _flat(values):
    return [x for v in values for x in (v if isinstance(v, list) else [v])]


def contradictions(low: dict, high: dict) -> list[str]:
    p = low["p"]

    def agree(a, b):
        return parse_padic(a, p).compare(parse_padic(b, p)) != "distinct"

    out = []
    types = {t["label"]: t for t in high["reduction_types"]}
    for lo in low["reduction_types"]:
        hi = types.pop(lo["label"], None)
        if hi is None:
            out.append(f"{lo['label']}: missing at the higher precision")
            continue
        for key in ("matrix", "kernel", "c"):
            a, b = _flat(lo[key]), _flat(hi[key])
            if len(a) != len(b) or not all(map(agree, a, b)):
                out.append(f"{lo['label']} {key}: {a} against {b}")
        discs = {d["disc"]: d for d in hi["discs"]}
        for d in lo["discs"]:
            e = discs.pop(d["disc"], None)
            roots = d.get("roots", [])
            if e is None or len(roots) != len(e.get("roots", [])):
                out.append(f"{lo['label']} {d['disc']}: the number of roots differs")
                continue
            for r in roots:
                if not any(all(agree(r[k], s[k]) for k in "txy") for s in e["roots"]):
                    out.append(f"{lo['label']} {d['disc']}: root {r} contradicts {e['roots']}")
        out += [f"{lo['label']} {name}: missing at the lower precision" for name in discs]
    return out + [f"{label}: missing at the lower precision" for label in types]


def verify_differences(low: dict, high: dict) -> list[str]:
    out = [f"{name} report fails" for name, r in (("LOW", low), ("HIGH", high)) if not r["pass"]]
    rows = ([(x["point"], x["sigma"]) for x in r["points"]] for r in (low, high))
    out += [f"(point, sigma) row {a} against {b}" for a, b in zip_longest(*rows) if a != b]
    if [d["points"] for d in low["determinants"]] != [d["points"] for d in high["determinants"]]:
        return out + ["the determinant subsets differ"]
    return out + [f"determinant {d['points']}: precision {d['precision']} falls to {e['precision']}"
                  for d, e in zip(low["determinants"], high["determinants"])
                  if e["precision"] < d["precision"]]


def main(argv) -> int:
    low, high = (json.loads(open(path).read()) for path in argv)
    bad = (verify_differences if "determinants" in low else contradictions)(low, high)
    for line in bad:
        print(f"{argv[0]} vs {argv[1]}: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
