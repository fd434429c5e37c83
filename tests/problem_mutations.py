"""Problem-file mutation scan: every one-field change of a fixture must end in a
typed error or a report.

    python tests/problem_mutations.py FIXTURE.json [FIXTURE.json ...]

Changes one leaf of the fixture's JSON at a time: an integer to 0, -1, v + 1
and 10^6; a string to "0", "1/0", "", "abc" and "-1"; an array to [] and to
itself without its last element (and then each of its entries); a boolean
flipped.  A change that keeps the value or repeats another change of the
same field is skipped, and `label`, every `id` and `arithmetic.precision` are
left alone.  Each mutant is loaded, solved and verified at prec 6 at the
fixture's p, and counted as

* typed: a `ChabautyError` at load, solve or verify;
* untyped: any other exception, printed with the field's path;
* same: both reports equal the fixture's, `problem` and `label` aside;
* changed: another solve report that ends complete, and verify passes;
* other: solve ends partial or verify fails.

Prints the counts per fixture and exits 1 if any mutant ended untyped.
"""

import copy
import json
import sys
from collections import Counter
from pathlib import Path

from affine_chabauty.errors import ChabautyError
from affine_chabauty.problem import build_engine

PREC = 6
SKIP = {("label",), ("arithmetic", "precision")}


def mutants(node, path=()):
    """(path, value) for each one-field change of node."""
    if path in SKIP or path[-1:] == ("id",):
        return
    if isinstance(node, bool):
        changes = [not node]
    elif isinstance(node, int):
        changes = [0, -1, node + 1, 10 ** 6]
    elif isinstance(node, str):
        changes = ["0", "1/0", "", "abc", "-1"]
    elif isinstance(node, list):
        changes = [[], node[:-1]]
    else:
        changes = []
    for i, value in enumerate(changes):
        if value != node and value not in changes[:i]:
            yield path, value
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from mutants(child, path + (key,))


def reports(data) -> tuple:
    """The solve and verify reports of data at PREC, without problem and label."""
    engine = build_engine(data, prec_override=PREC)
    solved, verified = engine.solve(), engine.verify()
    for report in (solved, verified):
        report.pop("problem", None)
        report.pop("label", None)
    return solved, verified


def scan(path) -> tuple:
    """(Counter of outcomes, lines naming each untyped failure) for one fixture."""
    data = json.loads(Path(path).read_text())
    want = reports(copy.deepcopy(data))
    counts, untyped = Counter(), []
    for where, value in mutants(data):
        mutant = copy.deepcopy(data)
        node = mutant
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        try:
            got = reports(mutant)
        except ChabautyError:
            counts["typed"] += 1
            continue
        except Exception as e:  # what no typed error caught: the scan's finding
            counts["untyped"] += 1
            untyped.append(f"  {'.'.join(map(str, where))} = {value!r}: "
                           f"{type(e).__name__}: {e}")
            continue
        solved, verified = got
        if got == want:
            counts["same"] += 1
        elif solved["status"] == "complete" and verified["pass"]:
            counts["changed"] += 1
        else:
            counts["other"] += 1
    return counts, untyped


def main(argv) -> int:
    rc = 0
    for path in argv:
        counts, untyped = scan(path)
        total = sum(counts.values())
        print(f"{path}: {total} mutants, " + ", ".join(
            f"{k} {counts[k]}" for k in ("typed", "untyped", "same", "changed", "other")))
        for line in untyped:
            print(line)
        rc |= bool(untyped)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
