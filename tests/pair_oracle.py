"""The shared pair-integral and verify work against its per-point reference, over a grid of primes.

    python tests/pair_oracle.py FIXTURE.json PREC P [P ...]

For each prime it loads the fixture at PREC, solves and verifies it, and
compares both reports, as the CLI writes them, with those of fresh engines
under `tests_support.per_point_reference`: dagger values with the powers of
z = 1/y^n and F(x, z) built for each point alone, not once per x-class; one
augmented elimination of I - Frob per pair, not one elimination per model
replayed on each right-hand side; every disc center lifted again on each
call; and every constant c of a determinant row taken again for each subset.
Exits 1 and prints each report that differs.
"""

import sys

from affine_chabauty.problem import load_problem
from tests_support import pair_differences


def main(argv) -> int:
    path, prec, primes = argv[0], int(argv[1]), [int(p) for p in argv[2:]]
    rc = 0
    for p in primes:
        diffs = pair_differences(lambda: load_problem(path, p_override=p, prec_override=prec))
        print(f"{path} p = {p} prec {prec}: solve and verify, {len(diffs)} differences")
        for d in diffs:
            print(f"  the {d} report differs")
        rc |= bool(diffs)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
