"""Cusp logarithms and Teichmueller centers against their PadicNumber reference,
over a grid of primes.

    python tests/log_oracle.py FIXTURE.json PREC P [P ...]

Solves nothing: for each prime it loads the fixture at PREC and compares, as
(v, u, N), every log in the problem's table of cusp logarithms with the
PadicNumber-series log of `tests_support.reference_log`, the Frobenius model's
zeta with the Hensel-lifted root of `tests_support.reference_teichmuller`, and
the teichmueller_point of every non-cuspidal disc with
`tests_support.lifted_center`.  Exits 1 and prints each difference.
"""

import sys

from affine_chabauty.problem import load_problem
from tests_support import log_differences


def main(argv) -> int:
    path, prec, primes = argv[0], int(argv[1]), [int(p) for p in argv[2:]]
    rc = 0
    for p in primes:
        diffs, counts = log_differences(load_problem(path, p_override=p, prec_override=prec))
        print(f"{path} p = {p} prec {prec}: {counts['logs']} logs, 1 zeta, "
              f"{counts['centers']} centers, {len(diffs)} differences")
        for d in diffs:
            print("  " + d)
        rc |= bool(diffs)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
