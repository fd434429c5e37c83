"""The int disc locus against its PadicNumber reference, over a grid of primes.

    python tests/disc_locus_oracle.py FIXTURE.json PREC P [P ...]

Solves nothing: for each prime it loads the fixture at PREC and compares, on
every non-cuspidal disc, the engine's int locus with the PadicNumber locus of
`tests_support.disc_locus_differences` for each basis differential and each
kernel omega of every reduction type.  Exits 1 and prints each difference.
"""

import sys

from affine_chabauty.problem import load_problem
from tests_support import disc_locus_differences


def main(argv) -> int:
    path, prec, primes = argv[0], int(argv[1]), [int(p) for p in argv[2:]]
    rc = 0
    for p in primes:
        diffs, counts = disc_locus_differences(load_problem(path, p_override=p,
                                                            prec_override=prec))
        print(f"{path} p = {p} prec {prec}: {counts['loci']} loci, {len(diffs)} differences")
        for d in diffs:
            print("  " + d)
        rc |= bool(diffs)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
