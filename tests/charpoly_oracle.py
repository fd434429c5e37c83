"""Frobenius checked against point counts, over a grid of primes.

    python tests/charpoly_oracle.py FIXTURE.json PREC P [P ...]

For each prime it loads the fixture at PREC and compares the characteristic
polynomial of its model's FrobeniusData.matrix with the one the Weil conjectures
give from #C(F_p) and #C(F_(p^2)), counted by brute force, and the permutation
of the points at infinity (tests_support.frobenius_charpoly).  The polynomial
comes from berkowitz, a division-free determinant, on p^s times the matrix, an
int matrix mod p^(trunc_prec + s) (tests_support.charpoly_differences): nothing
of it comes from the Frobenius kernel.  Exits 1 and prints each difference.
"""

import sys

from affine_chabauty.problem import load_problem
from tests_support import charpoly_differences


def main(argv) -> int:
    path, prec, primes = argv[0], int(argv[1]), [int(p) for p in argv[2:]]
    rc = 0
    for p in primes:
        model = load_problem(path, p_override=p, prec_override=prec).integrator.main_model()
        diffs = charpoly_differences(model)
        print(f"{path} p = {p} prec {prec}: degree {model.dim} characteristic polynomial "
              f"mod p^{model.frobenius_data().trunc_prec}, {len(diffs)} differences")
        for d in diffs:
            print("  " + d)
        rc |= bool(diffs)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
