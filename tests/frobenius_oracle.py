"""The graded Frobenius numerator against its single-layer reference, over a grid of primes.

    python tests/frobenius_oracle.py FIXTURE.json PREC P [P ...]

For each prime it loads the fixture at PREC and compares the FrobeniusData of
its model (every matrix entry as (v, u, N), the dagger ints, the truncation cap,
the headroom, a_p and #C(F_p)) with the data of the same model whose numerator
digits come from `tests_support.single_layer_digits` (every term at one
precision, on one tower, converted by `tests_support.reference_digits`, the
recursive split down to single digits, where the program splits down to chunks
of 8 deg f coefficients and converts them all by one linear map), whose basis
elements' shifted digits come from `tests_support.per_shift_digits` (one product
by the digits of x^(p i), also from `reference_digits`, and one carry per digit,
per element, where the program applies one linear map to the digit columns of
the element before) and whose Bezout cofactor
comes from `tests_support.sylvester_bezout` (a Sylvester solve over
PadicNumbers).  Exits 1 and prints each difference.
"""

import sys

from affine_chabauty.problem import load_problem
from tests_support import frobenius_differences


def main(argv) -> int:
    path, prec, primes = argv[0], int(argv[1]), [int(p) for p in argv[2:]]
    rc = 0
    for p in primes:
        model = load_problem(path, p_override=p, prec_override=prec).integrator.main_model()
        diffs = frobenius_differences(model)
        print(f"{path} p = {p} prec {prec}: {model.dim} x {model.dim} matrix, "
              f"{len(diffs)} differences")
        for d in diffs:
            print("  " + d)
        rc |= bool(diffs)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
