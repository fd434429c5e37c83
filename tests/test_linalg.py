import itertools
import random
from fractions import Fraction

import pytest

from affine_chabauty.errors import NotSymmetric, PrecisionLoss
from affine_chabauty.linalg import (
    RationalMatrix,
    moore_penrose,
    padic_det,
    padic_kernel,
    padic_solve,
)
from affine_chabauty.padics import PadicNumber

P = 7
N = 12


def pad(x, n=N):
    return PadicNumber.from_rational(Fraction(x), P, n)


def penrose_ok(M, Mp):
    return (M * Mp * M == M and Mp * M * Mp == Mp
            and (M * Mp).transpose() == M * Mp
            and (Mp * M).transpose() == Mp * M)


def test_pseudoinverse_examples():
    assert moore_penrose(RationalMatrix([[0]])) == RationalMatrix([[0]])
    I3 = RationalMatrix.identity(3)
    assert moore_penrose(I3) == I3
    M = RationalMatrix([[-2, 2], [2, -2]])
    want = RationalMatrix([[Fraction(-1, 8), Fraction(1, 8)],
                           [Fraction(1, 8), Fraction(-1, 8)]])
    got = moore_penrose(M)
    assert got == want
    assert penrose_ok(M, got)


def test_pseudoinverse_random_rank_deficient():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 5)
        r = rng.randint(1, n - 1)
        R = RationalMatrix([[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)])
        M = R * R.transpose()  # symmetric with rank <= r < n
        Mp = moore_penrose(M)
        assert penrose_ok(M, Mp)


def test_pseudoinverse_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        moore_penrose(RationalMatrix([[0, 1], [0, 0]]))


def test_kernel_zero_matrix():
    rows = [[PadicNumber.unknown_zero(P, N) for _ in range(3)] for _ in range(2)]
    ker = padic_kernel(rows)
    assert ker.rank == 0
    assert len(ker.basis) == 3


def test_kernel_matches_rational_kernel():
    rng = random.Random(12)
    for _ in range(40):
        rows_q = [[Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(2)]
        M = RationalMatrix(rows_q)
        if M.rank() != 2:
            continue
        ker = padic_kernel([[pad(x) for x in row] for row in rows_q])
        assert ker.rank == 2
        assert len(ker.basis) == 1
        v = ker.basis[0]
        # M v = 0 to certified precision
        for row in rows_q:
            acc = PadicNumber.exact_zero(P)
            for c, x in zip(row, v):
                acc = acc + x * c
            assert acc.is_zero(), acc
        # compare with the exact rational kernel via cross products
        a, b, c = rows_q[0]
        d, e, f = rows_q[1]
        cross = [b * f - c * e, c * d - a * f, a * e - b * d]
        k = next(i for i, x in enumerate(cross) if x != 0)
        for i in range(3):
            lhs = v[i] * cross[k]
            rhs = v[k] * cross[i]
            assert lhs.compare(rhs) != "distinct"


def test_kernel_normalization_first_min_valuation_is_one():
    rows = [[pad(7), pad(1), pad(14)]]
    ker = padic_kernel(rows)
    for v in ker.basis:
        vals = [x.v for x in v if not x.is_zero()]
        vmin = min(vals)
        first = next(x for x in v if not x.is_zero() and x.v == vmin)
        assert first.compare(1) == "equal"


def test_solve_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        rows_q = [[Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
        M = RationalMatrix(rows_q)
        if M.rank() != 3:
            continue
        x_q = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        b_q = M.matvec(x_q)
        x = padic_solve([[pad(v) for v in row] for row in rows_q])([pad(v) for v in b_q])
        for got, want in zip(x, x_q):
            assert got.compare(pad(want)) != "distinct"


def leibniz_det(rows):
    """sum over permutations s of sign(s) prod_i rows[i][s(i)]."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction((-1) ** sum(perm[j] > perm[i] for i in range(n) for j in range(i)))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_det_matches_rational():
    # entries divisible by p move the minimal-valuation pivots off the
    # diagonal, so the row -> column permutation is often odd
    rng = random.Random(14)
    nonzero = 0
    for n in range(1, 6):
        for _ in range(30):
            rows_q = [[Fraction(rng.randint(-9, 9) * P ** rng.choice((0, 0, 1, 2)))
                       for _ in range(n)] for _ in range(n)]
            got = padic_det([[pad(v) for v in row] for row in rows_q])
            assert got.compare(pad(leibniz_det(rows_q))) != "distinct", rows_q
            nonzero += not got.is_zero()
    assert nonzero >= 100


def test_det_duplicate_rows_is_zero():
    row = [pad(3), pad(5), pad(11)]
    rows = [row, list(row), [pad(1), pad(2), pad(4)]]
    assert padic_det(rows).is_zero()


def test_rational_matrix_shape_mismatch_raises():
    row = RationalMatrix([[1, 2]])
    with pytest.raises(ValueError):
        row * row
    with pytest.raises(ValueError):
        row.inverse()


def _vuns(xs):
    return [(x.v, x.u, x.N) for x in xs]


def test_the_replaying_solve_equals_a_fresh_solve_and_the_augmented_solve():
    """padic_solve(rows) eliminates A once and replays its row operations on each b:
    the same x, as (v, u, N), as a fresh solver's first call and as the augmented
    elimination of A | b, for random right-hand sides, exact zeros and unknown zeros."""
    from tests_support import augmented_solve
    rng = random.Random(15)
    solved = 0
    for n in range(1, 6):
        for _ in range(8):
            rows = [[pad(rng.randint(-9, 9) * P ** rng.choice((0, 0, 1, 2)), rng.choice((8, 12)))
                     for _ in range(n)] for _ in range(n)]
            try:
                solve = padic_solve(rows)
            except PrecisionLoss:
                continue
            rhss = [[pad(rng.randint(-50, 50) * P ** rng.choice((0, 1)), rng.choice((6, 12)))
                     for _ in range(n)] for _ in range(3)]
            rhss += [[PadicNumber.exact_zero(P)] * n, [PadicNumber.unknown_zero(P, 5)] * n,
                     [PadicNumber.exact_zero(P)] * (n - 1) + [pad(1)]]
            for b in rhss:
                want = _vuns(augmented_solve(rows, b))
                assert _vuns(solve(b)) == _vuns(padic_solve(rows)(b)) == want
            solved += 1
    assert solved >= 25


def test_a_singular_matrix_raises_before_any_right_hand_side():
    with pytest.raises(PrecisionLoss):
        padic_solve([[pad(1), pad(2)], [pad(3), pad(6)]])
