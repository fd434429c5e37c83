import random
from fractions import Fraction

import pytest

from affine_chabauty.errors import IndistinguishableFromZero, PrecisionLoss
from affine_chabauty.padics import INF, PadicNumber
from affine_chabauty.errors import ChabautyError
from affine_chabauty.integration import _dot
from affine_chabauty.series import (
    Subordination,
    antiderivative,
    dot,
    sqrt_series,
    nth_root_series,
    strassmann_roots,
)
from tests_support import (Series, compose, derivative, evaluate, formal_antiderivative,
                           int_series, padic_strassmann_roots, polynomial, series_claims,
                           strassmann_claims)

P = 7
N = 12


def poly(vals, p=P, n=N):
    return polynomial(vals, p, n, slope=0)


def test_access_beyond_truncation_is_error():
    f = poly([1, 2, 3])
    with pytest.raises(IndexError):
        f[3]


def test_compose_identity_and_scaling():
    g = poly([0, 7, 0, 0])  # g = 7t
    ident = poly([0, 1, 0, 0])
    got = compose(ident, g)
    assert got[1].compare(7) == "equal"
    sq = poly([0, 0, 1, 0])  # t^2
    got2 = compose(sq, g)
    assert got2[2].compare(49) == "equal"
    assert got2[1].is_zero() or got2[1].is_exact_zero()


def test_compose_requires_small_constant_term():
    with pytest.raises(ValueError):
        compose(poly([0, 1]), poly([1, 1]))


def test_compose_associative():
    rng = random.Random(5)
    for _ in range(10):
        f = poly([rng.randint(-20, 20) for _ in range(6)])
        g = poly([7 * rng.randint(-3, 3)] + [rng.randint(-20, 20) for _ in range(5)])
        h = poly([7 * rng.randint(-3, 3)] + [7 * rng.randint(-5, 5) for _ in range(5)])
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        for n in range(6):
            assert lhs[n].compare(rhs[n]) != "distinct"


def test_antiderivative_basics():
    f = poly([1])
    F = formal_antiderivative(f)
    assert F[0].is_zero() or F[0].is_exact_zero()
    # t^(p-1) integrates to t^p/p with one digit of precision lost
    g = Series(P, [PadicNumber.exact_zero(P)] * 6 +
                        [PadicNumber.from_int(1, P, 10)] + [PadicNumber.exact_zero(P)],
                        Subordination(0, 0), check=False)
    G = formal_antiderivative(g)
    assert G[7].valuation() == -1
    assert G[7].precision() == 9


def test_derivative_inverts_antiderivative():
    rng = random.Random(6)
    vals = [rng.randint(-50, 50) for _ in range(10)]
    f = poly(vals)
    back = derivative(formal_antiderivative(f))
    for n in range(9):
        assert back[n].compare(f[n]) != "distinct"


def test_sqrt_series_squares_back():
    # y = sqrt(9 + 7t + t^2) with y(0) = 3
    f = poly([9, 7, 1, 0, 0, 0, 0, 0])
    y = sqrt_series(f, sign_hint=3)
    y2 = y * y
    for n in range(8):
        assert y2[n].compare(f[n]) != "distinct"
    assert y[0].residue(1) == 3


@pytest.mark.parametrize("k", [2, 3, 4])
def test_nth_root_series_cubes_back(k):
    # k = 2 stores no powers of y, k = 3 stores y^2, k = 4 also y^3 (built from y^2)
    f = poly([1, 7, 14, 0, 0, 0])
    y = nth_root_series(f, k, residue_hint=1)
    yk = y
    for _ in range(k - 1):
        yk = yk * y
    for n in range(6):
        assert yk[n].compare(f[n]) != "distinct"


def test_series_inverse():
    f = poly([3, 7, 2, 5, 0, 0])
    g = f.inverse()
    prod = f * g
    assert prod[0].compare(1) == "equal"
    for n in range(1, 6):
        assert prod[n].is_zero() or prod[n].is_exact_zero()


def test_evaluate_with_certificate():
    # truncated geometric series with a slope-1 certificate, evaluated at a unit
    cs = [PadicNumber.from_rational(Fraction(7) ** n, P, 20) for n in range(8)]
    f = Series(P, cs, Subordination(1, 0))
    t = PadicNumber.from_int(3, P, 20)
    got = evaluate(f, t)
    exact = sum(Fraction(7) ** n * 3 ** n for n in range(30))  # geometric tail negligible
    want = PadicNumber.from_rational(Fraction(1, 1 - 21), P, got.precision())
    assert got.compare(want) != "distinct"
    assert got.precision() >= 8


def test_evaluate_at_an_exact_zero_is_the_constant_term():
    """f(0) = c_0 with no tail error: an exact zero stays exact (v = N = INF)."""
    cs = [PadicNumber.from_rational(Fraction(7) ** n, P, 20) for n in range(8)]
    F = formal_antiderivative(Series(P, cs, Subordination(1, 0)))
    zero = PadicNumber.exact_zero(P)
    got = evaluate(F, zero)
    assert (got.v, got.u, got.N) == (INF, 0, INF)
    shifted = F + PadicNumber.from_int(3, P, 10)
    assert evaluate(shifted, zero) is shifted.coeffs[0]


def _mixed(vals, p=P):
    """PadicNumbers from (value, N): None for an exact zero, value 0 for O(p^N)."""
    return [PadicNumber.exact_zero(p) if x is None else
            PadicNumber.from_int(x, p, n) if x else PadicNumber.unknown_zero(p, n)
            for x, n in vals]


def _outcome(f):
    try:
        v = f()
        return v.v, v.u, v.N
    except ChabautyError as e:
        return f"{type(e).__name__}: {e}"


# coefficients (value, N) for _mixed: c_6 / 7 loses a digit, the zero class
# O(7^8) at t^13 becomes O(7^7) at t^14, exact zeros stay exact; the first ends
# in an exact zero, so an exact series stays exact, the second does not
ANTIDERIVATIVE_INPUTS = [
    ([(5, 20), (0, 12), (49, 20), (None, 0), (3 * 7 ** 4, 14), (2, 11), (1, 10), (0, 9),
      (None, 0), (4, 12), (7, 13), (0, 8), (None, 0), (0, 8), (7, 12), (2, 9), (None, 0)],
     Subordination(1, -6)),
    ([(7, 12), (3 * 49, 13), (0, 4), (None, 0), (7 ** 5, 16), (0, 9), (7 ** 7, 20),
      (7 ** 8 * 2, 20)], Subordination(1, 1)),
]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("vals,bound", ANTIDERIVATIVE_INPUTS)
def test_int_antiderivative_evaluate_and_strassmann_match_the_padic_series(vals, bound, exact):
    """antiderivative(f, c), IntSeries.evaluate and strassmann_roots give the
    (v, u, N), certificate, exact flag, Strassmann inputs and roots of
    formal_antiderivative(f) + c, evaluate and the PadicNumber Strassmann; c =
    7^-3 lowers the certificate of the second input."""
    f = Series(P, _mixed(vals), bound, check=False, exact=exact)
    ts = [PadicNumber.exact_zero(P), PadicNumber.from_int(3, P, 12), PadicNumber.from_int(14, P, 9)]
    for c in (None, PadicNumber.from_int(3, P, 10), PadicNumber.unknown_zero(P, 2),
              PadicNumber.from_rational(Fraction(1, 7 ** 3), P, 8)):
        want = formal_antiderivative(f) if c is None else formal_antiderivative(f) + c
        got = antiderivative(int_series(f), c)
        assert series_claims(got) == series_claims(want)
        for t in ts:
            assert _outcome(lambda: got.evaluate(t)) == _outcome(lambda: evaluate(want, t))
        assert strassmann_claims(got, strassmann_roots) == \
            strassmann_claims(want, padic_strassmann_roots)


def test_int_strassmann_reads_zero_classes_below_the_certificate():
    """A zero class O(7^2) under a certificate of 4 at t^4 enters the level at
    precision 4, as the PadicNumber Strassmann reads it."""
    f = Series(P, _mixed([(-7, 12), (1, 12), (7, 11), (0, 3), (0, 2), (7 ** 6, 12)]),
               Subordination(1, 0), check=False)
    got = strassmann_claims(int_series(f), strassmann_roots)
    assert got == strassmann_claims(f, padic_strassmann_roots)
    levels, (bound, roots) = got
    assert levels[0][1][1][3:5] == [3, 4]  # Ns of t^3 and t^4: max(N, certificate)
    assert bound == 1 and len(roots) == 1


def test_dot_matches_the_padic_series_sum():
    """dot gives each coefficient the (v, u, N) of the PadicNumber sum of scaled
    series, with its certificate and exact flag: PadicNumber coefficients
    (a unit, 7^-1, an exact zero, a zero class) and rationals (3/7, 0, 5)."""
    series = [Series(P, _mixed(vals), Subordination(1, o), check=False) for vals, o in (
        ([(7, 12), (0, 13), (49 * 3, 14), (None, 0), (7 ** 4, 16)], 1),
        ([(14, 12), (7 ** 2 * 6, 13), (None, 0), (0, 15), (7 ** 5, 16)], 1),
        ([(None, 0), (7, 10), (7 ** 3, 14), (7 ** 3 * 2, 15), (0, 11)], 0))]
    for coeffs in (_mixed([(3, 10), (None, 0), (0, 4)]),
                   [PadicNumber.from_rational(Fraction(2, 7), P, 9)] + _mixed([(1, 12), (5, 6)]),
                   _mixed([(None, 0)] * 3), [Fraction(3, 7), 0, 5], [0, 0, 0]):
        got = dot(coeffs, [int_series(s) for s in series])
        assert series_claims(got) == series_claims(_dot(coeffs, series)), coeffs


def test_strassmann_paper_shape():
    # valuation pattern (inf, 1, 2, 3, 4, 6, 7): unique root t = 0
    vals = [0, 7, 7 ** 2, 7 ** 3, 7 ** 4, 7 ** 6, 7 ** 7]
    f = polynomial(vals, P, 14, slope=1)
    res = strassmann_roots(int_series(f))
    assert res.bound == 1
    assert len(res.roots) == 1
    root, mult = res.roots[0]
    assert mult == 1 and root.is_zero()


def test_strassmann_t_times_t_minus_1():
    f = polynomial([0, -1, 1, 0, 0, 0, 0, 0], P, N, slope=0)
    res = strassmann_roots(int_series(f))
    assert res.bound == 2
    got = sorted(r.residue(1) for r, _ in res.roots)
    assert got == [0, 1]


def test_strassmann_congruent_roots_split():
    # roots 3 and 3+7 are congruent mod 7; the shift recursion separates them
    f = polynomial([30, -13, 1, 0, 0, 0, 0], P, N, slope=0)
    res = strassmann_roots(int_series(f))
    assert len(res.roots) == 2
    lifts = sorted(r.residue(3) for r, _ in res.roots)
    assert lifts == [3, 10]


def test_strassmann_all_zero_raises():
    f = Series(P, [PadicNumber.unknown_zero(P, 3)] * 4,
                        Subordination(1, 0), check=False)
    with pytest.raises(IndistinguishableFromZero):
        strassmann_roots(int_series(f))


def test_strassmann_double_root_raises():
    f = polynomial([0, 0, 1, 0, 0], P, 8, slope=0)  # t^2
    with pytest.raises(PrecisionLoss):
        strassmann_roots(int_series(f))


def _linear(c0, c1=PadicNumber.from_int(P, P, 11)):
    return int_series(polynomial([c0, c1], P, 11, slope=0))


def test_strassmann_root_drops_the_digits_that_f_prime_costs():
    """-7 + O(7^6) + 7t: f'(1) = 7, so the root is 1 + O(7^5), not 1 + O(7^6);
    the same series known to 7^11, c_0 = -7 + 7^6, has the root 1 + 6*7^5 + ..."""
    (root, _), = strassmann_roots(_linear(PadicNumber.from_int(-7, P, 6))).roots
    assert str(root) == "1 + O(7^5)"
    (finer, _), = strassmann_roots(_linear(PadicNumber.from_int(-7 + 7 ** 6, P, 11))).roots
    assert finer.digits(0, 6) == [1, 0, 0, 0, 0, 6]
    assert finer.compare(root) == "equal"


def test_strassmann_root_at_zero_of_a_zero_class_is_no_exact_zero():
    """O(7^6) + 7t has the root O(7^5): c_0 = 7^6 would put it at -7^5."""
    (root, _), = strassmann_roots(_linear(PadicNumber.unknown_zero(P, 6))).roots
    assert (root.is_zero(), root.is_exact_zero(), root.precision()) == (True, False, 5)
    (finer, _), = strassmann_roots(_linear(PadicNumber.from_int(7 ** 6, P, 11))).roots
    assert finer.valuation() == 5 and finer.compare(root) == "equal"


def _brute_roots(coeffs, p, k):
    """Residues mod p^k surviving levelwise refinement f(r) = 0 mod p^j."""
    survivors = [0]
    current = [r for r in range(p) if _ev(coeffs, r, p) == 0]
    for j in range(2, k + 1):
        m = p ** j
        nxt = []
        for r in current:
            for d in range(p):
                cand = r + d * p ** (j - 1)
                if _ev(coeffs, cand, m) == 0:
                    nxt.append(cand)
        current = nxt
    return current


def _ev(cs, t, m):
    acc = 0
    for c in reversed(cs):
        acc = (acc * t + c) % m
    return acc


def test_strassmann_vs_bruteforce_random_cubics():
    rng = random.Random(7)
    trials = 0
    while trials < 25:
        roots = rng.sample(range(-40, 40), 3)
        lead = rng.choice([1, 2, 3])
        cs = [lead]
        for r in roots:
            cs = [c for c in cs]  # expand (x - r)
            new = [0] * (len(cs) + 1)
            for i, c in enumerate(cs):
                new[i] += c * (-r)
                new[i + 1] += c
            cs = new
        cs.reverse()  # ascending order
        if any(c % 7 == 0 for c in [lead]):
            continue
        trials += 1
        f = polynomial(cs + [0, 0], P, 10, slope=0)
        got = sorted(r.residue(6) for r, _ in strassmann_roots(int_series(f)).roots)
        # brute force over residue towers, refined to mod 7^8 then reduced
        deep = _brute_roots(cs, 7, 8)
        want = sorted(set(r % 7 ** 6 for r in deep))
        assert got == want
    # certified series that are not exact: (t - 7a)(t - b)(t - b - c), each
    # coefficient known to 7^8, 7^10 or 7^12, zero classes O(7^9) up to t^9 and
    # a slope-1 certificate for the tail.  Each root must agree, to the digits
    # it claims, with the roots of the cubic and of a second series that the
    # same data describe.
    for _ in range(25):
        a, b, c = rng.choice([-3, -1, 1, 2, 4]), rng.randrange(-40, 40), rng.choice([7, 14, 49, 3])
        roots = {7 * a, b, b + c}
        if len(roots) < 3:
            continue
        cs = [1]
        for r in roots:
            cs = [x - r * y for x, y in zip([0] + cs, cs + [0])]
        precs = [rng.choice([8, 10, 12]) for _ in cs]
        data = ([PadicNumber.from_int(x, P, n) if x else PadicNumber.unknown_zero(P, n)
                 for x, n in zip(cs, precs)] + [PadicNumber.unknown_zero(P, 9)] * 6)
        offset = min((x.v if x.u else x.N) - n for n, x in enumerate(data))
        f = Series(P, data, Subordination(1, offset))
        res = strassmann_roots(int_series(f))
        assert len(res.roots) == 3
        k = max(r.precision() for r, _ in res.roots) + 4
        other = ([x + rng.randrange(1, 7) * 7 ** n for x, n in zip(cs, precs)] +
                 [rng.randrange(7) * 7 ** max(9, n + offset) for n in range(4, 10)] +
                 [rng.randrange(1, 7) * 7 ** (n + offset) for n in range(10, 13)])
        for poly in (cs, other):
            deep = _brute_roots(poly, 7, k)
            for r, _ in res.roots:
                n = r.precision()
                assert any((d - r.residue(n)) % 7 ** n == 0 for d in deep)


def test_binomial_compose_matches_sqrt_series():
    # sqrt(1+z) as a binomial series, substituted z = f(-1+7t) - 1, matches
    # the direct square-root expansion of f(x(t)) on the fixture curve
    from affine_chabauty.series import sqrt_series

    fcs = [9, 20, 2, -18, -7, 2, 1]
    P_, N_, T_ = 7, 14, 10
    xt = polynomial([-1, 7] + [0] * (T_ - 2), P_, N_)
    fx = polynomial([fcs[-1]] + [0] * (T_ - 1), P_, N_)
    for c in reversed(fcs[:-1]):
        fx = fx * xt + Fraction(c)
    z = fx - 1  # constant term f(-1) - 1 = 0
    binom_vals = []
    acc = Fraction(1)
    for k in range(T_):
        binom_vals.append(acc)
        acc *= (Fraction(1, 2) - k) / (k + 1)
    binom = polynomial(binom_vals, P_, N_, slope=0)
    y_composed = compose(binom, z)
    y_direct = sqrt_series(fx, sign_hint=1)
    for n in range(T_):
        assert y_composed[n].compare(y_direct[n]) != "distinct"
    # oracle: y(t)^2 - f(x(t)) vanishes term by term
    resid = y_direct * y_direct - fx
    for c in resid.coeffs:
        assert c.is_zero() or c.is_exact_zero()
