import copy
import dataclasses
import functools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_chabauty.errors import BadReduction, DifferentDiscs, EndpointRestriction
from affine_chabauty.hyperelliptic import HyperellipticModel, Point
from affine_chabauty.padics import INF, PadicNumber, _horner_mod, horner
from affine_chabauty.problem import load_problem
from tests_support import (exact_parts, frobenius_differences, involution, lift_x, padic_dagger,
                           padic_disc_series, padic_series, per_point_dagger_eval, per_shift_digits,
                           poly_of_series, reference_digits, series_claims,
                           single_layer_digits, single_layer_numerator, single_layer_tower,
                           sylvester_bezout)

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "src/affine_chabauty/problems"

PREC = 8


def model(f, p=7, prec=PREC):
    return HyperellipticModel(f, p, prec)


def points_on(m, count, rng):
    """Sample non-Weierstrass points with small integer x."""
    out = []
    x = 0
    while len(out) < count and x < 60:
        x += 1
        fx = m.curve_rhs(PadicNumber.from_rational(x, m.p, m.M))
        if fx.is_zero() or fx.v != 0:
            continue
        hints = [h for h in range(1, m.p) if pow(h, m.n, m.p) == fx.u % m.p]
        if not hints:
            continue
        out.append(lift_x(m, x, sign_hint=hints[-1] if rng.random() < 0.5 else hints[0]))
    return out


# y^2 = x^4 + x^3 + x + 2: genus 1, good reduction at 5, 7 and 11; over F_7
# f takes the values 2, 5, 0, 1, 4, 1, 1 at x = 0..6 and lc(f) = 1 is a square
QUARTIC = [2, 1, 0, 1, 1]


def brute_force_count(f, p):
    """#C(F_p) of the smooth model of y^2 = f(x), deg f even, by enumeration."""
    count = sum(1 for x in range(p) for y in range(p)
                if (y * y - sum(c * x ** i for i, c in enumerate(f))) % p == 0)
    return count + (2 if any((y * y - f[-1]) % p == 0 for y in range(1, p)) else 0)


def test_trace_matches_point_count_g1():
    # a_p from the Frobenius trace equals 7 + 1 - #points mod 7
    m = model(QUARTIC)
    fd = m.frobenius_data()
    assert fd.point_count == brute_force_count(QUARTIC, 7) == 13
    assert fd.a_p == 7 + 1 - 13


@pytest.mark.parametrize("f, p", [([1, 0, 0, 0, 3], 7), ([2, 1, 0, 1, 3], 7), ([1, 1, 0, 1, 3], 5)])
def test_trace_check_with_a_nonsquare_leading_coefficient(f, p):
    # the two points at infinity are conjugate: the log class has eigenvalue -p
    assert pow(f[-1], (p - 1) // 2, p) == p - 1
    fd = model(f, p=p).frobenius_data()
    assert fd.point_count == brute_force_count(f, p)
    assert fd.a_p == p + 1 - fd.point_count


def test_bad_reduction_rejected():
    with pytest.raises(BadReduction):
        model([0, 0, 1, 1, 1])  # x^2(x^2+x+1): not squarefree
    with pytest.raises(BadReduction):
        model([7, 0, 0, 0, 1])  # disc(x^4 + 7) vanishes mod 7


def test_odd_degree_rejected():
    for f in ([1, 1, 0, 1], [1, 0, 0, 0, 0, 1], [1, 1, 0, 1, 0]):
        with pytest.raises(ValueError):
            model(f)


def test_weil_and_det_checks_run():
    # several small curves, quartic and sextic, different primes
    for f, p in [(QUARTIC, 5), (QUARTIC, 11),
                 ([4, 0, 1, 1, 1], 7), ([1, 0, 1, 0, 1], 7),
                 ([1, 1, -5, -1, 3, 2, 4], 7)]:
        m = model(f, p=p)
        fd = m.frobenius_data()
        assert fd.a_p ** 2 <= 4 * m.g * m.g * p + 4 * m.g  # Weil bound (slack for g=1)


def test_concatenation_and_antisymmetry():
    rng = random.Random(21)
    m = model(QUARTIC)
    pts = points_on(m, 3, rng)
    P, Q, R = pts
    a = m.basis_integrals(P, Q)
    b = m.basis_integrals(Q, R)
    c = m.basis_integrals(P, R)
    d = m.basis_integrals(Q, P)
    for i in range(m.dim):
        assert (a[i] + b[i] - c[i]).is_zero()
        assert (a[i] + d[i]).is_zero()


def test_tiny_equals_global_within_disc():
    m = model(QUARTIC)
    P = lift_x(m, 3, sign_hint=1)
    Q = lift_x(m, 3 + 7, sign_hint=1)
    tiny = m.tiny_basis_integrals(P, Q)
    full = m.basis_integrals(P, Q)
    for i in range(m.dim):
        assert tiny[i].compare(full[i]) != "distinct"


def test_tiny_integrals_reject_endpoints_of_two_discs():
    m = model(QUARTIC)
    P = lift_x(m, 3, sign_hint=1)
    with pytest.raises(DifferentDiscs):
        m.tiny_basis_integrals(P, lift_x(m, 0, sign_hint=3))   # another x residue
    with pytest.raises(DifferentDiscs):
        m.tiny_basis_integrals(P, involution(P))             # the opposite disc


def test_tiny_integrals_from_a_point_to_itself_are_exact_zeros():
    # the superelliptic model's Weierstrass disc (0, 0) at p = 7: the disc
    # parameter of (0, 0) is an exact zero, and so is each integral
    m = _fixture_model("superelliptic_a1", "main_model", 7)
    P0 = Point(PadicNumber.exact_zero(7), PadicNumber.exact_zero(7))
    assert [(v.v, v.u, v.N) for v in m.tiny_basis_integrals(P0, P0)] == [(INF, 0, INF)] * m.dim


def test_tiny_integrals_to_the_own_teichmueller_point_are_exact_zeros():
    # the hyperelliptic base point (0, 3) at p = 23 is its own Teichmueller point
    engine = load_problem(PROBLEMS / "hyperelliptic_6081b.json", p_override=23,
                          prec_override=PREC)
    I = engine.integrator
    m = I.main_model()
    P = m.point(*engine.problem.base_point)
    T = m.teichmueller_point(P)
    assert [(v.v, v.u, v.N) for v in m.tiny_basis_integrals(P, T)] == [(INF, 0, INF)] * m.dim


def test_center_of_a_point_at_infinity_is_rejected():
    m = model(QUARTIC)
    P = Point(PadicNumber.from_rational(Fraction(1, 7), 7, m.M), PadicNumber.from_int(1, 7, m.M))
    with pytest.raises(EndpointRestriction):
        m.teichmueller_point(P)


def test_independent_of_center_choice():
    # integral computed directly vs routed through a third point
    m = model(QUARTIC)
    P = lift_x(m, 3, sign_hint=1)
    Q = lift_x(m, 0, sign_hint=3)
    R = lift_x(m, 11, sign_hint=2)
    direct = m.basis_integrals(P, Q)
    routed = [x + y for x, y in zip(m.basis_integrals(P, R), m.basis_integrals(R, Q))]
    for i in range(m.dim):
        assert direct[i].compare(routed[i]) != "distinct"


def test_weierstrass_disc_endpoints():
    # y^2 = x^4 + x: x = 0 is a simple Weierstrass residue mod 7
    m = model([0, 1, 0, 0, 1])
    P = lift_x(m, 1, sign_hint=3)    # f(1) = 2, sqrt(2) = 3 mod 7
    center = Point(PadicNumber.exact_zero(7), PadicNumber.exact_zero(7))
    xs, ys, _ = m.disc_series(center)
    t = PadicNumber.from_int(2, 7, m.M)
    xv, yv = xs.evaluate(t), ys.evaluate(t)
    assert (yv * yv - m.curve_rhs(xv)).is_zero()
    A = Point(xv, yv)
    # involution-opposite points in one Weierstrass disc: integral stays tiny
    vals = m.basis_integrals(A, involution(A))
    tiny = m.tiny_basis_integrals(A, involution(A))
    for i in range(m.dim):
        assert vals[i].compare(tiny[i]) != "distinct"
    # route from a generic disc into the Weierstrass disc and back
    out = m.basis_integrals(P, A)
    back = m.basis_integrals(A, P)
    for i in range(m.dim):
        assert (out[i] + back[i]).is_zero()
    # concatenate through the Weierstrass disc
    Q = lift_x(m, 2, sign_hint=2)   # f(2) = 18 = 4 mod 7 = 2^2
    via = [a + b for a, b in zip(m.basis_integrals(P, A), m.basis_integrals(A, Q))]
    direct = m.basis_integrals(P, Q)
    for i in range(m.dim):
        assert via[i].compare(direct[i]) != "distinct"


def test_disc_series_satisfies_curve_equation():
    rng = random.Random(22)
    for f in (QUARTIC, [0, 1, 0, 0, 1], [1, 1, -5, -1, 3, 2, 4]):
        m = model(f)
        for P in points_on(m, 2, rng):
            xs, ys = (padic_series(s) for s in m.disc_series(P)[:2])
            diff = ys * ys - _poly_series(m.f, xs)
            for c in diff.coeffs:
                assert c.is_zero() or c.is_exact_zero()


def _poly_series(coeffs, xs):
    return poly_of_series(coeffs, xs)


def test_principal_divisor_holomorphic_vanishes():
    m = model(QUARTIC)
    P1 = lift_x(m, 3, sign_hint=1)
    P2 = lift_x(m, 0, sign_hint=3)
    tot = [PadicNumber.exact_zero(7)] * m.dim
    for pt, sgn in [(P1, 1), (involution(P1), 1), (P2, -1), (involution(P2), -1)]:
        vals = m.basis_integrals(P2, pt)
        tot = [t + (v if sgn > 0 else -v) for t, v in zip(tot, vals)]
    # div((x - 3)/x): omega_0 = dx/y is holomorphic on this genus-1 quartic
    assert tot[0].is_zero()


# -- the integer Frobenius kernel ---------------------------------------------


def _schoolbook(a, b, mod):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % mod
    return out


def _random_poly(rng, n, mod, zeros=0.2):
    return [0 if rng.random() < zeros else rng.randrange(mod) for _ in range(n)]


def test_kronecker_product_matches_schoolbook():
    """_int_pmul(a, b, mod, lo, hi) is the slice [lo:hi] of the product: empty
    ranges, hi past the end and lopsided shapes included."""
    from affine_chabauty.hyperelliptic import _int_pmul

    rng = random.Random(31)
    shapes = [(1, 1), (1, 9), (4, 3), (17, 40), (64, 64), (2100, 3), (5, 2050), (300, 290)]
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        mod = p ** rng.randrange(1, 60)
        for la, lb in shapes:
            a, b = _random_poly(rng, la, mod), _random_poly(rng, lb, mod)
            full = _schoolbook(a, b, mod)
            assert _int_pmul(a, b, mod) == full
            n = len(full)
            cuts = [(0, 0), (0, 1), (n, n), (n - 1, n + 40), (0, n + 1), (3, 2), (n + 2, n + 9),
                    (n // 2, n // 2), (n // 3, 2 * n // 3)]
            cuts += [tuple(sorted(rng.randrange(n + 3) for _ in range(2))) for _ in range(2)]
            for lo, hi in cuts:
                assert _int_pmul(a, b, mod, lo, hi) == full[lo:hi], (la, lb, lo, hi)
            assert _int_pmul(a, b, mod, lo=n // 2) == full[n // 2:]
        a = _random_poly(rng, 50, mod)
        assert _int_pmul(a, a, mod) == _schoolbook(a, a, mod)
        assert _int_pmul(a, a, mod, 10, 60) == _schoolbook(a, a, mod)[10:60]
        assert _int_pmul([0] * 30, a, mod) == [0] * 79
        assert _int_pmul([], a, mod) == []
        assert _int_pmul([], a, mod, 3, 9) == []


def test_radix_conversion_round_trips():
    from affine_chabauty.hyperelliptic import _f_adic_digits, _int_padd, _int_pmul

    rng = random.Random(32)
    for p, d in ((3, 3), (7, 4), (11, 6), (23, 5)):
        mod = p ** 30
        f = _random_poly(rng, d, mod, zeros=0) + [rng.randrange(1, p)]
        g = _random_poly(rng, 37, mod)
        polys = [[], [5], _random_poly(rng, d - 1, mod), _random_poly(rng, d, mod),
                 _random_poly(rng, 1000, mod), _int_pmul(f, g, mod), _int_pmul(f, f, mod)]
        for poly in polys:
            digits = _f_adic_digits(poly, f, mod)
            assert all(len(r) <= d for r in digits)
            acc = []
            for r in reversed(digits):
                acc = _int_padd(_int_pmul(acc, f, mod), r, mod)
            n = max(len(acc), len(poly))
            assert acc + [0] * (n - len(acc)) == poly + [0] * (n - len(poly))
        assert not any(_f_adic_digits(_int_pmul(f, g, mod), f, mod)[0])


def test_stride_product_matches_the_dense_product():
    from affine_chabauty.hyperelliptic import _int_pmul, _int_pmul_stride

    rng = random.Random(33)
    for p in (3, 5, 7, 23):
        mod = p ** 20
        for la, lg in ((1, 1), (1, 6), (p - 1, 4), (p, 1), (p + 2, 7), (5 * p + 3, 13), (300, 40)):
            a, g = _random_poly(rng, la, mod), _random_poly(rng, lg, mod)
            spread = [0] * ((lg - 1) * p + 1)
            spread[::p] = g
            assert _int_pmul_stride(a, g, p, mod) == _int_pmul(a, spread, mod)
        assert _int_pmul_stride([], [1], p, mod) == []


def _numerator_reference(f, p, K, N, alpha=Fraction(-1, 2)):
    """num = sum_k c_k u^k f^(p(K-k)), u = f(x^p) - f^p, by Horner, with c_k =
    binomial(alpha, k) from its product formula: the reference for the binary
    splitting."""
    from affine_chabauty.hyperelliptic import _int_padd, _int_pmul, _int_sub

    def coeff(k):
        b = Fraction(1)
        for i in range(k):
            b *= (alpha - i) / (i + 1)
        return b.numerator * pow(b.denominator, -1, mod) % mod

    mod = p ** N
    fxp = [0] * (p * (len(f) - 1) + 1)
    fxp[::p] = f
    fp = [1]
    for _ in range(p):
        fp = _int_pmul(fp, f, mod)
    u = _int_sub(fxp, fp, mod)
    num = [coeff(K)]
    fpow = [1]
    for k in range(K - 1, -1, -1):
        fpow = _int_pmul(fpow, fp, mod)
        ck = coeff(k)
        num = _int_padd(_int_pmul(num, u, mod), [c * ck % mod for c in fpow], mod)
    return num


@pytest.mark.parametrize("p", [3, 5, 7, 23])
def test_binary_splitting_numerator_matches_horner(p):
    rng = random.Random(34 + p)
    N = 15
    mod = p ** N
    polys = [[c % mod for c in (9, 20, 2, -18, -7, 2, 1)],   # even degree
             [c % mod for c in (1, 1, 0, 1)],                # odd degree
             _random_poly(rng, 5, mod, zeros=0) + [rng.randrange(1, p)]]
    for f in polys:
        for K in (0, 1, 2, 7, 22):
            assert single_layer_numerator(f, p, K, N) == _numerator_reference(f, p, K, N)
    alpha = Fraction(-2, 3) if p != 3 else Fraction(-1, 4)  # any p-adic integer
    assert single_layer_numerator(polys[2], p, 5, N, alpha) == \
        _numerator_reference(polys[2], p, 5, N, alpha)


@pytest.mark.parametrize("shifted", [False, True], ids=["shift0", "shift_p_minus_1"])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 23, 47])
def test_graded_numerator_digits_match_the_single_layer_reference(p, shifted):
    """The two layers, A_0 mod p^N and A_1 mod p^(N-h), give the digits of the
    numerator at one precision exactly, for n = 2 and 3, K = 0, 1, 2, an odd and an
    even K, N = K + 1 and N = K + 4 (c_k = binomial(-b/n, k) is a p-adic integer for
    p != n), and so do the layers times x^shift, shift 0 or p - 1; at p = 23 and
    K >= 12, p divides c_k."""
    from affine_chabauty.hyperelliptic import _f_adic_digits, _numerator_digits

    rng = random.Random(35 + p)
    shift = (p - 1) * shifted
    Ks = [0, 1, 2, 5, 8] + ([12, 19] if p == 23 else [])
    for n, deg in [(2, 4), (2, 6)] + [(3, 3), (3, 6)] * (p != 3):
        alphas = [Fraction(-b, n) for b in range(1, n)]
        for K in Ks:
            for N in (K + 1, K + 4):
                mod = p ** N
                f = _random_poly(rng, deg, mod, zeros=0) + [rng.randrange(1, p)]
                size = p * (deg - 1)
                got, tower = _numerator_digits(f, p, K, N, alphas, size, shift)
                want, _ = single_layer_digits(f, p, K, N, alphas, size, shift)
                # digit by digit as polynomials: the same count, each padded to deg f
                assert [_padded(ds, deg) for ds in got] == [_padded(ds, deg) for ds in want], \
                    (n, deg, K, N)
                # the shared tower also converts polys of length size, as the x^p that
                # _reduce reads
                for s in (0, size - 1):
                    assert _f_adic_digits([0] * s + [1], f, mod, tower) == \
                        _f_adic_digits([0] * s + [1], f, mod)


def _padded(digits, deg):
    """Each digit padded to deg coefficients: digit lists compared as polynomials."""
    return [(r + [0] * deg)[:deg] for r in digits]


@pytest.mark.parametrize("p,deg", [(3, 6), (5, 6), (7, 4), (23, 6), (47, 6), (97, 6)])
def test_each_chained_shift_has_the_digits_of_x_to_the_shift_times_the_polynomial(p, deg):
    """_shifted_digits takes each shift's digits from the one before times x^p: they
    are the f-adic digits of x^s times the polynomial, for shifts that start at 0 or
    at p - 1, with a step x^p shorter than f when p < deg f, and from digit lists
    whose digits are shorter than deg f or empty."""
    from affine_chabauty.hyperelliptic import (_f_adic_digits, _f_adic_tower, _int_padd,
                                               _int_pmul, _shifted_digits)

    rng = random.Random(37 + p)
    mod = p ** 9
    f = _random_poly(rng, deg, mod, zeros=0) + [rng.randrange(1, p)]
    tower = _f_adic_tower(f, p + 1, mod)
    for digits in ([[1]], [[2, 0, 1], [], [5]], [_random_poly(rng, rng.randrange(deg + 1), mod)
                                                 for _ in range(3 * deg)]):
        poly, fj = [], [1]
        for r in digits:  # poly = sum_j digits[j] f^j
            poly, fj = _int_padd(poly, _int_pmul(r, fj, mod), mod), _int_pmul(fj, f, mod)
        for start in (0, p - 1):
            shifts = [start + p * i for i in range(deg - 1)]
            first = digits if start == 0 else _f_adic_digits([0] * start + poly, f, mod)
            got = _shifted_digits(first, shifts, f, mod, tower)
            assert len(got) == len(shifts) and got[0] == first
            for s, D in zip(shifts[1:], got[1:]):
                assert _padded(D, deg) == _padded(_f_adic_digits([0] * s + poly, f, mod), deg)


@pytest.mark.parametrize("p", [3, 47, 97])
def test_a_chained_shift_of_digits_all_mod_minus_one_fits_its_slots(p):
    """Every digit coefficient mod - 1, the largest sums the Kronecker slots of the column
    map hold: the digits agree with per_shift_digits, one product and one carry per
    shift.  At p = 47 and 97 x^(p + k) has more digits than deg f."""
    from affine_chabauty.hyperelliptic import _f_adic_tower, _shifted_digits

    rng = random.Random(41 + p)
    deg, mod = 6, p ** 9
    f = _random_poly(rng, deg, mod, zeros=0) + [rng.randrange(1, p)]
    digits = [[mod - 1] * deg for _ in range(4 * deg)]
    shifts = [p - 1 + p * i for i in range(deg - 1)]
    tower = _f_adic_tower(f, p * deg, mod)

    def trimmed(D):
        D = _padded(D, deg)
        while D and not any(D[-1]):
            D.pop()
        return D
    assert [trimmed(D) for D in _shifted_digits(digits, shifts, f, mod, tower)] == \
        [trimmed(D) for D in per_shift_digits(digits, shifts, f, mod, tower)]


@pytest.mark.parametrize("fixture,p", [("hyperelliptic_6081b", 5), ("hyperelliptic_6081b", 23),
                                       ("superelliptic_a1", 13)])
def test_each_eigenspace_converts_x_to_the_p_plus_k_once_and_maps_deg_f_minus_2_steps(
        fixture, p, monkeypatch):
    """The first basis element's digits come shifted out of the numerator, and each next
    one's from the one before by one map on its digit columns: per eigenspace the digits
    of x^(p + k), k < deg f, are converted once, and each of the deg f - 2 steps unpacks
    one Kronecker sum per digit coefficient, outside any polynomial product."""
    from affine_chabauty import hyperelliptic

    curve = load_problem(PROBLEMS / f"{fixture}.json", p_override=p).problem.curve
    m = HyperellipticModel(curve.g, p, 12, curve.n)
    stack, monomials, unpacks = [], [], 0

    def traced(name, kernel):
        def call(*args):
            nonlocal unpacks
            if name == "_f_adic_digits" and "_shifted_digits" in stack and not any(args[0][:-1]):
                monomials.append(len(args[0]) - 1)
            unpacks += name == "_unpack" and stack == ["_shifted_digits"]
            stack.append(name)
            try:
                return kernel(*args)
            finally:
                stack.pop()
        return call
    for name in ("_shifted_digits", "_f_adic_digits", "_int_pmul", "_unpack"):
        monkeypatch.setattr(hyperelliptic, name, traced(name, getattr(hyperelliptic, name)))
    m.frobenius_data()
    assert sorted(monomials) == sorted([p + k for k in range(m.deg)] * (m.n - 1))
    assert unpacks == (m.n - 1) * (m.deg - 2) * m.deg


def test_an_extended_tower_converts_like_a_fresh_one():
    """A tower mod p^20 reduced mod p^12 and extended, each new inverse seeded with
    the square of the one below, agrees with a tower built from scratch mod p^12."""
    from affine_chabauty.hyperelliptic import _f_adic_digits, _f_adic_tower, _int_series_inv

    rng = random.Random(36)
    for p, d in ((3, 3), (7, 4), (23, 6)):
        f = _random_poly(rng, d, p ** 20, zeros=0) + [rng.randrange(1, p)]
        low = _f_adic_tower(f, 5 * d, p ** 20)
        f12 = [c % p ** 12 for c in f]
        for size in (1, 3 * d, 40 * d + 3):
            got = _f_adic_tower(f12, size, p ** 12, low)
            want = single_layer_tower(f12, size, p ** 12)
            assert [g for g, _ in got.levels] == [g for g, _ in want]
            for (g, h), (_, h_ref) in zip(got.levels, want):
                assert h[:len(h_ref)] == h_ref and len(h) >= len(h_ref)
                assert _int_series_inv(g[::-1], len(h), p ** 12) == h
            poly = _random_poly(rng, size, p ** 12)
            assert _f_adic_digits(poly, f12, p ** 12, got) == _f_adic_digits(poly, f12, p ** 12)


def test_a_reduced_tower_carries_the_leaf_map_of_a_fresh_one():
    """A tower mod p^20 reduced mod p^12 and extended carries the leaf map of a tower
    built from scratch mod p^12, and converts polys that end at, below or above every
    leaf boundary k B, B = 8 deg f, exactly as the fresh tower does."""
    from affine_chabauty.hyperelliptic import _f_adic_digits, _f_adic_tower

    rng = random.Random(43)
    for p, d in ((3, 3), (7, 4), (23, 6)):
        f = _random_poly(rng, d, p ** 20, zeros=0) + [rng.randrange(1, p)]
        low = _f_adic_tower(f, 5 * d, p ** 20)
        f12 = [c % p ** 12 for c in f]
        B = 8 * d
        sizes = [n for k in range(1, 5) for n in (k * B - 1, k * B, k * B + 1)]
        got = _f_adic_tower(f12, sizes[-1], p ** 12, low)
        fresh = _f_adic_tower(f12, sizes[-1], p ** 12)
        assert got.phi == fresh.phi and len(got.phi) == B
        for size in sizes:
            poly = _random_poly(rng, size, p ** 12)
            assert _f_adic_digits(poly, f12, p ** 12, got) == \
                _f_adic_digits(poly, f12, p ** 12, fresh), (p, size)


@pytest.mark.parametrize("deg", [3, 6])
@pytest.mark.parametrize("p", [7, 23, 97])
def test_the_leaf_map_gives_the_digits_of_the_recursive_reference(p, deg):
    """The packed levels and the leaf map give the digits of the recursive split down to
    single digits (tests_support.reference_digits), each padded to deg f: on a tower mod
    p^m and on the same tower reduced mod p^(m - h), as the two numerator layers use
    them, for lengths at the leaf size B = 8 deg f and around it, and with every
    coefficient mod - 1, the largest sums the slots hold."""
    from affine_chabauty.hyperelliptic import _f_adic_digits, _f_adic_tower

    rng = random.Random(44 + p + deg)
    m, h, B = 12, 5, 8 * deg
    f = _random_poly(rng, deg, p ** m, zeros=0) + [rng.randrange(1, p)]
    tower = _f_adic_tower(f, 3000, p ** m)
    for mod, tw in ((p ** m, tower), (p ** (m - h), _f_adic_tower(f, 3000, p ** (m - h), tower))):
        fm = [c % mod for c in f]
        polys = [_random_poly(rng, n, mod) for n in (0, 1, B - 1, B, B + 1, 2 * B + 1, 3000)]
        polys += [[mod - 1] * n for n in (B, 2 * B + 1, 3000)]
        for poly in polys:
            assert _padded(_f_adic_digits(poly, fm, mod, tw), deg) == \
                _padded(reference_digits(poly, fm, mod), deg), (mod, len(poly))


def _root_inverse_reference(G, T, mod, z0, n):
    """The z = G^(-1/n) loop that _local_parametrization ran before it called
    _int_series_inv(G, T, mod, [z0], n)."""
    from affine_chabauty.hyperelliptic import _int_pmul

    z, ninv = [z0], pow(n, -1, mod)
    while len(z) < T:
        k = min(2 * len(z), T)
        zn = z
        for _ in range(n - 1):
            zn = _int_pmul(zn, z, mod, 0, k)
        err = _int_pmul(G, zn, mod, len(z), k)  # G z^n = 1 + s^len(z) err
        z += _int_pmul([-c * ninv % mod for c in err], z, mod, 0, k - len(z))
    return z


@pytest.mark.parametrize("r", [1, 2, 3])
def test_int_series_inv_takes_the_r_th_root_of_the_inverse_like_the_inline_loop(r):
    """_int_series_inv(a, T, mod, [h0], r), h0^r a(0) = 1, equals the loop it
    replaced, and a h^r = 1 mod x^T; for r = 1 the default start 1/a(0) too."""
    from affine_chabauty.hyperelliptic import _int_pmul, _int_series_inv

    rng = random.Random(r)
    for p, N, T in ((7, 12, 1), (7, 12, 13), (13, 20, 48), (37, 10, 33)):
        mod = p ** N
        h0 = (rng.randrange(1, p) + p * rng.randrange(mod)) % mod
        a = [pow(h0, -r, mod)] + _random_poly(rng, T + 3, mod)
        h = _int_series_inv(a, T, mod, [h0], r)
        assert h == _root_inverse_reference(a, T, mod, h0, r)
        hr = [1]
        for _ in range(r):
            hr = _int_pmul(hr, h, mod, 0, T)
        assert _int_pmul(a, hr, mod, 0, T) == [1] + [0] * (T - 1)
        if r == 1:
            assert _int_series_inv(a, T, mod) == h


@pytest.mark.parametrize("fixture,p,prec", [("hyperelliptic_6081b", 5, 6),
                                            ("hyperelliptic_6081b", 23, 16),
                                            ("hyperelliptic_6081b", 47, 12),
                                            ("superelliptic_a1", 7, 12),
                                            ("superelliptic_a1", 37, 8)])
def test_lifted_bezout_cofactor_equals_the_sylvester_solve(fixture, p, prec):
    """_bezout lifts f'^-1 mod (f, p) by Newton to the t of the Sylvester system
    s f + t f' = 1 mod p^M; t is unique with deg t < deg f."""
    curve = load_problem(PROBLEMS / f"{fixture}.json", p_override=p).problem.curve
    m = HyperellipticModel(curve.g, p, prec, curve.n)
    t = m._bezout()
    assert len(t) <= m.deg and (t + [0] * m.deg)[:m.deg] == sylvester_bezout(m)


@pytest.mark.parametrize("fixture,p,prec", [("hyperelliptic_6081b", 5, 6),
                                            ("hyperelliptic_6081b", 23, 12),
                                            ("superelliptic_a1", 7, 12),
                                            ("superelliptic_a1", 13, 6)])
def test_graded_frobenius_data_equals_the_single_layer_data(fixture, p, prec):
    I = load_problem(PROBLEMS / f"{fixture}.json", p_override=p, prec_override=prec).integrator
    assert frobenius_differences(I.main_model()) == []


@pytest.mark.parametrize("fixture,p,prec", [("hyperelliptic_6081b", 5, 6),
                                            ("hyperelliptic_6081b", 7, 12),
                                            ("hyperelliptic_6081b", 23, 12),
                                            ("hyperelliptic_6081b", 47, 12),
                                            ("hyperelliptic_6081b", 23, 20),
                                            ("superelliptic_a1", 7, 12),
                                            ("superelliptic_a1", 37, 8)])
def test_the_numerator_past_K_prime_terms_only_shifts_its_digits(fixture, p, prec):
    """u = f(x^p) - f^p is 0 mod p, so mod p^m, m = M - L - 1, the numerator at
    K terms is f^(p(K - K')) times the one at K' = min(K, m - 1): its f-adic
    digits are p(K - K') zero digits, then the digits at K'."""
    from affine_chabauty.hyperelliptic import _numerator_digits

    curve = load_problem(PROBLEMS / f"{fixture}.json", p_override=p).problem.curve
    m = HyperellipticModel(curve.g, p, prec, curve.n)
    mm = m.M - m.L - 1
    Kp = min(m.K, mm - 1)
    assert Kp < m.K
    fm = [c.residue(mm) for c in m.f]
    for b in range(1, m.n):
        full, short = (single_layer_digits(fm, p, K, mm, [Fraction(-b, m.n)], 1, 0)[0][0]
                       for K in (m.K, Kp))
        assert full == [[0] * m.deg] * (p * (m.K - Kp)) + short
        graded = _numerator_digits(fm, p, Kp, mm, [Fraction(-b, m.n)], 1, 0)[0][0]
        assert _padded(graded, m.deg) == _padded(short, m.deg)


def test_reduction_records_an_exact_form_and_checks_the_division():
    from affine_chabauty.errors import PrecisionExceeded

    m = model(QUARTIC)
    p, M = m.p, m.M
    mod = p ** M
    f = [c.residue(M) for c in m.f]
    t = m._bezout()
    # d(1/y^3) = -(3/2) f' dx/y^5: nothing left in cohomology, exact part 1/y^3
    dform = [-3 * k * c * pow(2, -1, mod) % mod for k, c in enumerate(f)][1:]
    col, poles, yparts = m._reduce([dform], [0], 2, f, t, M, 0, 10)[0]
    poles, yparts = exact_parts(p, poles, yparts, 0, 10)
    assert all(c.is_zero() for c in col) and yparts == []
    assert [mm for mm, _ in poles] == [2]
    assert poles[0][1][0].compare(1) == "equal"
    assert all(c.is_zero() for c in poles[0][1][1:])
    with pytest.raises(PrecisionExceeded):
        m._reduce([dform], [0], 2, f, [(t[0] + 1) % mod] + t[1:], M, 0, 10)


def test_a_division_beyond_the_headroom_raises():
    from affine_chabauty.errors import PrecisionExceeded

    m = model(QUARTIC)
    p, M = m.p, m.M
    f = [c.residue(M) for c in m.f]
    t = m._bezout()
    assert any(c % p for c in t)  # t f' = 1 mod f: t is a unit mod p
    # dx/y^9 = -d(2 t / (7 y^7)) + (...) dx/y^7: an exact part that needs one
    # digit more than L = 0 allows
    with pytest.raises(PrecisionExceeded):
        m._reduce([[1]], [0], 4, f, t, M, 0, 10)
    # with L = 1 the same form (input 7 / 7^1) reduces, exact part -2t/7 / y^7
    col, poles, yparts = m._reduce([[p]], [0], 4, f, t, M, 1, 10)[0]
    poles, yparts = exact_parts(p, poles, yparts, 1, 10)
    assert poles[0][0] == 4
    assert min(c.v for c in poles[0][1] if not c.is_zero()) == -1
    exact = [PadicNumber.from_int(-2 * c, p, M) / p for c in t]
    assert all(a.compare(b) != "distinct" for a, b in zip(poles[0][1], exact))


def _reduce_reference(m, digits, shift, top, f, t, M, cap):
    """The reduction with its p^E bookkeeping at the loss-sum precision: the
    reference for the exact divisions under a fixed headroom.  A stored value c
    stands for c / p^E, p^E the p-parts of the divisors met so far."""
    from affine_chabauty.errors import PrecisionExceeded
    from affine_chabauty.hyperelliptic import _int_divmod_f, _int_pmul, _int_sub
    from affine_chabauty.padics import _vp

    p, d = m.p, m.deg
    mod = p ** M
    fprime = [k * c % mod for k, c in enumerate(f)][1:]
    f = [c - mod if 2 * c > mod else c for c in f]
    lead_inv = pow(f[-1], -1, mod)
    maps = []
    for k in range(d):
        B = _int_divmod_f(_int_pmul([0] * k + [1], t, mod), f, mod)[1]
        Q, rem = _int_divmod_f(_int_sub([0] * k + [1], _int_pmul(B, fprime, mod), mod), f, mod)
        if any(rem):
            raise PrecisionExceeded("f does not divide P - B f' to the working precision")
        maps.append((B, Q))

    def out(c, E):
        x = PadicNumber.from_int(c, p, M)
        N = min(M - E, cap)
        return PadicNumber.unknown_zero(p, N) if x.v - E >= N else \
            PadicNumber(p, x.v - E, x.u % p ** (N - x.v + E), N)

    E = 0
    poles = []
    yparts = []
    P = [0] * (max(shift, d) + d)
    for mm in range(top, 0, -1):
        if top - mm < len(digits):
            scale = p ** E
            for k, c in enumerate(digits[top - mm]):
                P[shift + k] += c * scale
        Q, R = _int_divmod_f(P, f, mod)
        if not any(R) and not any(Q):
            continue
        B = [0] * d
        for r, (Bk, Qk) in zip(R, maps):
            for n, c in enumerate(Bk):
                B[n] += r * c
            for n, c in enumerate(Qk):
                Q[n] += r * c
        a = _vp(2 * mm - 1, p)
        E += a
        scale = p ** a
        inv = 2 * pow((2 * mm - 1) // scale, -1, mod)
        B = [c * inv % mod for c in B]
        P = [c * scale for c in Q] + [0] * d
        for n in range(1, d):
            P[n - 1] += n * B[n]
        poles.append((mm, E, [-c % mod for c in B]))
    P = [c % mod for c in P]
    inv2 = pow(2, -1, mod)
    while len(P) > m.dim:
        c = P.pop()
        if not c:
            continue
        s = len(P) - d + 1
        a = _vp(2 * s + d, p)
        E += a
        scale = p ** a
        lam = 2 * c * lead_inv * pow((2 * s + d) // scale, -1, mod) % mod
        P = [c * scale for c in P]
        if s:
            P[s - 1] -= lam * s * f[0]
        for k in range(d - 1):
            P[s + k] -= lam * (s * f[k + 1] + inv2 * fprime[k])
        P = [c % mod for c in P]
        yparts.append((s, E, lam))
    return ([out(c, E) for c in P] + [out(0, E)] * (m.dim - len(P)),
            [(mm, [out(c, e) for c in B]) for mm, e, B in poles],
            [(s, out(lam, e)) for s, e, lam in yparts])


def _frobenius_reference(m):
    """(matrix, dagger) of m by _reduce_reference, mod p^N with N = tp plus the
    sum of v_p(2m - 1) over every pole step and v_p(2s + deg) over every
    degree step; f and the Bezout cofactor are taken at that N, not at the
    model's M."""
    from affine_chabauty.hyperelliptic import _f_adic_digits
    from affine_chabauty.padics import _vp

    p, K, d = m.p, m.K, m.deg
    tp = K - 4
    top = p * K + (p - 1) // 2
    loss = sum(_vp(2 * mm - 1, p) for mm in range(1, top + 1))
    loss += sum(_vp(2 * s + d, p) for s in range(p * m.dim + d))
    N = tp + loss
    mod = p ** N
    at_N = copy.copy(m)  # m with f, and so the Bezout cofactor, at precision N
    at_N.M, at_N.f = N, [PadicNumber.from_rational(c, p, N) for c in m.f_rational[: d + 1]]
    fint = [c.residue(N) for c in at_N.f]
    num = single_layer_numerator(fint, p, K, N)
    digits = _f_adic_digits([c * p % mod for c in num], fint, mod)
    t = sylvester_bezout(at_N)
    runs = [_reduce_reference(m, digits, p * i + p - 1, top, fint, t, N, tp) for i in range(m.dim)]
    return [col for col, _, _ in runs], [(poles, yparts) for _, poles, yparts in runs]


def _nonzero_entries(poles, yparts):
    out = {("y", s): _vun(lam) for s, lam in yparts if not lam.is_zero()}
    out.update({(mm, k): _vun(c) for mm, B in poles for k, c in enumerate(B) if not c.is_zero()})
    return out


def _random_good_model(rng, p, deg, prec):
    while True:
        f = [rng.randrange(-20, 21) for _ in range(deg)] + [rng.choice([1, -1, 2, 3])]
        try:
            return HyperellipticModel(f, p, prec)
        except BadReduction:
            continue


@pytest.mark.parametrize("p,deg,prec", [(3, 4, 4), (3, 6, 12), (5, 4, 12), (5, 6, 8),
                                        (7, 4, 8), (7, 6, 12), (11, 4, 4), (11, 6, 8),
                                        (23, 4, 4), (23, 6, 4)])
def test_exact_divisions_match_the_p_power_reduction(p, deg, prec):
    rng = random.Random(100 * p + 10 * deg + prec)
    for _ in range(2):
        m = _random_good_model(rng, p, deg, prec)
        fd = m.frobenius_data()
        matrix, dagger = _frobenius_reference(m)
        assert [[_vun(c) for c in row] for row in fd.matrix] == \
            [[_vun(c) for c in row] for row in matrix]
        for (poles, yparts), (ref_poles, ref_yparts) in zip(padic_dagger(m), dagger):
            assert _nonzero_entries(poles, yparts) == _nonzero_entries(ref_poles, ref_yparts)
            assert all(c.N == fd.trunc_prec for _, B in poles for c in B)


def _mod_p_point(m, xbar, ybar):
    """A point known mod p: enough for the model to name its disc."""
    return Point(*(PadicNumber.from_int(c, m.p, 1) for c in (xbar, ybar)))


def _affine_teichmueller_points(m):
    return [m.teichmueller_point(_mod_p_point(m, xb, yb)) for xb, yb in _discs_mod_p(m) if yb]


def _discs_mod_p(m):
    """(xbar, ybar) of every affine and Weierstrass (ybar = 0) disc of m."""
    fbar = [c.residue(1) for c in m.f]
    return [(xb, yb) for xb in range(m.p) for yb in range(m.p)
            if (pow(yb, m.n, m.p) - _horner_mod(fbar, xb, m.p)) % m.p == 0]


@settings(max_examples=6, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32), p=st.sampled_from([3, 5, 7, 11]),
       deg=st.sampled_from([4, 6]), prec=st.integers(4, 10))
def test_raising_the_frobenius_precision_keeps_every_digit(seed, p, deg, prec):
    low = _random_good_model(random.Random(seed), p, deg, prec)
    high = HyperellipticModel(low.f_rational, p, prec + 4)
    lo, hi = low.frobenius_data(), high.frobenius_data()
    assert lo.trunc_prec < hi.trunc_prec
    for row_lo, row_hi in zip(lo.matrix, hi.matrix):
        for a, b in zip(row_lo, row_hi):
            assert a.N == lo.trunc_prec and a.compare(b) != "distinct"
    points = zip(_affine_teichmueller_points(low), _affine_teichmueller_points(high))
    for T_lo, T_hi in points:
        for i in range(low.dim):
            a, b = low.dagger_eval(i, T_lo), high.dagger_eval(i, T_hi)
            assert a.compare(b) != "distinct"


def _claims_of_the_disc_layer(m, base):
    """Per non-cuspidal disc of m: (xbar, ybar, groups) with the groups its
    center, the coefficients of each disc series, the tiny basis integrals from
    the point over x = xbar + p of an affine disc to the center, and last the
    basis integrals from base to the center."""
    out = []
    for xb, yb in _discs_mod_p(m):
        T = m.teichmueller_point(_mod_p_point(m, xb, yb))
        xs, ys, monomials = m.disc_series(T)
        groups = [[T.x, T.y]] + [padic_series(s).coeffs for s in (xs, ys, *monomials)]
        if yb:
            groups.append(m.tiny_basis_integrals(lift_x(m, xb + m.p, sign_hint=yb), T))
        out.append((xb, yb, groups + [m.basis_integrals(m.point(*base), T)]))
    return out


@pytest.mark.parametrize("fixture,p", [("hyperelliptic_6081b", 5), ("hyperelliptic_6081b", 23),
                                       ("superelliptic_a1", 7), ("superelliptic_a1", 37)])
def test_the_model_at_M_agrees_with_a_model_twelve_digits_higher(fixture, p):
    """M = tp + 2L carries every digit the disc layer claims: centers, disc
    series, tiny integrals off the center and integrals from the base point to
    each center agree on their own digits with the model at prec + 12, and
    every integral from the base point reaches the truncation cap tp."""
    engine = load_problem(PROBLEMS / f"{fixture}.json", p_override=p)
    curve, base = engine.problem.curve, engine.problem.base_point
    low, high = (HyperellipticModel(curve.g, p, prec, curve.n) for prec in (4, 16))
    assert low.M == low.tp + 2 * low.L
    discs = list(zip(_claims_of_the_disc_layer(low, base), _claims_of_the_disc_layer(high, base)))
    assert len(discs) == len(_discs_mod_p(low)) > 0
    for (xb, yb, lo_groups), (_, _, hi_groups) in discs:
        for lo, hi in zip(lo_groups, hi_groups, strict=True):
            assert all(a.compare(b) != "distinct" for a, b in zip(lo, hi)), (xb, yb)
        assert all(v.is_exact_zero() or v.N == low.tp for v in lo_groups[-1]), (xb, yb)


DISC_KERNEL_GRID = [(fixture, p) for fixture in ("hyperelliptic_6081b", "superelliptic_a1")
                    for p in (5, 7, 13, 19, 23, 37)
                    if load_problem(PROBLEMS / f"{fixture}.json").problem.curve
                    .good_reduction_at(p)]


@pytest.mark.parametrize("fixture,p", DISC_KERNEL_GRID)
def test_disc_kernel_matches_the_padic_series_build(fixture, p):
    """The int disc kernel and the PadicNumber series build agree on every
    non-cuspidal disc: x(t), y(t) and each basis monomial have the same order,
    exact flag, bound and (v, u, N) of every coefficient, so the same exact
    zeros, at model prec 5, 8, 12, 16 and 24."""
    curve = load_problem(PROBLEMS / f"{fixture}.json").problem.curve
    for prec in (5, 8, 12, 16, 24):
        m = HyperellipticModel(curve.g, p, prec, curve.n)
        discs = _discs_mod_p(m)
        assert discs
        for xb, yb in discs:
            pt = _mod_p_point(m, xb, yb)
            got, want = m.disc_series(pt), padic_disc_series(m, pt)
            assert len(got[2]) == len(want[2]) == m.dim
            for a, b in zip([got[0], got[1], *got[2]], [want[0], want[1], *want[2]]):
                assert series_claims(a) == series_claims(b), (prec, xb, yb)


# -- integer dagger evaluation ----------------------------------------------

DAGGER_MODELS = [("hyperelliptic_6081b", "main_model", 7),
                 ("hyperelliptic_6081b", "main_model", 23),
                 ("superelliptic_a1", "main_model", 7)]


@functools.lru_cache(maxsize=None)
def _fixture_model(fixture, name, p):
    engine = load_problem(PROBLEMS / f"{fixture}.json", p_override=p, prec_override=PREC)
    return getattr(engine.integrator, name)()


def _scaled(m, k):
    """A copy of m whose dagger coefficients are divided by p^k, so that its
    int table needs S > 0 digits of headroom: the ints c / p^L become
    c / p^(L + k), known to k digits less."""
    fd = m.frobenius_data()
    out = copy.copy(m)
    out._frob = dataclasses.replace(fd, headroom=fd.headroom + k, trunc_prec=fd.trunc_prec - k)
    out._tables, out._x_classes = None, {}
    return out


def _mixed(m, k, i):
    """_scaled(m, k) with the dagger ints of basis element i multiplied by p^k, mod
    p^(trunc_prec + headroom) as the reduction keeps them: i keeps S = 0 and the others
    need S > 0, so i's N + S lies below the precision e of every x-class."""
    out = _scaled(m, k)
    fd, q = out._frob, m.p ** k
    keep = m.p ** (fd.trunc_prec + fd.headroom)
    poles, yparts = fd.dagger[i]
    times = ([(mm, [c * q % keep for c in B]) for mm, B in poles],
             [(s, c * q % keep) for s, c in yparts])
    out._frob = dataclasses.replace(fd, dagger=fd.dagger[:i] + [times] + fd.dagger[i + 1:])
    return out


def _dagger_reference(m, i, pt):
    """The dagger function of basis element i = x^j dx/y^b at pt by PadicNumber
    Horner: the reference for the int evaluation."""
    poles, yparts = padic_dagger(m)[i]
    p = m.p
    by_m = dict(poles)
    inv_yn = (pt.y ** m.n).inverse()
    acc = PadicNumber.exact_zero(p)
    for mm in range(max(by_m), 0, -1):
        if mm in by_m:
            acc = acc + horner(by_m[mm], pt.x, PadicNumber.exact_zero(p))
        acc = acc * inv_yn
    xpart = PadicNumber.exact_zero(p)
    for s, lam in sorted(yparts, key=lambda t: t[0], reverse=True):
        xpart = xpart + lam * (pt.x ** s if s else 1)
    y_b = pt.y ** (m.n - m.basis[i][1])
    return acc * y_b + xpart * y_b


def _vun(x):
    return x.v, x.u, x.N


@pytest.mark.parametrize("key", DAGGER_MODELS)
def test_integer_dagger_matches_padic_horner_at_full_precision(key):
    base = _fixture_model(*key)
    pts = points_on(base, 4, random.Random(41))
    scaled = _scaled(base, 3)
    for m in (base, scaled):
        for pt in pts:
            for i in range(m.dim):
                assert _vun(m.dagger_eval(i, pt)) == _vun(_dagger_reference(m, i, pt))
    assert all(S > 0 for S, _ in scaled._dagger_tables()[0])


@pytest.mark.parametrize("key", DAGGER_MODELS)
def test_integer_dagger_on_truncated_points_never_claims_more_precision(key):
    base = _fixture_model(*key)
    pt = points_on(base, 1, random.Random(42))[0]
    for m in (base, _scaled(base, 3)):
        Nc = m.frobenius_data().trunc_prec
        for i, (S, _) in enumerate(m._dagger_tables()[0]):
            for cut in (Nc + S - 1, Nc + S - 4, S + 2):
                for x, y in ((pt.x.at_precision(cut), pt.y), (pt.x, pt.y.at_precision(cut)),
                             (pt.x.at_precision(cut), pt.y.at_precision(cut + 1))):
                    got = m.dagger_eval(i, Point(x, y))
                    ref = _dagger_reference(m, i, Point(x, y))
                    assert got.N == min(Nc, x.N - S, y.N - S) <= ref.N
                    assert got.compare(ref) != "distinct"


@pytest.mark.parametrize("key", DAGGER_MODELS)
def test_integer_dagger_with_mixed_headroom_reads_each_element_below_its_x_class(key):
    """One element at S = 0, the others at S > 0: every F is built mod p^e and the S = 0
    element's read mod p^(N + S) < p^e.  dagger_eval equals per_point_dagger_eval as
    (v, u, N) at every affine Teichmueller point and at truncated points; it equals
    _dagger_reference at the former and claims no more precision than it at the latter."""
    m = _mixed(_fixture_model(*key), 3, 0)
    tables, e, _ = m._dagger_tables()
    Nc = m.frobenius_data().trunc_prec
    assert tables[0][0] == 0 < min(S for S, _ in tables[1:]) and Nc < e
    for T in _affine_teichmueller_points(m):
        for i in range(m.dim):
            got = _vun(m.dagger_eval(i, T))
            assert got == _vun(per_point_dagger_eval(m, i, T)) == _vun(_dagger_reference(m, i, T))
    pt = points_on(m, 1, random.Random(43))[0]
    for cut in (e - 1, Nc - 1, 5):
        for x, y in ((pt.x.at_precision(cut), pt.y), (pt.x, pt.y.at_precision(cut)),
                     (pt.x.at_precision(cut), pt.y.at_precision(cut + 1))):
            for i, (S, _) in enumerate(tables):
                got = m.dagger_eval(i, Point(x, y))
                assert _vun(got) == _vun(per_point_dagger_eval(m, i, Point(x, y)))
                ref = _dagger_reference(m, i, Point(x, y))
                assert got.N == min(Nc, x.N - S, y.N - S) <= ref.N
                assert got.compare(ref) != "distinct"


@pytest.mark.parametrize("key", DAGGER_MODELS[:2])
def test_integer_dagger_at_an_exact_zero_x(key):
    m = _fixture_model(*key)
    T = m.teichmueller_point(lift_x(m, 0, sign_hint=3))  # f(0) = 9
    assert T.x.is_exact_zero()
    for i in range(m.dim):
        assert _vun(m.dagger_eval(i, T)) == _vun(_dagger_reference(m, i, T))


@pytest.mark.parametrize("key", DAGGER_MODELS[1:])
def test_integer_dagger_rejects_weierstrass_discs(key):
    m = _fixture_model(*key)
    fbar = [c.residue(1) for c in m.f]
    xbar = next(x for x in range(m.p) if _horner_mod(fbar, x, m.p) == 0)
    W = m.teichmueller_point(_mod_p_point(m, xbar, 0))
    for pt in (W, Point(W.x, PadicNumber.from_int(m.p, m.p, m.M))):
        with pytest.raises(EndpointRestriction):
            m.dagger_eval(0, pt)


# -- per-point work once: x-classes, one elimination, one center per disc --------

X_CLASS_MODELS = [("hyperelliptic_6081b", 7), ("hyperelliptic_6081b", 13),
                  ("hyperelliptic_6081b", 23), ("superelliptic_a1", 7), ("superelliptic_a1", 13)]


@pytest.mark.parametrize("fixture,p", X_CLASS_MODELS)
def test_dagger_values_shared_per_x_class_match_the_padic_reference(fixture, p):
    """At every affine Teichmueller point dagger_eval equals the PadicNumber Horner of
    _dagger_reference as (v, u, N), and the n points (x, zeta^k y) over one x share one
    x-class: one z-chain and one F(x, z) per basis element."""
    engine = load_problem(PROBLEMS / f"{fixture}.json", p_override=p, prec_override=PREC)
    m = engine.integrator.main_model()
    points = _affine_teichmueller_points(m)
    for T in points:
        for i in range(m.dim):
            assert _vun(m.dagger_eval(i, T)) == _vun(_dagger_reference(m, i, T))
    assert len(points) == m.n * len(m._x_classes) > 0
    assert all(len(Fs) == m.dim for Fs in m._x_classes.values())


@pytest.mark.parametrize("fixture,p", [("hyperelliptic_6081b", 7), ("superelliptic_a1", 7)])
def test_a_solve_eliminates_I_minus_frobenius_once(fixture, p, monkeypatch):
    """Every pair solve of a model replays one elimination of I - Frob: padic_solve's
    eliminations (neither below nor guard) number one, the pair solves more."""
    from affine_chabauty import linalg
    eliminations, systems = [], []
    orig_eliminate, orig_system = linalg._eliminate, HyperellipticModel._teich_system
    monkeypatch.setattr(linalg, "_eliminate", lambda a, n, below=False, guard=False: (
        eliminations.append(below or guard) or orig_eliminate(a, n, below, guard)))
    monkeypatch.setattr(HyperellipticModel, "_teich_system",
                        lambda self, TP, TQ: systems.append(1) or orig_system(self, TP, TQ))
    load_problem(PROBLEMS / f"{fixture}.json", p_override=p, prec_override=PREC).solve()
    assert eliminations.count(False) == 1 and len(systems) > 1


def test_each_disc_center_is_lifted_once_and_equals_a_fresh_lift():
    """teichmueller_point keeps one center per (x mod p, y mod p): two points of one
    disc get the same Point, equal as (v, u, N) to the center lifted again."""
    from tests_support import lifted_center
    m = _fixture_model("hyperelliptic_6081b", "main_model", 23)
    for xb, yb in _discs_mod_p(m):
        pt = _mod_p_point(m, xb, yb)
        T = m.teichmueller_point(pt)
        assert m.teichmueller_point(Point(pt.x.at_precision(1), pt.y)) is T
        ref = lifted_center(m, pt)
        assert (_vun(T.x), _vun(T.y)) == (_vun(ref.x), _vun(ref.y))
    assert len(m._centers) == len(_discs_mod_p(m))
