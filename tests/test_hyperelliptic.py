import copy
import dataclasses
import functools
import pathlib
import random
from fractions import Fraction

import pytest

from affine_chabauty.errors import BadReduction, DifferentDiscs, EndpointRestriction
from affine_chabauty.hyperelliptic import HyperellipticModel, Point, chart_center
from affine_chabauty.padics import PadicNumber, _horner_mod, horner
from affine_chabauty.problem import load_problem
from tests_support import lift_x

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
        if fx.is_zero() or fx.v % 2 or fx.v > 0:
            continue
        r = fx.u % m.p
        if pow(r, (m.p - 1) // 2, m.p) != 1:
            continue
        hint = next(h for h in range(1, m.p) if h * h % m.p == r)
        if rng.random() < 0.5:
            hint = m.p - hint
        out.append(lift_x(m, x, sign_hint=hint))
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
        m.tiny_basis_integrals(P, P.involution())             # the opposite disc


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
    vals = m.basis_integrals(A, A.involution())
    tiny = m.tiny_basis_integrals(A, A.involution())
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
            xs, ys, _ = m.disc_series(P)
            diff = ys * ys - _poly_series(m.f, xs)
            for c in diff.coeffs:
                assert c.is_zero() or c.is_exact_zero()


def _poly_series(coeffs, xs):
    from affine_chabauty.hyperelliptic import _poly_of_series
    return _poly_of_series(coeffs, xs)


def test_principal_divisor_holomorphic_vanishes():
    m = model(QUARTIC)
    P1 = lift_x(m, 3, sign_hint=1)
    P2 = lift_x(m, 0, sign_hint=3)
    tot = [PadicNumber.exact_zero(7)] * m.dim
    for pt, sgn in [(P1, 1), (P1.involution(), 1), (P2, -1), (P2.involution(), -1)]:
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
    from affine_chabauty.hyperelliptic import _int_pmul

    rng = random.Random(31)
    shapes = [(1, 1), (1, 9), (4, 3), (17, 40), (64, 64), (2100, 3), (5, 2050), (300, 290)]
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        mod = p ** rng.randrange(1, 60)
        for la, lb in shapes:
            a, b = _random_poly(rng, la, mod), _random_poly(rng, lb, mod)
            assert _int_pmul(a, b, mod) == _schoolbook(a, b, mod)
        a = _random_poly(rng, 50, mod)
        assert _int_pmul(a, a, mod) == _schoolbook(a, a, mod)
        assert _int_pmul([0] * 30, a, mod) == [0] * 79
        assert _int_pmul([], a, mod) == []


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


def _numerator_reference(f, p, K, N):
    """num = sum_k c_k u^k f^(p(K-k)), u = f(x^p) - f^p, by Horner: the
    reference for the binary splitting."""
    from affine_chabauty.hyperelliptic import (
        _binom_half, _int_from_fraction, _int_padd, _int_pmul, _int_sub)

    mod = p ** N
    fxp = [0] * (p * (len(f) - 1) + 1)
    fxp[::p] = f
    fp = [1]
    for _ in range(p):
        fp = _int_pmul(fp, f, mod)
    u = _int_sub(fxp, fp, mod)
    num = [_int_from_fraction(_binom_half(K), p, N)]
    fpow = [1]
    for k in range(K - 1, -1, -1):
        fpow = _int_pmul(fpow, fp, mod)
        ck = _int_from_fraction(_binom_half(k), p, N)
        num = _int_padd(_int_pmul(num, u, mod), [c * ck % mod for c in fpow], mod)
    return num


@pytest.mark.parametrize("p", [3, 5, 7, 23])
def test_binary_splitting_numerator_matches_horner(p):
    from affine_chabauty.hyperelliptic import _frobenius_numerator

    rng = random.Random(34 + p)
    N = 15
    mod = p ** N
    polys = [[c % mod for c in (9, 20, 2, -18, -7, 2, 1)],   # even degree
             [c % mod for c in (1, 1, 0, 1)],                # odd degree
             _random_poly(rng, 5, mod, zeros=0) + [rng.randrange(1, p)]]
    for f in polys:
        for K in (0, 1, 2, 7, 22):
            assert _frobenius_numerator(f, p, K, N) == _numerator_reference(f, p, K, N)


def test_reduction_records_an_exact_form_and_checks_the_division():
    from affine_chabauty.errors import PrecisionExceeded

    m = model(QUARTIC)
    p, M = m.p, m.M
    mod = p ** M
    f = [c.residue(M) for c in m.f]
    t = [c.residue(M) for c in m._bezout()]
    # d(1/y^3) = -(3/2) f' dx/y^5: nothing left in cohomology, exact part 1/y^3
    dform = [-3 * k * c * pow(2, -1, mod) % mod for k, c in enumerate(f)][1:]
    col, poles, yparts = m._reduce([dform], 0, 2, f, t, M, 10)
    assert all(c.is_zero() for c in col) and yparts == []
    assert [mm for mm, _ in poles] == [2]
    assert poles[0][1][0].compare(1) == "equal"
    assert all(c.is_zero() for c in poles[0][1][1:])
    with pytest.raises(PrecisionExceeded):
        m._reduce([dform], 0, 2, f, [(t[0] + 1) % mod] + t[1:], M, 10)


# -- integer dagger evaluation ----------------------------------------------

DAGGER_MODELS = [("hyperelliptic_6081b", "main_model", 7),
                 ("hyperelliptic_6081b", "main_model", 23),
                 ("superelliptic_a1", "x1_model", 7)]


@functools.lru_cache(maxsize=None)
def _fixture_model(fixture, name, p):
    engine = load_problem(PROBLEMS / f"{fixture}.json", p_override=p, prec_override=PREC)
    return getattr(engine.integrator, name)()


def _scaled(m, k):
    """A copy of m whose dagger coefficients are divided by p^k, so that its
    int table needs S > 0 digits of headroom."""
    p = m.p

    def div(c):
        return PadicNumber.unknown_zero(p, c.N - k) if c.is_zero() else \
            PadicNumber(p, c.v - k, c.u, c.N - k)

    fd = m.frobenius_data()
    out = copy.copy(m)
    out._frob = dataclasses.replace(fd, dagger=[
        ([(mm, [div(c) for c in B]) for mm, B in poles], [(s, div(lam)) for s, lam in yparts])
        for poles, yparts in fd.dagger])
    out._daggers, out._dagger_tables = {}, {}
    return out


def _dagger_reference(m, i, pt):
    """The dagger function of basis element i at pt by PadicNumber Horner:
    the reference for the int evaluation."""
    poles, yparts = m.frobenius_data().dagger[i]
    p = m.p
    by_m = dict(poles)
    inv_y2 = (pt.y * pt.y).inverse()
    acc = PadicNumber.exact_zero(p)
    for mm in range(max(by_m), 0, -1):
        if mm in by_m:
            acc = acc + horner(by_m[mm], pt.x, PadicNumber.exact_zero(p))
        acc = acc * inv_y2
    xpart = PadicNumber.exact_zero(p)
    for s, lam in sorted(yparts, key=lambda t: t[0], reverse=True):
        xpart = xpart + lam * (pt.x ** s if s else 1)
    return acc * pt.y + xpart * pt.y


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
    assert all(scaled._dagger_table(i)[0] > 0 for i in range(base.dim))


@pytest.mark.parametrize("key", DAGGER_MODELS)
def test_integer_dagger_on_truncated_points_never_claims_more_precision(key):
    base = _fixture_model(*key)
    pt = points_on(base, 1, random.Random(42))[0]
    for m in (base, _scaled(base, 3)):
        for i in range(m.dim):
            S, Nc, _ = m._dagger_table(i)
            for cut in (Nc + S - 1, Nc + S - 4, S + 2):
                for x, y in ((pt.x.at_precision(cut), pt.y), (pt.x, pt.y.at_precision(cut)),
                             (pt.x.at_precision(cut), pt.y.at_precision(cut + 1))):
                    got = m.dagger_eval(i, Point(x, y))
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
    W = Point(*chart_center(m.f, 2, xbar, 0, m.M))
    for pt in (W, Point(W.x, PadicNumber.from_int(m.p, m.p, m.M))):
        with pytest.raises(EndpointRestriction):
            m.dagger_eval(0, pt)
