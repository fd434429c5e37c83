import random
from fractions import Fraction

import pytest

from affine_chabauty.errors import BadReduction, DifferentDiscs, EndpointRestriction
from affine_chabauty.hyperelliptic import INFINITY, HyperellipticModel, Point
from affine_chabauty.padics import PadicNumber

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
        out.append(m.lift_x(x, sign_hint=hint))
    return out


def test_trace_matches_point_count_g1():
    # a_p from the Frobenius trace equals 7 + 1 - #points mod 7
    m = model([1, 1, 0, 1])
    fd = m.frobenius_data()
    assert fd.a_p == 7 + 1 - fd.point_count
    assert fd.point_count == 5


def test_bad_reduction_rejected():
    with pytest.raises(BadReduction):
        model([0, 0, 1, 1])  # x^2(x+1): not squarefree
    with pytest.raises(BadReduction):
        model([7, 0, 0, 1])  # disc(x^3 + 7) = -27*49 vanishes mod 7


def test_weil_and_det_checks_run():
    # several small curves, odd and even degree, different primes
    for f, p in [([1, 1, 0, 1], 5), ([1, 1, 0, 1], 11),
                 ([2, 1, 3, 1], 7), ([1, 0, 1, 0, 1], 7),
                 ([1, 1, -5, -1, 3, 2, 4], 7)]:
        m = model(f, p=p)
        fd = m.frobenius_data()
        assert fd.a_p ** 2 <= 4 * m.g * m.g * p + 4 * m.g  # Weil bound (slack for g=1)


def test_concatenation_and_antisymmetry():
    rng = random.Random(21)
    m = model([1, 1, 0, 1])
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
    m = model([1, 1, 0, 1])
    P = m.lift_x(2, sign_hint=2)
    Q = m.lift_x(2 + 7, sign_hint=2)
    tiny = m.tiny_basis_integrals(P, Q)
    full = m.basis_integrals(P, Q)
    for i in range(m.dim):
        assert tiny[i].compare(full[i]) != "distinct"


def test_tiny_integrals_reject_endpoints_of_two_discs():
    m = model([1, 1, 0, 1])
    P = m.lift_x(2, sign_hint=2)
    with pytest.raises(DifferentDiscs):
        m.tiny_basis_integrals(P, m.lift_x(0, sign_hint=1))   # another x residue
    with pytest.raises(DifferentDiscs):
        m.tiny_basis_integrals(P, P.involution())             # the opposite disc


def test_center_of_a_point_at_infinity_is_rejected():
    m = model([1, 1, 0, 1])
    P = Point(PadicNumber.from_rational(Fraction(1, 7), 7, m.M), PadicNumber.from_int(1, 7, m.M))
    with pytest.raises(EndpointRestriction):
        m.teichmueller_point(P)


def test_independent_of_center_choice():
    # integral computed directly vs routed through a third point
    m = model([1, 1, 0, 1])
    P = m.lift_x(2, sign_hint=2)
    Q = m.lift_x(0, sign_hint=1)
    R = m.lift_x(9, sign_hint=5)
    direct = m.basis_integrals(P, Q)
    routed = [x + y for x, y in zip(m.basis_integrals(P, R), m.basis_integrals(R, Q))]
    for i in range(m.dim):
        assert direct[i].compare(routed[i]) != "distinct"


def test_weierstrass_disc_endpoints():
    # y^2 = x^3 + x: x = 0 is a simple Weierstrass residue mod 7
    m = model([0, 1, 0, 1])
    P = m.lift_x(1, sign_hint=3)    # f(1) = 2, sqrt(2) = 3 mod 7
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
    Q = m.lift_x(5, sign_hint=2)   # f(5) = 130 = 4 mod 7 = 2^2
    via = [a + b for a, b in zip(m.basis_integrals(P, A), m.basis_integrals(A, Q))]
    direct = m.basis_integrals(P, Q)
    for i in range(m.dim):
        assert via[i].compare(direct[i]) != "distinct"


def test_infinity_endpoint_odd_model():
    m = model([1, 1, 0, 1])
    P = m.lift_x(2, sign_hint=2)
    Q = m.lift_x(0, sign_hint=1)
    ia = m.basis_integrals(INFINITY, P)
    ib = m.basis_integrals(P, Q)
    ic = m.basis_integrals(INFINITY, Q)
    for i in range(m.dim):
        assert (ia[i] + ib[i] - ic[i]).is_zero()
    with pytest.raises(EndpointRestriction):
        model([1, 1, -5, -1, 3, 2, 4]).basis_integrals(INFINITY, P)


def test_disc_series_satisfies_curve_equation():
    rng = random.Random(22)
    for f in ([1, 1, 0, 1], [2, 1, 3, 1], [1, 1, -5, -1, 3, 2, 4]):
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
    m = model([1, 1, 0, 1])
    P1 = m.lift_x(2, sign_hint=2)
    P2 = m.lift_x(0, sign_hint=1)
    tot = [PadicNumber.exact_zero(7)] * m.dim
    for pt, sgn in [(P1, 1), (P1.involution(), 1), (P2, -1), (P2.involution(), -1)]:
        vals = m.basis_integrals(P2, pt)
        tot = [t + (v if sgn > 0 else -v) for t, v in zip(tot, vals)]
    # omega_0 = dx/y is holomorphic on this odd model
    assert tot[0].is_zero()
