import random
from fractions import Fraction

import pytest

from affine_chabauty.curves import (
    CurveProblem,
    EvenHyperellipticCurve,
    KnownPoint,
    SuperellipticCurve,
)
from affine_chabauty.errors import DifferentDiscs, EndpointRestriction, PoleOnDisc
from affine_chabauty.hyperelliptic import HyperellipticModel
from affine_chabauty.integration import Integrator
from affine_chabauty.padics import PadicNumber, iwasawa_log, parse_padic, sqrt as padic_sqrt
from affine_chabauty.series import Subordination, TruncatedSeries

F61 = [9, 20, 2, -18, -7, 2, 1]


def even_problem(prec=10):
    return CurveProblem(curve=EvenHyperellipticCurve(F61),
                        base_point=KnownPoint(Fraction(-1), Fraction(1)),
                        S=[], p=7, prec=prec)


def super_problem(prec=10):
    return CurveProblem(curve=SuperellipticCurve(1),
                        base_point=KnownPoint(Fraction(0), Fraction(0)),
                        S=[487], p=7, prec=prec)


def test_superelliptic_vector_matches_paper_row():
    I = Integrator(super_problem(prec=12))
    vec = I.basis_integral_vector((Fraction(0), Fraction(0)),
                                  (Fraction(1, 18), Fraction(7, 18)))
    assert vec[0].compare(parse_padic("2*7 + 5*7^2 + 4*7^4 + 5*7^5 + O(7^6)", 7)) == "equal"
    b = -iwasawa_log(PadicNumber.from_int(2, 7, 30)) \
        - iwasawa_log(PadicNumber.from_int(3, 7, 30)) / 2
    assert (vec[1] - b).compare(parse_padic("6*7 + 7^2 + 3*7^4 + O(7^6)", 7)) == "equal"
    assert (vec[2] - b).compare(parse_padic("2*7 + 6*7^2 + 2*7^3 + O(7^6)", 7)) == "equal"


def test_integral_additive_in_divisors_and_antisymmetric():
    I = Integrator(even_problem())
    om = I.curve.basis()[2]
    P, Q = (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(3))
    a = I.integral(om, P, Q).value
    b = I.integral(om, Q, P).value
    assert (a + b).is_zero()
    zero = I.integral(om, P, P).value
    assert zero.is_zero() or zero.is_exact_zero()


def test_tiny_integral_api_and_different_discs():
    I = Integrator(even_problem())
    om = I.curve.differential([1, 2, 3])
    P = (Fraction(-1), Fraction(1))
    m = I.main_model()
    Q_pt = m.lift_x(6, sign_hint=1)    # 6 = -1 mod 7, same disc as P
    Q = (Q_pt.x, Q_pt.y)
    v1 = I.tiny_integral(om, P, Q).value
    v2 = I.integral(om, P, Q).value
    assert v1.compare(v2) != "distinct"
    with pytest.raises(DifferentDiscs):
        I.tiny_integral(om, P, (Fraction(0), Fraction(3)))


def test_endpoint_restriction_superelliptic():
    from affine_chabauty.padics import nth_root

    I = Integrator(super_problem())
    om = I.curve.basis()[1]
    # the disc (6, 3) has u = y/x = 4 mod 7, a cube root of unity: restricted
    g6 = PadicNumber.from_int(6 ** 3 + 6 ** 2 + 6, 7, 40)
    y = nth_root(g6, 3, residue_hint=3)
    with pytest.raises(EndpointRestriction):
        I.integral(om, (Fraction(0), Fraction(0)),
                   (PadicNumber.from_int(6, 7, 40), y))


def test_cuspidal_discs_have_no_center_parametrization_or_expansion():
    I = Integrator(super_problem())
    discs = [d for d in I.residue_discs() if d.cuspidal]
    assert [d.label for d in discs] == ["Q1@u=1", "Q2@u=2", "Q2@u=4"]
    for d in discs:
        with pytest.raises(PoleOnDisc):
            I.disc_center(d)
        with pytest.raises(PoleOnDisc):
            I.disc_parametrization(d)
        for om in I.curve.basis():
            with pytest.raises(PoleOnDisc):
                I.expand_differential_on_disc(om, d)


def test_superelliptic_split_decomposition_series():
    """omega_2 = omega_2+ + omega_2- re-expanded on a disc of the chart."""
    p, N = 7, 12
    prob = super_problem(prec=N)
    I = Integrator(prob)
    W = I.w_model()
    # disc of u' = 0 on v'^2 = u'^3 - 3/4: the non-Weierstrass affine disc
    v2 = W.curve_rhs(PadicNumber.from_int(0, p, W.M))
    P = W.point(PadicNumber.from_int(0, p, W.M), padic_sqrt(v2, sign_hint=1))
    us, vs, _ = W.disc_series(P)
    T = us.order
    du = us.derivative()
    a = Fraction(1)
    # full omega_2 = -3 du/(v(2v+a)) with v = v' - a/2
    v_chart = vs + PadicNumber.from_rational(-a / 2, p, W.M)
    twov_a = v_chart.scale(2) + PadicNumber.from_rational(a, p, W.M)
    full = du.scale(-3) * (v_chart * twov_a).inverse()
    # plus part: -(3/2) du/(u'^3 - 1)
    u3m1 = (us * us * us) + PadicNumber.from_int(-1, p, W.M)
    plus = du.scale(Fraction(-3, 2)) * u3m1.inverse()
    # minus part: -(3a/(4 v')) du/(u'^3 - 1)
    minus = du.scale(Fraction(-3, 4) * a) * (u3m1 * vs).inverse()
    recomposed = plus + minus
    for n in range(T - 2):
        assert full[n].compare(recomposed[n]) != "distinct"


@pytest.mark.parametrize("a", [1, 3])
def test_x1_model_carries_every_x_zeta(a):
    """q_zeta(zeta^2 s) = zeta^2 q_1(s), q_zeta = (4/a^2) [s (1 + zeta s)^3 + (a^2/4 - 1) s^4]."""
    I = Integrator(CurveProblem(curve=SuperellipticCurve(a),
                                base_point=KnownPoint(Fraction(0), Fraction(0)),
                                S=[], p=7, prec=8))
    X1 = I.x1_model()
    c = Fraction(4, a * a)
    for z in I.cube_roots():
        q = [PadicNumber.exact_zero(7), z ** 0 * c, z * (3 * c), z * z * (3 * c), z ** 0]
        for k, (qk, fk) in enumerate(zip(q, X1.f)):
            assert (qk * z ** (2 * k)).compare(z * z * fk) == "equal", (z, k)


def test_superelliptic_vector_runs_frobenius_on_two_models(monkeypatch):
    """The w model and X_1; no model per cube root of unity."""
    computed = []
    original = HyperellipticModel._compute_frobenius

    def counting(self):
        computed.append(self)
        return original(self)

    monkeypatch.setattr(HyperellipticModel, "_compute_frobenius", counting)
    I = Integrator(super_problem(prec=8))
    I.basis_integral_vector((Fraction(0), Fraction(0)), (Fraction(1, 18), Fraction(7, 18)))
    assert len(computed) == 2
    assert {id(m) for m in computed} == {id(I.w_model()), id(I.x1_model())}


def test_partial_fraction_identity_on_series():
    """omega_2+ = -1/2 sum_zeta zeta^(-1)/(w - zeta) dw matches -(3/2) du'/(u'^3-1).

    The identity lives on the u-line, so any formal substitution u = u0 + p t
    with u0 a unit away from the cube roots of unity certifies it.
    """
    p, N, T = 7, 12, 16
    prob = super_problem(prec=N)
    I = Integrator(prob)
    zetas = I.cube_roots()
    from affine_chabauty.series import polynomial
    hi = I._hi()
    us = polynomial([3] + [7] + [0] * (T - 2), p, hi)
    du = us.derivative()
    u3m1 = (us * us * us) + PadicNumber.from_int(-1, p, hi)
    lhs = du.scale(Fraction(-3, 2)) * u3m1.inverse()
    # w = 1/u'; dw = w'(t) dt
    ws = us.inverse()
    dw = ws.derivative()
    rhs = None
    for z in zetas:
        den = ws + (-z)
        term = dw.scale(Fraction(-1, 2)) * den.inverse() * z.inverse()
        rhs = term if rhs is None else rhs + term
    for n in range(T - 2):
        assert lhs[n].compare(rhs[n]) != "distinct"


def test_residue_theorem_even_family_strong():
    """(y-h)/(y+h) with an engineered split divisor: nonzero two-sided identity."""
    import random as _random
    from tests_support_residue import strong_even_pair

    rng = _random.Random(31)
    I = Integrator(even_problem(prec=12))
    lhs, rhs = strong_even_pair(I, rng)
    assert not rhs.is_zero()
    diff = lhs - rhs
    assert diff.is_zero() and diff.N >= 9, (lhs, rhs)


def test_residue_theorem_superelliptic_strong():
    import random as _random
    from tests_support_residue import strong_super_pair

    rng = _random.Random(32)
    I = Integrator(super_problem(prec=12))
    lhs, rhs = strong_super_pair(I, rng)
    assert not rhs.is_zero()
    diff = lhs - rhs
    assert diff.is_zero() and diff.N >= 9, (lhs, rhs, diff)


def test_residue_theorem_rescaling_by_p_invariance():
    # replacing f by p*f changes neither side (log p = 0; same divisor)
    prob = super_problem(prec=10)
    I = Integrator(prob)
    q1, q2 = I.curve.cusps
    zeta = q2.nfield.gen()
    om = I.curve.basis()[1]
    vals = {"Q1": q1.nfield(Fraction(3, 5)), "Q2": (zeta - 7) * (zeta - 2).inv()}
    scaled = {"Q1": vals["Q1"] * 7, "Q2": vals["Q2"] * 7}
    divisor = [((Fraction(0), Fraction(0)), 1), ((Fraction(0), Fraction(0)), -1)]
    _, rhs1 = I.residue_theorem_check(divisor, vals, om)
    _, rhs2 = I.residue_theorem_check(divisor, scaled, om)
    assert (rhs1 - rhs2).is_zero()


def test_imported_integrals_take_precedence():
    prob = even_problem(prec=8)
    pinned = [PadicNumber.from_int(k + 1, 7, 8) for k in range(3)]
    P, Q = (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(3))
    I = Integrator(prob, imported=[(P, Q, pinned)])
    vec = I.basis_integral_vector(P, Q)
    assert [v.compare(k + 1) for k, v in enumerate(vec)] == ["equal"] * 3


def test_frobenius_matrix_entry_point():
    fd = HyperellipticModel([1, 1, 0, 1], 7, 8).frobenius_data()
    assert fd.a_p == 3 and fd.point_count == 5
