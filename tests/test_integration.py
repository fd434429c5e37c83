import json
import pathlib
import random
from fractions import Fraction

import pytest

from affine_chabauty.curves import (
    CurveProblem,
    EvenHyperellipticCurve,
    KnownPoint,
    SuperellipticCurve,
)
from affine_chabauty.errors import DifferentDiscs, PoleOnDisc
from affine_chabauty.hyperelliptic import HyperellipticModel
from affine_chabauty.integration import Integrator
from affine_chabauty.padics import PadicNumber, parse_padic
from affine_chabauty.series import sqrt_series
from tests_support import derivative, disc_center, lift_x, polynomial, reference_log

F61 = [9, 20, 2, -18, -7, 2, 1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


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
    b = -reference_log(PadicNumber.from_int(2, 7, 30)) \
        - reference_log(PadicNumber.from_int(3, 7, 30)) / 2
    assert (vec[1] - b).compare(parse_padic("6*7 + 7^2 + 3*7^4 + O(7^6)", 7)) == "equal"
    assert (vec[2] - b).compare(parse_padic("2*7 + 6*7^2 + 2*7^3 + O(7^6)", 7)) == "equal"


TRANSPORT = json.loads((GOLDEN / "super_transport.json").read_text())


@pytest.mark.parametrize("key", sorted(TRANSPORT))
def test_superelliptic_vector_agrees_with_the_transport_lock(key):
    """basis_integral_vector(P0, .) against the X_zeta transport (three passes
    on the quartic X_1), recorded before the y^3 model replaced it: the
    generator point and every disc center the transport reached.  The digits
    agree at the lower precision.  The transport reached some centers by tiny
    integrals alone and carried more digits there than the Frobenius
    truncation cap allows, so at prec no precision drops below the cap, and at
    prec + 3, where the cap covers those digits, none drops at all."""
    p, prec = (int(k) for k in key.split("@")[1].split(","))
    for raise_by in (0, 3):
        I = Integrator(CurveProblem(curve=SuperellipticCurve(1),
                                    base_point=KnownPoint(Fraction(0), Fraction(0)),
                                    S=[487], p=p, prec=prec + raise_by))
        cap = I.main_model().frobenius_data().trunc_prec
        for row in TRANSPORT[key]:
            if row["to"] == "generator":
                Q = tuple(Fraction(c) for c in row["point"])
            else:
                Q = tuple(parse_padic(c, p) for c in row["point"])
            got = I.basis_integral_vector((Fraction(0), Fraction(0)), Q)
            for new, old in zip(got, (parse_padic(v, p) for v in row["values"])):
                assert new.compare(old) != "distinct", (row["to"], str(new), str(old))
                assert new.N >= (old.N if raise_by else min(old.N, cap)), (row["to"], new.N, old.N)


def test_integral_additive_in_divisors_and_antisymmetric():
    I = Integrator(even_problem())
    om = I.curve.basis()[2]
    P, Q = (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(3))
    a = I.integral(om, P, Q)
    b = I.integral(om, Q, P)
    assert (a + b).is_zero()
    zero = I.integral(om, P, P)
    assert zero.is_zero() or zero.is_exact_zero()


def test_tiny_integral_api_and_different_discs():
    I = Integrator(even_problem())
    om = I.curve.differential([1, 2, 3])
    P = (Fraction(-1), Fraction(1))
    m = I.main_model()
    Q_pt = lift_x(m, 6, sign_hint=1)    # 6 = -1 mod 7, same disc as P
    Q = (Q_pt.x, Q_pt.y)
    v1 = I.tiny_integral(om, P, Q)
    v2 = I.integral(om, P, Q)
    assert v1.compare(v2) != "distinct"
    with pytest.raises(DifferentDiscs):
        I.tiny_integral(om, P, (Fraction(0), Fraction(3)))
    # superelliptic: from each affine disc center to the point at t = 1, all
    # three basis elements; a = 3 tells the omega_1 scale -3/a from -3/2
    for a, p, expected in ((1, 7, 18), (3, 13, 45)):
        I = Integrator(CurveProblem(curve=SuperellipticCurve(a),
                                    base_point=KnownPoint(Fraction(0), Fraction(0)),
                                    S=[], p=p, prec=8))
        one = PadicNumber.from_int(1, p, I.main_model().M)
        checked = 0
        for disc in I.residue_discs():
            if disc.kind != "affine":
                continue
            xs, ys = I.disc_parametrization(disc)
            C, R = disc_center(I, disc), (xs.evaluate(one), ys.evaluate(one))
            for om in I.curve.basis():
                full = I.integral(om, C, R)
                assert I.tiny_integral(om, C, R).compare(full) != "distinct", (a, p, disc)
                checked += 1
        assert checked == expected


def test_superelliptic_integrates_on_an_involution_image_disc():
    from affine_chabauty.padics import nth_root

    I = Integrator(super_problem())
    om = I.curve.basis()[1]
    # the disc (6, 3) has u = y/x = 4 mod 7, a cube root of unity: the old
    # transport through the elliptic chart could not reach it
    g6 = PadicNumber.from_int(6 ** 3 + 6 ** 2 + 6, 7, 40)
    R = (PadicNumber.from_int(6, 7, 40), nth_root(g6, 3, residue_hint=3))
    disc = next(d for d in I.residue_discs() if (d.xbar, d.ybar) == (6, 3))
    P0, C = (Fraction(0), Fraction(0)), disc_center(I, disc)
    full = I.integral(om, P0, R)
    assert full.N >= I.prec and not full.is_zero()
    assert full.compare(I.integral(om, P0, C) + I.tiny_integral(om, C, R)) != "distinct"


def test_cuspidal_discs_have_no_center_parametrization_or_expansion():
    I = Integrator(super_problem())
    discs = [d for d in I.residue_discs() if d.cuspidal]
    assert [d.label for d in discs] == ["Q1@u=1", "Q2@u=2", "Q2@u=4"]
    for d in discs:
        with pytest.raises(PoleOnDisc):
            disc_center(I, d)
        with pytest.raises(PoleOnDisc):
            I.disc_parametrization(d)
        for om in I.curve.basis():
            with pytest.raises(PoleOnDisc):
                I.expand_differential_on_disc(om, d)


def test_superelliptic_split_decomposition_series():
    """omega_2 = omega_2+ + omega_2- re-expanded on a disc of the chart."""
    p, N = 7, 12
    a, T, hi = Fraction(1), 2 * N, Integrator(super_problem(prec=N)).main_model().M
    # disc of u' = 0 on v'^2 = u'^3 - 3/4, u' = 7 t: a non-Weierstrass affine disc
    us = polynomial([0, p] + [0] * (T - 2), p, hi)
    vs = sqrt_series(us * us * us + PadicNumber.from_rational(a * a / 4 - 1, p, hi), sign_hint=1)
    du = derivative(us)
    # full omega_2 = -3 du/(v(2v+a)) with v = v' - a/2
    v_chart = vs + PadicNumber.from_rational(-a / 2, p, hi)
    twov_a = v_chart.scale(2) + PadicNumber.from_rational(a, p, hi)
    full = du.scale(-3) * (v_chart * twov_a).inverse()
    # plus part: -(3/2) du/(u'^3 - 1)
    u3m1 = (us * us * us) + PadicNumber.from_int(-1, p, hi)
    plus = du.scale(Fraction(-3, 2)) * u3m1.inverse()
    # minus part: -(3a/(4 v')) du/(u'^3 - 1)
    minus = du.scale(Fraction(-3, 4) * a) * (u3m1 * vs).inverse()
    recomposed = plus + minus
    for n in range(T - 2):
        assert full[n].compare(recomposed[n]) != "distinct"


def test_superelliptic_vector_runs_frobenius_on_one_model(monkeypatch):
    """The y^3 model only: no auxiliary curve, no model per cube root of unity."""
    computed = []
    original = HyperellipticModel._compute_frobenius

    def counting(self):
        computed.append(self)
        return original(self)

    monkeypatch.setattr(HyperellipticModel, "_compute_frobenius", counting)
    I = Integrator(super_problem(prec=8))
    P0 = (Fraction(0), Fraction(0))
    I.basis_integral_vector(P0, (Fraction(1, 18), Fraction(7, 18)))
    assert computed == []  # two Weierstrass discs at p = 7: tiny integrals only
    for disc in I.residue_discs():
        if disc.kind == "affine":
            I.basis_integral_vector(P0, disc_center(I, disc))
    assert [id(m) for m in computed] == [id(I.main_model())]


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


def test_residue_theorem_on_the_involution_image_discs():
    """The centers (-1, -zeta^k) of the discs over x = p - 1, which the old
    transport could not reach: two functions f = (y - lam x - b1)/(y - lam x - b2)
    per center give int_P0^center omega from five other integrals, and both
    agree with the integrator's own value."""
    from tests_support_residue import line_divisors, residue_theorem_check

    I = Integrator(super_problem(prec=12))
    P0 = (Fraction(0), Fraction(0))
    rng = random.Random(33)
    centers = [disc_center(I, d) for d in I.residue_discs()
               if d.kind == "affine" and d.xbar == I.p - 1]
    assert [y.residue(1) for _, y in centers] == [3, 5, 6]  # -zeta^k mod 7
    for Q in centers:
        assert Q[0].compare(-1) == "equal"
        for others in line_divisors(I, Q, rng):
            for om in I.curve.basis():
                lhs, rhs = residue_theorem_check(I, [(Q, 1)] + others, {"Q1": 1, "Q2": 1}, om)
                from_f = rhs - sum((I.integral(om, P0, pt) * m for pt, m in others),
                                   PadicNumber.exact_zero(I.p))
                direct = I.integral(om, P0, Q)
                assert (lhs - rhs).is_zero() and from_f.compare(direct) == "equal"
                assert min(from_f.N, direct.N) >= I.prec and not direct.is_zero()


def test_residue_theorem_rescaling_by_p_invariance():
    # replacing f by p*f changes neither side (log p = 0; same divisor)
    from tests_support_residue import residue_theorem_check

    prob = super_problem(prec=10)
    I = Integrator(prob)
    q1, q2 = I.curve.cusps
    zeta = q2.nfield.gen()
    om = I.curve.basis()[1]
    vals = {"Q1": q1.nfield(Fraction(3, 5)), "Q2": (zeta - 7) * (zeta - 2).inv()}
    scaled = {"Q1": vals["Q1"] * 7, "Q2": vals["Q2"] * 7}
    divisor = [((Fraction(0), Fraction(0)), 1), ((Fraction(0), Fraction(0)), -1)]
    _, rhs1 = residue_theorem_check(I, divisor, vals, om)
    _, rhs2 = residue_theorem_check(I, divisor, scaled, om)
    assert (rhs1 - rhs2).is_zero()


def test_imported_integrals_take_precedence():
    prob = even_problem(prec=8)
    pinned = [PadicNumber.from_int(k + 1, 7, 8) for k in range(3)]
    P, Q = (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(3))
    I = Integrator(prob, imported=[(P, Q, pinned)])
    vec = I.basis_integral_vector(P, Q)
    assert [v.compare(k + 1) for k, v in enumerate(vec)] == ["equal"] * 3


def test_frobenius_matrix_entry_point():
    # y^2 = x^4 + x^3 + 2x + 1 over F_7: f(0..6) = 1, 5, 1, 3, 0, 5, 6, so 5 affine
    # points, and the 2 points at infinity are rational
    fd = HyperellipticModel([1, 2, 0, 1, 1], 7, 8).frobenius_data()
    assert fd.a_p == 1 and fd.point_count == 7
