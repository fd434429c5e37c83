import pathlib
import random
from fractions import Fraction

import pytest

from affine_chabauty.errors import NeedsOverride, NonSeparableReduction, NotAUnit, ZeroInput
from affine_chabauty.models import LambdaRecord
from affine_chabauty.numberfield import NumberField, hensel_embed, lambda_valuation
from affine_chabauty.padics import (
    INF,
    PadicNumber,
    _horner_mod,
    _normal,
    _vp,
    iwasawa_log,
    parse_padic,
    render_padic,
    sqrt,
    teichmuller,
)
from affine_chabauty.problem import load_problem
from tests_support import reference_log, reference_teichmuller

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "src/affine_chabauty/problems"

P = 7
N = 12


def num(x, N_=N, p=P):
    return PadicNumber.from_rational(Fraction(x), p, N_)


def test_roundtrip_rationals():
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        x = num(a)
        assert (x - a).is_zero() or x.is_exact_zero()


def test_add_precision_is_min():
    x = num(3, 10)
    y = num(5, 6)
    assert (x + y).precision() == 6


class _ViaCoerce(PadicNumber):
    """A PadicNumber that PadicNumber.__add__ takes through _coerce."""
    __slots__ = ()


def _add_reference(a, b):
    """a + b from the exact rationals u p^v, to precision min(N)."""
    if a.is_exact_zero():
        return b
    if b.is_exact_zero():
        return a
    N_ = min(a.N, b.N)
    x = Fraction(a.u) * Fraction(a.p) ** a.v + Fraction(b.u) * Fraction(b.p) ** b.v
    return PadicNumber.unknown_zero(a.p, N_) if x == 0 else PadicNumber.from_rational(x, a.p, N_)


def _vun(x):
    return x.v, x.u, x.N


def test_add_fast_path_matches_the_coerce_path():
    rng = random.Random(3)
    for p in (3, 7, 23):
        def operand():
            kind = rng.random()
            v = rng.randrange(-3, 6)
            N_ = v + rng.randrange(1, 12)
            if kind < 0.1:
                return PadicNumber.exact_zero(p)
            if kind < 0.2:
                return PadicNumber.unknown_zero(p, N_)
            u = rng.randrange(1, p ** (N_ - v))
            return PadicNumber(p, v, u if u % p else u + 1, N_)

        for _ in range(400):
            a, b = operand(), operand()
            if rng.random() < 0.2:  # the cancelling case
                b = PadicNumber(p, a.v, -a.u % p ** (a.N - a.v), a.N + rng.randrange(3)) \
                    if a.u else b
            for x, y in ((a, b), (b, a)):
                slow = x + _ViaCoerce(y.p, y.v, y.u, y.N)
                assert _vun(x + y) == _vun(slow) == _vun(_add_reference(x, y)), (x, y)
                assert _vun(x - y) == _vun(x - _ViaCoerce(y.p, y.v, y.u, y.N)), (x, y)
    with pytest.raises(ValueError):
        num(3) + PadicNumber.from_int(3, 5, 6)
    with pytest.raises(ValueError):
        num(3) + _ViaCoerce(5, 0, 3, 6)
    zero = PadicNumber.exact_zero(P)
    for rational in (Fraction(1, 3), 2):
        with pytest.raises(ValueError):
            zero + rational
        with pytest.raises(ValueError):
            rational + zero


def _from_int_reference(n, p, N_):
    """PadicNumber.from_int as it normalized a nonzero int before padics._normal."""
    v = _vp(n, p)
    return (N_, 0, N_) if v >= N_ else (v, (n // p ** v) % p ** (N_ - v), N_)


def _at_precision_reference(v, u, N_):
    """PadicNumber.at_precision of a stored (v, u, .) cut to N_, before padics._normal."""
    return (N_, 0, N_) if u == 0 or v >= N_ else (v, u % P ** (N_ - v), N_)


def _dagger_tail_reference(A, S, N_, p):
    """The tail of dagger_eval for A mod p^(N_ + S), before padics._normal."""
    if not A:
        return (N_, 0, N_)
    v = _vp(A, p)
    return (v - S, A // p ** v, N_)


def test_normal_form_against_its_definition_and_the_forms_it_replaced():
    rng = random.Random(24)
    for p in (2, 3, 7, 23):
        for _ in range(600):
            e, N_ = rng.randrange(-4, 6), rng.randrange(-3, 14)
            k = rng.randrange(0, max(N_ - e, 0) + 4)  # p^k | c, k beyond N - e too
            unit = rng.randrange(1, p ** 4)
            unit += not unit % p
            c = 0 if rng.random() < 0.1 else rng.choice((1, -1)) * p ** k * unit
            for a in (c, c % p ** max(N_ - e, 0)):  # and c mod p^(N - e), as dagger_eval reads
                if a:
                    assert _normal(a, 0, N_, p) == _from_int_reference(a, p, N_) \
                        == _vun(PadicNumber.from_int(a, p, N_))
                if e <= 0 and 0 <= a < p ** (N_ - e):
                    assert _normal(a, e, N_, p) == _dagger_tail_reference(a, -e, N_, p)
            v, u, N2 = _normal(c, e, N_, p)
            x = Fraction(c) * Fraction(p) ** e  # p^e c
            assert N2 == N_
            if x == 0 or _vp(x, p) >= N_:
                assert (v, u, N2) == (N_, 0, N_), (p, c, e, N_)
            else:
                assert u % p and 0 < u < p ** (N_ - v), (p, c, e, N_)
                d = Fraction(u) * Fraction(p) ** v - x
                assert d == 0 or _vp(d, p) >= N_, (p, c, e, N_)
    for _ in range(400):  # a stored (v, u, N) cut to a lower precision
        v = rng.randrange(-3, 8)
        N0 = v + rng.randrange(1, 10)
        u = rng.randrange(1, P ** (N0 - v))
        u = 0 if rng.random() < 0.1 else u - (not u % P)
        x = PadicNumber(P, N0, 0, N0) if u == 0 else PadicNumber(P, v, u, N0)
        for N_ in range(v - 2, N0):
            assert _normal(x.u, x.v, N_, P) == _at_precision_reference(x.v, x.u, N_)
            assert _vun(x.at_precision(N_)) == _at_precision_reference(x.v, x.u, N_)
    assert _vun(PadicNumber.exact_zero(P).at_precision(5)) == (5, 0, 5)
    assert PadicNumber.from_int(0, P, 5).v == INF


def test_mul_precision_rule():
    # N(xy) = min(v_x + N_y, v_y + N_x)
    x = PadicNumber.from_int(7, P, 10)      # v=1, N=10
    y = PadicNumber.from_int(3, P, 4)       # v=0, N=4
    assert (x * y).precision() == 5
    assert (x * y).valuation() == 1


def test_precision_against_high_precision_recomputation():
    rng = random.Random(2)
    for _ in range(100):
        a = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        b = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        if a == 0 or b == 0:
            continue
        lo_sum = num(a, 8) + num(b, 8)
        lo_prod = num(a, 8) * num(b, 8)
        assert lo_sum.compare(num(a + b, 40)) != "distinct"
        assert lo_prod.compare(num(a * b, 40)) != "distinct"


def test_exact_zero_vs_unknown_zero():
    z = PadicNumber.exact_zero(P)
    o = PadicNumber.unknown_zero(P, 5)
    assert z.is_exact_zero() and not o.is_exact_zero()
    assert z.compare(o) == "indistinguishable" or o.compare(z) == "indistinguishable"
    # 7^6 agrees with O(7^5) modulo 7^5
    assert o.compare(PadicNumber.from_int(7 ** 6, P, 12)) == "equal"
    assert o.compare(PadicNumber.unknown_zero(P, 9)) == "indistinguishable"
    assert o.compare(num(3)) == "distinct"


def test_division_and_inverse():
    x = num(Fraction(22, 3))
    assert ((x / x) - 1).is_zero()
    with pytest.raises(ZeroInput):
        PadicNumber.unknown_zero(P, 3).inverse()


def test_render_and_parse():
    x = parse_padic("2*7 + 5*7^2 + 4*7^4 + 5*7^5 + O(7^6)", 7)
    assert x.valuation() == 1
    assert x.digits(0, 6) == [0, 2, 5, 0, 4, 5]
    assert parse_padic(render_padic(x), 7).compare(x) == "equal"
    y = num(Fraction(1, 7))
    assert parse_padic(render_padic(y), 7).compare(y) == "equal"
    # the zero class O(7^5) keeps its precision; "0" is the exact zero
    z = parse_padic(render_padic(PadicNumber.unknown_zero(7, 5)), 7)
    assert (z.v, z.u, z.N) == (5, 0, 5)
    assert parse_padic("0", 7).is_exact_zero()


def test_teichmuller_defining_properties():
    w = teichmuller(num(3))
    assert (w ** 6 - 1).is_zero()
    assert w.residue(1) == 3
    assert teichmuller(num(1)).compare(1) == "equal"
    with pytest.raises(NotAUnit):
        teichmuller(num(7))


def test_log_branch_kills_p_and_torsion():
    assert iwasawa_log(num(7)).is_zero()
    assert iwasawa_log(num(1)).is_zero()
    assert iwasawa_log(teichmuller(num(3))).is_zero()
    # log(p^a * zeta * (1+pz)) = log(1+pz)
    z = num(1 + 3 * 7)
    lhs = iwasawa_log(num(49) * teichmuller(num(5)) * z)
    assert (lhs - iwasawa_log(z)).is_zero()


def test_log_homomorphism():
    x = iwasawa_log(num(2, 10)) + iwasawa_log(num(3, 10))
    y = iwasawa_log(num(6, 10))
    assert (x - y).is_zero()
    rng = random.Random(3)
    for _ in range(30):
        a = rng.randint(1, 10 ** 6)
        b = rng.randint(1, 10 ** 6)
        if a % P == 0 or b % P == 0:
            continue
        d = iwasawa_log(num(a * b)) - iwasawa_log(num(a)) - iwasawa_log(num(b))
        assert d.is_zero()


def test_log_against_series_oracle():
    # independent oracle: direct series evaluation of log(1+z) over Q, embedded late
    z = Fraction(7 * 5)
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction((-1) ** (k + 1), k) * z ** k
    oracle = num(acc, 10)
    got = iwasawa_log(num(1 + z, 14))
    assert got.compare(oracle.at_precision(got.precision())) != "distinct"


def _vun(x):
    return x.v, x.u, x.N


def test_log_and_teichmuller_match_their_padic_reference():
    """iwasawa_log (log u^(p-1) / (p-1) on ints) and teichmuller (Newton on
    r^(p-1) = 1) give the (v, u, N) of the PadicNumber-series log and the Hensel-lifted
    root, on a seeded grid of p, N <= 80 and v in -3..3 and at the edges: exact 1,
    every Teichmueller root (log O(p^N)), p^k u, relative precision 1 and zeros."""
    rng = random.Random(33)
    for p in (3, 5, 7, 11, 13, 23, 47, 97):
        for _ in range(30):
            rel, v = rng.randint(1, 80), rng.randint(-3, 3)
            u = rng.randrange(1, p ** rel)
            while u % p == 0:
                u = rng.randrange(1, p ** rel)
            for x in (PadicNumber(p, v, u, v + rel), PadicNumber(p, v, u % p, v + 1)):
                assert _vun(iwasawa_log(x)) == _vun(reference_log(x)), (p, x)
            w = PadicNumber(p, 0, u, rel)
            assert _vun(teichmuller(w)) == _vun(reference_teichmuller(w)), (p, w)
        for n in (1, 2, 9, 40):
            one = PadicNumber.from_int(1, p, n)
            assert _vun(iwasawa_log(one)) == _vun(reference_log(one)) == (n, 0, n)
            for r in range(1, p):
                w = teichmuller(PadicNumber.from_int(r, p, n))
                assert _vun(w) == _vun(reference_teichmuller(PadicNumber.from_int(r, p, n)))
                assert _vun(iwasawa_log(w)) == _vun(reference_log(w)) == (n, 0, n)
                for k in (1, 3):  # p^k u at relative precision n
                    x = PadicNumber.from_int(p ** k * (r + p), p, n + k)
                    assert _vun(iwasawa_log(x)) == _vun(reference_log(x)), (p, x)
        for zero in (PadicNumber.exact_zero(p), PadicNumber.unknown_zero(p, 5)):
            for log in (iwasawa_log, reference_log):
                with pytest.raises(ZeroInput):
                    log(zero)
            for lift in (teichmuller, reference_teichmuller):
                with pytest.raises(NotAUnit):
                    lift(zero)


def test_sqrt():
    x = num(2)
    r = sqrt(x, sign_hint=3)
    assert (r * r - 2).is_zero()
    assert r.residue(1) == 3
    r2 = sqrt(num(9), sign_hint=4)
    assert (r2 + 3).is_zero()


def test_sqrt_rejects_a_hint_that_is_not_a_root_mod_p():
    # 1 * 1 = 1 != 2 mod 7: no root of 2 is congruent to 1
    with pytest.raises(ValueError):
        sqrt(PadicNumber.from_int(2, 7, 10), sign_hint=1)


def test_hensel_embed_quadratic():
    embs = hensel_embed([1, 1, 1], 7, N)
    assert sorted(e.residue() for e in embs) == [2, 4]
    for e in embs:
        g = e.field.gen()
        val = e(g * g + g + 1)
        assert val.is_zero()
    assert hensel_embed([1, 1, 1], 5, N) == []
    embs1 = hensel_embed([-1, 1], 11, N)
    assert len(embs1) == 1 and embs1[0](1) .compare(1) == "equal"


def test_hensel_embed_nonseparable():
    # x^2 - 7 mod 7 has the double root 0
    with pytest.raises(NonSeparableReduction):
        hensel_embed([-7, 0, 1], 7, N)


def test_hensel_embed_scans_each_prime_once_and_keeps_its_verdict(monkeypatch):
    """One field at several primes: the roots mod each p are scanned once, later
    calls lift (only the asked residues) from the stored scan and raise the same
    errors, and lambda_valuation reads the same scan."""
    from affine_chabauty import numberfield

    calls = []

    def counting(cs, x, p):
        calls.append(p)
        return _horner_mod(cs, x, p)

    monkeypatch.setattr(numberfield, "_horner_mod", counting)
    k = NumberField([-7, 0, 1])  # x^2 - 7: split at 3, inert at 5, a double root at 7
    for _ in range(3):
        assert sorted(e.residue() for e in hensel_embed(list(k.minpoly), 3, N, k)) == [1, 2]
        assert [e.residue() for e in hensel_embed(list(k.minpoly), 3, N, k, {2})] == [2]
        assert hensel_embed(list(k.minpoly), 5, N, k) == []
        with pytest.raises(NonSeparableReduction, match="repeated root 0"):
            hensel_embed(list(k.minpoly), 7, N, k)
    assert sorted(calls) == [3] * 5 + [5] * 5 + [7] * 8  # 2 + 3 roots, 5, 7 + 1 root
    g = NumberField([3, 0, 2])  # 2x^2 + 3: its leading coefficient is 0 mod 2
    for _ in range(2):
        with pytest.raises(NonSeparableReduction, match="leading coefficient"):
            hensel_embed(list(g.minpoly), 2, N, g)
    lam = k.gen() - 1  # residue 1 at 3: v = v(sqrt 7 - 1) = v(6) = 1 at the embedding with g = 1
    assert lambda_valuation(lam, 3, 1, 1, 1) == 1
    assert lambda_valuation(lam, 3, 1, 1, 2) == 0
    with pytest.raises(NeedsOverride, match="no embedding with residue 0"):
        lambda_valuation(lam, 3, 1, 1, 0)


def test_log_rational_power():
    """The lambda terms extend the cusp logs (CurveProblem.logs) to
    generator^gen_exponent: log(a^e) = e log(a)."""
    embs = hensel_embed([-3, 0, 1], 11, N)  # Q(sqrt 3); p = 11 splits it (5^2 = 3 mod 11)
    assert len(embs) == 2
    engine = load_problem(PROBLEMS / "hyperelliptic_6081b.json", p_override=11)
    q = NumberField([-1, 1])

    def lam_log(a, e):
        ((cusp, (log,), coeff),) = engine._lambda_terms(
            [(LambdaRecord("l", "inf+", 3, 1, 1, q(a), e), 1)])
        assert cusp.id == "inf+" and coeff == 1
        assert (log - engine.problem.logs(cusp, q(a))[0] * e).is_zero()
        return log

    got = lam_log(3, Fraction(1, 2))
    ref = iwasawa_log(PadicNumber.from_int(3, 11, N))
    assert (2 * got - ref).is_zero()
    # branch kills p
    assert lam_log(11, Fraction(1)).is_zero()
    # 4^(1/2) -> log 2
    got2 = lam_log(4, Fraction(1, 2))
    assert (got2 - iwasawa_log(PadicNumber.from_int(2, 11, N))).is_zero()


def _norm_by_determinant(x):
    """The norm of x as the determinant of multiplication by x, by Gaussian
    elimination over Q: the reference for the resultant in NFElement.norm."""
    d = x.field.degree
    cols = [(x * x.field([0] * k + [1])).coeffs for k in range(d)]
    mat = [[cols[j][i] for j in range(d)] for i in range(d)]
    det = Fraction(1)
    for i in range(d):
        piv = next((r for r in range(i, d) if mat[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            mat[i], mat[piv] = mat[piv], mat[i]
            det = -det
        det *= mat[i][i]
        for r in range(i + 1, d):
            f = mat[r][i] / mat[i][i]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[i])]
    return det


def test_field_arithmetic_and_norm():
    k = NumberField([1, 1, 1])  # Q(zeta_3)
    z = k.gen()
    assert (z * z * z).coeffs == (Fraction(1), Fraction(0))
    x = 23 + 2 * z
    assert x.norm() == 487
    assert ((x * x.inv()) - 1).is_zero()
    assert (1 + 2 * z) * (1 + 2 * z) == k(-3)
    # random fields of degree 1-5 (minpoly need not be irreducible or monic:
    # the resultant equals the determinant in Q[g]/(minpoly) either way)
    rng = random.Random(15)
    for _ in range(400):
        d = rng.randint(1, 5)
        field = NumberField([rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 3)])
        x = field([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)])
        assert x.norm() == _norm_by_determinant(x), (field, x)
    assert field(0).norm() == 0


def test_lambda_valuation():
    k = NumberField([1, 1, 1])
    z = k.gen()
    # ramified prime over 3: v(sqrt(-3)) = 1, v(3) = 2
    assert lambda_valuation(1 + 2 * z, 3, 2, 1, None) == 1
    assert lambda_valuation(k(3), 3, 2, 1, None) == 2
    # split primes over 487 = (23+2z)(21-2z): residues of z are 232 and 254
    lam = 23 + 2 * z
    assert lambda_valuation(lam, 487, 1, 1, 232) == 1
    assert lambda_valuation(lam, 487, 1, 1, 254) == 0
    # rational field
    qq = NumberField([-1, 1])
    assert lambda_valuation(qq(Fraction(18)), 2, 1, 1, None) == 1
    assert lambda_valuation(qq(Fraction(18)), 3, 1, 1, None) == 2
    assert lambda_valuation(qq(Fraction(1, 18)), 3, 1, 1, None) == -2


def test_signature():
    assert NumberField([1, 1, 1]).signature() == (0, 1)
    assert NumberField([-2, 0, 1]).signature() == (2, 0)
    assert NumberField([-1, 1]).signature() == (1, 0)


def test_valuation_of_integers_and_rationals():
    assert _vp(98, 7) == 2
    assert _vp(Fraction(3, 49), 7) == -2
    assert _vp(Fraction(-98, 5), 7) == 2
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroInput):
            _vp(zero, 7)
