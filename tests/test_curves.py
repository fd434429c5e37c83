import random
from fractions import Fraction

import pytest

from affine_chabauty.curves import (
    CurveProblem,
    EvenHyperellipticCurve,
    KnownPoint,
    SuperellipticCurve,
    _inverse_mod_p,
    make_curve,
)
from affine_chabauty.errors import BadReduction, ProblemFileError, UnsupportedFamily

F61 = [9, 20, 2, -18, -7, 2, 1]  # genus-2 curve used throughout


def test_even_hyperelliptic_basis_and_residues():
    c = EvenHyperellipticCurve(F61)
    assert c.genus == 2
    assert c.basis_size() == 3          # g + n - 1
    assert c.geometric_cusp_count() == 2
    # first g are holomorphic
    for j in range(c.genus):
        for cusp in c.cusps:
            assert c.residue_at_cusp(j, cusp).is_zero()
    plus, minus = c.cusps
    assert c.residue_at_cusp(2, plus).as_rational() == -1   # -1/sqrt(d), d = 1
    assert c.residue_at_cusp(2, minus).as_rational() == 1


def test_superelliptic_counts_and_residues():
    c = SuperellipticCurve(1)
    assert c.genus == 1 and c.basis_size() == 3
    assert c.geometric_cusp_count() == 3
    n1, n2 = c.cusp_signature_counts()
    assert (n1, n2) == (1, 1)
    q1, q2 = c.cusps
    assert c.residue_at_cusp(0, q1).is_zero() and c.residue_at_cusp(0, q2).is_zero()
    assert c.residue_at_cusp(1, q1).as_rational() == -1
    assert c.residue_at_cusp(2, q1).as_rational() == -1
    zeta = q2.nfield.gen()
    assert c.residue_at_cusp(1, q2) == -zeta
    assert c.residue_at_cusp(2, q2) == -(zeta * zeta)


def test_residue_sum_zero_under_embeddings():
    # sum over geometric cusps of the residues vanishes for every basis element
    prob = CurveProblem(curve=SuperellipticCurve(1),
                        base_point=KnownPoint(Fraction(0), Fraction(0)),
                        S=[487], p=7, prec=10)
    for j in range(3):
        acc = None
        for cusp in prob.curve.cusps:
            for phi in prob.embeddings(cusp):
                r = phi(prob.curve.residue_at_cusp(j, cusp))
                acc = r if acc is None else acc + r
        assert acc.is_zero() or acc.is_exact_zero()


@pytest.mark.parametrize("curve", [EvenHyperellipticCurve(F61), SuperellipticCurve(1)],
                         ids=["hyperelliptic", "superelliptic"])
def test_good_reduction_is_exactly_what_the_frobenius_model_accepts(curve):
    from affine_chabauty.hyperelliptic import HyperellipticModel

    for p in (q for q in range(2, 60) if all(q % d for d in range(2, q))):
        try:
            HyperellipticModel(curve.g, p, 2, curve.n)
            accepted = True
        except BadReduction:
            accepted = False
        assert curve.good_reduction_at(p) == accepted, p
        if not accepted:
            with pytest.raises(BadReduction):
                curve.residue_discs(p)


def test_disc_enumeration_even():
    c = EvenHyperellipticCurve(F61)
    discs = c.residue_discs(7)
    affine = [d for d in discs if d.kind == "affine"]
    inf = [d for d in discs if d.kind == "infinite"]
    assert len(affine) == 10 and len(inf) == 2
    assert all(d.cuspidal for d in inf)
    # each of the ten integral points reduces into an enumerated disc
    pts = [(-1, 1), (-1, -1), (0, 3), (0, -3), (1, 3), (1, -3),
           (-2, 3), (-2, -3), (-4, 37), (-4, -37)]
    keys = {(d.xbar, d.ybar) for d in affine}
    for x, y in pts:
        assert (x % 7, y % 7) in keys


def test_disc_enumeration_weierstrass_flag():
    c = EvenHyperellipticCurve([7, 1, 0, 0, 0, 0, 1])
    discs = c.residue_discs(7)
    ws = [d for d in discs if d.kind == "weierstrass"]
    assert all(d.ybar == 0 for d in ws)
    assert {d.xbar for d in ws} == {0, 6}  # f(0) = 7, f(-1) = 7


def test_disc_enumeration_superelliptic():
    c = SuperellipticCurve(1)
    discs = c.residue_discs(7)
    kinds = {}
    for d in discs:
        kinds.setdefault(d.kind, 0)
        kinds[d.kind] += 1
    assert kinds["cuspidal"] == 3       # one rational and one split pair
    assert kinds["weierstrass"] == 3    # y = 0 over the roots of x(x^2+x+1)
    # affine discs come in triples (p = 1 mod 3: cube fibres)
    assert kinds.get("affine", 0) % 3 == 0


def test_family_validation():
    with pytest.raises(ProblemFileError):
        EvenHyperellipticCurve([3, 0, 0, 0, 0, 0, 2])  # lead not a square
    with pytest.raises(UnsupportedFamily):
        EvenHyperellipticCurve([1, 2, 1, 1])           # odd degree
    with pytest.raises(UnsupportedFamily):
        SuperellipticCurve(2)                          # degenerate parameter
    with pytest.raises(UnsupportedFamily):
        make_curve("nodal_cubic")


@pytest.mark.parametrize("root", [3 ** 35 + 7, 10 ** 200 + 1], ids=["3^35+7", "10^200+1"])
def test_large_square_leading_coefficient(root):
    c = EvenHyperellipticCurve([1, 0, 0, 0, root * root])
    assert c.sqrt_lead == root
    with pytest.raises(ProblemFileError):
        EvenHyperellipticCurve([1, 0, 0, 0, root * root + 1])  # not a square


def test_problem_rejects_bad_primes():
    c = SuperellipticCurve(1)
    with pytest.raises(BadReduction) as e:
        CurveProblem(curve=c, base_point=KnownPoint(Fraction(0), Fraction(0)),
                     S=[487], p=5, prec=10)  # 5 != 1 mod 3
    assert "admissible" in str(e.value)
    ok = CurveProblem(curve=c, base_point=KnownPoint(Fraction(0), Fraction(0)),
                      S=[487], p=7, prec=10)
    assert 7 in ok.admissible_primes(20)
    with pytest.raises(ProblemFileError):
        CurveProblem(curve=c, base_point=KnownPoint(Fraction(1), Fraction(1)),
                     S=[], p=7, prec=10)  # (1,1) not on the curve


def test_counts_match_chabauty_inputs():
    prob = CurveProblem(curve=EvenHyperellipticCurve(F61),
                        base_point=KnownPoint(Fraction(-1), Fraction(1)),
                        S=[], p=7, prec=10)
    counts = prob.counts()
    assert counts == {"g": 2, "n": 2, "num_cusps": 2, "n1": 2, "n2": 0}


def _separable_reference(fbar, p) -> bool:
    """The squarefree test that _inverse_mod_p replaced: gcd(f, f') = 1 over F_p."""
    a = [c % p for c in fbar]
    b = [(k * c) % p for k, c in enumerate(fbar)][1:]
    while any(b):
        while a and a[-1] % p == 0:
            a.pop()
        while b and b[-1] % p == 0:
            b.pop()
        if not b:
            break
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = pow(b[-1], -1, p)
        shift = len(a) - len(b)
        c = a[-1] * inv % p
        for k in range(len(b)):
            a[k + shift] = (a[k + shift] - c * b[k]) % p
        a.pop()
    while a and a[-1] % p == 0:
        a.pop()
    return len(a) == 1


def _mul(a, b, p):
    """a b over F_p."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return [c % p for c in prod]


def _mul_mod(a, b, f, p):
    """a b mod (f, p) as deg f coefficients."""
    prod = _mul(a, b, p) + [0] * len(f)
    d, inv = len(f) - 1, pow(f[-1], -1, p)
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i] * inv % p
        for k, fk in enumerate(f):
            prod[i - d + k] -= c * fk
    return [c % p for c in prod[:d]]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 23])
def test_inverse_mod_p_is_the_squarefree_test_and_an_inverse(p):
    """_inverse_mod_p(f', f, p) is None exactly when the reference finds f not
    squarefree mod p.  For a random a it returns b with a b = 1 mod (f, p) and
    deg b < deg f, or None; times a common factor g it returns None."""
    rng = random.Random(p)
    inverses = 0
    for _ in range(300):
        d = rng.randrange(1, 8)
        f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        fprime = [k * c for k, c in enumerate(f)][1:]
        assert (_inverse_mod_p(fprime, f, p) is not None) == _separable_reference(f, p), f
        a = [rng.randrange(p) for _ in range(rng.randrange(12))]
        b = _inverse_mod_p(a, f, p)
        if b is not None:
            inverses += 1
            assert len(b) <= d and _mul_mod(a, b, f, p) == [1] + [0] * (d - 1), (a, f)
        g = [rng.randrange(p), 1]
        assert _inverse_mod_p(_mul(a, g, p), _mul(f, g, p), p) is None
    assert inverses > 100
