"""Helpers that only the tests use: exact polynomials as series, series
composition, lifting an x-coordinate to a point of a model y^n = f(x),
the Frobenius exact parts as PadicNumbers, and the intersection of Psi
with the fibre components."""

from fractions import Fraction

from affine_chabauty.hyperelliptic import Point
from affine_chabauty.padics import INF, PadicNumber, nth_root, sqrt
from affine_chabauty.series import _BIG, Subordination, TruncatedSeries


def derive_bound(coeffs, slope: Fraction) -> Subordination:
    """Sharpest offset making v(c_n) >= slope*n + offset hold on known coefficients."""
    offset = Fraction(_BIG)
    for n, c in enumerate(coeffs):
        guar = c.v if not c.is_zero() else (INF if c.is_exact_zero() else c.N)
        offset = min(offset, Fraction(guar) - slope * n)
    return Subordination(Fraction(slope), offset)


def polynomial(vals, p: int, N: int, slope=Fraction(1)) -> TruncatedSeries:
    """Exact polynomial as a series with a derived subordination certificate."""
    cs = [v if isinstance(v, PadicNumber) else PadicNumber.from_rational(v, p, N) for v in vals]
    return TruncatedSeries(p, cs, derive_bound(cs, Fraction(slope)), check=False, exact=True)


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(t)) for g whose constant term has valuation >= 1; ValueError otherwise.

    When the outer series is truncated (not an exact polynomial) its unknown
    tail feeds every output coefficient through powers of g(0); the claimed
    coefficient precision is capped by that contribution.
    """
    g0 = g.coeffs[0]
    ok = g0.is_exact_zero() or (g0.u != 0 and g0.v >= 1) or (g0.u == 0 and g0.N >= 1)
    if not ok:
        raise ValueError("substitution requires v(g(0)) >= 1")
    T = min(f.order, g.order)
    p = f.p
    top = f.coeffs[f.order - 1]
    out = TruncatedSeries(p, [top] + [PadicNumber.exact_zero(p)] * (T - 1),
                          derive_bound([top], Fraction(0)), check=False,
                          exact=True)
    for k in range(f.order - 2, -1, -1):
        out = (out * g) + f.coeffs[k]
    out = out.truncate(T)
    if not f.exact:
        if f.bound is None:
            return TruncatedSeries(p, out.coeffs, None, check=False)
        vg0 = g0.v if not g0.is_exact_zero() else _BIG
        cap = f.bound.at(f.order) + f.order * min(vg0, _BIG)
        cap_i = max(int(cap), 1)
        cs = [c.at_precision(min(c.N, cap_i)) if not c.is_exact_zero()
              else PadicNumber.unknown_zero(p, cap_i) for c in out.coeffs]
        out = TruncatedSeries(p, cs, out.bound, check=False)
    return out


def involution(pt: Point) -> Point:
    """(x, -y): the hyperelliptic involution."""
    return Point(pt.x, -pt.y)


def lift_x(m, x, sign_hint: int) -> Point:
    """The point of the model m over x whose y is congruent to sign_hint mod p."""
    xp = x if isinstance(x, PadicNumber) else PadicNumber.from_rational(x, m.p, m.M)
    rhs = m.curve_rhs(xp)
    return Point(xp, sqrt(rhs, sign_hint) if m.n == 2 else nth_root(rhs, m.n, sign_hint))


def exact_parts(p, poles, yparts, L, cap):
    """The exact parts of a reduction, [(m, [c])] and [(s, c)] with each int c
    standing for c / p^L, as PadicNumbers at absolute precision cap."""
    def padic(c):
        x = PadicNumber.from_int(c, p, cap + L)
        return PadicNumber.unknown_zero(p, cap) if x.is_zero() else \
            PadicNumber(p, x.v - L, x.u, cap)

    return [(m, [padic(c) for c in B]) for m, B in poles], [(s, padic(c)) for s, c in yparts]


def padic_dagger(m):
    """FrobeniusData.dagger of the model m with its ints as PadicNumbers."""
    fd = m.frobenius_data()
    return [exact_parts(m.p, poles, yparts, fd.headroom, fd.trunc_prec)
            for poles, yparts in fd.dagger]


def psi_intersection_with_components(model, q: int, incidence, corr):
    """i_q(Psi, C_j) for all components; the contract says these vanish."""
    fib = model.fibres[q]
    vec = [Fraction(v) for v in incidence]
    phi_vec = [corr.coeffs.get(c.id, Fraction(0)) for c in fib.components]
    return [a + b for a, b in zip(vec, fib.matrix.matvec(phi_vec))]
