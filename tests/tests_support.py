"""Helpers that only the tests use: exact polynomials as series, their
derivative, series composition, lifting an x-coordinate to a point of a
model y^n = f(x), the Frobenius exact parts as PadicNumbers, the
residue-disc series built on PadicNumbers (the reference for the model's
int kernel), and the intersection of Psi with the fibre components."""

from fractions import Fraction

from affine_chabauty.errors import PoleOnDisc, PrecisionLoss
from affine_chabauty.hyperelliptic import Point
from affine_chabauty.padics import INF, PadicNumber, horner, nth_root, sqrt
from affine_chabauty.series import _BIG, Subordination, TruncatedSeries, nth_root_series


def derive_bound(coeffs, slope: Fraction) -> Subordination:
    """Sharpest offset making v(c_n) >= slope*n + offset hold on known coefficients."""
    offset = Fraction(_BIG)
    for n, c in enumerate(coeffs):
        guar = c.v if not c.is_zero() else (INF if c.is_exact_zero() else c.N)
        offset = min(offset, Fraction(guar) - slope * n)
    return Subordination(Fraction(slope), offset)


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative, with the certificate shifted by one index."""
    cs = [f.coeffs[n] * n for n in range(1, f.order)] or [PadicNumber.exact_zero(f.p)]
    bound = f.bound and Subordination(f.bound.slope, f.bound.offset + f.bound.slope)
    return TruncatedSeries(f.p, cs, bound, check=False, exact=f.exact)


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


def poly_of_series(coeffs, xs: TruncatedSeries) -> TruncatedSeries:
    """Evaluate a polynomial with PadicNumber coefficients on a series."""
    p = xs.p
    top = coeffs[-1]
    off = min(0, top.v if not top.is_zero() else 0)
    acc = TruncatedSeries(p, [top] + [PadicNumber.exact_zero(p)] * (xs.order - 1),
                          Subordination(1, off), check=False, exact=True)
    return horner(coeffs[:-1], xs, acc)


def padic_disc_series(m, pt: Point) -> tuple:
    """What m.disc_series(pt) returns, built on PadicNumber series: x(t) and y(t)
    by nth_root_series or by Newton's method on series, and each basis monomial
    x^i dx/y^b from series products and inverses."""
    center = m.teichmueller_point(pt)
    p, g, x0, T = m.p, m.f, center.x, 2 * m.prec
    zero = PadicNumber.exact_zero(p)
    bound = Subordination(1, min(0, x0.v))
    p_coeff = PadicNumber.from_int(p, p, m.M)
    ramified = m.is_weierstrass_disc(center)
    if not ramified:  # x = x0 + p t and y the n-th root of g(x) over y mod p
        xs = TruncatedSeries(p, [x0, p_coeff] + [zero] * (T - 2), bound, check=False, exact=True)
        ys = nth_root_series(poly_of_series(g, xs), m.n, center.y.residue(1))
    else:  # y = p t and x(t) solved from g(x) = y^n by Newton's method on series
        ys = TruncatedSeries(p, [zero, p_coeff] + [zero] * (T - 2), Subordination(1, 0),
                             check=False, exact=True)
        target = ys
        for _ in range(m.n - 1):
            target = target * ys
        xs = TruncatedSeries(p, [x0] + [zero] * (T - 1), bound, check=False, exact=True)
        dg = [c * k for k, c in enumerate(g)][1:]
        for _ in range(T.bit_length() + 2):
            xs = xs - (poly_of_series(g, xs) - target) * poly_of_series(dg, xs).inverse()
        xs = TruncatedSeries(p, xs.coeffs, bound, check=False)
    dx = derivative(xs)
    inv_y = None if ramified else ys.inverse()
    comps = {}  # x^i dx/y^b = x * x^(i-1) dx/y^b
    for i, b in m.basis:
        if i:
            comps[i, b] = comps[i - 1, b] * xs
        elif inv_y is None:  # y = p t; x' is divisible by t^b
            comps[i, b] = _shift_down(dx, b).scale(Fraction(1, p ** b))
        else:
            inv_yb = inv_y
            for _ in range(b - 1):
                inv_yb = inv_yb * inv_y
            comps[i, b] = dx * inv_yb
    return xs, ys, [comps[mono] for mono in m.basis]


def _shift_down(f: TruncatedSeries, k: int) -> TruncatedSeries:
    """Divide by t^k; the dropped low coefficients must be zero classes."""
    if k >= f.order:
        raise PrecisionLoss(f"a series of order {f.order} cannot be divided by t^{k}")
    for c in f.coeffs[:k]:
        if not c.is_zero():
            raise PoleOnDisc("series has a genuine pole: cannot shift down")
    bound = f.bound
    if bound is not None:
        bound = Subordination(bound.slope, bound.offset + k * bound.slope)
    return TruncatedSeries(f.p, f.coeffs[k:], bound, check=False, exact=f.exact)


def psi_intersection_with_components(model, q: int, incidence, corr):
    """i_q(Psi, C_j) for all components; the contract says these vanish."""
    fib = model.fibres[q]
    vec = [Fraction(v) for v in incidence]
    phi_vec = [corr.coeffs.get(c.id, Fraction(0)) for c in fib.components]
    return [a + b for a, b in zip(vec, fib.matrix.matvec(phi_vec))]
