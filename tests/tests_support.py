"""Helpers that only the tests use: exact polynomials as series, their
derivative and antiderivative, series composition, lifting an x-coordinate
to a point of a model y^n = f(x), the Frobenius exact parts as PadicNumbers,
the residue-disc series and the disc locus built on PadicNumbers (the
references for the model's int kernel and the engine's int locus), the
single-layer Frobenius numerator and its digits (the reference for the graded
ones), the recursive radix conversion down to single digits (the reference for
the leaf map), one digit product per basis element's shift (the reference for the
chained ones), the Bezout cofactor from a Sylvester solve (the reference for
the lifted one), the intersection of Psi with the fibre components, and the
per-point dagger values, per-pair solves, disc centers and determinant rows
(the reference for the shared ones)."""

import json
from contextlib import contextmanager
from fractions import Fraction
from math import ceil

from affine_chabauty import linalg
from affine_chabauty import series as series_module
from affine_chabauty.errors import (ChabautyError, EndpointRestriction,
                                    IndistinguishableFromZero, PoleOnDisc, PrecisionLoss)
from affine_chabauty import hyperelliptic
from affine_chabauty.hyperelliptic import (HyperellipticModel, Point, _frobenius_numerator,
                                           _int_divmod_f, _int_padd, _int_pmul, _int_pmul_stride,
                                           _int_series_inv, _int_sub, _pack, _slot_width,
                                           _unpack)
from affine_chabauty.integration import _dot
from affine_chabauty.linalg import padic_det, padic_solve
from affine_chabauty.models import enumerate_reduction_types
from affine_chabauty.padics import (INF, PadicNumber, _horner_mod, _normal, _vp,
                                    hensel_lift_root, horner, nth_root, sqrt, teichmuller)
from affine_chabauty.series import (_BIG, IntSeries, StrassmannResult, Subordination,
                                    TruncatedSeries, antiderivative, nth_root_series,
                                    strassmann_roots)


def _scalar_val(a, p: int):
    """Valuation of a scalar operand; INF for zero."""
    if isinstance(a, PadicNumber):
        return a.v
    fa = Fraction(a)
    if fa == 0:
        return INF
    return _vp(fa, p)


class Series(TruncatedSeries):
    """A TruncatedSeries with what only the tests use of it: indexing, the
    precision, truncation, sums and differences, products with a scalar
    (scale), and rendering."""

    __slots__ = ()

    def __getitem__(self, n: int) -> PadicNumber:
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} outside known range [0, {self.order})")
        return self.coeffs[n]

    def padic_precision(self) -> int:
        """Modulus exponent: the series is known modulo (p^N, t^T)."""
        return min((c.N for c in self.coeffs), default=INF)

    def truncate(self, T: int) -> "Series":
        if T >= self.order:
            return self
        exact = self.exact and self.degree() < T
        return Series(self.p, self.coeffs[:T], self.bound, check=False, exact=exact)

    def _combine_bound_add(self, other) -> Subordination | None:
        if self.bound is None or other.bound is None:
            return None
        return Subordination(min(self.bound.slope, other.bound.slope),
                             min(self.bound.offset, other.bound.offset))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            c0 = self.coeffs[0] + other
            bound = self.bound
            if bound is not None:
                guar = c0.v if not c0.is_zero() else (INF if c0.is_exact_zero() else c0.N)
                if guar < bound.offset:
                    bound = Subordination(bound.slope, Fraction(guar))
            return Series(self.p, (c0,) + self.coeffs[1:], bound, check=False,
                                   exact=self.exact)
        T = min(self.order, other.order)
        cs = [x + y for x, y in zip(self.coeffs[:T], other.coeffs[:T])]
        exact = (self.exact and other.exact and self.degree() < T and other.degree() < T)
        return Series(self.p, cs, self._combine_bound_add(other), check=False,
                               exact=exact)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            return self.scale(other)
        return TruncatedSeries.__mul__(self, other)

    __rmul__ = __mul__

    def scale(self, a) -> "Series":
        va = _scalar_val(a, self.p)
        cs = [c * a for c in self.coeffs]
        bound = self.bound
        if bound is not None:
            if va >= INF:
                bound = Subordination(Fraction(1), Fraction(_BIG))
            else:
                bound = Subordination(bound.slope, bound.offset + va)
        return Series(self.p, cs, bound, check=False, exact=self.exact or va >= INF)

    def __neg__(self):
        return Series(self.p, [-c for c in self.coeffs], self.bound, check=False,
                               exact=self.exact)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_exact_zero() or c.is_zero():
                continue
            body = str(c).rsplit(" + O(", 1)[0]
            mono = "" if n == 0 else ("t" if n == 1 else f"t^{n}")
            parts.append(f"({body}){mono}" if mono else f"({body})")
        parts.append(f"O({self.p}^{self.padic_precision()}, t^{self.order})")
        return " + ".join(parts)

    __repr__ = __str__


def derive_bound(coeffs, slope: Fraction) -> Subordination:
    """Sharpest offset making v(c_n) >= slope*n + offset hold on known coefficients."""
    offset = Fraction(_BIG)
    for n, c in enumerate(coeffs):
        guar = c.v if not c.is_zero() else (INF if c.is_exact_zero() else c.N)
        offset = min(offset, Fraction(guar) - slope * n)
    return Subordination(Fraction(slope), offset)


def derivative(f: Series) -> Series:
    """Termwise derivative, with the certificate shifted by one index."""
    cs = [f.coeffs[n] * n for n in range(1, f.order)] or [PadicNumber.exact_zero(f.p)]
    bound = f.bound and Subordination(f.bound.slope, f.bound.offset + f.bound.slope)
    return Series(f.p, cs, bound, check=False, exact=f.exact)


def formal_antiderivative(f: Series) -> Series:
    """Termwise antiderivative with zero constant term; divides by n+1."""
    p = f.p
    cs = [PadicNumber.exact_zero(p)]
    for n, c in enumerate(f.coeffs):
        cs.append(c / (n + 1))
    bound = f.bound
    if bound is not None:
        # v(c_{n-1}/n) >= slope(n-1)+offset-v_p(n) and v_p(n) <= n/4 + 2 for p >= 3
        bound = Subordination(bound.slope - Fraction(1, 4), bound.offset - bound.slope - 2)
    out = Series(p, cs, bound, check=False, exact=f.exact)
    return out.truncate(f.order)


def evaluate(f: Series, t) -> PadicNumber:
    """Value at t with |t| <= 1; the certificate bounds the cut tail."""
    if not isinstance(t, PadicNumber):
        t = PadicNumber.from_rational(t, f.p, f.padic_precision() + 4)
    if t.is_exact_zero():  # f(0) = c_0: nothing of the tail is cut
        return f.coeffs[0]
    vt = t.v
    if vt < 0:
        raise ValueError("evaluation requires |t| <= 1")
    if not f.exact:
        if f.bound is None:
            raise PrecisionLoss("series has no subordination certificate")
        if f.bound.slope + vt <= 0:
            raise PrecisionLoss("certificate too weak to evaluate at a unit")
    acc = horner(f.coeffs, t, PadicNumber.exact_zero(f.p))
    if f.exact:
        return acc
    err = int(ceil((f.bound.slope + vt) * f.order + f.bound.offset))
    if acc.is_exact_zero():
        return PadicNumber.unknown_zero(f.p, max(err, 1))
    return acc.at_precision(min(acc.N, max(err, 1)))


def padic_series(s: IntSeries) -> Series:
    """An IntSeries as the Series of the same coefficients."""
    return Series(s.p, [s.padic(n) for n in range(s.order)], s.bound, check=False,
                           exact=s.exact)


def int_series(f: Series) -> IntSeries:
    """A Series as the IntSeries of the same coefficients."""
    return IntSeries(f.p, [(c.v, c.u, c.N) for c in f.coeffs], f.bound, f.exact)


def series_claims(s) -> tuple:
    """Everything a consumer reads of a series: order, exact flag, bound and the
    (v, u, N) of each coefficient, exact zeros included."""
    f = padic_series(s) if isinstance(s, IntSeries) else s
    return f.order, f.exact, f.bound, [(c.v, c.u, c.N) for c in f.coeffs]


def polynomial(vals, p: int, N: int, slope=Fraction(1)) -> Series:
    """Exact polynomial as a series with a derived subordination certificate."""
    cs = [v if isinstance(v, PadicNumber) else PadicNumber.from_rational(v, p, N) for v in vals]
    return Series(p, cs, derive_bound(cs, Fraction(slope)), check=False, exact=True)


def compose(f: Series, g: Series) -> Series:
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
    out = Series(p, [top] + [PadicNumber.exact_zero(p)] * (T - 1),
                          derive_bound([top], Fraction(0)), check=False,
                          exact=True)
    for k in range(f.order - 2, -1, -1):
        out = (out * g) + f.coeffs[k]
    out = out.truncate(T)
    if not f.exact:
        if f.bound is None:
            return Series(p, out.coeffs, None, check=False)
        vg0 = g0.v if not g0.is_exact_zero() else _BIG
        cap = f.bound.at(f.order) + f.order * min(vg0, _BIG)
        cap_i = max(int(cap), 1)
        cs = [c.at_precision(min(c.N, cap_i)) if not c.is_exact_zero()
              else PadicNumber.unknown_zero(p, cap_i) for c in out.coeffs]
        out = Series(p, cs, out.bound, check=False)
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


def poly_of_series(coeffs, xs: Series) -> Series:
    """Evaluate a polynomial with PadicNumber coefficients on a series."""
    p = xs.p
    top = coeffs[-1]
    off = min(0, top.v if not top.is_zero() else 0)
    acc = Series(p, [top] + [PadicNumber.exact_zero(p)] * (xs.order - 1),
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
        xs = Series(p, [x0, p_coeff] + [zero] * (T - 2), bound, check=False, exact=True)
        ys = nth_root_series(poly_of_series(g, xs), m.n, center.y.residue(1))
    else:  # y = p t and x(t) solved from g(x) = y^n by Newton's method on series
        ys = Series(p, [zero, p_coeff] + [zero] * (T - 2), Subordination(1, 0),
                             check=False, exact=True)
        target = ys
        for _ in range(m.n - 1):
            target = target * ys
        xs = Series(p, [x0] + [zero] * (T - 1), bound, check=False, exact=True)
        dg = [c * k for k, c in enumerate(g)][1:]
        for _ in range(T.bit_length() + 2):
            xs = xs - (poly_of_series(g, xs) - target) * poly_of_series(dg, xs).inverse()
        xs = Series(p, xs.coeffs, bound, check=False)
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


def _shift_down(f: Series, k: int) -> Series:
    """Divide by t^k; the dropped low coefficients must be zero classes."""
    if k >= f.order:
        raise PrecisionLoss(f"a series of order {f.order} cannot be divided by t^{k}")
    for c in f.coeffs[:k]:
        if not c.is_zero():
            raise PoleOnDisc("series has a genuine pole: cannot shift down")
    bound = f.bound
    if bound is not None:
        bound = Subordination(bound.slope, bound.offset + k * bound.slope)
    return Series(f.p, f.coeffs[k:], bound, check=False, exact=f.exact)


def psi_intersection_with_components(model, q: int, incidence, corr):
    """i_q(Psi, C_j) for all components; the contract says these vanish."""
    fib = model.fibres[q]
    vec = [Fraction(v) for v in incidence]
    phi_vec = [corr.coeffs.get(c.id, Fraction(0)) for c in fib.components]
    return [a + b for a, b in zip(vec, fib.matrix.matvec(phi_vec))]


# -- the disc locus on PadicNumber series: the reference for the int locus --


def padic_strassmann_roots(f: Series) -> StrassmannResult:
    """strassmann_roots read from a Series: the level g = f / p^m, its
    precisions and certificate taken from the PadicNumber coefficients."""
    if f.bound is None:
        raise PrecisionLoss("series has no subordination certificate")
    if all(c.is_zero() for c in f.coeffs):
        raise IndistinguishableFromZero("no coefficient is nonzero to precision")
    m = min(c.v for c in f.coeffs if not c.is_zero())
    star = max(n for n, c in enumerate(f.coeffs) if not c.is_zero() and c.v == m)
    for n, c in enumerate(f.coeffs):
        if c.is_zero() and not c.is_exact_zero() and max(c.N, ceil(f.bound.at(n))) <= m:
            raise PrecisionLoss(
                f"coefficient t^{n} = O(p^{c.N}) could attain the minimal valuation {m}")
    if not f.exact and (f.bound.slope <= 0 or f.bound.at(f.order) <= m):
        raise PrecisionLoss("certificate cannot exclude roots hidden in the tail")
    p = f.p
    cs = f.coeffs[:f.degree() + 1] if f.exact else f.coeffs
    g = [0 if c.is_zero() else c.u * p ** (c.v - m) for c in cs]
    Ns = [INF if c.is_exact_zero() else (c.N if c.u else max(c.N, ceil(f.bound.at(n)))) - m
          for n, c in enumerate(cs)]
    level = (g, Ns, f.bound.slope, f.bound.offset - m, f.exact)
    roots = [(PadicNumber.exact_zero(p) if n >= INF else PadicNumber.from_int(r, p, n) if r
              else PadicNumber.unknown_zero(p, n), 1)
             for r, n in series_module._isolate(p, level, f.padic_precision() + 2)]
    if len(roots) > star:
        raise PrecisionLoss(f"{len(roots)} roots isolated but the Strassmann bound is {star}")
    return StrassmannResult(roots=roots, bound=star)


@contextmanager
def isolate_levels(log: list):
    """Record each (p, level, depth) that series._isolate is called with,
    its recursive calls included."""
    orig = series_module._isolate

    def recorded(p, level, depth):
        log.append((p, level, depth))
        return orig(p, level, depth)
    series_module._isolate = recorded
    try:
        yield log
    finally:
        series_module._isolate = orig


def _vun(x: PadicNumber) -> tuple:
    return x.v, x.u, x.N


def strassmann_claims(rho, strassmann, at_roots=lambda t: ()) -> tuple:
    """The Strassmann inputs (every level _isolate sees), the StrassmannResult and
    each root's t and at_roots(t) as (v, u, N); a ChabautyError as its text."""
    levels = []
    with isolate_levels(levels):
        try:
            res = strassmann(rho)
            out = (res.bound, [(_vun(t), mult, [_vun(v) for v in at_roots(t)])
                               for t, mult in res.roots])
        except ChabautyError as e:
            out = f"{type(e).__name__}: {e}"
    return levels, out


def disc_locus_differences(engine) -> tuple:
    """Compare the engine's int disc locus with the PadicNumber reference on every
    non-cuspidal disc, for each basis differential (c = 0) and each kernel omega
    of every reduction type with its c: omega's antiderivative plus the constant
    (order, exact flag, certificate and every coefficient), the Strassmann
    inputs, the StrassmannResult and each root's t, x and y, all as (v, u, N).

    Returns (differences, counts): one line per difference, and the number of
    loci compared, of those whose omega has an exact-zero coefficient, and of
    those whose series order T reaches p (so some k + 1 = p^e w with e > 0)."""
    I, p = engine.integrator, engine.problem.p
    base = engine.problem.base_point
    pairs = [(om, PadicNumber.exact_zero(p), f"basis[{j}]")
             for j, om in enumerate(engine.problem.curve.basis())]
    for sigma in enumerate_reduction_types(engine.problem, engine.model):
        try:
            rec = engine.locus_record(sigma)
        except ChabautyError:
            continue
        pairs += [(om, c, f"{sigma.label}[{j}]")
                  for j, (om, c) in enumerate(zip(rec.kernel[1], rec.constants))]
    diffs, counts = [], {"loci": 0, "exact_zero_entry": 0, "p_divides_k_plus_1": 0}
    for disc in I.residue_discs():
        if disc.cuspidal:
            continue
        try:
            center = I.disc_center(disc)
        except ChabautyError:
            continue
        xs, ys, *terms = I._disc_series(disc)
        padic_terms = [padic_series(s) for s in terms]
        for omega, c, label in pairs:
            const = I.integral(omega, base, center) - c
            exp = I.expand_differential_on_disc(omega, disc)
            rho = antiderivative(exp.series, const)
            want = formal_antiderivative(_dot(omega.coeffs, padic_terms)) + const
            where = f"p = {p}, prec {engine.problem.prec}, {disc!r}, {label}"
            if series_claims(rho) != series_claims(want):
                diffs.append(f"{where}: the antiderivative plus c differs")
            got = strassmann_claims(rho, strassmann_roots,
                                    lambda t: (exp.xs.evaluate(t), exp.ys.evaluate(t)))
            xs_ref, ys_ref = padic_series(exp.xs), padic_series(exp.ys)
            ref = strassmann_claims(want, padic_strassmann_roots,
                                    lambda t: (evaluate(xs_ref, t), evaluate(ys_ref, t)))
            if got != ref:
                diffs.append(f"{where}: Strassmann inputs, roots or x, y differ")
            counts["loci"] += 1
            counts["exact_zero_entry"] += any(isinstance(a, PadicNumber) and a.is_exact_zero()
                                              for a in omega.coeffs)
            counts["p_divides_k_plus_1"] += rho.order >= p
    return diffs, counts



# -- the single-layer Frobenius numerator --------------------------------------


def single_layer_numerator(f, p, K, N, alpha=Fraction(-1, 2)):
    """num = sum_k c_k u^k f^(p(K-k)) mod p^N, c_k = binomial(alpha, k) and u = f(x^p) -
    f^p: every term at the one precision p^N, by the kernel's binary splitting."""
    mod = p ** N
    fpow = [[1]]  # f^m for m <= p and every F-exponent, all <= (K + 1) / 2
    for _ in range(max(p, K // 2 + 1)):
        fpow.append(_int_pmul(fpow[-1], f, mod))
    u = _int_sub(_int_pmul_stride([1], f, p, mod), fpow[p], mod)
    c, ck = [], Fraction(1)
    for k in range(K + 1):
        c.append(ck.numerator * pow(ck.denominator, -1, mod) % mod)
        ck = ck * (alpha - k) / (k + 1)
    return _frobenius_numerator(c, fpow, u, p, mod)


def single_layer_tower(f, size, mod):
    """(f^(2^k), inverse of its reversal) mod mod, each inverse by Newton from one
    term, as long as a poly of length size needs."""
    gs = [f]
    while 2 * (len(gs[-1]) - 1) < size:
        gs.append(_int_pmul(gs[-1], gs[-1], mod))
    lengths = [len(g) - 1 for g in gs[:-1]] + [size - len(gs[-1]) + 1]
    return [(g, _int_series_inv(g[::-1], n, mod)) for g, n in zip(gs, lengths)]


def reference_digits(poly, f, mod, tables=None):
    """The reference for hyperelliptic._f_adic_digits: the digits of poly = sum_j r_j
    f^j by the recursive split over every level of tables, a single_layer_tower of f
    (by default built for poly), down to single digits, each division one product
    with the inverse of the reversed divisor and one subtraction; a digit may be
    shorter than deg f."""
    tables = tables or single_layer_tower(f, len(poly), mod)
    top = next(k for k, (g, _) in enumerate(tables) if 2 * (len(g) - 1) >= len(poly))

    def split(a, k):  # deg a < 2 deg f^(2^k): 2^(k+1) digits
        if k < 0:
            return [a]
        g, ginv = tables[k]
        n = len(g) - 1
        lq = max(len(a) - n, 0)
        q = _int_pmul(a[::-1][:lq], ginv[:lq], mod, 0, lq)[::-1]
        return split(_int_sub(a[:n], _int_pmul(q, g, mod, 0, n), mod), k - 1) + split(q, k - 1)

    digits = split(poly, top)
    while digits and not any(digits[-1]):
        digits.pop()
    return digits


def single_layer_digits(f, p, K, N, alphas, size, shift):
    """The reference for hyperelliptic._numerator_digits, same arguments and result:
    each numerator at one precision p^N, times x^shift, converted by reference_digits
    on one tower of f mod p^N."""
    nums = [[0] * shift + single_layer_numerator(f, p, K, N, alpha) for alpha in alphas]
    tower = single_layer_tower(f, max([size] + [len(num) for num in nums]), p ** N)
    return [reference_digits(num, f, p ** N, tower) for num in nums], tower


def per_shift_digits(digits, shifts, f, mod, tower):
    """The reference for hyperelliptic._shifted_digits, same arguments and result: per
    shift s, one Kronecker product of the digit sequence with that of x^(s - shifts[0])
    and one carry per digit, each shift on its own.  The digits of x^(s - shifts[0])
    come from reference_digits on its own tower: tower is not read."""
    w = 2 * len(f) - 3
    xdigits = [reference_digits([0] * (s - shifts[0]) + [1], f, mod) for s in shifts]
    flat, *xflats = ([c for r in rs for c in r + [0] * (w - len(r))]
                     for rs in [digits] + xdigits)
    width = _slot_width(mod, min(len(flat), max(map(len, xflats))))
    packed = _pack(flat, width)
    out = []
    for xflat in xflats:
        prod = _unpack(packed * _pack(xflat, width), len(flat) + len(xflat) - 1, width, mod)
        D, carry = [], []
        for j in range(0, len(prod), w):  # the last slot is padding: it takes the last carry
            q, r = _int_divmod_f(prod[j:j + w], f, mod)
            D.append(_int_padd(r, carry, mod))
            carry = q
        out.append(D)
    return out


def sylvester_bezout(m):
    """The reference for m._bezout(): t of s f + t f' = 1, deg s < deg f - 1 and
    deg t < deg f, from the Sylvester system over PadicNumbers at m's precision M,
    as ints mod p^M."""
    p, d, f = m.p, m.deg, m.f
    fprime = [c * k for k, c in enumerate(f)][1:]
    zero = PadicNumber.exact_zero(p)
    rows = [[f[r - k] if 0 <= r - k <= d else zero for k in range(d - 1)]
            + [fprime[r - k] if 0 <= r - k <= d - 1 else zero for k in range(d)]
            for r in range(2 * d - 1)]
    rhs = [PadicNumber.from_int(1, p, m.M)] + [zero] * (2 * d - 2)
    return [c.residue(m.M) for c in padic_solve(rows)(rhs)[d - 1:]]


def single_layer_frobenius(m):
    """The FrobeniusData of a fresh copy of the model m, its numerator digits taken
    by single_layer_digits, each basis element's shifted digits by per_shift_digits
    and its Bezout cofactor by sylvester_bezout."""
    fresh = HyperellipticModel(m.f_rational, m.p, m.prec, m.n)
    fresh._bezout = lambda: sylvester_bezout(fresh)
    kernels = hyperelliptic._numerator_digits, hyperelliptic._shifted_digits
    hyperelliptic._numerator_digits = single_layer_digits
    hyperelliptic._shifted_digits = per_shift_digits
    try:
        return fresh.frobenius_data()
    finally:
        hyperelliptic._numerator_digits, hyperelliptic._shifted_digits = kernels


def frobenius_differences(m) -> list:
    """Where the FrobeniusData of m differs from single_layer_frobenius(m): matrix
    entries as (v, u, N), the dagger ints, trunc_prec, headroom, a_p, #C(F_p), or
    the error that m alone raised."""
    want = single_layer_frobenius(m)
    try:
        got = m.frobenius_data()
    except ChabautyError as e:
        return [f"raised {type(e).__name__}: {e}"]
    out = [name for name in ("dagger", "trunc_prec", "headroom", "a_p", "point_count")
           if getattr(got, name) != getattr(want, name)]
    return out + [f"matrix[{i}][{j}]" for i, (row, ref) in enumerate(zip(got.matrix, want.matrix))
                  for j, (a, b) in enumerate(zip(row, ref)) if _vun(a) != _vun(b)]


# -- the per-point pair integrals and determinant rows: the reference for the shared ones --


def per_point_dagger_eval(m, i, pt):
    """The reference for HyperellipticModel.dagger_eval, same arguments and result: the
    powers of z = 1/y^n mod p^e, e = min(trunc_prec + max S over the basis, x.N, y.N),
    and F(x, z) mod p^(N + S) built for pt alone, from the model's dagger tables."""
    if pt.y.is_zero() or pt.y.v != 0:
        raise EndpointRestriction("dagger functions diverge on Weierstrass discs")
    p, n = m.p, m.n
    tables, Nc = m._dagger_tables()[0], m.frobenius_data().trunc_prec
    S, cols = tables[i]
    N = min(Nc, pt.x.N - S, pt.y.N - S)
    R = p ** (N + S)
    e = min(Nc + max(S for S, _ in tables), pt.x.N, pt.y.N)
    zs = [1, pow(pt.y.residue(e), -n, p ** e)]
    for _ in range(max(len(col) for _, cs in tables for col in cs) - 2):
        zs.append(zs[-1] * zs[1] % p ** e)
    x, y = pt.x.residue(N + S), pt.y.residue(N + S)
    A = pow(y, n - m.basis[i][1], R) * \
        _horner_mod([sum(a * z for a, z in zip(col, zs)) % R for col in cols], x, R) % R
    return PadicNumber(p, *_normal(A, -S, N, p))


def augmented_solve(rows, rhs):
    """The reference for linalg.padic_solve(rows)(rhs): A | b eliminated as one matrix,
    pivots on the columns of A, then x_j = b_i / a_ij per pivot (i, j)."""
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    n = len(a)
    pivots, free, _ = linalg._eliminate(a, n)
    if free:
        raise PrecisionLoss("matrix is singular to working precision")
    x = [None] * n
    for i, j in pivots:
        x[j] = a[i][n] / a[i][j]
    return x


def per_pair_teich_system(m, TP, TQ):
    """The reference for HyperellipticModel._teich_system: I - Frob built and eliminated,
    with the right-hand side, for this pair alone."""
    if (TP.x - TQ.x).is_zero() and (TP.y - TQ.y).is_zero():
        return [PadicNumber.exact_zero(m.p)] * m.dim
    matrix = m.frobenius_data().matrix
    rhs = [m.dagger_eval(i, TQ) - m.dagger_eval(i, TP) for i in range(m.dim)]
    one = PadicNumber.from_int(1, m.p, m.M)
    return augmented_solve([[one - c if i == j else -c for j, c in enumerate(row)]
                            for i, row in enumerate(matrix)], rhs)


def lifted_center(m, pt):
    """The reference for HyperellipticModel.teichmueller_point: the center of pt's disc
    lifted again on every call."""
    xbar, ybar = m._disc_key(pt)
    zero = PadicNumber.exact_zero(m.p)
    if m.is_weierstrass_disc(pt):
        x0 = hensel_lift_root([c.residue(m.M) for c in m.f], xbar, m.p, m.M)
        return Point(PadicNumber.from_int(x0, m.p, m.M), zero)
    xt = zero if xbar == 0 else teichmuller(PadicNumber.from_int(xbar, m.p, m.M))
    return Point(xt, nth_root(m.curve_rhs(xt), m.n, ybar))


def per_subset_determinant(engine, labeled_points):
    """The reference for Engine.determinant_criterion: every row of the subset built
    again, each c(b, omega_j) by constant_c."""
    basis = engine.problem.curve.basis()
    if len(labeled_points) != len(basis):
        raise ValueError(f"need exactly {len(basis)} points")
    rows = []
    for pt, sigma in labeled_points:
        st = engine.type_record(sigma).target
        vec = engine.integrator.basis_integral_vector(engine.problem.base_point, pt)
        rows.append([vec[j] - engine.constant_c(st, basis[j]) for j in range(len(basis))])
    return padic_det(rows)


@contextmanager
def per_point_reference():
    """Swap in the per-point code for the shared work of the pair integrals and verify:
    per_point_dagger_eval, per_pair_teich_system, lifted_center and
    per_subset_determinant."""
    from affine_chabauty.engine import Engine
    swaps = [(HyperellipticModel, "dagger_eval", per_point_dagger_eval),
             (HyperellipticModel, "_teich_system", per_pair_teich_system),
             (HyperellipticModel, "teichmueller_point", lifted_center),
             (Engine, "determinant_criterion", per_subset_determinant)]
    saved = [(cls, name, vars(cls)[name]) for cls, name, _ in swaps]
    for cls, name, ref in swaps:
        setattr(cls, name, ref)
    try:
        yield
    finally:
        for cls, name, orig in saved:
            setattr(cls, name, orig)


def report_texts(load) -> list:
    """The solve and verify reports of fresh engines from load(), as the CLI writes them
    (json.dumps, indent 2), or a ChabautyError as its text."""
    out = []
    for command in ("solve", "verify"):
        try:
            out.append(json.dumps(getattr(load(), command)(), indent=2))
        except ChabautyError as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


def pair_differences(load) -> list:
    """The commands whose report from fresh engines of load() differs from the report
    under per_point_reference()."""
    got = report_texts(load)
    with per_point_reference():
        want = report_texts(load)
    return [command for command, a, b in zip(("solve", "verify"), got, want) if a != b]
