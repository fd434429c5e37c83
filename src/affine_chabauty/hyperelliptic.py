"""Frobenius-lift machinery and Coleman integration on hyperelliptic models.

Works with y^2 = f(x) over Zp, f squarefree with unit leading coefficient
and unit discriminant (good reduction), of odd degree 2g+1 or even degree
2g+2.  The Frobenius action is computed on the Monsky-Washnitzer basis
x^i dx/y (i = 0..2g-1 for odd degree, i = 0..2g for even degree; the last
even-degree element is the logarithmic differential with simple poles at
the two points at infinity).

The reduction keeps, per basis element, the exact-form bookkeeping needed
to evaluate the associated dagger function at integration endpoints, so a
Coleman integral between non-cuspidal points costs only a small linear
solve once the cohomology computation is cached.

The residue-disc layer of a chart y^n = g(x) (disc centers, disc parameters,
parametrizations and the series of x^i dx/y^b) lives at the end of this
module; the models here and the curve charts of integration.py share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .curves import _separable
from .errors import (
    BadReduction,
    DifferentDiscs,
    EndpointRestriction,
    PoleOnDisc,
    PrecisionExceeded,
    PrecisionLoss,
)
from .linalg import padic_det, padic_solve
from .padics import PadicNumber, _horner_mod, _vp, hensel_lift_root, nth_root, sqrt, teichmuller
from .polyutil import padd, pderiv, pdivmod, peval, pmul, pscale, ptrim
from .series import Subordination, TruncatedSeries, formal_antiderivative, sqrt_series

INFINITY = "infinity"  # endpoint marker for the point at infinity of an odd model


def loss_budget(p: int, K: int, deg: int) -> int:
    """Upper bound on tracked precision loss across the cohomology reduction."""
    j0 = p * K + (p - 1) // 2 + 2
    total = sum(_vp(2 * j - 1, p) for j in range(1, j0 + 1))
    total += 2 * sum(_vp(s, p) for s in range(1, 3 * deg * p))
    return total


def _binom_half(k: int) -> Fraction:
    """binomial(-1/2, k) as an exact rational."""
    out = Fraction(1)
    for i in range(k):
        out *= (Fraction(-1, 2) - i) / (i + 1)
    return out


@dataclass
class Point:
    x: PadicNumber
    y: PadicNumber

    def involution(self) -> "Point":
        return Point(self.x, -self.y)

    def __repr__(self):
        return f"({self.x}, {self.y})"


@dataclass
class FrobeniusData:
    matrix: list          # rows: image of omega_i in the basis
    dagger: list          # per i: (pole_parts [(m, poly)], y_parts [(s, coeff)])
    trunc_prec: int       # precision cap coming from the series truncation
    a_p: int
    point_count: int


class HyperellipticModel:
    """y^2 = f(x) over Zp with good reduction; Coleman integration backend."""

    def __init__(self, f_coeffs, p: int, prec: int):
        self.p = p
        self.prec = prec
        if p == 2:
            raise BadReduction("p = 2 not supported")
        self.f_rational = [Fraction(c) for c in f_coeffs]
        deg = len(f_coeffs) - 1
        while deg >= 0 and self.f_rational[deg] == 0:
            deg -= 1
        if deg < 3:
            raise ValueError("need deg f >= 3")
        self.deg = deg
        self.g = (deg - 1) // 2
        self.is_even = deg % 2 == 0
        self.dim = 2 * self.g + (1 if self.is_even else 0)
        self.K = prec + 6
        self.M = prec + loss_budget(p, self.K, deg) + 8
        self.f = [PadicNumber.from_rational(c, p, self.M) for c in self.f_rational[: deg + 1]]
        if self.f[-1].v != 0:
            raise BadReduction("leading coefficient must be a unit")
        self._check_good_reduction()
        self._frob: FrobeniusData | None = None
        self._discs: dict = {}

    # -- setup helpers -------------------------------------------------------

    def _check_good_reduction(self):
        # the leading coefficient is a unit, so squarefree mod p is good reduction
        if not _separable([c.residue(1) for c in self.f], self.p):
            raise BadReduction(f"discriminant of f vanishes mod {self.p}")

    # -- point utilities -------------------------------------------------------

    def curve_rhs(self, x: PadicNumber) -> PadicNumber:
        return peval(self.f, x, self.p)

    def lift_x(self, x, sign_hint: int) -> Point:
        xp = x if isinstance(x, PadicNumber) else PadicNumber.from_rational(x, self.p, self.M)
        return Point(xp, sqrt(self.curve_rhs(xp), sign_hint=sign_hint))

    def point(self, x, y) -> Point:
        xp = x if isinstance(x, PadicNumber) else PadicNumber.from_rational(x, self.p, self.M)
        yp = y if isinstance(y, PadicNumber) else PadicNumber.from_rational(y, self.p, self.M)
        if not (yp * yp - self.curve_rhs(xp)).is_zero():
            raise ValueError(f"({x}, {y}) is not on the curve")
        return Point(xp, yp)

    def is_weierstrass_disc(self, pt: Point) -> bool:
        return pt.y.is_zero() or pt.y.v >= 1

    def teichmueller_point(self, pt: Point) -> Point:
        """The Frobenius-fixed center of pt's disc: the Weierstrass point of a
        Weierstrass disc, otherwise the Teichmueller point over pt."""
        if pt.x.v < 0:
            raise EndpointRestriction("point lies in an infinite disc")
        if self.is_weierstrass_disc(pt):
            return Point(*chart_center(self.f, 2, pt.x.residue(1), 0, self.M))
        return Point(*chart_center(self.f, 2, pt.x.residue(1), pt.y.residue(1),
                                  min(pt.x.N, self.M)))

    # -- local expansions --------------------------------------------------------

    def disc_series(self, pt: Point):
        """(x(t), y(t)) to order 2 prec and the series of each basis monomial
        x^i dx/y on pt's disc, centered at teichmueller_point(pt).

        Non-Weierstrass discs use x = x(center) + p t; Weierstrass discs use
        y = p t with x(t) solved from f(x) = y^2 by Newton iteration on
        series.  Built once per disc and center precision.
        """
        x0 = self.teichmueller_point(pt).x
        key = (pt.x.residue(1), pt.y.residue(1), x0.N)
        if key not in self._discs:
            wdisc = self.is_weierstrass_disc(pt)
            root = None if wdisc else partial(sqrt_series, sign_hint=pt.y.residue(1))
            xs, ys = _local_parametrization(self.f, 2, x0, root, self.M, 2 * self.prec)
            self._discs[key] = xs, ys, monomial_series(
                xs, ys, [(i, 1) for i in range(self.dim)], wdisc)
        return self._discs[key]

    # -- Frobenius data ------------------------------------------------------------

    def frobenius_data(self) -> FrobeniusData:
        if self._frob is None:
            self._frob = self._compute_frobenius()
        return self._frob

    def _compute_frobenius(self) -> FrobeniusData:
        p, M, K = self.p, self.M, self.K
        mod = p ** M
        fint = [c.residue(M) for c in self.f]

        fxp = [0] * (p * self.deg + 1)
        for k, c in enumerate(fint):
            fxp[p * k] = c
        nE = _int_sub(fxp, _int_pow_mod(fint, p, mod), mod)
        # E = nE / f^p as levels {m: poly} standing for sum poly_m / f^m
        E_levels = {p - j: poly for j, poly in _f_adic_expand(nE, fint, mod).items()}
        # S = (1 + E)^(-1/2) via Horner over binomial coefficients
        S_levels = {0: [_int_from_fraction(_binom_half(K), p, M)]}
        for k in range(K - 1, -1, -1):
            S_levels = _levels_mul(S_levels, E_levels, fint, mod)
            ck = _int_from_fraction(_binom_half(k), p, M)
            S_levels[0] = _int_padd(S_levels.get(0, []), [ck], mod)

        half = (p - 1) // 2
        t_bez = self._bezout()
        tp = self.K - 4  # the K-term series truncation caps provable digits
        matrix = []
        dagger = []
        for i in range(self.dim):
            # phi(x^i dx/y) = p x^(p i + p - 1) S f^(-half) dx/y
            levels: dict[int, list[int]] = {}
            shift = p * i + p - 1
            for j, poly in S_levels.items():
                shifted = [0] * shift + [c * p % mod for c in poly]
                for jj, piece in _f_adic_expand(shifted, fint, mod).items():
                    tgt = j + half - jj
                    levels[tgt] = _int_padd(levels.get(tgt, []), piece, mod)
            col, poles, yparts = self._reduce(levels, t_bez)
            matrix.append([_cap(c, tp) for c in col])
            dagger.append(([(m, [_cap(c, tp) for c in poly]) for m, poly in poles],
                           [(s, _cap(lam, tp)) for s, lam in yparts]))

        a_p, count = self._verify(matrix)
        return FrobeniusData(matrix=matrix, dagger=dagger, trunc_prec=tp,
                             a_p=a_p, point_count=count)

    def _reduce(self, int_levels, t_bez):
        """Reduce  sum_m P_m(x) dx / y^(2m+1)  to the basis, recording exact parts.

        t_bez is the cofactor of f' returned by _bezout.
        """
        p, M = self.p, self.M
        levels: dict[int, list] = {}
        poly_part: list = []
        for m, poly in int_levels.items():
            cs = ptrim([PadicNumber.from_int(c, p, M) for c in poly])
            if not cs:
                continue
            if m > 0:
                levels[m] = padd(levels.get(m, []), cs)
            else:  # y^(2|m|) = f^(|m|)
                lifted = cs
                for _ in range(-m):
                    lifted = pmul(lifted, self.f, p)
                poly_part = padd(poly_part, lifted)
        fprime = pderiv(self.f)
        poles = []   # (m, poly):  exact part  poly(x) / y^(2m-1)
        yparts = []  # (s, coeff): exact part  coeff * x^s * y
        top = max(levels, default=0)
        for m in range(top, 0, -1):
            P = ptrim(levels.pop(m, []))
            if not P:
                continue
            B = pdivmod(pmul(P, t_bez, p), self.f, p)[1]
            A = pdivmod(padd(P, pscale(pmul(B, fprime, p), -1)), self.f, p)[0]
            down = padd(A, pscale(pderiv(B), Fraction(2, 2 * m - 1)))
            if m == 1:
                poly_part = padd(poly_part, down)
            else:
                levels[m - 1] = padd(levels.get(m - 1, []), down)
            poles.append((m, pscale(B, Fraction(-2, 2 * m - 1))))
        target = 2 * self.g if self.is_even else 2 * self.g - 1
        poly_part = ptrim(poly_part)
        lead_inv = self.f[-1].inverse()
        while len(poly_part) - 1 > target:
            if poly_part[-1].is_zero():
                # zero class: uncertainty was already propagated by eliminations
                poly_part = ptrim(poly_part[:-1])
                continue
            D = len(poly_part) - 1
            s = D - (self.deg - 1)
            lam = poly_part[-1] * lead_inv / Fraction(2 * s + self.deg, 2)
            piece1 = pscale([PadicNumber.exact_zero(p)] * (s - 1) + list(self.f), s) \
                if s >= 1 else []
            piece2 = pscale([PadicNumber.exact_zero(p)] * s + list(fprime), Fraction(1, 2))
            dxy = padd(piece1, piece2)  # d(x^s y) / (dx/y)
            res = padd(poly_part, pscale(dxy, -lam))
            if not res[-1].is_zero():
                raise PrecisionExceeded("degree reduction failed to cancel the top term")
            poly_part = ptrim(res[:-1])
            yparts.append((s, lam))
        col = [PadicNumber.unknown_zero(p, M)] * self.dim
        for n, c in enumerate(poly_part):
            if n < self.dim:
                col[n] = c
            elif not c.is_zero():
                raise PrecisionExceeded("reduction left an unreduced coefficient")
        return col, poles, yparts

    def _bezout(self):
        """t of some s*f + t*f' = 1 (solvable since disc(f) is a unit)."""
        p = self.p
        fprime = pderiv(self.f)
        ns, nt = self.deg - 1, self.deg
        size = ns + nt
        rows = []
        rhs = []
        zero = PadicNumber.exact_zero(p)
        for r in range(size):
            row = []
            for k in range(ns):
                row.append(self.f[r - k] if 0 <= r - k <= self.deg else zero)
            for k in range(nt):
                row.append(fprime[r - k] if 0 <= r - k <= self.deg - 1 else zero)
            rows.append(row)
            rhs.append(PadicNumber.from_int(1, p, self.M) if r == 0 else zero)
        return ptrim(padic_solve(rows, rhs)[ns:])

    def _verify(self, matrix):
        p = self.p
        tr = matrix[0][0]
        for i in range(1, self.dim):
            tr = tr + matrix[i][i]
        count = self._point_count_fp()
        expected_tr = p + 1 - count + (p if self.is_even else 0)
        if tr.compare(expected_tr) == "distinct":
            raise PrecisionExceeded(
                f"Frobenius trace {tr} does not match the point count {count}")
        a_p = p + 1 - count
        if a_p * a_p > 4 * self.g * self.g * p:
            raise BadReduction("point count violates the Weil bound")
        det = padic_det([row[:] for row in matrix])
        expected_v = self.g + (1 if self.is_even else 0)
        if det.is_zero() or det.v != expected_v:
            raise PrecisionExceeded(
                f"det(Frobenius) valuation {det.v if not det.is_zero() else '?'}"
                f" != {expected_v}")
        return a_p, count

    def _point_count_fp(self) -> int:
        p = self.p
        fbar = [c.residue(1) for c in self.f]
        count = 0
        for x in range(p):
            fx = _horner_mod(fbar, x, p)
            if fx == 0:
                count += 1
            elif pow(fx, (p - 1) // 2, p) == 1:
                count += 2
        if self.is_even:
            count += 2 if pow(fbar[-1], (p - 1) // 2, p) == 1 else 0
        else:
            count += 1
        return count

    # -- integration ---------------------------------------------------------------

    def dagger_eval(self, i: int, pt: Point) -> PadicNumber:
        """Value at pt of the recorded dagger function for basis element i."""
        frob = self.frobenius_data()
        poles, yparts = frob.dagger[i]
        p = self.p
        if pt.y.is_zero() or pt.y.v != 0:
            raise EndpointRestriction("dagger functions diverge on Weierstrass discs")
        acc = PadicNumber.exact_zero(p)
        inv_y2 = (pt.y * pt.y).inverse()
        by_m = sorted(poles, key=lambda t: t[0], reverse=True)
        if by_m:
            horner = PadicNumber.exact_zero(p)
            idx = 0
            for m in range(by_m[0][0], 0, -1):
                if idx < len(by_m) and by_m[idx][0] == m:
                    horner = horner + peval(by_m[idx][1], pt.x, p)
                    idx += 1
                horner = horner * inv_y2
            acc = acc + horner * pt.y  # sum B_m / y^(2m-1)
        if yparts:
            xpart = PadicNumber.exact_zero(p)
            for s, lam in sorted(yparts, key=lambda t: t[0], reverse=True):
                xpart = xpart + lam * (pt.x ** s if s else 1)
            acc = acc + xpart * pt.y
        return acc

    def tiny_basis_integrals(self, P: Point, Q: Point) -> list[PadicNumber]:
        """Integrals of x^i dx/y between two points of one residue disc."""
        if P.x.residue(1) != Q.x.residue(1):
            raise DifferentDiscs("tiny integral endpoints lie in different discs")
        wdisc = self.is_weierstrass_disc(P)
        if not wdisc and P.y.residue(1) != Q.y.residue(1):
            raise DifferentDiscs("tiny integral endpoints lie in involution-opposite discs")
        xs, _, monomials = self.disc_series(P)
        cx = None if wdisc else xs[0]
        tP, tQ = disc_parameter(P.x, P.y, cx), disc_parameter(Q.x, Q.y, cx)
        out = []
        for integrand in monomials:
            F = formal_antiderivative(integrand)
            out.append(F.evaluate(tQ) - F.evaluate(tP))
        return out

    def basis_integrals(self, P, Q) -> list[PadicNumber]:
        """Coleman integrals of all basis differentials from P to Q.

        Endpoints are Points, or INFINITY on odd-degree models.  Every basis
        differential is anti-invariant under the hyperelliptic involution,
        which reduces Weierstrass-disc and infinite endpoints to integrals
        between generic points.
        """
        p = self.p
        if P is INFINITY or Q is INFINITY:
            if self.is_even:
                raise EndpointRestriction("infinite-disc endpoints on an even model")
            if P is INFINITY and Q is INFINITY:
                return [PadicNumber.exact_zero(p)] * self.dim
            if P is INFINITY:
                half = self.basis_integrals(Q.involution(), Q)
                return [x / 2 for x in half]
            return [-x for x in self.basis_integrals(Q, P)]
        wP, wQ = self.is_weierstrass_disc(P), self.is_weierstrass_disc(Q)
        if wP and wQ:
            t1 = self.tiny_basis_integrals(P, self.teichmueller_point(P))
            t2 = self.tiny_basis_integrals(self.teichmueller_point(Q), Q)
            # the integral between the two Weierstrass points vanishes
            return [a + b for a, b in zip(t1, t2)]
        if wP:
            t1 = self.tiny_basis_integrals(P, self.teichmueller_point(P))
            half = self.basis_integrals(Q.involution(), Q)
            return [t1[i] + half[i] / 2 for i in range(self.dim)]
        if wQ:
            return [-x for x in self.basis_integrals(Q, P)]
        TP = self.teichmueller_point(P)
        TQ = self.teichmueller_point(Q)
        t1 = self.tiny_basis_integrals(P, TP)
        t2 = self.tiny_basis_integrals(TQ, Q)
        mid = self._teich_system(TP, TQ)
        cap = self.frobenius_data().trunc_prec
        out = []
        for i in range(self.dim):
            val = t1[i] + mid[i] + t2[i]
            out.append(val.at_precision(min(val.N, cap)) if not val.is_exact_zero()
                       else PadicNumber.unknown_zero(p, cap))
        return out

    def _teich_system(self, TP: Point, TQ: Point) -> list[PadicNumber]:
        p = self.p
        if (TP.x - TQ.x).is_zero() and (TP.y - TQ.y).is_zero():
            return [PadicNumber.exact_zero(p)] * self.dim
        frob = self.frobenius_data()
        rhs = [self.dagger_eval(i, TQ) - self.dagger_eval(i, TP) for i in range(self.dim)]
        rows = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                if i == j:
                    row.append(PadicNumber.from_int(1, p, self.M) - frob.matrix[i][j])
                else:
                    row.append(-frob.matrix[i][j])
            rows.append(row)
        return padic_solve(rows, rhs)


def _cap(x: PadicNumber, N: int) -> PadicNumber:
    if x.is_exact_zero():
        return PadicNumber.unknown_zero(x.p, N)
    return x.at_precision(min(x.N, N))


# -- integer polynomial helpers (assembly phase, mod p^M) ----------------------


def _int_padd(a, b, mod):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % mod
    return out


def _int_sub(a, b, mod):
    return _int_padd(a, [(-c) % mod for c in b], mod)


def _int_pmul(a, b, mod):
    if not a or not b:
        return []
    # Kronecker substitution: one native bigint multiply
    blen = 2 * mod.bit_length() + (min(len(a), len(b))).bit_length() + 1
    xa = 0
    for c in reversed(a):
        xa = (xa << blen) | c
    xb = 0
    for c in reversed(b):
        xb = (xb << blen) | c
    prod = xa * xb
    mask = (1 << blen) - 1
    out = []
    for _ in range(len(a) + len(b) - 1):
        out.append((prod & mask) % mod)
        prod >>= blen
    return out


def _int_pow_mod(a, k, mod):
    out = [1]
    base = list(a)
    while k:
        if k & 1:
            out = _int_pmul(out, base, mod)
        k >>= 1
        if k:
            base = _int_pmul(base, base, mod)
    return out


def _int_from_fraction(x: Fraction, p: int, M: int) -> int:
    mod = p ** M
    if x.denominator % p == 0:
        raise ValueError("denominator divisible by p")
    return x.numerator * pow(x.denominator, -1, mod) % mod


def _int_divmod_f(poly, f, mod):
    """poly = q*f + r with deg r < deg f; f has unit leading coefficient."""
    degf = len(f) - 1
    if len(poly) <= degf:
        return [], list(poly)
    lead_inv = pow(f[-1], -1, mod)
    rem = list(poly)
    q = [0] * (len(poly) - degf)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + degf] * lead_inv % mod
        if c:
            q[i] = c
            for k, fc in enumerate(f):
                rem[i + k] = (rem[i + k] - c * fc) % mod
    return q, rem[:degf]


def _f_adic_expand(poly, f, mod):
    """Write poly = sum_j r_j(x) f(x)^j with deg r_j < deg f; returns {j: r_j}."""
    out = {}
    cur = [c % mod for c in poly]
    j = 0
    while cur:
        q, r = _int_divmod_f(cur, f, mod)
        if any(r):
            out[j] = r
        cur = q if any(q) else []
        j += 1
    return out


def _levels_mul(A, B, f, mod):
    """Product of level maps standing for sum A[m]/f^m; re-split after multiplying."""
    out: dict[int, list[int]] = {}
    for m1, a in A.items():
        for m2, b in B.items():
            q, r = _int_divmod_f(_int_pmul(a, b, mod), f, mod)
            m = m1 + m2
            if any(r):
                out[m] = _int_padd(out.get(m, []), r, mod)
            if any(q):
                out[m - 1] = _int_padd(out.get(m - 1, []), q, mod)
    return out


# -- the residue-disc layer of a chart y^n = g(x), g with PadicNumber coefficients --


def _poly_of_series(coeffs, xs: TruncatedSeries) -> TruncatedSeries:
    """Evaluate a polynomial with PadicNumber coefficients on a series."""
    p = xs.p
    top = coeffs[-1]
    off = min(0, top.v if not top.is_zero() else 0)
    acc = TruncatedSeries(p, [top] + [PadicNumber.exact_zero(p)] * (xs.order - 1),
                          Subordination(1, off), check=False, exact=True)
    for c in reversed(coeffs[:-1]):
        acc = acc * xs + c
    return acc


def chart_center(g, n: int, xbar: int, ybar: int, N: int):
    """Center (x, y) at precision N of the residue disc over (xbar, ybar).

    ybar = 0: the ramification point, x the root of g over xbar and y = 0.
    Otherwise x is the Teichmueller lift of xbar and y the n-th root of g(x)
    over ybar.
    """
    p = g[-1].p
    if ybar == 0:
        x0 = hensel_lift_root([c.residue(N) for c in g], xbar, p, N)
        return PadicNumber.from_int(x0, p, N), PadicNumber.exact_zero(p)
    xt = PadicNumber.exact_zero(p) if xbar == 0 else teichmuller(PadicNumber.from_int(xbar, p, N))
    return xt, nth_root(peval(g, xt, p), n, ybar)


def disc_parameter(x: PadicNumber, y: PadicNumber, cx) -> PadicNumber:
    """The disc parameter t of (x, y): y = p t on a ramified disc (cx None), else x = cx + p t."""
    return y / y.p if cx is None else (x - cx) / x.p


def monomial_series(xs: TruncatedSeries, ys: TruncatedSeries, monomials, ramified: bool) -> list:
    """x^i dx/y^b as series in t for each (i, b) in monomials, on a disc
    parametrized by (xs, ys); x^(i-1) dx/y^b must come before x^i dx/y^b."""
    dx = xs.derivative()
    inv_y = None if ramified else ys.inverse()
    comps = {}  # x^i dx/y^b = x * x^(i-1) dx/y^b
    for i, b in monomials:
        if i:
            comps[i, b] = comps[i - 1, b] * xs
        elif inv_y is None:  # y = p t; x' is divisible by t^b
            comps[i, b] = _shift_down(dx, b).scale(Fraction(1, xs.p ** b))
        else:
            inv_yb = inv_y
            for _ in range(b - 1):
                inv_yb = inv_yb * inv_y
            comps[i, b] = dx * inv_yb
    return [comps[m] for m in monomials]


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


def _local_parametrization(g, n: int, x0: PadicNumber, root, N: int, T: int):
    """Series (x(t), y(t)) to order T on the residue disc of y^n = g(x) at x0.

    With root given, x = x0 + p t and y = root(g(x)), the branch of the n-th
    root that picks the disc.  With root None, x0 is a root of g (a
    ramification point), y = p t and x(t) is solved from g(x) = y^n by
    Newton's method on series.  N is the precision of the coefficient p.
    """
    p = x0.p
    zero = PadicNumber.exact_zero(p)
    bound = Subordination(1, min(0, x0.v))
    p_coeff = PadicNumber.from_int(p, p, N)
    if root is not None:
        xs = TruncatedSeries(p, [x0, p_coeff] + [zero] * (T - 2), bound, check=False, exact=True)
        return xs, root(_poly_of_series(g, xs))
    ys = TruncatedSeries(p, [zero, p_coeff] + [zero] * (T - 2), Subordination(1, 0),
                         check=False, exact=True)
    target = ys
    for _ in range(n - 1):
        target = target * ys
    xs = TruncatedSeries(p, [x0] + [zero] * (T - 1), bound, check=False, exact=True)
    for _ in range(T.bit_length() + 2):
        gx = _poly_of_series(g, xs)
        dgx = _poly_of_series(pderiv(g), xs)
        xs = xs - (gx - target) * dgx.inverse()
    return TruncatedSeries(p, xs.coeffs, bound, check=False), ys
