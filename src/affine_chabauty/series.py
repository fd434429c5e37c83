"""Truncated power series over Qp and Strassmann root isolation on Zp.

A TruncatedSeries stores coefficients c_0 .. c_{T-1} together with a
subordination certificate: a linear bound v(c_n) >= slope*n + offset valid
for every index n (known and truncated alike).  Disc parametrizations of the
form x = x0 + p*t produce slope-1 certificates, and the certificate is what
makes evaluation on |t| <= 1 and Strassmann counting rigorous.  A series
without a certificate can still be manipulated but not evaluated or counted.

`strassmann_roots` isolates the roots on ints: g = f / p^m with one precision
per coefficient, residues mod p by `_horner_mod`, simple roots lifted by
`hensel_lift_root`, repeated residues moved into their sub-disc by one
`_taylor_shift`.  A root carries only the digits that the coefficients'
precisions, the certificate and the tail prove.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

from .errors import IndistinguishableFromZero, PrecisionLoss, ZeroInput
from .padics import (INF, PadicNumber, _horner_mod, _taylor_shift, _vp, hensel_lift_root, horner,
                     nth_root)

_BIG = INF // 2


@dataclass(frozen=True)
class Subordination:
    """Certificate v(c_n) >= slope*n + offset for every coefficient index n."""

    slope: Fraction
    offset: Fraction

    def at(self, n: int) -> Fraction:
        return self.slope * n + self.offset

    def __post_init__(self):
        object.__setattr__(self, "slope", Fraction(self.slope))
        object.__setattr__(self, "offset", Fraction(self.offset))


def _scalar_val(a, p: int):
    """Valuation of a scalar operand; INF for zero."""
    if isinstance(a, PadicNumber):
        return a.v
    fa = Fraction(a)
    if fa == 0:
        return INF
    return _vp(fa, p)


class TruncatedSeries:
    __slots__ = ("p", "coeffs", "bound", "exact")

    def __init__(self, p: int, coeffs, bound: Subordination | None, check: bool = True,
                 exact: bool = False):
        self.p = p
        self.coeffs = tuple(coeffs)
        self.bound = bound
        self.exact = exact  # True: coefficients beyond the truncation are exactly zero
        if not self.coeffs:
            raise ValueError("series needs at least one coefficient")
        if check and bound is not None:
            for n, c in enumerate(self.coeffs):
                guar = c.v if not c.is_zero() else (INF if c.is_exact_zero() else c.N)
                if guar < bound.at(n):
                    raise ValueError(
                        f"coefficient t^{n} (valuation >= {guar}) violates claimed bound {bound.at(n)}")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> PadicNumber:
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} outside known range [0, {self.order})")
        return self.coeffs[n]

    def padic_precision(self) -> int:
        """Modulus exponent: the series is known modulo (p^N, t^T)."""
        return min((c.N for c in self.coeffs), default=INF)

    def degree(self) -> int:
        """Last index with a not-exactly-zero stored coefficient (-1 if none)."""
        for n in range(self.order - 1, -1, -1):
            if not self.coeffs[n].is_exact_zero():
                return n
        return -1

    def truncate(self, T: int) -> "TruncatedSeries":
        if T >= self.order:
            return self
        exact = self.exact and self.degree() < T
        return TruncatedSeries(self.p, self.coeffs[:T], self.bound, check=False, exact=exact)

    # -- ring operations ---------------------------------------------------

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
            return TruncatedSeries(self.p, (c0,) + self.coeffs[1:], bound, check=False,
                                   exact=self.exact)
        T = min(self.order, other.order)
        cs = [x + y for x, y in zip(self.coeffs[:T], other.coeffs[:T])]
        exact = (self.exact and other.exact and self.degree() < T and other.degree() < T)
        return TruncatedSeries(self.p, cs, self._combine_bound_add(other), check=False,
                               exact=exact)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.p, [-c for c in self.coeffs], self.bound, check=False,
                               exact=self.exact)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, a) -> "TruncatedSeries":
        va = _scalar_val(a, self.p)
        cs = [c * a for c in self.coeffs]
        bound = self.bound
        if bound is not None:
            if va >= INF:
                bound = Subordination(Fraction(1), Fraction(_BIG))
            else:
                bound = Subordination(bound.slope, bound.offset + va)
        return TruncatedSeries(self.p, cs, bound, check=False, exact=self.exact or va >= INF)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            return self.scale(other)
        T = min(self.order, other.order)
        p = self.p
        cs = [PadicNumber.exact_zero(p) for _ in range(T)]
        for i, x in enumerate(self.coeffs[:T]):
            if x.is_exact_zero():
                continue
            for j, y in enumerate(other.coeffs[: T - i]):
                if not y.is_exact_zero():
                    cs[i + j] = cs[i + j] + x * y
        if self.bound is None or other.bound is None:
            bound = None
        else:
            bound = Subordination(min(self.bound.slope, other.bound.slope),
                                  self.bound.offset + other.bound.offset)
        exact = (self.exact and other.exact and
                 (self.degree() < 0 or other.degree() < 0 or
                  self.degree() + other.degree() < T))
        return TruncatedSeries(p, cs, bound, check=False, exact=exact)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a unit constant term."""
        c0 = self.coeffs[0]
        if c0.is_zero() or c0.v != 0:
            raise ZeroInput("series inverse requires a unit constant term")
        p = self.p
        inv0 = c0.inverse()
        out = [inv0]
        for n in range(1, self.order):
            acc = PadicNumber.exact_zero(p)
            for i in range(1, n + 1):
                if not self.coeffs[i].is_exact_zero():
                    acc = acc + self.coeffs[i] * out[n - i]
            out.append(-inv0 * acc)
        bound = self.bound
        if bound is not None:
            # products of k factors c_{i_1}..c_{i_k}, i_j >= 1, sum = n:
            # v >= slope*n + k*min(offset, 0) >= (slope + min(offset,0))*n
            s = bound.slope + min(bound.offset, 0)
            if s <= 0:
                bound = None
            else:
                bound = Subordination(s, Fraction(0))
        return TruncatedSeries(p, out, bound, check=False)

    def evaluate(self, t) -> PadicNumber:
        """Value at t with |t| <= 1; the certificate bounds the cut tail."""
        if not isinstance(t, PadicNumber):
            t = PadicNumber.from_rational(t, self.p, self.padic_precision() + 4)
        if t.is_exact_zero():  # f(0) = c_0: nothing of the tail is cut
            return self.coeffs[0]
        vt = t.v
        if vt < 0:
            raise ValueError("evaluation requires |t| <= 1")
        if not self.exact:
            if self.bound is None:
                raise PrecisionLoss("series has no subordination certificate")
            if self.bound.slope + vt <= 0:
                raise PrecisionLoss("certificate too weak to evaluate at a unit")
        acc = horner(self.coeffs, t, PadicNumber.exact_zero(self.p))
        if self.exact:
            return acc
        err = int(ceil((self.bound.slope + vt) * self.order + self.bound.offset))
        if acc.is_exact_zero():
            return PadicNumber.unknown_zero(self.p, max(err, 1))
        return acc.at_precision(min(acc.N, max(err, 1)))

    # -- rendering -----------------------------------------------------------

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


# -- calculus ----------------------------------------------------------------


def formal_antiderivative(f: TruncatedSeries) -> TruncatedSeries:
    """Termwise antiderivative with zero constant term; divides by n+1."""
    p = f.p
    cs = [PadicNumber.exact_zero(p)]
    for n, c in enumerate(f.coeffs):
        cs.append(c / (n + 1))
    bound = f.bound
    if bound is not None:
        # v(c_{n-1}/n) >= slope(n-1)+offset-v_p(n) and v_p(n) <= n/4 + 2 for p >= 3
        bound = Subordination(bound.slope - Fraction(1, 4), bound.offset - bound.slope - 2)
    out = TruncatedSeries(p, cs, bound, check=False, exact=f.exact)
    return out.truncate(f.order)


def sqrt_series(f: TruncatedSeries, sign_hint: int) -> TruncatedSeries:
    """Square root with unit constant term; branch fixed by sign_hint mod p."""
    return nth_root_series(f, 2, sign_hint)


def nth_root_series(f: TruncatedSeries, n: int, residue_hint: int) -> TruncatedSeries:
    """n-th root with unit constant term (p not dividing n).

    Step k solves [y^n]_k = f_k for y_k.  The known part of [y^n]_k is built
    as in the product ((y * y) * y) ... of the series with y_k still zero,
    from the stored coefficients of y^2 .. y^(n-1), so a step costs O(n k).
    """
    c0 = f.coeffs[0]
    if c0.is_zero() or c0.v != 0:
        raise ZeroInput("nth_root_series requires a unit constant term")
    p = f.p
    zero = PadicNumber.exact_zero(p)
    y0 = nth_root(c0, n, residue_hint)
    lead_inv = (n * y0 ** (n - 1)).inverse()
    powers = [[y0 ** m] for m in range(1, n)]  # powers[m - 1][i] = [y^m]_i

    def conv(a, b, k):  # [a * b]_k, from the products TruncatedSeries.__mul__ sums
        acc = zero
        for i in range(k + 1):
            if not a[i].is_exact_zero() and not b[k - i].is_exact_zero():
                acc = acc + a[i] * b[k - i]
        return acc

    for k in range(1, f.order):
        ys = powers[0] + [zero]  # y_k is still zero
        known = zero
        for m in range(1, n):  # [y^(m+1)]_k without the y_k terms
            known = conv(powers[m - 1] + [known], ys, k)
        powers[0].append((f.coeffs[k] - known) * lead_inv)
        for m in range(2, n):  # complete [y^m]_k for the later steps
            powers[m - 1].append(conv(powers[m - 2], powers[0], k))
    bound = f.bound
    if bound is not None:
        s = bound.slope + min(bound.offset, 0)
        bound = Subordination(s, Fraction(0)) if s > 0 else None
    return TruncatedSeries(p, powers[0], bound, check=False)


# -- Strassmann --------------------------------------------------------------


@dataclass
class StrassmannResult:
    roots: list   # (root: PadicNumber, multiplicity: int)
    bound: int    # certified upper bound on the number of roots in Zp


def strassmann_roots(f: TruncatedSeries) -> StrassmannResult:
    """Roots of f in Zp with a certified Strassmann count bound.

    The bound N* is the largest index attaining the minimal coefficient
    valuation m.  The roots are isolated on the integer polynomial g = f / p^m
    (`_isolate`); a root is a zero class, not an exact zero, unless c_0 is.
    """
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
    roots = [(PadicNumber.exact_zero(p) if n >= INF else PadicNumber.from_int(r, p, n) if r
              else PadicNumber.unknown_zero(p, n), 1)
             for r, n in _isolate(p, (g, Ns, f.bound.slope, f.bound.offset - m, f.exact),
                                  f.padic_precision() + 2)]
    if len(roots) > star:
        raise PrecisionLoss(f"{len(roots)} roots isolated but the Strassmann bound is {star}")
    return StrassmannResult(roots=roots, bound=star)


def _digits(level: tuple, w: int) -> int:
    """Digits of a simple root r, v(r) >= w, of the level that its data prove:
    the least valuation of the error of g(r), as v(g'(r)) = 0."""
    g, Ns, s, o, exact = level
    ds = [N + n * w if c else max(N, ceil((s + w) * n + o))
          for n, (c, N) in enumerate(zip(g, Ns)) if N < INF]
    if not exact:
        ds.append(ceil((s + w) * len(g) + o))
    return min(ds)


def _isolate(p: int, level: tuple, depth: int) -> list:
    """The roots in Zp of a level (g, Ns, s, o, exact) as pairs (r, n): r mod p^n,
    n = INF for the exact root 0.

    g is an integer polynomial of minimal valuation 0, its coefficient g_n is
    known mod p^Ns[n] (INF: an exact zero), and v(g_n) >= s n + o for every n,
    the tail beyond len(g) included unless exact.  A simple root of g mod p is
    lifted by `hensel_lift_root` to the digits `_digits` proves; a repeated
    residue a recurses, at most depth times, on g(a + p u) / p^m', whose t^j
    coefficient sum_n C(n, j) a^(n-j) g_n p^j is known to the least of
    Ns[n] + v(C(n, j)) + j and, for a != 0, the tail's bound + j.
    """
    g, Ns, s, o, exact = level
    red = [c % p for c in g]
    dred = [k * c % p for k, c in enumerate(red)][1:]
    out = []
    for a in range(p):
        if _horner_mod(red, a, p):
            continue
        if _horner_mod(dred, a, p):
            if a == 0 and Ns[0] >= INF:  # g(0) = 0 exactly
                out.append((0, INF))
                continue
            n = _digits(level, 0)
            r = hensel_lift_root(g, a, p, n)
            while not a:  # r in pZp: v(r) >= w bounds the error of g(r) more tightly
                grown = _digits(level, min(_vp(r, p), n) if r else n)
                if grown <= n:
                    break
                n, r = grown, hensel_lift_root(g, a, p, grown)
            out.append((r, n))
            continue
        if depth <= 0:
            raise PrecisionLoss("cannot certify a simple root (possible multiple root)")
        tail = [ceil(s * len(g) + o)] if a and not exact else []
        lo = [min([N + _vp(comb(n, j), p) for n, N in enumerate(Ns[j:] if a else Ns[j:j + 1], j)]
                  + tail) for j in range(len(g))]
        shifted = _taylor_shift(g, a, p ** max(N for N in lo if N < INF))
        h = [c * p ** j % p ** (j + N) if N < INF else 0
             for j, (c, N) in enumerate(zip(shifted, lo))]
        if not any(h):
            raise PrecisionLoss("shifted series vanishes to precision")
        mh = min(_vp(c, p) for c in h if c)
        sub = ([c // p ** mh for c in h],
               [j + N - mh if N < INF else INF for j, N in enumerate(lo)], 1, -mh, exact)
        if _digits(sub, 0) < 1:
            raise PrecisionLoss("insufficient precision in shifted series")
        out += [(a + p * r, n + 1) for r, n in _isolate(p, sub, depth - 1)]
    return out
