"""Power series over Qp: the disc loci on ints, and Strassmann root isolation on Zp.

A series carries a subordination certificate: a linear bound
v(c_n) >= slope*n + offset valid for every index n (known and truncated
alike).  Disc parametrizations of the form x = x0 + p*t produce slope-1
certificates, and the certificate is what makes evaluation on |t| <= 1 and
Strassmann counting rigorous.

An IntSeries holds each coefficient as the ints (v, u, N) of p^v u + O(p^N),
as a PadicNumber stores them, and a disc locus runs on it from the disc
kernel to the roots: omega's series (`dot`), its antiderivative plus the
constant (`antiderivative`), `strassmann_roots` and the roots' x(t), y(t)
(`IntSeries.evaluate`).  Each step gives every coefficient and value the
(v, u, N) that PadicNumber arithmetic would.  TruncatedSeries, the same
series on PadicNumbers, keeps only products, the inverse and n-th roots; no
locus reads it.

`strassmann_roots` isolates the roots on ints: g = f / p^m with one precision
per coefficient, residues mod p by `_horner_mod`, simple roots lifted by
`hensel_lift_root`, repeated residues moved into their sub-disc by one
`_taylor_shift`.  A root carries only the digits that the coefficients'
precisions, the certificate and the tail prove.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb

from .errors import IndistinguishableFromZero, PrecisionLoss, ZeroInput
from .padics import (INF, PadicNumber, _horner_mod, _normal, _taylor_shift, _vp, hensel_lift_root,
                     nth_root)

_BIG = INF // 2


class Subordination:
    """Certificate v(c_n) >= slope*n + offset for every coefficient index n."""

    __slots__ = ("slope", "offset")

    def __init__(self, slope: Fraction, offset: Fraction):
        self.slope, self.offset = Fraction(slope), Fraction(offset)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.slope, self.offset) == (other.slope, other.offset)

    def at(self, n: int) -> Fraction:
        return self.slope * n + self.offset


_ZERO = (INF, 0, INF)  # an exact zero as (v, u, N)


class IntSeries:
    """c_0 + c_1 t + ... + c_(T-1) t^(T-1) with each c_n the ints (v, u, N) of
    p^v u + O(p^N): (N, 0, N) for a zero class, (INF, 0, INF) for an exact zero.
    exact: the coefficients beyond the truncation are exactly zero."""

    __slots__ = ("p", "cs", "bound", "exact")

    def __init__(self, p: int, cs: list, bound: Subordination, exact: bool = False):
        self.p, self.cs, self.bound, self.exact = p, cs, bound, exact

    @property
    def order(self) -> int:
        return len(self.cs)

    def padic(self, n: int) -> PadicNumber:
        return PadicNumber(self.p, *self.cs[n])

    def degree(self) -> int:
        """Last index with a not-exactly-zero coefficient (-1 if none)."""
        return max((n for n, c in enumerate(self.cs) if c[0] < INF), default=-1)

    def truncate(self, T: int) -> "IntSeries":
        if T >= self.order:
            return self
        return IntSeries(self.p, self.cs[:T], self.bound, self.exact and self.degree() < T)

    def evaluate(self, t: PadicNumber) -> PadicNumber:
        """Value at t with |t| <= 1, by Horner on the ints with the (v, u, N) of each
        PadicNumber product and sum; the certificate bounds the cut tail."""
        if t.is_exact_zero():  # f(0) = c_0: nothing of the tail is cut
            return self.padic(0)
        if t.v < 0:
            raise ValueError("evaluation requires |t| <= 1")
        if not self.exact and self.bound.slope + t.v <= 0:
            raise PrecisionLoss("certificate too weak to evaluate at a unit")
        p, vt, ut, Nt = self.p, t.v, t.u, t.N
        v, u, N = _ZERO
        for vc, uc, Nc in reversed(self.cs):
            if v < INF:  # acc * t
                v, u, N = _normal(u * ut, v + vt, min(v + Nt, vt + N), p)
            if vc < INF:  # + c
                if v >= INF:
                    v, u, N = vc, uc, Nc
                    continue
                N, w = min(N, Nc), min(v, vc)
                v, u, N = _normal(u * p ** (v - w) + uc * p ** (vc - w), w, N, p)
        err = max(int(ceil((vt + self.bound.slope) * self.order + self.bound.offset)), 1)
        if not self.exact and N > err:
            v, u, N = _normal(u, v, err, p)
        return PadicNumber(p, v, u, N)


def dot(coeffs, series) -> IntSeries:
    """sum_j coeffs[j] series[j] for PadicNumber or rational coeffs, one int dot
    product per coefficient: a product c a has valuation v_c + v_a and N =
    min(v_c + N_a, v_a + N_c), a sum the least N of its terms and its value mod
    p^N, and an exact zero is no term.  A rational c enters at N_c = v_c + K,
    K the largest N_a - v_a, where v_c + N_a is the least.  The certificate and
    the exact flag are those of the sum of the scaled series: c = 0 scales a
    series to an exact zero."""
    pairs = list(zip(coeffs, series))
    p = series[0].p
    if not all(isinstance(c, PadicNumber) for c, _ in pairs):
        K = max((N - v for _, s in pairs for v, _, N in s.cs if N < INF), default=1)
        pairs = [(c if isinstance(c, PadicNumber) else
                  PadicNumber.from_rational(c, p, (_vp(Fraction(c), p) if c else 0) + K), s)
                 for c, s in pairs]
    terms = [(c.v, c.u, c.N, s.cs) for c, s in pairs if c.v < INF]
    cs = []
    for k in range(min(s.order for _, s in pairs)):
        N, parts = INF, []
        for vc, uc, Nc, scs in terms:
            va, ua, Na = scs[k]
            if va < INF:
                n, m = vc + Na, va + Nc
                N = min(N, n if n < m else m)
                if uc and ua:
                    parts.append((vc + va, uc * ua))
        w = min((v for v, _ in parts), default=N)
        cs.append(_normal(sum(x * p ** (v - w) for v, x in parts), w, N, p))
    bounds = [(s.bound.slope, s.bound.offset + c.v) if c.v < INF else (1, _BIG)
              for c, s in pairs]
    return IntSeries(p, cs, Subordination(min(b for b, _ in bounds), min(o for _, o in bounds)),
                     not terms)


def antiderivative(f: IntSeries, const: PadicNumber | None = None) -> IntSeries:
    """The termwise antiderivative with constant term const (an exact zero if
    None), cut to f's order.  c_k / (k + 1), k + 1 = p^e w, is
    (v - e, u w^-1 mod p^(N - v), N - e), as PadicNumber division gives it."""
    p = f.p
    cs = [_ZERO if const is None else (const.v, const.u, const.N)]
    for k, (v, u, N) in enumerate(f.cs[:-1], 1):
        e = _vp(k, p)
        cs.append(_ZERO if v >= INF else
                  _normal(u * pow(k // p ** e, -1, p ** (N - v)), v - e, N - e, p))
    # v(c_(n-1) / n) >= slope (n - 1) + offset - v_p(n) and v_p(n) <= n/4 + 2 for p >= 3
    slope, offset = f.bound.slope - Fraction(1, 4), f.bound.offset - f.bound.slope - 2
    return IntSeries(p, cs, Subordination(slope, min(offset, cs[0][0])),
                     f.exact and f.cs[-1][0] >= INF)


class TruncatedSeries:
    """A series on PadicNumbers: series products, the inverse and n-th roots
    (nth_root_series), each returning the class of its operand."""

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

    def degree(self) -> int:
        """Last index with a not-exactly-zero stored coefficient (-1 if none)."""
        for n in range(self.order - 1, -1, -1):
            if not self.coeffs[n].is_exact_zero():
                return n
        return -1

    def __mul__(self, other):
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
        return type(self)(p, cs, bound, check=False, exact=exact)

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
        return type(self)(p, out, bound, check=False)

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
    return type(f)(p, powers[0], bound, check=False)


# -- Strassmann --------------------------------------------------------------


class StrassmannResult:
    __slots__ = ("roots", "bound")

    def __init__(self,
                 roots: list,   # (root: PadicNumber, multiplicity: int)
                 bound: int):   # certified upper bound on the number of roots in Zp
        self.roots, self.bound = roots, bound


def strassmann_roots(f: IntSeries) -> StrassmannResult:
    """Roots of f in Zp with a certified Strassmann count bound.

    The bound N* is the largest index attaining the minimal coefficient
    valuation m.  The roots are isolated on the integer polynomial g = f / p^m
    (`_isolate`); a root is a zero class, not an exact zero, unless c_0 is.
    """
    if f.bound is None:
        raise PrecisionLoss("series has no subordination certificate")
    if not any(u for _, u, _ in f.cs):
        raise IndistinguishableFromZero("no coefficient is nonzero to precision")
    m = min(v for v, u, _ in f.cs if u)
    star = max(n for n, (v, u, _) in enumerate(f.cs) if u and v == m)
    for n, (v, u, N) in enumerate(f.cs):
        if not u and N < INF and max(N, ceil(f.bound.at(n))) <= m:
            raise PrecisionLoss(
                f"coefficient t^{n} = O(p^{N}) could attain the minimal valuation {m}")
    if not f.exact and (f.bound.slope <= 0 or f.bound.at(f.order) <= m):
        raise PrecisionLoss("certificate cannot exclude roots hidden in the tail")
    p = f.p
    cs = f.cs[:f.degree() + 1] if f.exact else f.cs
    g = [u * p ** (v - m) if u else 0 for v, u, _ in cs]
    Ns = [INF if N >= INF else (N if u else max(N, ceil(f.bound.at(n)))) - m
          for n, (_, u, N) in enumerate(cs)]
    roots = [(PadicNumber.exact_zero(p) if n >= INF else PadicNumber(p, *_normal(r, 0, n, p)), 1)
             for r, n in _isolate(p, (g, Ns, f.bound.slope, f.bound.offset - m, f.exact),
                                  min(N for _, _, N in f.cs) + 2)]
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
