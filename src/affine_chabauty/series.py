"""Truncated power series over Qp and Strassmann root isolation on Zp.

A TruncatedSeries stores coefficients c_0 .. c_{T-1} together with a
subordination certificate: a linear bound v(c_n) >= slope*n + offset valid
for every index n (known and truncated alike).  Disc parametrizations of the
form x = x0 + p*t produce slope-1 certificates, and the certificate is what
makes evaluation on |t| <= 1 and Strassmann counting rigorous.  A series
without a certificate can still be manipulated but not evaluated or counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import (
    DivergentSubstitution,
    IndistinguishableFromZero,
    PrecisionLoss,
    ZeroInput,
)
from .padics import INF, PadicNumber, _horner_mod, _vp, nth_root

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

    def derivative(self) -> "TruncatedSeries":
        cs = [self.coeffs[n] * n for n in range(1, self.order)]
        if not cs:
            cs = [PadicNumber.exact_zero(self.p)]
        bound = self.bound
        if bound is not None:
            bound = Subordination(bound.slope, bound.offset + bound.slope)
        return TruncatedSeries(self.p, cs, bound, check=False, exact=self.exact)

    def evaluate(self, t) -> PadicNumber:
        """Value at t with |t| <= 1; the certificate bounds the cut tail."""
        if not isinstance(t, PadicNumber):
            t = PadicNumber.from_rational(t, self.p, self.padic_precision() + 4)
        vt = min(t.v, _BIG)
        if vt < 0:
            raise ValueError("evaluation requires |t| <= 1")
        if not self.exact:
            if self.bound is None:
                raise PrecisionLoss("series has no subordination certificate")
            if self.bound.slope + vt <= 0:
                raise PrecisionLoss("certificate too weak to evaluate at a unit")
        acc = PadicNumber.exact_zero(self.p)
        for c in reversed(self.coeffs):
            acc = acc * t + c
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


# -- calculus ----------------------------------------------------------------


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(t)) for g whose constant term has valuation >= 1.

    When the outer series is truncated (not an exact polynomial) its unknown
    tail feeds every output coefficient through powers of g(0); the claimed
    coefficient precision is capped by that contribution.
    """
    g0 = g.coeffs[0]
    ok = g0.is_exact_zero() or (g0.u != 0 and g0.v >= 1) or (g0.u == 0 and g0.N >= 1)
    if not ok:
        raise DivergentSubstitution("substitution requires v(g(0)) >= 1")
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
    valuation.  Roots are isolated by residue enumeration mod p: residues
    that are simple roots of the reduction are refined by Newton iteration;
    repeated residues are shifted into their sub-disc and recursed.
    """
    if f.bound is None:
        raise PrecisionLoss("series has no subordination certificate")
    if all(c.is_zero() for c in f.coeffs):
        raise IndistinguishableFromZero("no coefficient is nonzero to precision")
    m = min(c.v for c in f.coeffs if not c.is_zero())
    star_candidates = [n for n, c in enumerate(f.coeffs) if not c.is_zero() and c.v == m]
    star = max(star_candidates)
    for n, c in enumerate(f.coeffs):
        if c.is_zero() and not c.is_exact_zero():
            guar = max(c.N, ceil(f.bound.at(n)))
            if guar <= m:
                raise PrecisionLoss(
                    f"coefficient t^{n} = O(p^{c.N}) could attain the minimal valuation {m}")
    if not f.exact and (f.bound.slope <= 0 or f.bound.at(f.order) <= m):
        raise PrecisionLoss("certificate cannot exclude roots hidden in the tail")
    roots = _isolate(f, m, f.padic_precision() + 2)
    if len(roots) > star:
        raise PrecisionLoss(f"{len(roots)} roots isolated but the Strassmann bound is {star}")
    return StrassmannResult(roots=roots, bound=star)


def _isolate(f: TruncatedSeries, m: int, depth: int):
    p = f.p
    red = [0 if (c.is_zero() or c.v > m) else c.u % p for c in f.coeffs]
    while red and red[-1] == 0:
        red.pop()
    dred = [(k * c) % p for k, c in enumerate(red)][1:]
    fprime = f.derivative()
    out = []
    for a in range(p):
        if _horner_mod(red, a, p) != 0:
            continue
        if _horner_mod(dred, a, p) != 0:
            out.append((_newton_refine(f, fprime, a), 1))
        else:
            if depth <= 0:
                raise PrecisionLoss("cannot certify a simple root (possible multiple root)")
            sub = _shift_scale(f, a)
            if all(c.is_zero() for c in sub.coeffs):
                raise PrecisionLoss("shifted series vanishes to precision")
            sub_m = min(c.v for c in sub.coeffs if not c.is_zero())
            for n, c in enumerate(sub.coeffs):
                if c.is_zero() and not c.is_exact_zero():
                    guar = max(c.N, ceil(sub.bound.at(n)))
                    if guar <= sub_m:
                        raise PrecisionLoss("insufficient precision in shifted series")
            for r, mult in _isolate(sub, sub_m, depth - 1):
                carrier = f.padic_precision() + 2 if r.is_exact_zero() else r.N + 1
                out.append((r * p + PadicNumber.from_int(a, p, carrier), mult))
    return out


def _newton_refine(f: TruncatedSeries, fprime: TruncatedSeries, a: int) -> PadicNumber:
    p = f.p
    N = f.padic_precision()
    t = PadicNumber.from_int(a, p, max(N, 2))
    for _ in range(N + 4):
        ft = f.evaluate(t)
        if ft.is_zero():
            break
        dft = fprime.evaluate(t)
        t = t - ft / dft
    if not f.evaluate(t).is_zero():
        raise PrecisionLoss("Newton refinement failed to certify the root")
    return t


def _shift_scale(f: TruncatedSeries, a: int) -> TruncatedSeries:
    """The series f(a + p*u) in u, with derived certificate."""
    p = f.p
    T = f.order
    if f.exact:
        tail_floor = _BIG
    else:
        tail_floor = int(f.bound.at(T)) if f.bound.slope >= 0 else -10 ** 6
    global_min = min([tail_floor] + [c.v if not c.is_zero() else min(c.N, _BIG)
                                     for c in f.coeffs])
    binom = [[0] * (T + 1) for _ in range(T + 1)]
    for n in range(T + 1):
        binom[n][0] = 1
        for k in range(1, n + 1):
            binom[n][k] = binom[n - 1][k - 1] + (binom[n - 1][k] if k <= n - 1 else 0)
    cs = []
    for j in range(T):
        acc = PadicNumber.exact_zero(p)
        for n in range(j, T):
            c = f.coeffs[n]
            if not c.is_exact_zero():
                acc = acc + c * (binom[n][j] * a ** (n - j))
        acc = acc * Fraction(p) ** j
        if not f.exact:
            cut = max(min(j + tail_floor, f.padic_precision() + j + 4), 1)
            if acc.is_exact_zero():
                acc = PadicNumber.unknown_zero(p, cut)
            else:
                acc = acc.at_precision(min(acc.N, cut))
        cs.append(acc)
    return TruncatedSeries(p, cs, Subordination(Fraction(1), Fraction(global_min)),
                           check=False, exact=f.exact)
