"""Capped absolute-precision arithmetic in Qp.

A value is stored as p^v * u + O(p^N) with u a unit modulo p^(N-v).
Exact zero is representable (v = N = INF) and distinct from a value that
is merely indistinguishable from zero at precision N (v = N, u = 0).
All numbers are immutable; every operation returns a fresh object and
propagates provable precision only.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAUnit, PrecisionLoss, ZeroInput

INF = 10 ** 9  # sentinel for +infinity; real valuations/precisions stay far below


def _vp(n, p: int) -> int:
    """p-adic valuation of a nonzero integer or Fraction."""
    if not isinstance(n, int):  # a Fraction: testing int first skips a slow ABC check
        return _vp(n.numerator, p) - _vp(n.denominator, p)
    if n == 0:
        raise ZeroInput("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _normal(c: int, e: int, N: int, p: int) -> tuple:
    """(v, u, N) of p^e c + O(p^N) for an int c, as a PadicNumber stores it:
    (N, 0, N) when p^N divides p^e c.  The one normal form of an int."""
    while c and not c % p:
        c //= p
        e += 1
    return (e, c % p ** (N - e), N) if c and e < N else (N, 0, N)


def _horner_mod(cs, t: int, m: int) -> int:
    """Value at t of the integer polynomial cs (ascending) modulo m."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * t + c) % m
    return acc


def _taylor_shift(cs, a: int, m: int) -> list[int]:
    """Coefficients of cs(a + x) modulo m, by repeated synthetic division."""
    out = [c % m for c in cs]
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] = (out[k] + a * out[k + 1]) % m
    return out


def horner(cs, x, acc):
    """Value at x of the polynomial with ascending coefficients cs, in any
    ring: acc is the ring's zero (or a value to continue from)."""
    for c in reversed(cs):
        acc = acc * x + c
    return acc


class PadicNumber:
    __slots__ = ("p", "v", "u", "N")

    def __init__(self, p: int, v: int, u: int, N: int):
        self.p = p
        self.v = v
        self.u = u
        self.N = N

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact_zero(cls, p: int) -> "PadicNumber":
        return cls(p, INF, 0, INF)

    @classmethod
    def unknown_zero(cls, p: int, N: int) -> "PadicNumber":
        """The class O(p^N): zero to precision N."""
        return cls(p, N, 0, N)

    @classmethod
    def from_int(cls, n: int, p: int, N: int) -> "PadicNumber":
        if N >= INF:
            raise ValueError("finite precision required")
        return cls(p, *_normal(n, 0, N, p)) if n else cls.exact_zero(p)

    @classmethod
    def from_rational(cls, x, p: int, N: int) -> "PadicNumber":
        if N >= INF:
            raise ValueError("finite precision required")
        if type(x) is not Fraction and type(x) is not int:
            x = Fraction(x)
        if x == 0:
            return cls.exact_zero(p)
        num, den = x.numerator, x.denominator
        vn, vd = _vp(num, p), _vp(den, p)
        v = vn - vd
        if v >= N:
            return cls.unknown_zero(p, N)
        m = p ** (N - v)
        u = (num // p ** vn) * pow(den // p ** vd, -1, m) % m
        return cls(p, v, u, N)

    # -- predicates --------------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.v >= INF

    def is_zero(self) -> bool:
        """Indistinguishable from zero at the stored precision."""
        return self.u == 0

    def is_unit(self) -> bool:
        return self.v == 0 and self.u != 0

    def valuation(self) -> int:
        """Known valuation; for zeros this is a lower bound (INF if exact)."""
        return self.v

    def precision(self) -> int:
        return self.N

    # -- representatives ---------------------------------------------------

    def residue(self, k: int) -> int:
        """Integer representative modulo p^k; requires v >= 0 and k <= N."""
        if k > self.N:
            raise PrecisionLoss(f"residue mod p^{k} requested at precision O(p^{self.N})")
        if self.u == 0:
            return 0
        if self.v < 0:
            raise ValueError("negative valuation has no integer residue")
        return (self.u * self.p ** self.v) % self.p ** k

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other, add: bool):
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            x = Fraction(other)
            if x == 0:
                return PadicNumber.exact_zero(self.p)
            if self.is_exact_zero():
                if add:
                    raise ValueError("exact zero +- exact rational: materialize explicitly")
                return PadicNumber.exact_zero(self.p)  # product shortcut
            if add:
                N = self.N
            else:
                # matched relative precision: lossless product
                N = _vp(x, self.p) + (self.N - self.v)
            return PadicNumber.from_rational(x, self.p, N)
        return None

    def __add__(self, other):
        o = other if type(other) is PadicNumber and other.p == self.p \
            else self._coerce(other, add=True)
        if o is None:
            return NotImplemented
        if self.v >= INF:
            return o
        if o.v >= INF:
            return self
        p = self.p
        N = min(self.N, o.N)
        if self.v <= o.v:  # only the operand of larger valuation is shifted
            w, s = self.v, self.u + o.u * p ** (o.v - self.v)
        else:
            w, s = o.v, self.u * p ** (self.v - o.v) + o.u
        return PadicNumber(p, *_normal(s, w, N, p))

    __radd__ = __add__

    def __neg__(self):
        if self.u == 0:
            return self
        return PadicNumber(self.p, self.v, -self.u % self.p ** (self.N - self.v), self.N)

    def __sub__(self, other):
        o = other if type(other) is PadicNumber and other.p == self.p \
            else self._coerce(other, add=True)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other, add=False)
        if o is None:
            return NotImplemented
        p = self.p
        if self.is_exact_zero() or o.is_exact_zero():
            return PadicNumber.exact_zero(p)
        N = min(self.v + o.N, o.v + self.N)
        v = self.v + o.v
        if v >= N:
            return PadicNumber.unknown_zero(p, N)
        u = (self.u * o.u) % p ** (N - v)
        return PadicNumber(p, v, u, N)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.u == 0:
            raise ZeroInput("cannot invert a (possible) zero")
        p, v, N = self.p, self.v, self.N
        rel = N - v
        u = pow(self.u, -1, p ** rel)
        return PadicNumber(p, -v, u, rel - v)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            x = Fraction(other)
            if x == 0:
                raise ZeroDivisionError("division by zero scalar")
            if self.is_exact_zero():
                return self
            if self.u == 0:
                return PadicNumber.unknown_zero(self.p, self.N - _vp(x, self.p))
        o = self._coerce(other, add=False)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k == 0:
            if self.is_exact_zero():
                raise ZeroInput("0^0")
            return PadicNumber.from_int(1, self.p, max(self.N - self.v, 1))
        x = self if k > 0 else self.inverse()
        out = x
        for _ in range(abs(k) - 1):
            out = out * x
        return out

    def at_precision(self, N: int) -> "PadicNumber":
        """Truncate (never extend) the stored precision to N."""
        if N >= self.N:
            return self
        return PadicNumber(self.p, *_normal(self.u, self.v, N, self.p))

    # -- comparisons -------------------------------------------------------

    def compare(self, other) -> str:
        """Three-valued comparison: 'equal', 'distinct' or 'indistinguishable'.

        'equal' means agreement modulo p^min(N1, N2); 'indistinguishable'
        means both operands are themselves zero classes of finite precision.
        """
        if isinstance(other, (int, Fraction)):
            if self.is_exact_zero():
                return "equal" if Fraction(other) == 0 else "distinct"
            other = PadicNumber.from_rational(other, self.p, self.N)
        d = self - other
        if d.is_exact_zero():
            return "equal"
        if not d.is_zero():
            return "distinct"
        if self.is_zero() and other.is_zero():
            return "indistinguishable"
        return "equal"

    def __eq__(self, other):
        if isinstance(other, (PadicNumber, int, Fraction)):
            return self.compare(other) != "distinct"
        return NotImplemented

    def __hash__(self):
        raise TypeError("PadicNumber is approximate and unhashable")

    # -- rendering ---------------------------------------------------------

    def digits(self, lo: int | None = None, hi: int | None = None) -> list[int]:
        """Base-p digits a_lo .. a_{hi-1} of the representative."""
        lo = (self.v if self.v < INF else 0) if lo is None else lo
        hi = self.N if hi is None else hi
        out = []
        for k in range(lo, hi):
            if self.u == 0 or k < self.v:
                out.append(0)
            else:
                out.append((self.u // self.p ** (k - self.v)) % self.p)
        return out

    def __str__(self):
        return render_padic(self)

    __repr__ = __str__


def render_padic(x: PadicNumber) -> str:
    """Digit-string form 'a0 + a1*p + a2*p^2 + ... + O(p^N)'."""
    if x.is_exact_zero():
        return "0"
    tail = f"O({x.p}^{x.N})"
    if x.u == 0:
        return tail
    terms = []
    n = x.u
    k = x.v
    while n > 0 and k < x.N:
        d = n % x.p
        if d:
            if k == 0:
                terms.append(f"{d}")
            elif k == 1:
                terms.append(f"{x.p}" if d == 1 else f"{d}*{x.p}")
            else:
                terms.append(f"{x.p}^{k}" if d == 1 else f"{d}*{x.p}^{k}")
        n //= x.p
        k += 1
    return " + ".join(terms + [tail]) if terms else tail


def parse_padic(s: str, p: int) -> PadicNumber:
    """Parse the digit-string convention produced by render_padic."""
    s = s.strip().replace("·", "*").replace(" ", "")
    if s == "0":
        return PadicNumber.exact_zero(p)
    N = None
    total = Fraction(0)
    for term in s.split("+"):
        if not term:
            continue
        if term.startswith("O("):
            body = term[2:-1]
            base, _, exp = body.partition("^")
            if int(base) != p:
                raise ValueError(f"prime mismatch in {term}")
            N = int(exp) if exp else 1
            continue
        digit = Fraction(1)
        if "*" in term:
            d, _, pw = term.partition("*")
            digit = Fraction(d)
        else:
            pw = term
        if pw.startswith(f"{p}^"):
            k = int(pw[len(str(p)) + 1:])
        elif pw == str(p):
            k = 1
        else:
            digit, k = Fraction(pw), 0
        total += digit * Fraction(p) ** k
    if N is None:
        raise ValueError(f"missing O(p^N) tail in {s!r}")
    if total == 0:  # "O(p^N)" is the zero class, not an exact zero
        return PadicNumber.unknown_zero(p, N)
    return PadicNumber.from_rational(total, p, N)


# -- unit roots and lifting ------------------------------------------------

def teichmuller(x: PadicNumber) -> PadicNumber:
    """The (p-1)-th root of unity congruent to the unit x modulo p: Newton on
    r^(p-1) = 1 from x mod p, r <- r - r (r^(p-1) - 1) / (p-1) doubling the digits."""
    if not x.is_unit():
        raise NotAUnit("teichmuller lift requires a unit")
    p, N = x.p, x.N
    r, k = x.u % p, 1
    while k < N:
        k = min(2 * k, N)
        m = p ** k
        r = (r - r * (pow(r, p - 1, m) - 1) * pow(p - 1, -1, m)) % m
    return PadicNumber(p, 0, r, N)


def iwasawa_log(x: PadicNumber) -> PadicNumber:
    """p-adic logarithm under the branch log(p) = 0.

    Strips p^v and takes log u = log(u^(p-1)) / (p-1) on the unit part u, as
    log kills roots of unity: 1 + z = u^(p-1) is a 1-unit, and
    log(1+z) = sum_k (-1)^(k+1) z^k / k runs on ints modulo p^N, N = x.N - x.v.
    """
    if x.is_zero():
        raise ZeroInput("log of (possible) zero")
    p, N = x.p, x.N - x.v
    m = p ** N
    z = pow(x.u, p - 1, m) - 1
    if z == 0:
        return PadicNumber.unknown_zero(p, N)
    v = _vp(z, p)
    K = 2  # the first k with k v - (base-p digits of k) >= N: it and later terms are 0
    while K * v - _digits_base_p(K, p) < N:
        K += 1
    mk = m * p ** (_digits_base_p(K - 1, p) - 1)  # z^k mod p^(N + max v_p(k)), k < K
    s, zk = 0, 1
    for k in range(1, K):
        zk = zk * z % mk
        pa = p ** _vp(k, p)
        t = zk // pa * pow(k // pa, -1, m)  # z^k / k = (z^k / p^a) (k / p^a)^-1
        s = s + t if k & 1 else s - t
    return PadicNumber(p, *_normal(s * pow(p - 1, -1, m) % m, 0, N, p))


def _digits_base_p(k: int, p: int) -> int:
    d = 0
    while k:
        k //= p
        d += 1
    return d


def sqrt(x: PadicNumber, sign_hint: int) -> PadicNumber:
    """Square root of x (even valuation) whose unit part is congruent to sign_hint mod p."""
    if x.is_zero():
        if x.is_exact_zero():
            return x
        raise ZeroInput("sqrt of possible zero cannot be certified")
    if x.v % 2:
        raise ValueError("odd valuation: square root not in Qp")
    r = nth_root(PadicNumber(x.p, 0, x.u, x.N - x.v), 2, sign_hint)
    return PadicNumber(x.p, x.v // 2, r.u, x.v // 2 + r.N)


def nth_root(x: PadicNumber, n: int, residue_hint: int) -> PadicNumber:
    """The n-th root of the unit x congruent to residue_hint mod p (p not dividing n)."""
    if not x.is_unit():
        raise NotAUnit("nth_root requires a unit")
    p, rel = x.p, x.N
    if n % p == 0:
        raise ValueError("p divides the root order")
    if pow(residue_hint, n, p) != x.u % p:
        raise ValueError("residue_hint is not an n-th root mod p")
    r = hensel_lift_root([-x.u] + [0] * (n - 1) + [1], residue_hint, p, rel)
    return PadicNumber(p, 0, r, rel)


def hensel_lift_root(coeffs: list[int], r0: int, p: int, N: int) -> int:
    """Lift a simple root r0 (mod p) of an integer polynomial to mod p^N."""
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    if _horner_mod(dcoeffs, r0, p) == 0:
        raise ValueError("root is not simple mod p")
    r, k = r0 % p, 1
    while k < N:
        k = min(2 * k, N)
        m = p ** k
        r = (r - _horner_mod(coeffs, r, m) * pow(_horner_mod(dcoeffs, r, m), -1, m)) % m
    return r
