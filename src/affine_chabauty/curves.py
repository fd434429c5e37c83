"""Curve families, cusps, logarithmic differential bases and residue discs.

Two first-class families:

* even hyperelliptic:  y^2 = f(x), deg f = 2g+2, leading coefficient a
  nonzero square, with the two rational cusps at infinity;
* superelliptic:       y^3 = x^3 + a*x^2 + x (a != +-2), genus 1, with one
  rational cusp and one quadratic cusp on the elliptic chart
  v^2 + a*v = u^3 - 1, (u, v) = (y/x, 1/x).

Residues of the basis differentials at the cusps are recorded exactly as
elements of the cusp residue fields.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadReduction, NonSeparableReduction, ProblemFileError, UnsupportedFamily
from .numberfield import FieldEmbedding, NFElement, NumberField, hensel_embed
from .padics import PadicNumber, _horner_mod, horner, iwasawa_log

QQ = NumberField([-1, 1], name="one")  # the rational field as a degree-1 field


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _inverse_mod_p(a, f, p):
    """b with a b = 1 mod (f, p) and deg b < deg f, or None when a and f share a
    factor mod p (f of positive degree mod p): the extended Euclid over F_p."""
    def sub(u, v, c=0, k=0):  # u - c x^k v mod p, without leading zeros
        u = u + [0] * (k + len(v) - len(u))
        u[k:k + len(v)] = [x - c * y for x, y in zip(u[k:], v)]
        while u and not u[-1] % p:
            u.pop()
        return [x % p for x in u]

    (r0, s0), (r1, s1) = (sub(f, []), []), (sub(a, []), [1])  # r_i = s_i a mod f
    while r1:
        while len(r0) >= len(r1):
            c, k = r0[-1] * pow(r1[-1], -1, p), len(r0) - len(r1)
            r0, s0 = sub(r0, r1, c, k), sub(s0, s1, c, k)
        (r0, s0), (r1, s1) = (r1, s1), (r0, s0)
    return [c * pow(r0[0], -1, p) % p for c in s0] if len(r0) == 1 else None


def reduction_defect(g, n: int, p: int) -> str | None:
    """Why y^n = g(x) (g with ascending p-integral coefficients, leading one
    nonzero) has no good reduction at the prime p, or None when it has: p odd,
    p = 1 mod n, p not dividing lc(g), and g squarefree mod p."""
    if p == 2:
        return "p = 2 not supported"
    if (p - 1) % n:
        return f"need p = 1 mod {n}"
    gbar = [c.numerator * pow(c.denominator, -1, p) % p for c in map(Fraction, g)]
    if not gbar[-1]:
        return "leading coefficient must be a unit"
    if _inverse_mod_p([k * c for k, c in enumerate(gbar)][1:], gbar, p) is None:
        return f"discriminant of f vanishes mod {p}"
    return None


class Cusp:
    """A closed point of the boundary divisor with its residue field data."""

    __slots__ = ("id", "nfield", "chart_coords", "degree")

    def __init__(self, id: str,
                 nfield: NumberField,       # k(Q)
                 chart_coords: tuple,       # coordinates of Q in the cusp chart, as NFElements
                 degree: int):
        self.id, self.nfield, self.chart_coords, self.degree = id, nfield, chart_coords, degree

    def signature(self) -> tuple[int, int]:
        return self.nfield.signature()


class LogDifferential:
    """A Qp- (or Q-) linear combination of the family basis omega_1..omega_(g+n-1)."""

    __slots__ = ("curve", "coeffs")

    def __init__(self, curve: CurveFamily,
                 coeffs: tuple):            # Fraction or PadicNumber entries
        self.curve, self.coeffs = curve, coeffs

    def embedded_residue(self, cusp: Cusp, phi: FieldEmbedding) -> PadicNumber:
        """phi(Res_Q omega) for the combination, in Qp."""
        acc = PadicNumber.exact_zero(phi.root.p)
        for j, a in enumerate(self.coeffs):
            if isinstance(a, Fraction) and a == 0:
                continue
            res = self.curve.residue_at_cusp(j, cusp)
            if res.is_zero():
                continue
            acc = acc + phi(res) * a
        return acc


class ResidueDisc:
    """A residue disc of the p-adic affine curve (or a flagged boundary disc)."""

    __slots__ = ("curve", "p", "xbar", "ybar", "kind", "label", "cuspidal")

    def __init__(self, curve: CurveFamily, p: int, xbar: int | None, ybar: int | None,
                 kind: str,                 # 'affine' | 'weierstrass' | 'infinite' | 'cuspidal'
                 label: str = "", cuspidal: bool = False):
        self.curve, self.p, self.xbar, self.ybar = curve, p, xbar, ybar
        self.kind, self.label, self.cuspidal = kind, label, cuspidal

    def __repr__(self):
        return f"<disc {self.label or (self.xbar, self.ybar)} {self.kind}>"


class CurveFamily:
    """Shared interface of the supported curve families.

    Each family is a chart y^n = g(x), g with ascending integer coefficients,
    and its basis omega_j = x^i dx/y^b is listed in monomials as (i, b), with
    x^(i-1) dx/y^b ahead of x^i dx/y^b.
    """

    family: str
    genus: int
    cusps: list
    n: int
    g: list
    monomials: list

    def basis_size(self) -> int:
        return self.genus + self.geometric_cusp_count() - 1

    def geometric_cusp_count(self) -> int:
        return sum(c.degree for c in self.cusps)

    def cusp_signature_counts(self) -> tuple[int, int]:
        n1 = sum(c.signature()[0] for c in self.cusps)
        n2 = sum(c.signature()[1] for c in self.cusps)
        return n1, n2

    def differential(self, coeffs) -> LogDifferential:
        if len(coeffs) != self.basis_size():
            raise ValueError(f"expected {self.basis_size()} coefficients")
        return LogDifferential(self, tuple(coeffs))

    def basis(self):
        n = self.basis_size()
        out = []
        for j in range(n):
            coeffs = [Fraction(0)] * n
            coeffs[j] = Fraction(1)
            out.append(LogDifferential(self, tuple(coeffs)))
        return out

    def rhs(self, x: Fraction) -> Fraction:
        return horner(self.g, x, Fraction(0))

    def contains(self, x, y) -> bool:
        return Fraction(y) ** self.n == self.rhs(Fraction(x))

    def good_reduction_at(self, p: int) -> bool:
        return reduction_defect(self.g, self.n, p) is None

    def residue_discs(self, p: int) -> list[ResidueDisc]:
        """The Weierstrass and affine discs over xbar = 0..p-1, then the boundary discs."""
        why = reduction_defect(self.g, self.n, p)
        if why:
            raise BadReduction(why)
        boundary = self.boundary_discs(p)
        gbar = [c % p for c in self.g]
        out = []
        for xb in range(p):
            v = _horner_mod(gbar, xb, p)
            if v == 0:
                out.append(ResidueDisc(self, p, xb, 0, "weierstrass"))
            out += [ResidueDisc(self, p, xb, yb, "affine")
                    for yb in range(1, p) if pow(yb, self.n, p) == v]
        return out + boundary


class EvenHyperellipticCurve(CurveFamily):
    """y^2 = f(x), deg f = 2g+2, square leading coefficient."""

    family = "even_hyperelliptic"

    def __init__(self, f_coeffs):
        self.f = [Fraction(c) for c in f_coeffs]
        if any(c.denominator != 1 for c in self.f):
            raise ProblemFileError("integer coefficients required")
        deg = len(self.f) - 1
        while deg >= 0 and self.f[deg] == 0:
            deg -= 1
        self.f = self.f[: deg + 1]
        if deg < 4 or deg % 2 != 0:
            raise UnsupportedFamily("even hyperelliptic needs even degree >= 4")
        self.genus = (deg - 2) // 2
        self.deg = deg
        self.n, self.g = 2, [int(c) for c in self.f]
        self.monomials = [(i, 1) for i in range(self.genus + 1)]
        e = _isqrt_exact(int(self.f[-1]))
        if not e:
            raise ProblemFileError("leading coefficient must be a nonzero square")
        self.sqrt_lead = Fraction(e)
        self.cusps = [
            Cusp("inf+", QQ, (QQ(0), QQ(Fraction(e))), 1),
            Cusp("inf-", QQ, (QQ(0), QQ(Fraction(-e))), 1),
        ]

    # basis omega_j = x^(j-1) dx/y, j = 1..g+1; the last one is logarithmic
    def residue_at_cusp(self, j: int, cusp: Cusp) -> NFElement:
        if j < self.genus:
            return QQ(0)
        if j != self.genus:
            raise IndexError("basis index out of range")
        sign = -1 if cusp.id == "inf+" else 1
        return QQ(sign / self.sqrt_lead)

    def cusp_chart_coords(self, x, y):
        """(w, z) = (1/x, y/x^(g+1)) for cusp contact orders; None if x = 0."""
        x, y = Fraction(x), Fraction(y)
        if x == 0:
            return None
        return (QQ(1 / x), QQ(y / x ** (self.genus + 1)))

    def boundary_discs(self, p: int) -> list[ResidueDisc]:
        return [ResidueDisc(self, p, None, None, "infinite", label=c.id, cuspidal=True)
                for c in self.cusps]


class SuperellipticCurve(CurveFamily):
    """y^3 = x^3 + a x^2 + x with its elliptic chart v^2 + a v = u^3 - 1."""

    family = "superelliptic"

    def __init__(self, a):
        self.a = Fraction(a)
        if self.a.denominator != 1 or self.a in (2, -2):
            raise UnsupportedFamily("parameter a must be an integer, a != +-2")
        self.genus = 1
        self.n, self.g = 3, [0, 1, int(self.a), 1]
        self.monomials = [(0, 2), (1, 2), (0, 1)]
        zeta_field = NumberField([1, 1, 1], name="zeta")
        self.cusps = [
            Cusp("Q1", QQ, (QQ(1), QQ(0)), 1),
            Cusp("Q2", zeta_field, (zeta_field.gen(), zeta_field(0)), 2),
        ]
        self._residue_table = {
            ("Q1", 1): QQ(-1), ("Q1", 2): QQ(-1),
            ("Q2", 1): -zeta_field.gen(),                      # -zeta
            ("Q2", 2): -(zeta_field.gen() * zeta_field.gen()),  # -zeta^(-1) = -zeta^2
        }

    # basis: omega_1 = dx/y^2 (holomorphic), omega_2 = x dx/y^2, omega_3 = dx/y
    def residue_at_cusp(self, j: int, cusp: Cusp) -> NFElement:
        if j == 0:
            return cusp.nfield(0) if cusp.id == "Q2" else QQ(0)
        return self._residue_table[(cusp.id, j)]

    def cusp_chart_coords(self, x, y):
        """(u, v) = (y/x, 1/x); None when x = 0 (the base-point chart)."""
        x, y = Fraction(x), Fraction(y)
        if x == 0:
            return None
        return (QQ(y / x), QQ(1 / x))

    def boundary_discs(self, p: int) -> list[ResidueDisc]:
        """Cusp discs of the elliptic chart: u = 1 for Q1, the cube roots of unity for Q2."""
        ubars = [("Q1", 1)] + [("Q2", r) for r in range(p) if (r * r + r + 1) % p == 0]
        return [ResidueDisc(self, p, None, None, "cuspidal", label=f"{c}@u={ub}", cuspidal=True)
                for c, ub in ubars]


def make_curve(family: str, **kw) -> CurveFamily:
    if family == "even_hyperelliptic":
        return EvenHyperellipticCurve(kw["f"])
    if family == "superelliptic":
        return SuperellipticCurve(kw["a"])
    raise UnsupportedFamily(family)


class KnownPoint:
    __slots__ = ("x", "y", "id")

    def __init__(self, x: Fraction, y: Fraction, id: str = ""):
        self.x, self.y, self.id = x, y, id

    def __iter__(self):
        return iter((self.x, self.y))


class CurveProblem:
    """A fully specified instance: curve, boundary data, primes and base point."""

    __slots__ = ("curve", "base_point", "S", "p", "prec", "label", "_embeddings", "_logs")

    def __init__(self, curve: CurveFamily, base_point: KnownPoint, S: list, p: int, prec: int,
                 label: str = "problem"):
        self.curve, self.base_point, self.S, self.p, self.prec = curve, base_point, S, p, prec
        self.label, self._embeddings, self._logs = label, {}, {}
        if not _is_prime(self.p):
            raise ProblemFileError(f"p = {self.p} is not a prime")
        if self.prec < 1:
            raise ProblemFileError(f"precision must be positive, got {self.prec}")
        if self.p in self.S:
            raise ProblemFileError("auxiliary prime must avoid S")
        if not self.curve.contains(self.base_point.x, self.base_point.y):
            raise ProblemFileError("base point is not on the curve")
        why = self._rejection(self.p)
        if why:
            raise BadReduction(f"{why}; admissible small primes: {self.admissible_primes(60)}")

    def _rejection(self, q: int) -> str | None:
        """Why q cannot be the auxiliary prime: bad reduction, or a cusp field
        that q does not split into distinct roots; None when q is admissible."""
        if not self.curve.good_reduction_at(q):
            return f"p = {q} rejected (bad reduction or split condition)"
        for c in self.curve.cusps:
            try:
                roots = len(hensel_embed(list(c.nfield.minpoly), q, 4, c.nfield))
            except NonSeparableReduction:
                roots = 0
            if roots != c.nfield.degree:
                return f"p = {q} does not split the cusp field of {c.id}"
        return None

    def admissible_primes(self, bound: int) -> list:
        return [q for q in range(3, bound)
                if _is_prime(q) and q not in self.S and self._rejection(q) is None]

    def counts(self) -> dict:
        n1, n2 = self.curve.cusp_signature_counts()
        return {
            "g": self.curve.genus,
            "n": self.curve.geometric_cusp_count(),
            "num_cusps": len(self.curve.cusps),
            "n1": n1,
            "n2": n2,
        }

    def embeddings(self, cusp: Cusp) -> list[FieldEmbedding]:
        """The embeddings of the cusp field into Qp, lifted once per cusp."""
        if cusp.id not in self._embeddings:
            self._embeddings[cusp.id] = hensel_embed(list(cusp.nfield.minpoly), self.p,
                                                     self.prec + 40, cusp.nfield)
        return self._embeddings[cusp.id]

    def logs(self, cusp: Cusp, value: NFElement) -> list[PadicNumber]:
        """log phi(value) for each phi in embeddings(cusp), computed once per (cusp, value)."""
        key = (cusp.id, value)
        if key not in self._logs:
            self._logs[key] = [iwasawa_log(phi(value)) for phi in self.embeddings(cusp)]
        return self._logs[key]
