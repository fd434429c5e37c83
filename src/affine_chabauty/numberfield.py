"""Minimal exact arithmetic in number fields k = Q[g]/(minpoly).

Cusp residue fields enter the engine through residues of log differentials,
prime-ideal generators and unit generators.  Elements are polynomials in the
field generator with exact rational coefficients; embeddings into Qp are
Hensel lifts of simple roots of the minimal polynomial mod p.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NeedsOverride, NonSeparableReduction
from .padics import PadicNumber, _horner_mod, _vp, hensel_lift_root, horner


def _poly_trim(cs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(cs)
    while n > 0 and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(tuple(out))


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return _poly_trim(tuple(q)), _poly_trim(tuple(a))


class NumberField:
    """Q[g]/(minpoly) with monic minimal polynomial over Q."""

    def __init__(self, minpoly, name: str = "g"):
        cs = tuple(Fraction(c) for c in minpoly)
        cs = _poly_trim(cs)
        if len(cs) < 2:
            raise ValueError("minpoly must have degree >= 1")
        lead = cs[-1]
        self.minpoly = tuple(c / lead for c in cs)
        self.degree = len(self.minpoly) - 1
        self.name = name
        self._roots_mod: dict = {}  # p -> (minpoly over Z, its roots mod p, why none embed)
        self._signature: tuple[int, int] | None = None

    def __call__(self, coeffs) -> "NFElement":
        if isinstance(coeffs, NFElement):
            return coeffs
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) > self.degree:
            _, cs = _poly_divmod(cs, self.minpoly)
        cs = cs + (Fraction(0),) * (self.degree - len(cs))
        return NFElement(self, cs[: self.degree])

    def gen(self) -> "NFElement":
        if self.degree == 1:
            return self(-self.minpoly[0])
        return self([0, 1])

    def signature(self) -> tuple[int, int]:
        """(number of real roots, number of complex-conjugate pairs) of minpoly, by one
        Sturm chain per field."""
        if self._signature is None:
            real = _count_real_roots([Fraction(c) for c in self.minpoly])
            self._signature = real, (self.degree - real) // 2
        return self._signature

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({[str(c) for c in self.minpoly]})"


class NFElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple[Fraction, ...]):
        self.field, self.coeffs = field, coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.coeffs) == (other.field, other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __add__(self, other):
        o = self.field(other)
        return NFElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self.field(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self.field(other)
        prod = _poly_mul(self.coeffs, o.coeffs)
        _, r = _poly_divmod(prod, self.field.minpoly)
        r = r + (Fraction(0),) * (self.field.degree - len(r))
        return NFElement(self.field, r[: self.field.degree])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.field(other)
        return self * o.inv()

    def inv(self) -> "NFElement":
        # extended Euclid against the (irreducible) minimal polynomial
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        r0, r1 = self.field.minpoly, _poly_trim(self.coeffs)
        s0: tuple = ()
        s1: tuple = (Fraction(1),)
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            qs1 = _poly_mul(q, s1)
            n = max(len(s0), len(qs1))
            s0, s1 = s1, _poly_trim(tuple(
                (s0[i] if i < len(s0) else Fraction(0)) - (qs1[i] if i < len(qs1) else Fraction(0))
                for i in range(n)
            ))
            r0, r1 = r1, r
        if not r1:
            raise ZeroDivisionError("element shares a factor with minpoly")
        scale = 1 / r1[0]
        return self.field(tuple(c * scale for c in s1))

    def norm(self) -> Fraction:
        """Norm to Q: the resultant Res(minpoly, self) by Euclid (Cohen, GTM 138,
        section 3.3): Res(A, B) = (-1)^(deg A deg B) lc(B)^(deg A - deg R) Res(B, R)
        with R = A mod B, and Res(A, c) = c^(deg A)."""
        a, b = self.field.minpoly, _poly_trim(self.coeffs)
        out = Fraction(1)
        while len(b) > 1:
            _, r = _poly_divmod(a, b)
            if not r:
                return Fraction(0)
            out *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(r))
            a, b = b, r
        return out * b[0] ** (len(a) - 1) if b else Fraction(0)

    def __repr__(self):
        g = self.field.name
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*{g}" if c != 1 else g)
            else:
                terms.append(f"{c}*{g}^{k}" if c != 1 else f"{g}^{k}")
        return " + ".join(terms) if terms else "0"


def _count_real_roots(minpoly: list[Fraction]) -> int:
    """Number of real roots of a squarefree polynomial via Sturm sequences."""
    def deriv(cs):
        return [k * c for k, c in enumerate(cs)][1:]

    def sign_changes(values):
        signs = [v for v in values if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    def eval_at_inf(cs, positive):
        lead = cs[-1]
        if positive:
            return lead
        return lead if (len(cs) - 1) % 2 == 0 else -lead

    chain = [list(minpoly), deriv(minpoly)]
    while len(chain[-1]) > 1 or (len(chain[-1]) == 1 and chain[-1][0] != 0):
        _, r = _poly_divmod(tuple(chain[-2]), tuple(chain[-1]))
        if not r:
            break
        chain.append([-c for c in r])
    neg = sign_changes([eval_at_inf(cs, False) for cs in chain if cs])
    pos = sign_changes([eval_at_inf(cs, True) for cs in chain if cs])
    return neg - pos


# -- embeddings into Qp ------------------------------------------------------


class FieldEmbedding:
    """An embedding k(Q) -> Qp determined by a root of the minimal polynomial."""

    __slots__ = ("field", "root")

    def __init__(self, field: NumberField, root: PadicNumber):
        self.field, self.root = field, root

    def __call__(self, x) -> PadicNumber:
        if isinstance(x, (int, Fraction)):
            return PadicNumber.from_rational(x, self.root.p, self.root.N)
        p, N = self.root.p, self.root.N
        return horner([PadicNumber.from_rational(c, p, N) for c in self.field(x).coeffs],
                      self.root, PadicNumber.exact_zero(p))

    def residue(self) -> int:
        return self.root.residue(1)


def hensel_embed(minpoly, p: int, N: int, field: NumberField | None = None,
                 residues=None) -> list[FieldEmbedding]:
    """All embeddings of Q[g]/(minpoly) into Qp, one per simple root mod p (only
    those with a residue in residues, if given); the roots mod p and the
    separability verdict are found once per field and p.

    Raises NonSeparableReduction when the reduction has repeated roots, in
    which case the caller should pick a different auxiliary prime.
    """
    field = field or NumberField(minpoly)
    if p not in field._roots_mod:
        den = math.lcm(*(c.denominator for c in field.minpoly))
        ics = [int(c * den) for c in field.minpoly]
        red = [c % p for c in ics]
        dred = [k * c % p for k, c in enumerate(red)][1:]
        roots = [r for r in range(p) if red[-1] and _horner_mod(red, r, p) == 0]
        repeated = [r for r in roots if _horner_mod(dred, r, p) == 0]
        why = ("leading coefficient vanishes mod p" if not red[-1] else
               repeated and f"repeated root {repeated[0]} of minpoly mod {p}")
        field._roots_mod[p] = ics, roots, why
    ics, roots, why = field._roots_mod[p]
    if why:
        raise NonSeparableReduction(why)
    return [FieldEmbedding(field, PadicNumber.from_int(hensel_lift_root(ics, r, p, N), p, N))
            for r in roots if residues is None or r in residues]


# -- valuations at primes of the cusp ring ----------------------------------


def lambda_valuation(x: NFElement, q: int, e: int, f: int, split_residue: int | None) -> Fraction:
    """Valuation of x at a prime lambda over q with ramification e and degree f.

    Supported cases: rational field, a prime that is alone over q
    (e*f = degree), or a split prime with the generator residue recorded.
    Everything else needs an ingested override.
    """
    if x.is_zero():
        raise ZeroDivisionError("valuation of zero")
    deg = x.field.degree
    if deg == 1:
        return Fraction(_vp(x.as_rational(), q))
    if e * f == deg:  # unique prime over q
        return Fraction(_vp(x.norm(), q), f)
    if f == 1 and e == 1 and split_residue is not None:
        nrm = x.norm()
        bound = abs(_vp(nrm.numerator, q)) + abs(_vp(nrm.denominator, q)) + 2
        embs = hensel_embed(list(x.field.minpoly), q, bound, x.field, {split_residue % q})
        if not embs:
            raise NeedsOverride(f"no embedding with residue {split_residue} mod {q}")
        val = embs[0](x)
        if val.is_zero():
            raise NeedsOverride("valuation exceeds certified bound")
        return Fraction(val.valuation())
    raise NeedsOverride(f"cannot compute valuation at a degree-{f} prime of a degree-{deg} field")
