"""Coleman integration of logarithmic differentials on the curve families.

Ties the Frobenius-lift backend to the curve families: tiny integrals on
residue discs, global integrals between affine points, the splitting and
auxiliary-curve transport for the superelliptic family, and the two sides
of the p-adic residue theorem.

All integrals use the Iwasawa branch log(p) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .curves import (
    CurveProblem,
    EvenHyperellipticCurve,
    LogDifferential,
    ResidueDisc,
    SuperellipticCurve,
)
from .errors import (
    DifferentDiscs,
    EndpointRestriction,
    PoleOnDisc,
    UnsupportedFamily,
)
from .hyperelliptic import (
    INFINITY,
    HyperellipticModel,
    Point,
    _local_parametrization,
    chart_center,
    disc_parameter,
    monomial_series,
)
from .numberfield import NFElement, hensel_embed
from .padics import PadicNumber, iwasawa_log
from .series import TruncatedSeries, formal_antiderivative, nth_root_series


@dataclass
class IntegralValue:
    value: PadicNumber
    method: str                   # 'tiny' | 'frobenius' | 'pullback' | 'imported'
    loss: int = 0
    endpoints: tuple | None = None


@dataclass
class DiscExpansion:
    """omega restricted to a non-cuspidal disc:  series(t) dt, on the disc
    parametrization (xs, ys) it was built on."""

    series: TruncatedSeries
    xs: TruncatedSeries
    ys: TruncatedSeries


class Integrator:
    """Per-problem integration context with cached Frobenius data."""

    def __init__(self, problem: CurveProblem, imported=()):
        """imported: (P, Q, values) triples of externally computed basis
        integral vectors; they take precedence over the integrators."""
        self.problem = problem
        self.curve = problem.curve
        self.p = problem.p
        self.prec = problem.prec
        self.work = problem.prec + 4
        self.imported = {self._pair_key(P, Q): values for P, Q, values in imported}
        self._models: dict = {}
        self._pair_cache: dict = {}
        self._discs: dict = {}

    # -- model access --------------------------------------------------------

    def main_model(self) -> HyperellipticModel:
        if "main" not in self._models:
            if not isinstance(self.curve, EvenHyperellipticCurve):
                raise UnsupportedFamily("main model exists for the hyperelliptic family")
            self._models["main"] = HyperellipticModel(
                [int(c) for c in self.curve.f], self.p, self.work)
        return self._models["main"]

    def w_model(self) -> HyperellipticModel:
        """Odd Weierstrass model v'^2 = u'^3 + (a^2/4 - 1) of the elliptic chart."""
        if "w" not in self._models:
            a = self.curve.a
            self._models["w"] = HyperellipticModel(
                [a * a / 4 - 1, 0, 0, Fraction(1)], self.p, self.work)
        return self._models["w"]

    def cube_roots(self) -> list[PadicNumber]:
        if "zetas" not in self._models:
            hi = self._hi()
            roots = [PadicNumber.from_int(1, self.p, hi)]
            roots += [e.root for e in hensel_embed([1, 1, 1], self.p, hi)]
            self._models["zetas"] = roots
        return self._models["zetas"]

    def x1_model(self) -> HyperellipticModel:
        """X_1 of the family X_zeta: t^2 = (4/a^2) [s (1 + zeta s)^3 + (a^2/4 - 1) s^4].

        (s, t) = (zeta^2 s', zeta t') maps X_1 onto X_zeta and pulls s ds/t back to s' ds'/t'.
        """
        if "x1" not in self._models:
            c = Fraction(4) / (self.curve.a * self.curve.a)
            self._models["x1"] = HyperellipticModel(
                [0, c, 3 * c, 3 * c, 1], self.p, self.work)
        return self._models["x1"]

    # -- endpoint conversion ---------------------------------------------------

    def _to_pad(self, v, N=None) -> PadicNumber:
        if isinstance(v, PadicNumber):
            return v
        return PadicNumber.from_rational(Fraction(v), self.p, N or self._hi())

    def _hi(self) -> int:
        return self.work + 40

    def main_point(self, pt) -> Point:
        m = self.main_model()
        x, y = pt
        return m.point(self._to_pad(x, m.M), self._to_pad(y, m.M))

    # -- public: family basis integrals ------------------------------------------

    def basis_integral_vector(self, P, Q) -> list[PadicNumber]:
        """Integrals of the family basis omega_1..omega_(g+n-1) from P to Q."""
        key = self._pair_key(P, Q)
        if key in self._pair_cache:
            return self._pair_cache[key]
        got = self.imported.get(key)
        if got is None:
            if isinstance(self.curve, EvenHyperellipticCurve):
                got = self._even_vector(P, Q)
            elif isinstance(self.curve, SuperellipticCurve):
                got = self._super_vector(P, Q)
            else:
                raise UnsupportedFamily(self.curve.family)
        self._pair_cache[key] = got
        return got

    def integral(self, omega: LogDifferential, P, Q) -> IntegralValue:
        vec = self.basis_integral_vector(P, Q)
        acc = PadicNumber.exact_zero(self.p)
        for a, v in zip(omega.coeffs, vec):
            acc = acc + v * a
        loss = max(self.prec - acc.N, 0) if not acc.is_exact_zero() else 0
        return IntegralValue(value=acc, method="frobenius", loss=loss,
                             endpoints=(P, Q))

    def divisor_integral(self, omega: LogDifferential, divisor) -> IntegralValue:
        """Integral over a degree-zero divisor given as [(point, multiplicity)]."""
        total = sum(m for _, m in divisor)
        if total != 0:
            raise ValueError("divisor must have degree zero")
        base = divisor[0][0]
        acc = PadicNumber.exact_zero(self.p)
        for pt, mult in divisor:
            if mult == 0:
                continue
            acc = acc + self.integral(omega, base, pt).value * mult
        return IntegralValue(value=acc, method="frobenius")

    def cached_vector(self, P, Q):
        """The basis integral vector from P to Q if it was already obtained, else None."""
        return self._pair_cache.get(self._pair_key(P, Q))

    def _pair_key(self, P, Q):
        def k(pt):
            x, y = pt
            return (str(Fraction(x)) if not isinstance(x, PadicNumber) else str(x),
                    str(Fraction(y)) if not isinstance(y, PadicNumber) else str(y))
        return (k(P), k(Q))

    # -- even hyperelliptic ---------------------------------------------------------

    def _even_vector(self, P, Q):
        m = self.main_model()
        vals = m.basis_integrals(self.main_point(P), self.main_point(Q))
        return vals[: self.curve.basis_size()]

    # -- superelliptic ----------------------------------------------------------------

    def _uv_coords(self, pt):
        """(u', v') on the shifted Weierstrass chart; INFINITY for x = 0."""
        x, y = pt
        a = self.curve.a
        if not isinstance(x, PadicNumber) and Fraction(x) == 0:
            return INFINITY
        xp, yp = self._to_pad(x), self._to_pad(y)
        if xp.is_zero():
            return INFINITY
        u = yp / xp
        v = xp.inverse() + a / 2
        return (u, v)

    def _check_endpoint(self, uv):
        if uv is INFINITY:
            return
        u, v = uv
        if u.v < 0:
            raise EndpointRestriction("endpoint reduces into an infinite disc of the chart")
        ub = u.residue(1)
        if pow(ub, 3, self.p) == 1:
            raise EndpointRestriction(
                "endpoint lies in a cusp residue disc or its involution image")

    def _super_vector(self, P, Q):
        uvP, uvQ = self._uv_coords(P), self._uv_coords(Q)
        for uv in (uvP, uvQ):
            self._check_endpoint(uv)
        w1 = self._super_omega1(uvP, uvQ)
        w2, w3 = self._super_omega23(uvP, uvQ)
        return [w1, w2, w3]

    def _super_omega1(self, uvP, uvQ):
        m = self.w_model()
        ptP = uvP if uvP is INFINITY else m.point(*uvP)
        ptQ = uvQ if uvQ is INFINITY else m.point(*uvQ)
        vals = m.basis_integrals(ptP, ptQ)
        return vals[0] * Fraction(-3, 2)

    def _super_omega23(self, uvP, uvQ):
        zetas = self.cube_roots()
        # symmetric parts: pullbacks from P^1 in the coordinate w = 1/u'; the
        # residue weights sum to zero, so the value at w = infinity vanishes
        i2 = self._plus_part(uvQ, zetas, inverse_weight=True) \
            - self._plus_part(uvP, zetas, inverse_weight=True)
        i3 = self._plus_part(uvQ, zetas, inverse_weight=False) \
            - self._plus_part(uvP, zetas, inverse_weight=False)
        # antisymmetric parts on X_zeta, each computed on X_1
        X = self.x1_model()
        for z in zetas:
            tauP = self._tau(uvP, z, X)
            tauQ = self._tau(uvQ, z, X)
            vals = X.basis_integrals(tauP, tauQ)
            I_z = vals[1] / 2  # s ds/(2t)
            i2 = i2 + (-z) * I_z
            i3 = i3 + (-z.inverse()) * I_z
        return i2, i3

    def _plus_part(self, uv, zetas, inverse_weight: bool) -> PadicNumber:
        """sum_zeta -1/2 zeta^(+-1) log(w - zeta) at one endpoint (w = 1/u')."""
        p = self.p
        if uv is INFINITY:
            w = PadicNumber.exact_zero(p)        # u' = infinity: w = 0
        else:
            u = uv[0]
            if u.is_exact_zero():
                return PadicNumber.exact_zero(p)  # w = infinity: weights sum to zero
            if u.is_zero():
                raise EndpointRestriction("u-coordinate indistinguishable from zero")
            w = u.inverse()
        acc = PadicNumber.exact_zero(p)
        for z in zetas:
            weight = z.inverse() if inverse_weight else z
            acc = acc + weight * iwasawa_log(w - z) * Fraction(-1, 2)
        return acc

    def _tau(self, uv, z, X: HyperellipticModel):
        """tau_zeta(u', v') = (s, t) = (1/(u'-z), -2 v'/(a (u'-z)^2)), sent to X_1 as (z s, z^2 t).

        tau(infinity) = (0, 0) on every X_zeta.
        """
        p = self.p
        if uv is INFINITY:
            return X.point(PadicNumber.exact_zero(p), PadicNumber.exact_zero(p))
        u, v = uv
        a = self.curve.a
        s = (u - z).inverse()
        t = (-2) * v * ((u - z) ** 2).inverse() / a
        return X.point(z * s, z * z * t)

    # -- residue discs and expansions ------------------------------------------------

    def residue_discs(self) -> list[ResidueDisc]:
        return self.curve.residue_discs(self.p)

    def _chart(self):
        """(n, g) of the chart y^n = g(x), with g's coefficients at _hi()."""
        return self.curve.n, [PadicNumber.from_int(c, self.p, self._hi()) for c in self.curve.g]

    def disc_center(self, disc: ResidueDisc):
        """Canonical (Teichmueller-type) center of a non-cuspidal disc."""
        if disc.cuspidal:
            raise PoleOnDisc("cuspidal discs have no integration center")
        n, g = self._chart()
        return chart_center(g, n, disc.xbar, disc.ybar, self._hi())

    def disc_parametrization(self, disc: ResidueDisc):
        """Series (x(t), y(t)) to order 2 prec around the canonical center;
        t runs over Zp."""
        cx, _ = self.disc_center(disc)
        n, g = self._chart()
        root = (partial(nth_root_series, n=n, residue_hint=disc.ybar)
                if disc.kind == "affine" else None)
        return _local_parametrization(g, n, cx, root, self._hi(), 2 * self.prec)

    def expand_differential_on_disc(self, omega: LogDifferential,
                                    disc: ResidueDisc) -> DiscExpansion:
        """omega|disc = series dt in the disc parameter.

        The disc parametrization and the series of each basis element on it
        are built once per disc."""
        key = (disc.xbar, disc.ybar, disc.kind)
        if key not in self._discs:
            xs, ys = self.disc_parametrization(disc)
            self._discs[key] = xs, ys, monomial_series(xs, ys, self.curve.monomials,
                                                       disc.kind == "weierstrass")
        xs, ys, terms = self._discs[key]
        series = None
        for comp, a in zip(terms, omega.coeffs):
            term = comp.scale(a)
            series = term if series is None else series + term
        return DiscExpansion(series, xs, ys)

    # -- tiny integrals ------------------------------------------------------------

    def tiny_integral(self, omega: LogDifferential, P, Q) -> IntegralValue:
        """Integral between two points of one non-cuspidal residue disc."""
        disc = self._disc_of(P)
        discQ = self._disc_of(Q)
        if (disc.xbar, disc.ybar, disc.kind) != (discQ.xbar, discQ.ybar, discQ.kind):
            raise DifferentDiscs(f"{disc} vs {discQ}")
        exp = self.expand_differential_on_disc(omega, disc)
        F = formal_antiderivative(exp.series)
        cx = None if disc.kind == "weierstrass" else exp.xs[0]
        tP, tQ = (disc_parameter(self._to_pad(x), self._to_pad(y), cx) for x, y in (P, Q))
        return IntegralValue(value=F.evaluate(tQ) - F.evaluate(tP), method="tiny")

    def _disc_of(self, pt) -> ResidueDisc:
        x, y = pt
        xp, yp = self._to_pad(x), self._to_pad(y)
        if xp.v < 0 or yp.v < 0:
            raise EndpointRestriction("point is not p-integral")
        xb = xp.residue(1)
        yb = yp.residue(1)
        kind = "affine" if yb != 0 else "weierstrass"
        return ResidueDisc(self.curve, self.p, xb, yb, kind)

    # -- residue theorem -------------------------------------------------------------

    def residue_theorem_check(self, divisor, cusp_values: dict,
                              omega: LogDifferential):
        """(lhs, rhs) of the residue identity for div(f) and omega.

        divisor: [(point, multiplicity)] supported in Y;
        cusp_values: cusp id -> f(Q) as an element of k(Q) (nonzero).
        """
        lhs = self.divisor_integral(omega, divisor).value
        terms = []
        for cusp in self.curve.cusps:
            val = cusp_values[cusp.id]
            if not isinstance(val, NFElement):
                val = cusp.nfield(val)
            terms.append((cusp, lambda phi, val=val: iwasawa_log(phi(val)), 1))
        return lhs, residue_log_sum(self.p, omega, terms, self.problem.embeddings)


def residue_log_sum(p: int, omega: LogDifferential, terms, embeddings) -> PadicNumber:
    """The sum over (cusp, log, coeff) in terms and over the embeddings phi
    in embeddings(cusp) of phi(Res_cusp omega) * log(phi) * coeff."""
    acc = PadicNumber.exact_zero(p)
    for cusp, log, coeff in terms:
        for phi in embeddings(cusp):
            r = omega.embedded_residue(cusp, phi)
            if r.is_zero():
                continue
            acc = acc + r * log(phi) * coeff
    return acc

