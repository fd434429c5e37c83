"""Coleman integration of logarithmic differentials on the curve families.

Ties the Frobenius-lift backend to the curve families: every family is a
chart y^n = g(x), and one model of that chart (hyperelliptic.py) gives the
global integrals between affine points.  Also here: tiny integrals on
residue discs and the two sides of the p-adic residue theorem.

All integrals use the Iwasawa branch log(p) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .curves import CurveProblem, LogDifferential, ResidueDisc
from .errors import DifferentDiscs, EndpointRestriction, PoleOnDisc
from .hyperelliptic import (
    HyperellipticModel,
    Point,
    _local_parametrization,
    chart_center,
    disc_parameter,
    monomial_series,
)
from .numberfield import NFElement
from .padics import PadicNumber, iwasawa_log
from .series import TruncatedSeries, formal_antiderivative, nth_root_series


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
        self._model: HyperellipticModel | None = None
        self._pair_cache: dict = {}
        self._discs: dict = {}

    # -- model access --------------------------------------------------------

    def main_model(self) -> HyperellipticModel:
        """The Frobenius model of the chart y^n = g(x), built once."""
        if self._model is None:
            self._model = HyperellipticModel(self.curve.g, self.p, self.work, self.curve.n)
        return self._model

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
            m = self.main_model()
            vals = m.basis_integrals(self.main_point(P), self.main_point(Q))
            got = [vals[m.basis.index(mono)] for mono in self.curve.monomials]
        self._pair_cache[key] = got
        return got

    def integral(self, omega: LogDifferential, P, Q) -> PadicNumber:
        vec = self.basis_integral_vector(P, Q)
        acc = PadicNumber.exact_zero(self.p)
        for a, v in zip(omega.coeffs, vec):
            acc = acc + v * a
        return acc

    def divisor_integral(self, omega: LogDifferential, divisor) -> PadicNumber:
        """Integral over a degree-zero divisor given as [(point, multiplicity)]."""
        total = sum(m for _, m in divisor)
        if total != 0:
            raise ValueError("divisor must have degree zero")
        base = divisor[0][0]
        acc = PadicNumber.exact_zero(self.p)
        for pt, mult in divisor:
            if mult == 0:
                continue
            acc = acc + self.integral(omega, base, pt) * mult
        return acc

    def cached_vector(self, P, Q):
        """The basis integral vector from P to Q if it was already obtained, else None."""
        return self._pair_cache.get(self._pair_key(P, Q))

    def _pair_key(self, P, Q):
        def k(pt):
            x, y = pt
            return (str(Fraction(x)) if not isinstance(x, PadicNumber) else str(x),
                    str(Fraction(y)) if not isinstance(y, PadicNumber) else str(y))
        return (k(P), k(Q))

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

    def tiny_integral(self, omega: LogDifferential, P, Q) -> PadicNumber:
        """Integral between two points of one non-cuspidal residue disc."""
        disc = self._disc_of(P)
        discQ = self._disc_of(Q)
        if (disc.xbar, disc.ybar, disc.kind) != (discQ.xbar, discQ.ybar, discQ.kind):
            raise DifferentDiscs(f"{disc} vs {discQ}")
        exp = self.expand_differential_on_disc(omega, disc)
        F = formal_antiderivative(exp.series)
        cx = None if disc.kind == "weierstrass" else exp.xs[0]
        tP, tQ = (disc_parameter(self._to_pad(x), self._to_pad(y), cx) for x, y in (P, Q))
        return F.evaluate(tQ) - F.evaluate(tP)

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
        lhs = self.divisor_integral(omega, divisor)
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

