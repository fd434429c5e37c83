"""Coleman integration of logarithmic differentials on the curve families.

Ties the Frobenius-lift backend to the curve families: every family is a
chart y^n = g(x), and one model of that chart (hyperelliptic.py) gives the
global integrals between affine points and the whole residue-disc layer:
disc centers, disc expansions and tiny integrals are the model's, read here
in the family's basis.  Also here: the residue x log sum of the p-adic
residue theorem (residue_log_sum), shared with the engine.

All integrals use the Iwasawa branch log(p) = 0.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .curves import CurveProblem, LogDifferential, ResidueDisc
from .errors import PoleOnDisc
from .hyperelliptic import HyperellipticModel, Point, _point_key
from .padics import PadicNumber
from .series import IntSeries, dot
from .series import nth_root_series  # noqa: F401  (perfbench/spans.py traces this binding)


class DiscExpansion:
    """omega restricted to a non-cuspidal disc:  series(t) dt, on the disc
    parametrization (xs, ys) it was built on, centered at t = 0."""

    __slots__ = ("series", "xs", "ys")

    def __init__(self, series: IntSeries, xs: IntSeries, ys: IntSeries):
        self.series, self.xs, self.ys = series, xs, ys


class Integrator:
    """Per-problem integration context with cached Frobenius data."""

    def __init__(self, problem: CurveProblem, imported=()):
        """imported: (P, Q, values) triples of externally computed basis
        integral vectors; they take precedence over the integrators."""
        self.problem = problem
        self.curve = problem.curve
        self.p = problem.p
        self.prec = problem.prec
        self.imported = {self._pair_key(P, Q): values for P, Q, values in imported}
        self._model: HyperellipticModel | None = None
        self._pair_cache: dict = {}
        self._expansions: dict = {}

    # -- model access --------------------------------------------------------

    def main_model(self) -> HyperellipticModel:
        """The Frobenius model of the chart y^n = g(x), built once, at working
        precision prec + 4 (a margin set by hand, not derived)."""
        if self._model is None:
            self._model = HyperellipticModel(self.curve.g, self.p, self.prec + 4, self.curve.n)
        return self._model

    # -- public: family basis integrals ------------------------------------------

    def basis_integral_vector(self, P, Q) -> list[PadicNumber]:
        """Integrals of the family basis omega_1..omega_(g+n-1) from P to Q."""
        key = self._pair_key(P, Q)
        if key in self._pair_cache:
            return self._pair_cache[key]
        got = self.imported.get(key)
        if got is None:
            m = self.main_model()
            got = self._pick(m.basis_integrals(m.point(*P), m.point(*Q)))
        self._pair_cache[key] = got
        return got

    def _pick(self, values: list) -> list:
        """The entries of a per-model-basis list for the family's monomials, in their order."""
        basis = self.main_model().basis
        return [values[basis.index(mono)] for mono in self.curve.monomials]

    def integral(self, omega: LogDifferential, P, Q) -> PadicNumber:
        return _dot(omega.coeffs, self.basis_integral_vector(P, Q))

    def divisor_pairs(self, divisor) -> list:
        """(base, point, multiplicity) for each integral that a degree-zero divisor
        [(point, multiplicity)] needs: from its first point, base, to each point of
        nonzero multiplicity other than base itself (that integral is exactly 0)."""
        if sum(m for _, m in divisor) != 0:
            raise ValueError("divisor must have degree zero")
        base = divisor[0][0]
        return [(base, pt, mult) for pt, mult in divisor
                if mult and _point_key(pt) != _point_key(base)]

    def divisor_integral(self, omega: LogDifferential, divisor) -> PadicNumber:
        """Integral over a degree-zero divisor given as [(point, multiplicity)]."""
        acc = PadicNumber.exact_zero(self.p)
        for base, pt, mult in self.divisor_pairs(divisor):
            acc = acc + self.integral(omega, base, pt) * mult
        return acc

    def cached_vector(self, P, Q):
        """The basis integral vector from P to Q if it was already obtained, else None."""
        return self._pair_cache.get(self._pair_key(P, Q))

    def _pair_key(self, P, Q):
        return _point_key(P), _point_key(Q)

    # -- residue discs and expansions ------------------------------------------------

    def residue_discs(self) -> list[ResidueDisc]:
        return self.curve.residue_discs(self.p)

    def _disc_series(self, disc: ResidueDisc) -> list:
        """x(t), y(t) and the family's basis monomials on disc, from the model's
        disc_series, cut to order 2 prec."""
        if disc.cuspidal:
            raise PoleOnDisc("cuspidal discs have no integration center")
        pt = Point(*(PadicNumber.from_int(c, self.p, 1) for c in (disc.xbar, disc.ybar)))
        xs, ys, ms = self.main_model().disc_series(pt)
        return [s.truncate(2 * self.prec) for s in (xs, ys, *self._pick(ms))]

    def disc_parametrization(self, disc: ResidueDisc):
        """Series (x(t), y(t)) to order 2 prec around the canonical center;
        t runs over Zp."""
        xs, ys, *_ = self._disc_series(disc)
        return xs, ys

    def expand_differential_on_disc(self, omega: LogDifferential,
                                    disc: ResidueDisc) -> DiscExpansion:
        """omega|disc = series dt in the disc parameter: one int dot product per
        coefficient (series.dot), built once per disc and (v, u, N) of omega."""
        key = (disc.xbar, disc.ybar, *((c.v, c.u, c.N) if isinstance(c, PadicNumber) else c
                                       for c in omega.coeffs))
        if key not in self._expansions:
            xs, ys, *terms = self._disc_series(disc)
            self._expansions[key] = DiscExpansion(dot(omega.coeffs, terms), xs, ys)
        return self._expansions[key]

    # -- tiny integrals ------------------------------------------------------------

    def tiny_integral(self, omega: LogDifferential, P, Q) -> PadicNumber:
        """Integral between two points of one non-cuspidal residue disc."""
        m = self.main_model()
        return _dot(omega.coeffs, self._pick(m.tiny_basis_integrals(m.point(*P), m.point(*Q))))


def _dot(coeffs, values):
    """sum_j coeffs[j] values[j] in Qp."""
    return reduce(add, (v * a for a, v in zip(coeffs, values)))


def residue_log_sum(p: int, omega: LogDifferential, terms, embeddings) -> PadicNumber:
    """The sum over (cusp, logs, coeff) in terms and over the embeddings phi in
    embeddings(cusp), zipped with logs, of phi(Res_cusp omega) * log * coeff."""
    acc = PadicNumber.exact_zero(p)
    for cusp, logs, coeff in terms:
        for phi, log in zip(embeddings(cusp), logs):
            r = omega.embedded_residue(cusp, phi)
            if r.is_zero():
                continue
            acc = acc + r * log * coeff
    return acc

