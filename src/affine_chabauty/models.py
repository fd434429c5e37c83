"""Regular-model data: correction divisors, intersection numbers on cusp
closures, reduction types and Selmer targets.

Model data is ingested, not computed: the problem file carries components,
multiplicities, intersection matrices and incidence vectors per bad prime,
plus the prime-of-the-cusp-ring records (lambda records) with their
generators.  Horizontal contact orders with cusp closures are computed from
plane-chart coordinates when the chart is flagged regular, and read from
overrides otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import product
from operator import add

from .curves import CurveProblem
from .errors import (
    MissingIncidence,
    NeedsOverride,
    NotTransversal,
    ProblemFileError,
)
from .linalg import RationalMatrix, moore_penrose
from .numberfield import NFElement, lambda_valuation
from .padics import _vp


class ComponentData:
    __slots__ = ("id", "multiplicity", "has_smooth_point")

    def __init__(self, id: str, multiplicity: int, has_smooth_point: bool = True):
        self.id, self.multiplicity, self.has_smooth_point = id, multiplicity, has_smooth_point


class LambdaRecord:
    """A prime of a cusp ring O_k(Q), with its generator in k(Q)^x tensor Q."""

    __slots__ = ("id", "cusp", "over_prime", "e", "f", "generator", "gen_exponent",
                 "split_residue", "component_incidences", "cuspidal_point")

    def __init__(self, id: str, cusp: str, over_prime: int, e: int, f: int, generator: NFElement,
                 gen_exponent: Fraction = Fraction(1),     # pi_lambda = generator^gen_exponent
                 split_residue: int | None = None,         # identifies the prime among split ones
                 component_incidences: dict | None = None,
                 cuspidal_point: bool = False):            # an Fq-point of D's fibre, smooth on X
        self.id, self.cusp, self.over_prime, self.e, self.f = id, cusp, over_prime, e, f
        self.generator, self.gen_exponent = generator, gen_exponent
        self.split_residue, self.cuspidal_point = split_residue, cuspidal_point
        self.component_incidences = {} if component_incidences is None else component_incidences


class FibreData:
    def __init__(self, prime: int, components: list, matrix: RationalMatrix,
                 incidences: dict,              # horizontal object id -> vector
                 base_component: str = ""):
        self.prime, self.components, self.matrix = prime, components, matrix
        self.incidences, self.base_component = incidences, base_component

    @cached_property
    def pseudoinverse(self) -> RationalMatrix:
        """Moore-Penrose pseudoinverse of the intersection matrix."""
        return moore_penrose(self.matrix)

    def component_index(self, cid: str) -> int:
        for i, c in enumerate(self.components):
            if c.id == cid:
                return i
        raise ProblemFileError(f"unknown component {cid} in fibre over {self.prime}")


class RegularModelData:
    __slots__ = ("fibres", "lambdas", "rho", "transversal_over", "overrides", "regular_charts")

    def __init__(self,
                 fibres: dict,                  # q -> FibreData
                 lambdas: list,                 # LambdaRecord list
                 rho: dict,                     # q -> Fraction generator of (q)
                 transversal_over: list,
                 overrides: dict | None = None,        # (object_id, lambda_id) -> Fraction
                 regular_charts: list | None = None):  # primes where the plane chart is regular
        self.fibres, self.lambdas, self.rho = fibres, lambdas, rho
        self.transversal_over = transversal_over
        self.overrides = {} if overrides is None else overrides
        self.regular_charts = [] if regular_charts is None else regular_charts

    def validate(self):
        for q, fib in self.fibres.items():
            mults = [c.multiplicity for c in fib.components]
            if len(mults) != fib.matrix.m or fib.matrix.m != fib.matrix.n:
                raise ProblemFileError(f"fibre over {q}: matrix shape mismatch")
            if not fib.matrix.is_symmetric():
                raise ProblemFileError(f"fibre over {q}: intersection matrix not symmetric")
            for row in fib.matrix.rows:
                if sum(r * m for r, m in zip(row, mults)) != 0:
                    raise ProblemFileError(
                        f"fibre over {q}: intersection matrix does not kill the fibre class")
            if not fib.components:
                raise ProblemFileError(f"fibre over {q} has no components")
        return self

    def lambdas_over(self, q: int):
        return [lam for lam in self.lambdas if lam.over_prime == q]

    def lambda_by_id(self, lid: str) -> LambdaRecord:
        for lam in self.lambdas:
            if lam.id == lid:
                return lam
        raise ProblemFileError(f"unknown lambda record {lid}")


class CorrectionDivisor:
    __slots__ = ("prime", "coeffs")

    def __init__(self, prime: int,
                 coeffs: dict):                 # component id -> Fraction
        self.prime, self.coeffs = prime, coeffs


class ReductionType:
    __slots__ = ("label", "cuspidal_support", "component_choice", "cuspidal_choice")

    def __init__(self, label: str,
                 cuspidal_support: tuple,       # primes q in S_0
                 component_choice: dict,        # q -> component id (q not in S_0)
                 cuspidal_choice: dict):        # q -> lambda id (q in S_0)
        self.label, self.cuspidal_support = label, cuspidal_support
        self.component_choice, self.cuspidal_choice = component_choice, cuspidal_choice

    def cuspidal_part(self) -> tuple:
        return tuple(sorted(self.cuspidal_choice.items()))


class SelmerTarget:
    __slots__ = ("b", "u_basis")

    def __init__(self,
                 b: dict,                       # lambda id -> Fraction
                 u_basis: list):                # list of {lambda id: Fraction}
        self.b, self.u_basis = b, u_basis

    @property
    def s(self) -> int:
        return len(self.u_basis)


def correction_divisor(model: RegularModelData, q: int, incidence) -> CorrectionDivisor:
    """Phi_q for a divisor with the given incidence vector over q: that of a
    horizontal degree-zero divisor, or M V for a vertical divisor V.

    Phi = -M^+ (incidence), normalized to have coefficient zero on the
    component of the base point.
    """
    fib = model.fibres.get(q)
    if fib is None:
        return CorrectionDivisor(q, {})
    if incidence is None:
        raise MissingIncidence(f"incidence vector over {q} required")
    if len(incidence) != len(fib.components):
        raise MissingIncidence(f"incidence vector over {q} has wrong length")
    phi = [-x for x in fib.pseudoinverse.matvec([Fraction(v) for v in incidence])]
    if fib.base_component:
        i0 = fib.component_index(fib.base_component)
        m0 = fib.components[i0].multiplicity
        shift = phi[i0] / m0
        phi = [x - shift * c.multiplicity for x, c in zip(phi, fib.components)]
    return CorrectionDivisor(fib.prime, {c.id: x for c, x in zip(fib.components, phi)
                                         if x != 0})


def horizontal_intersection(problem: CurveProblem, model: RegularModelData,
                            obj_id: str, point, lam: LambdaRecord) -> Fraction:
    """Contact order i_lambda(closure of point, cusp closure) at lam.

    Uses the plane-chart coordinates when the chart is flagged regular over
    lam's prime; otherwise the value must come from an ingested override.
    """
    key = (obj_id, lam.id)
    if key in model.overrides:
        return Fraction(model.overrides[key])
    q = lam.over_prime
    if q not in model.regular_charts:
        raise NeedsOverride(
            f"no override for ({obj_id}, {lam.id}) and chart not regular over {q}")
    coords = problem.curve.cusp_chart_coords(point.x, point.y)
    if coords is None:
        return Fraction(0)
    cusp = next(c for c in problem.curve.cusps if c.id == lam.cusp)
    field = cusp.nfield
    vals = []
    for pc, qc in zip(coords, cusp.chart_coords):
        diff = field(pc.as_rational()) - qc
        if diff.is_zero():
            continue
        vals.append(lambda_valuation(diff, q, lam.e, lam.f, lam.split_residue))
    if not vals:
        raise NeedsOverride(f"point and cusp {lam.cusp} coincide in the chart")
    i = min(vals)
    return max(Fraction(0), i)


def divisor_incidence(model: RegularModelData, q: int, divisor_id: str,
                      support) -> list:
    """Incidence vector of a horizontal degree-zero divisor over q.

    Prefers an ingested vector for the divisor id; otherwise sums ingested
    per-point vectors over the support.
    """
    fib = model.fibres.get(q)
    if fib is None:
        return []
    if divisor_id in fib.incidences:
        return fib.incidences[divisor_id]
    total = [Fraction(0)] * len(fib.components)
    for pid, mult in support:
        if pid not in fib.incidences:
            raise MissingIncidence(f"no incidence vector for {pid} over {q}")
        total = [t + Fraction(mult) * Fraction(v)
                 for t, v in zip(total, fib.incidences[pid])]
    return total


def enumerate_reduction_types(problem: CurveProblem,
                              model: RegularModelData) -> list:
    """All S-integral reduction types, bad primes and S-members combined.

    Good-reduction primes outside S contribute a forced unique choice and
    are compressed out of the representation.
    """
    S = list(problem.S)
    for q in S:
        if q not in model.transversal_over:
            raise NotTransversal(f"model not flagged D-transversal over {q} in S")
    axes = []
    for q, fib in sorted(model.fibres.items()):
        if q in S:
            continue
        comps = [c.id for c in fib.components if c.multiplicity == 1 and c.has_smooth_point]
        if not comps:
            raise ProblemFileError(f"fibre over {q} has no usable component")
        axes.append((q, [("component", cid) for cid in comps]))
    for q in sorted(S):
        choices = []
        fib = model.fibres.get(q)
        if fib is None:
            choices.append(("component", "fibre"))
        else:
            choices.extend(("component", c.id) for c in fib.components
                           if c.multiplicity == 1 and c.has_smooth_point)
        for lam in model.lambdas_over(q):
            if lam.cuspidal_point and lam.f == 1:
                choices.append(("cusp", lam.id))
        axes.append((q, choices))
    out = []
    for combo in product(*[c for _, c in axes]) if axes else [()]:
        comp_choice = {}
        cusp_choice = {}
        for (q, _), (kind, val) in zip(axes, combo):
            if kind == "component":
                comp_choice[q] = val
            else:
                cusp_choice[q] = val
        label_parts = [f"{q}:{v}" for q, v in sorted(comp_choice.items())]
        label_parts += [f"{q}:cusp {v}" for q, v in sorted(cusp_choice.items())]
        out.append(ReductionType(
            label="Sigma(" + ", ".join(label_parts) + ")" if label_parts else "Sigma(trivial)",
            cuspidal_support=tuple(sorted(cusp_choice)),
            component_choice=comp_choice,
            cuspidal_choice=cusp_choice,
        ))
    return out


def selmer_target(problem: CurveProblem, model: RegularModelData,
                  sigma: ReductionType) -> SelmerTarget:
    """The vector b(P0, Sigma) and the basis of U(Sigma^csp)."""
    b: dict = {}
    base = problem.base_point
    for lam in model.lambdas:
        q = lam.over_prime
        total = -horizontal_intersection(problem, model, "P0", base, lam)
        fib = model.fibres.get(q)
        if fib is not None and len(fib.components) > 1:
            chosen = sigma.component_choice.get(q)
            if chosen is None and q in sigma.cuspidal_choice:
                lam_chosen = model.lambda_by_id(sigma.cuspidal_choice[q])
                if lam_chosen.component_incidences:
                    chosen = max(lam_chosen.component_incidences,
                                 key=lambda cid: Fraction(lam_chosen.component_incidences[cid]))
            if chosen is not None:
                vec = [Fraction(0)] * len(fib.components)
                vec[fib.component_index(chosen)] += 1
                if "P0" not in fib.incidences:
                    raise MissingIncidence(f"no incidence vector for P0 over {q}")
                vec[fib.incidences["P0"].index(1)] -= 1  # a unit vector, checked at load
                corr = correction_divisor(model, q, fib.matrix.matvec(vec))
                total += sum(Fraction(corr.coeffs.get(cid, 0)) * Fraction(inc)
                             for cid, inc in lam.component_incidences.items())
        if total != 0:
            b[lam.id] = total
    u_basis = []
    for q in sigma.cuspidal_support:
        u_basis.append({sigma.cuspidal_choice[q]: Fraction(1)})
    return SelmerTarget(b=b, u_basis=u_basis)


def check_pi_compatibility(problem: CurveProblem, model: RegularModelData) -> None:
    """Product over lambda | q of pi^e must equal rho_q up to torsion.

    Checked through valuations (norms) and through every p-adic embedding
    (the Iwasawa log kills the torsion ambiguity).
    """
    for cusp in problem.curve.cusps:
        lams = [lam for lam in model.lambdas if lam.cusp == cusp.id]
        by_q: dict = {}
        for lam in lams:
            by_q.setdefault(lam.over_prime, []).append(lam)
        for q, group in by_q.items():
            rho = Fraction(model.rho.get(q, q))
            efsum = sum(lam.e * lam.f for lam in group)
            if efsum > cusp.nfield.degree:
                raise ProblemFileError(
                    f"the records over {q} at cusp {cusp.id} have sum of e f = {efsum}, "
                    f"above the degree {cusp.nfield.degree} of the cusp field")
            if efsum < cusp.nfield.degree:
                # records do not list every prime over q; skip the identity check
                continue
            for lam in group:
                v = Fraction(_vp(lam.generator.norm(), q)) * lam.gen_exponent
                if v != lam.f:
                    raise ProblemFileError(
                        f"pi of {lam.id}, its generator to the power {lam.gen_exponent}, "
                        f"has q-norm valuation {v}, expected f = {lam.f}")
            gen_logs = [problem.logs(cusp, lam.generator) for lam in group]
            for k, target in enumerate(problem.logs(cusp, cusp.nfield(rho))):
                diff = reduce(add, (logs[k] * lam.gen_exponent * lam.e
                                    for lam, logs in zip(group, gen_logs))) - target
                if not diff.is_zero():
                    raise ProblemFileError(
                        f"pi-compatibility fails over {q} at cusp {cusp.id}: {diff}")
