"""The Chabauty engine: pairing H, block matrix M, annihilating differentials,
constants, per-disc root loci and the determinant criterion."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .curves import CurveProblem, LogDifferential, ResidueDisc
from .errors import (
    ChabautyError,
    EndpointRestriction,
    IndistinguishableFromZero,
    PoleOnDisc,
    PrecisionLoss,
)
from .integration import Integrator, residue_log_sum
from .linalg import padic_det, padic_kernel
from .models import (
    LambdaRecord,
    RegularModelData,
    ReductionType,
    SelmerTarget,
    check_pi_compatibility,
    correction_divisor,
    divisor_incidence,
    enumerate_reduction_types,
    horizontal_intersection,
    selmer_target,
)
from .padics import PadicNumber, _vp, iwasawa_log, render_padic
from .series import formal_antiderivative, strassmann_roots

DETERMINANT_SUBSETS = 200  # point subsets per cuspidal part checked by verify()


@dataclass
class NamedPoint:
    id: str
    x: Fraction
    y: Fraction

    def __iter__(self):
        return iter((self.x, self.y))


@dataclass
class MWGenerator:
    id: str
    divisor: list          # [(NamedPoint, multiplicity)], degree zero, support in Y


@dataclass
class UnitGenerator:
    id: str
    values: dict           # cusp id -> NFElement (unit of O_k(Q))


@dataclass
class ChabautyMatrix:
    rows: list             # of lists of PadicNumber
    row_labels: list
    shape: tuple
    blocks: dict           # 'r', 'k', 's', 'g', 'n'


@dataclass
class DiscRoot:
    t: PadicNumber
    x: PadicNumber
    y: PadicNumber
    matched: tuple | None


@dataclass
class DiscLocus:
    disc: ResidueDisc
    status: str            # 'ok' | 'unresolved' | 'cuspidal'
    bound: int | None = None
    roots: list = field(default_factory=list)
    reason: str = ""


@dataclass
class TypeRecord:
    """What the engine builds once per reduction type: its Selmer target,
    the kernel of its cuspidal part (annihilator(), shared by every type
    with that part) and c(b, omega) for each kernel differential."""
    target: SelmerTarget
    kernel: tuple | None = None
    constants: list | None = None


class Engine:
    def __init__(self, problem: CurveProblem, model: RegularModelData,
                 generators: list, units: list | None = None,
                 imported=(), known_points: list | None = None):
        self.problem = problem
        self.model = model.validate()
        self.generators = generators
        self.units = units or []
        self.known_points = known_points or []
        self.integrator = Integrator(problem, imported)
        self._emb = {}
        self._gen_int_cache = {}
        self._types = {}      # type label -> TypeRecord
        self._kernels = {}    # cuspidal part -> annihilator()
        self._cusps = {c.id: c for c in problem.curve.cusps}
        check_pi_compatibility(problem, model)

    # -- small helpers ---------------------------------------------------------

    def embeddings(self, cusp):
        if cusp.id not in self._emb:
            self._emb[cusp.id] = self.problem.embeddings(cusp)
        return self._emb[cusp.id]

    def _lam_log(self, phi, lam: LambdaRecord) -> PadicNumber:
        return iwasawa_log(phi(lam.generator)) * lam.gen_exponent

    def _residue_log_sum(self, omega: LogDifferential, terms) -> PadicNumber:
        return residue_log_sum(self.problem.p, omega, terms, self.embeddings)

    def _lambda_terms(self, pairs) -> list:
        """Terms of sum_lambda coeff * log phi(pi_lambda) for (lambda, coeff) pairs."""
        return [(self._cusps[lam.cusp], partial(self._lam_log, lam=lam), coeff)
                for lam, coeff in pairs]

    def _lambda_terms_by_id(self, coeffs: dict) -> list:
        return self._lambda_terms((self.model.lambda_by_id(lid), c) for lid, c in coeffs.items())

    def base_pair(self):
        return (self.problem.base_point.x, self.problem.base_point.y)

    # -- the Chabauty condition ---------------------------------------------------

    def check_chabauty_condition(self, sigma: ReductionType):
        """Per-type refinement r + #C(Sigma) < g + #|D| + n2(D) - 1 over Q."""
        counts = self.problem.counts()
        lhs = len(self.generators) + len(sigma.cuspidal_support)
        rhs = counts["g"] + counts["num_cusps"] + counts["n2"] - 1
        return lhs < rhs, rhs - lhs

    # -- intersection sums and the pairing H ----------------------------------------

    def psi_lambda(self, gen: MWGenerator, lam: LambdaRecord) -> Fraction:
        """i_lambda(Psi_q(G), cusp closure) = horizontal + correction parts."""
        total = Fraction(0)
        for pt, mult in gen.divisor:
            total += Fraction(mult) * horizontal_intersection(
                self.problem, self.model, pt.id, pt, lam)
        q = lam.over_prime
        if q in self.model.fibres and len(self.model.fibres[q].components) > 1:
            support = [(pt.id, mult) for pt, mult in gen.divisor]
            inc = divisor_incidence(self.model, q, gen.id, support)
            corr = correction_divisor(self.model, q, inc)
            for cid, i_l in lam.component_incidences.items():
                total += corr.coeffs.get(cid, Fraction(0)) * Fraction(i_l)
        return total

    def generator_integrals(self, gen: MWGenerator) -> list:
        if gen.id not in self._gen_int_cache:
            basis = self.problem.curve.basis()
            vec = []
            divisor = [((pt.x, pt.y), m) for pt, m in gen.divisor]
            for omega in basis:
                vec.append(self.integrator.divisor_integral(omega, divisor).value)
            self._gen_int_cache[gen.id] = vec
        return self._gen_int_cache[gen.id]

    def pairing_H(self, gen: MWGenerator, omega: LogDifferential) -> PadicNumber:
        """H(G, omega) = int_G omega - sum_(Q,phi,lambda) phi(Res) i_lambda(Psi) log phi(pi)."""
        vec = self.generator_integrals(gen)
        acc = PadicNumber.exact_zero(self.problem.p)
        for a, v in zip(omega.coeffs, vec):
            acc = acc + v * a
        return acc - self._H_correction(gen, omega)

    def _H_correction(self, gen: MWGenerator, omega: LogDifferential) -> PadicNumber:
        psi = [(lam, self.psi_lambda(gen, lam)) for lam in self.model.lambdas]
        return self._residue_log_sum(
            omega, self._lambda_terms((lam, i_l) for lam, i_l in psi if i_l != 0))

    # -- matrix assembly --------------------------------------------------------------

    def assemble_M(self, sigma: ReductionType) -> tuple:
        """(ChabautyMatrix, SelmerTarget) for the reduction type."""
        st = self.type_record(sigma).target
        counts = self.problem.counts()
        g, n = counts["g"], counts["n"]
        basis = self.problem.curve.basis()
        p = self.problem.p
        rows = []
        labels = []
        for gen in self.generators:
            vec = self.generator_integrals(gen)
            row = list(vec[:g])
            for j in range(g, g + n - 1):
                row.append(self.pairing_H(gen, basis[j]))
            rows.append(row)
            labels.append(f"A|B {gen.id}")
        for ug in self.units:
            # PadicNumber * 1 keeps v, u and N, so the unit coefficient moves no digit
            terms = [(cusp, lambda phi, val=val: iwasawa_log(phi(val)), 1)
                     for cusp in self.problem.curve.cusps
                     if (val := ug.values.get(cusp.id)) is not None and not val.is_zero()]
            rows.append([PadicNumber.exact_zero(p)] * g
                        + [self._residue_log_sum(basis[j], terms) for j in range(g, g + n - 1)])
            labels.append(f"C {ug.id}")
        for i, u in enumerate(st.u_basis):
            terms = self._lambda_terms_by_id(u)
            rows.append([PadicNumber.exact_zero(p)] * g
                        + [self._residue_log_sum(basis[j], terms) for j in range(g, g + n - 1)])
            labels.append(f"D(U) u{i + 1}")
        mat = ChabautyMatrix(rows=rows, row_labels=labels,
                             shape=(len(rows), g + n - 1),
                             blocks={"r": len(self.generators), "k": len(self.units),
                                     "s": st.s, "g": g, "n": n})
        return mat, st

    def annihilator(self, sigma: ReductionType):
        """Kernel basis of M(Sigma^csp) as (vectors, differentials, matrix, target)."""
        mat, st = self.assemble_M(sigma)
        if mat.rows:
            vectors = padic_kernel(mat.rows).basis
        else:
            # degenerate shape (no generators, units or cuspidal primes): every
            # basis differential annihilates
            p = self.problem.p
            n = mat.shape[1]
            one = PadicNumber.from_int(1, p, self.problem.prec + 8)
            vectors = [[one if i == j else PadicNumber.exact_zero(p) for i in range(n)]
                       for j in range(n)]
        omegas = [self.problem.curve.differential(v) for v in vectors]
        return vectors, omegas, mat, st

    def type_record(self, sigma: ReductionType) -> TypeRecord:
        """The record of sigma; its Selmer target is built on first use."""
        rec = self._types.get(sigma.label)
        if rec is None:
            rec = self._types[sigma.label] = TypeRecord(
                selmer_target(self.problem, self.model, sigma))
        return rec

    def locus_record(self, sigma: ReductionType) -> TypeRecord:
        """The record of sigma with its kernel and constants filled in."""
        rec = self.type_record(sigma)
        if rec.constants is None:
            csp = sigma.cuspidal_part()
            if csp not in self._kernels:
                self._kernels[csp] = self.annihilator(sigma)
            rec.kernel = self._kernels[csp]
            rec.constants = [self.constant_c(rec.target, om) for om in rec.kernel[1]]
        return rec

    # -- constants ----------------------------------------------------------------------

    def constant_c(self, st: SelmerTarget, omega: LogDifferential) -> PadicNumber:
        """c(b, omega) = sum_(Q,phi) phi(Res_Q omega) sum_lambda b_lambda log phi(pi_lambda)."""
        return self._residue_log_sum(omega, self._lambda_terms_by_id(st.b))

    # -- loci ------------------------------------------------------------------------------

    def disc_locus(self, pairs, disc: ResidueDisc) -> DiscLocus:
        """Roots of int_P0^. omega = c on one disc, for a list of (omega, c) pairs.

        Several pairs (a kernel of dimension > 1) intersect their root sets.
        """
        if disc.cuspidal:
            return DiscLocus(disc, "cuspidal", reason="boundary disc excluded from search")
        I = self.integrator
        base = self.base_pair()
        try:
            cx, cy = I.disc_center(disc)
            base_disc = I._disc_of(base)
            same_disc = (base_disc.xbar, base_disc.ybar, base_disc.kind) == \
                (disc.xbar, disc.ybar, disc.kind)
            root_sets = []
            bound = None
            for omega, c in pairs:
                if same_disc:
                    const = I.tiny_integral(omega, base, (cx, cy)).value - c
                else:
                    const = I.integral(omega, base, (cx, cy)).value - c
                exp = I.expand_differential_on_disc(omega, disc)
                rho = formal_antiderivative(exp.series) + const
                res = strassmann_roots(rho)
                root_sets.append(res.roots)
                bound = res.bound if bound is None else min(bound, res.bound)
        except (EndpointRestriction, PrecisionLoss, PoleOnDisc, IndistinguishableFromZero) as e:
            return DiscLocus(disc, "unresolved", reason=f"{type(e).__name__}: {e}")
        roots = root_sets[0]
        for other in root_sets[1:]:
            roots = [(t, m) for (t, m) in roots
                     if any(self._same_root(t, t2) for t2, _ in other)]
        out = []
        for t, mult in roots:
            xv = exp.xs.evaluate(t)
            yv = exp.ys.evaluate(t)
            out.append(DiscRoot(t=t, x=xv, y=yv, matched=self._match_known(xv, yv)))
        return DiscLocus(disc, "ok", bound=bound, roots=out)

    @staticmethod
    def _same_root(t1: PadicNumber, t2: PadicNumber) -> bool:
        return t1.compare(t2) != "distinct"

    def _match_known(self, xv: PadicNumber, yv: PadicNumber):
        candidates = list(self.known_points)
        bp = self.problem.base_point
        if not any(Fraction(pt.x) == bp.x and Fraction(pt.y) == bp.y
                   for pt in candidates):
            candidates.append(NamedPoint("P0", bp.x, bp.y))
        for pt in candidates:
            okx = xv.compare(Fraction(pt.x)) != "distinct" if not xv.is_exact_zero() \
                else Fraction(pt.x) == 0
            oky = yv.compare(Fraction(pt.y)) != "distinct" if not yv.is_exact_zero() \
                else Fraction(pt.y) == 0
            if okx and oky:
                return (pt.x, pt.y)
        return None

    # -- determinant criterion -----------------------------------------------------------

    def determinant_criterion(self, labeled_points) -> PadicNumber:
        """det( int_P0^Pi omega_j - c(P0, Sigma_i, omega_j) ) for points sharing a
        cuspidal part; labeled_points is [(point-pair, ReductionType)]."""
        basis = self.problem.curve.basis()
        size = len(basis)
        if len(labeled_points) != size:
            raise ValueError(f"need exactly {size} points")
        base = self.base_pair()
        rows = []
        for pt, sigma in labeled_points:
            st = self.type_record(sigma).target
            vec = self.integrator.basis_integral_vector(base, pt)
            row = [vec[j] - self.constant_c(st, basis[j]) for j in range(size)]
            rows.append(row)
        return padic_det(rows)

    # -- orchestration ----------------------------------------------------------------------

    def solve(self, sigma: int | None = None) -> dict:
        """The locus report over all reduction types, or only over the type
        with index sigma in enumeration order; points and status then
        describe that type alone."""
        types = enumerate_reduction_types(self.problem, self.model)
        if sigma is not None:
            if not 0 <= sigma < len(types):
                raise ChabautyError(f"reduction type index {sigma} is out of range "
                                    f"0..{len(types) - 1}")
            types = [types[sigma]]
        discs = self.integrator.residue_discs()
        report = {
            "problem": self.problem.label,
            "p": self.problem.p,
            "prec": self.problem.prec,
            "counts": self.problem.counts(),
            "reduction_types": [],
            "status": "complete",
        }
        matched, extra, unresolved = [], [], []
        for sigma in types:
            entry = {"label": sigma.label,
                     "cuspidal_support": list(sigma.cuspidal_support)}
            ok, slack = self.check_chabauty_condition(sigma)
            entry["condition"] = {"holds": ok, "slack": slack}
            if not ok:
                entry["error"] = "Chabauty condition fails for this type"
                report["reduction_types"].append(entry)
                report["status"] = "partial"
                continue
            try:
                rec = self.locus_record(sigma)
            except ChabautyError as e:
                entry["error"] = f"{type(e).__name__}: {e}"
                report["reduction_types"].append(entry)
                report["status"] = "partial"
                continue
            vectors, omegas, mat, _ = rec.kernel
            cs = rec.constants
            entry["matrix"] = [[render_padic(x.at_precision(self.problem.prec))
                                for x in row] for row in mat.rows]
            entry["row_labels"] = mat.row_labels
            entry["kernel"] = [[render_padic(x) for x in vec] for vec in vectors]
            entry["certificates"] = {
                "matrix_precision": min((x.N for row in mat.rows for x in row
                                         if not x.is_exact_zero()), default=None),
                "kernel_precision": min((x.N for vec in vectors for x in vec
                                         if not x.is_exact_zero()), default=None),
            }
            entry["b"] = {k: str(v) for k, v in rec.target.b.items()}
            entry["c"] = [render_padic(c) if isinstance(c, PadicNumber) else str(c)
                          for c in cs]
            entry["discs"] = []
            for disc in discs:
                locus = self.disc_locus(list(zip(omegas, cs)), disc)
                drec = {"disc": repr(disc), "status": locus.status}
                if locus.status == "ok":
                    drec["bound"] = locus.bound
                    drec["roots"] = []
                    show = self.problem.prec + 2
                    for r in locus.roots:
                        rec = {"t": render_padic(r.t.at_precision(show)),
                               "x": render_padic(r.x.at_precision(show)),
                               "y": render_padic(r.y.at_precision(show)),
                               "matched": [str(r.matched[0]), str(r.matched[1])]
                               if r.matched else None}
                        drec["roots"].append(rec)
                        if r.matched:
                            matched.append(r.matched)
                        else:
                            extra.append((sigma.label, repr(disc), rec))
                elif locus.status == "unresolved":
                    drec["reason"] = locus.reason
                    unresolved.append((sigma.label, repr(disc), locus.reason))
                    report["status"] = "partial"
                entry["discs"].append(drec)
            report["reduction_types"].append(entry)
        report["points"] = {
            "matched_known": sorted({(str(a), str(b)) for a, b in matched}),
            "extra_candidates": [e[2] for e in extra],
            "unresolved_discs": [{"sigma": s, "disc": d, "reason": r}
                                 for s, d, r in unresolved],
        }
        report["pinned_integrals"] = self._pin_integrals()
        return report

    def _pin_integrals(self) -> list:
        out = []
        base = self.base_pair()
        for gen in self.generators:
            for pt, mult in gen.divisor:
                vec = self.integrator.cached_vector(base, (pt.x, pt.y))
                if vec is not None:
                    out.append({"from": [str(base[0]), str(base[1])],
                                "to": [str(pt.x), str(pt.y)],
                                "values": [render_padic(v) for v in vec]})
        return out

    def verify(self) -> dict:
        """Vanishing checks on the known points.

        A point passes when its residual vanishes for some reduction type
        compatible with its (possibly partially known) component data; the
        exact type is pinned down only when the point's incidence vectors
        are ingested.
        """
        types = enumerate_reduction_types(self.problem, self.model)
        rows = []
        base = self.base_pair()
        for pt in self.known_points:
            if not self.problem.curve.contains(pt.x, pt.y):
                rows.append({"point": [str(pt.x), str(pt.y)],
                             "sigma": None, "pass": False,
                             "error": "point is not on the curve"})
                continue
            candidates = self._candidate_types(pt, types)
            best = None
            for sigma in candidates:
                tr = self.locus_record(sigma)
                residuals = [self.integrator.integral(om, base, (pt.x, pt.y)).value - c
                             for om, c in zip(tr.kernel[1], tr.constants)]
                ok = all(v.is_zero() for v in residuals)
                rec = {
                    "point": [str(pt.x), str(pt.y)],
                    "sigma": sigma.label,
                    "residual_valuations": [
                        ("inf" if v.is_zero() else v.v) if not v.is_exact_zero() else "inf"
                        for v in residuals],
                    "residuals": [render_padic(v) for v in residuals],
                    "pass": ok,
                }
                if ok:
                    best = rec
                    break
                if best is None:
                    best = rec
            rows.append(best)
        dets = self._verify_determinants(types)
        return {"problem": self.problem.label, "points": rows,
                "determinants": dets,
                "pass": all(r["pass"] for r in rows) and all(d["pass"] for d in dets)}

    def _verify_determinants(self, types) -> list:
        """Determinant criterion over subsets of known points sharing a
        cuspidal part; skipped (empty) when fewer than g+n-1 points qualify."""
        import itertools as _it

        size = len(self.problem.curve.basis())
        groups: dict = {}
        for pt in self.known_points:
            if not self.problem.curve.contains(pt.x, pt.y):
                continue
            try:
                sigma = self._candidate_types(pt, types)[0]
            except ChabautyError:
                continue
            groups.setdefault(sigma.cuspidal_part(), []).append((pt, sigma))
        out = []
        for csp, members in groups.items():
            if len(members) < size:
                continue
            for subset in _it.islice(_it.combinations(members, size), DETERMINANT_SUBSETS):
                det = self.determinant_criterion(
                    [((pt.x, pt.y), sigma) for pt, sigma in subset])
                out.append({
                    "points": [[str(pt.x), str(pt.y)] for pt, _ in subset],
                    "valuation": "inf" if det.is_zero() else det.v,
                    "precision": det.N,
                    "pass": det.is_zero(),
                })
        return out

    def _candidate_types(self, pt, types) -> list:
        """Reduction types compatible with the point's known reduction data."""
        cusp_at = {}
        for q in self.problem.S:
            lam = self._cuspidal_reduction(pt, q)
            if lam is not None:
                cusp_at[q] = lam.id
        out = []
        for sigma in types:
            if set(sigma.cuspidal_support) != set(cusp_at):
                continue
            if any(sigma.cuspidal_choice[q] != cusp_at[q] for q in cusp_at):
                continue
            good = True
            for q, fib in self.model.fibres.items():
                want = sigma.component_choice.get(q)
                if want is None:
                    if q in cusp_at:
                        continue
                    good = False
                    break
                pid = getattr(pt, "id", None)
                vec = fib.incidences.get(pid or "")
                if vec is None:
                    vec = fib.incidences.get(f"({pt.x},{pt.y})")
                if vec is None:
                    continue  # component unknown: any choice stays possible
                idx = max(range(len(vec)), key=lambda i: Fraction(vec[i]))
                if fib.components[idx].id != want:
                    good = False
                    break
            if good:
                out.append(sigma)
        if not out:
            raise ChabautyError(f"no reduction type matches the point ({pt.x},{pt.y})")
        return out

    def _cuspidal_reduction(self, pt, q: int):
        """The lambda record the point reduces onto modulo q in S, or None."""
        x = Fraction(pt.x)
        if x == 0 or _vp(x, q) >= 0:
            return None
        coords = self.problem.curve.cusp_chart_coords(pt.x, pt.y)
        if coords is None:
            raise ChabautyError("point reduces to the boundary but has no chart coordinates")
        u = coords[0].as_rational()
        ubar = (u.numerator * pow(u.denominator, -1, q)) % q
        for lam in self.model.lambdas_over(q):
            if not lam.cuspidal_point:
                continue
            cu = self._cusps[lam.cusp].chart_coords[0]
            if cu.is_rational():
                target = cu.as_rational()
                tbar = (target.numerator * pow(target.denominator, -1, q)) % q
            else:
                tbar = lam.split_residue
            if tbar is not None and tbar % q == ubar:
                return lam
        raise ChabautyError(f"point reduces to an unlisted cusp point modulo {q}")
