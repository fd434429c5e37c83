"""The Chabauty engine: pairing H, block matrix M, annihilating differentials,
constants, per-disc root loci and the determinant criterion."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice

from .curves import CurveProblem, LogDifferential, ResidueDisc
from .errors import (
    ChabautyError,
    EndpointRestriction,
    IndistinguishableFromZero,
    PoleOnDisc,
    PrecisionLoss,
)
from .integration import Integrator, _dot, residue_log_sum
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
from .padics import PadicNumber, _vp, render_padic
from .series import antiderivative, strassmann_roots

DETERMINANT_SUBSETS = 200  # point subsets per cuspidal part checked by verify()


class MWGenerator:
    __slots__ = ("id", "divisor")

    def __init__(self, id: str,
                 divisor: list):    # [(KnownPoint, multiplicity)], degree zero, support in Y
        self.id, self.divisor = id, divisor


class UnitGenerator:
    __slots__ = ("id", "values")

    def __init__(self, id: str,
                 values: dict):     # cusp id -> NFElement (unit of O_k(Q))
        self.id, self.values = id, values


class ChabautyMatrix:
    __slots__ = ("rows", "row_labels", "shape", "blocks")

    def __init__(self,
                 rows: list,        # of lists of PadicNumber
                 row_labels: list, shape: tuple,
                 blocks: dict):     # 'r', 'k', 's', 'g', 'n'
        self.rows, self.row_labels, self.shape, self.blocks = rows, row_labels, shape, blocks


class DiscRoot:
    __slots__ = ("t", "x", "y", "matched")

    def __init__(self, t: PadicNumber, x: PadicNumber, y: PadicNumber, matched: tuple | None):
        self.t, self.x, self.y, self.matched = t, x, y, matched


class DiscLocus:
    __slots__ = ("disc", "status", "bound", "roots", "reason")

    def __init__(self, disc: ResidueDisc,
                 status: str,       # 'ok' | 'unresolved' | 'cuspidal'
                 bound: int | None = None, roots: list | None = None, reason: str = ""):
        self.disc, self.status, self.bound = disc, status, bound
        self.roots, self.reason = [] if roots is None else roots, reason


class TypeRecord:
    """What the engine builds once per reduction type: its Selmer target, the kernel
    of its cuspidal part (annihilator(), shared by every type with that part), and
    c(b, omega) for each kernel and each basis differential."""

    __slots__ = ("target", "kernel", "constants", "basis_constants")

    def __init__(self, target: SelmerTarget, kernel: tuple | None = None,
                 constants: list | None = None, basis_constants: list | None = None):
        self.target, self.kernel = target, kernel
        self.constants, self.basis_constants = constants, basis_constants


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
        self._gen_int_cache = {}
        self._types = {}      # type label -> TypeRecord
        self._kernels = {}    # cuspidal part -> annihilator()
        self._cusps = {c.id: c for c in problem.curve.cusps}
        check_pi_compatibility(problem, model)

    # -- small helpers ---------------------------------------------------------

    def _residue_log_sum(self, omega: LogDifferential, terms) -> PadicNumber:
        return residue_log_sum(self.problem.p, omega, terms, self.problem.embeddings)

    def _lambda_terms(self, pairs) -> list:
        """Terms of sum_lambda coeff * log phi(pi_lambda) for (lambda, coeff) pairs,
        with log phi(pi_lambda) = log phi(generator) * gen_exponent."""
        terms = []
        for lam, coeff in pairs:
            cusp = self._cusps[lam.cusp]
            logs = self.problem.logs(cusp, lam.generator)
            terms.append((cusp, [log * lam.gen_exponent for log in logs], coeff))
        return terms

    def _lambda_terms_by_id(self, coeffs: dict) -> list:
        return self._lambda_terms((self.model.lambda_by_id(lid), c) for lid, c in coeffs.items())

    def _unit_terms(self, ug: UnitGenerator) -> list:
        """Terms of sum_Q log phi(u_Q) over the cusps where the unit has a value."""
        # PadicNumber * 1 keeps v, u and N, so the unit coefficient moves no digit
        return [(cusp, self.problem.logs(cusp, val), 1) for cusp in self.problem.curve.cusps
                if (val := ug.values.get(cusp.id)) is not None and not val.is_zero()]

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
        if gen.id not in self._gen_int_cache:  # [integrals, H terms once pairing_H asks]
            self._gen_int_cache[gen.id] = [[self.integrator.divisor_integral(omega, gen.divisor)
                                            for omega in self.problem.curve.basis()], None]
        return self._gen_int_cache[gen.id][0]

    def pairing_H(self, gen: MWGenerator, omega: LogDifferential) -> PadicNumber:
        """H(G, omega) = int_G omega - sum_(Q,phi,lambda) phi(Res) i_lambda(Psi) log phi(pi)."""
        return _dot(omega.coeffs, self.generator_integrals(gen)) - self._H_correction(gen, omega)

    def _H_correction(self, gen: MWGenerator, omega: LogDifferential) -> PadicNumber:
        """The log terms of H; psi depends on neither sigma nor omega, so its
        terms are built once per generator, next to the generator's integrals."""
        record = self._gen_int_cache[gen.id]
        if record[1] is None:
            psi = [(lam, self.psi_lambda(gen, lam)) for lam in self.model.lambdas]
            record[1] = self._lambda_terms((lam, i_l) for lam, i_l in psi if i_l != 0)
        return self._residue_log_sum(omega, record[1])

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
        log_rows = [(f"C {ug.id}", self._unit_terms(ug)) for ug in self.units]
        log_rows += [(f"D(U) u{i + 1}", self._lambda_terms_by_id(u))
                     for i, u in enumerate(st.u_basis)]
        for label, terms in log_rows:
            rows.append([PadicNumber.exact_zero(p)] * g
                        + [self._residue_log_sum(basis[j], terms) for j in range(g, g + n - 1)])
            labels.append(label)
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

        Only the constant int_P0^center omega - c is per type; omega's expansion
        is shared.  Several pairs (a kernel of dimension > 1) intersect their root sets.
        """
        if disc.cuspidal:
            return DiscLocus(disc, "cuspidal", reason="boundary disc excluded from search")
        I = self.integrator
        base = self.problem.base_point
        try:
            root_sets = []
            bound = None
            for omega, c in pairs:
                exp = I.expand_differential_on_disc(omega, disc)
                center = exp.xs.padic(0), exp.ys.padic(0)
                const = I.integral(omega, base, center) - c
                res = strassmann_roots(antiderivative(exp.series, const))
                root_sets.append(res.roots)
                bound = res.bound if bound is None else min(bound, res.bound)
        except (EndpointRestriction, PrecisionLoss, PoleOnDisc, IndistinguishableFromZero) as e:
            return DiscLocus(disc, "unresolved", reason=f"{type(e).__name__}: {e}")
        roots = root_sets[0]
        for other in root_sets[1:]:
            roots = [(t, m) for (t, m) in roots
                     if any(t.compare(t2) != "distinct" for t2, _ in other)]
        out = []
        for t, mult in roots:
            xv = exp.xs.evaluate(t)
            yv = exp.ys.evaluate(t)
            out.append(DiscRoot(t=t, x=xv, y=yv, matched=self._match_known(xv, yv)))
        return DiscLocus(disc, "ok", bound=bound, roots=out)

    def _match_known(self, xv: PadicNumber, yv: PadicNumber):
        for pt in [*self.known_points, self.problem.base_point]:
            okx = xv.compare(pt.x) != "distinct" if not xv.is_exact_zero() else pt.x == 0
            oky = yv.compare(pt.y) != "distinct" if not yv.is_exact_zero() else pt.y == 0
            if okx and oky:
                return (pt.x, pt.y)
        return None

    # -- determinant criterion -----------------------------------------------------------

    def determinant_criterion(self, labeled_points) -> PadicNumber:
        """det( int_P0^Pi omega_j - c(P0, Sigma_i, omega_j) ) for points sharing a
        cuspidal part; labeled_points is [(point (x, y), ReductionType)]."""
        basis = self.problem.curve.basis()
        size = len(basis)
        if len(labeled_points) != size:
            raise ValueError(f"need exactly {size} points")
        base = self.problem.base_point
        rows = []
        for pt, sigma in labeled_points:
            rec = self.type_record(sigma)
            if rec.basis_constants is None:
                rec.basis_constants = [self.constant_c(rec.target, om) for om in basis]
            vec = self.integrator.basis_integral_vector(base, pt)
            rows.append([vec[j] - rec.basis_constants[j] for j in range(size)])
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
            entry["c"] = [render_padic(c) for c in cs]
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
        """The basis integral vectors the generator rows used, as
        imported_integrals records: the pairs of divisor_pairs, which start at
        each divisor's first point and skip the pair from it to itself."""
        out = []
        for gen in self.generators:
            for base, pt, _ in self.integrator.divisor_pairs(gen.divisor):
                vec = self.integrator.cached_vector(base, pt)
                if vec is not None:
                    out.append({"from": [str(c) for c in base], "to": [str(c) for c in pt],
                                "values": [render_padic(v) for v in vec]})
        return out

    def verify(self) -> dict:
        """Vanishing checks on the known points.

        A point passes when its residual vanishes for some reduction type
        compatible with its (possibly partially known) component data; the
        exact type is pinned down only when the point's incidence vectors
        are ingested.  A point that matches no reduction type, or a type whose
        locus data or integral fails, gives the point a failing row that
        carries the typed error.  The determinant groups take each point's
        first compatible type.
        """
        types = enumerate_reduction_types(self.problem, self.model)
        rows = []
        groups: dict = {}      # cuspidal part -> [(point, its first compatible type)]
        base = self.problem.base_point
        for pt in self.known_points:
            point = [str(pt.x), str(pt.y)]
            if not self.problem.curve.contains(pt.x, pt.y):
                rows.append({"point": point, "sigma": None, "pass": False,
                             "error": "point is not on the curve"})
                continue
            try:
                candidates = self._candidate_types(pt, types)
            except ChabautyError as e:
                rows.append({"point": point, "sigma": None, "pass": False,
                             "error": f"{type(e).__name__}: {e}"})
                continue
            groups.setdefault(candidates[0].cuspidal_part(), []).append((pt, candidates[0]))
            best = None
            for sigma in candidates:
                try:
                    tr = self.locus_record(sigma)
                    residuals = [self.integrator.integral(om, base, pt) - c
                                 for om, c in zip(tr.kernel[1], tr.constants)]
                except ChabautyError as e:
                    best = best or {"point": point, "sigma": sigma.label,
                                    "pass": False, "error": f"{type(e).__name__}: {e}"}
                    continue
                ok = all(v.is_zero() for v in residuals)
                rec = {
                    "point": point,
                    "sigma": sigma.label,
                    "residual_valuations": ["inf" if v.is_zero() else v.v for v in residuals],
                    "residuals": [render_padic(v) for v in residuals],
                    "pass": ok,
                }
                if ok:
                    best = rec
                    break
                if best is None:
                    best = rec
            rows.append(best)
        # the determinant criterion over subsets of g+n-1 points of one group
        size = len(self.problem.curve.basis())
        dets = []
        for members in groups.values():
            for subset in islice(combinations(members, size), DETERMINANT_SUBSETS):
                det = self.determinant_criterion(subset)
                dets.append({
                    "points": [[str(pt.x), str(pt.y)] for pt, _ in subset],
                    "valuation": "inf" if det.is_zero() else det.v,
                    "precision": det.N,
                    "pass": det.is_zero(),
                })
        return {"problem": self.problem.label, "points": rows,
                "determinants": dets,
                "pass": all(r["pass"] for r in rows) and all(d["pass"] for d in dets)}

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
                if want is None:  # a cusp choice: q is in cusp_at
                    continue
                vec = fib.incidences.get(pt.id)
                if vec is None:
                    vec = fib.incidences.get(f"({pt.x},{pt.y})")
                if vec is None:
                    continue  # component unknown: any choice stays possible
                if fib.components[vec.index(1)].id != want:  # a unit vector, checked at load
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
