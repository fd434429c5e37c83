"""Problem-file ingestion: JSON schema, validation and Engine construction."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .curves import CurveProblem, KnownPoint, _is_prime, make_curve
from .engine import Engine, MWGenerator, UnitGenerator
from .errors import ProblemFileError
from .linalg import RationalMatrix
from .models import ComponentData, FibreData, LambdaRecord, RegularModelData
from .padics import parse_padic

SCHEMA = "affine-chabauty-problem/1"


_REQUIRED = object()
_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "true or false"}


def _frac(v, where: str) -> Fraction:
    """A rational given as a JSON integer or a string such as "-3/4"."""
    if isinstance(v, str) or isinstance(v, int) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ProblemFileError(f"field {where!r} must be a rational, got {v!r}")


def _int(v, where: str) -> int:
    """An integer given as a JSON integer or a string such as "487"."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    raise ProblemFileError(f"field {where!r} must be an integer, got {v!r}")


def _padic(v, p: int, where: str):
    """A p-adic number in the digit-string form that render_padic writes."""
    if isinstance(v, str):
        try:
            return parse_padic(v, p)
        except (ValueError, ZeroDivisionError):
            pass
    raise ProblemFileError(f"field {where!r} must be a p-adic number, got {v!r}")


def _prime(q: int, where: str) -> int:
    if not _is_prime(q):
        raise ProblemFileError(f"field {where!r} must be a prime, got {q}")
    return q


def _fracs(v, where: str) -> list:
    if not isinstance(v, list):
        raise ProblemFileError(f"field {where!r} must be an array, got {v!r}")
    return [_frac(c, f"{where}[{i}]") for i, c in enumerate(v)]


class _Record:
    """One JSON object of a problem file and its path, e.g. 'units[0]'.  Each
    read checks the field's type and names the field's path when it fails."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ProblemFileError(f"field {path!r} must be an object, got {data!r}")
        self.data, self.path = data, path

    def at(self, key) -> str:
        return f"{self.path}.{key}" if self.path else key

    def raw(self, key, default=_REQUIRED):
        if key in self.data:
            return self.data[key]
        if default is _REQUIRED:
            raise ProblemFileError(f"problem file lacks the required field {self.at(key)!r}")
        return default

    def get(self, key, kind: type, default=_REQUIRED):
        value = self.raw(key, default)
        if not isinstance(value, kind) and value is not default:
            raise ProblemFileError(f"field {self.at(key)!r} must be {_KINDS[kind]}, got {value!r}")
        return value

    def record(self, key, default=_REQUIRED) -> "_Record":
        return _Record(self.get(key, dict, default), self.at(key))

    def records(self, key) -> list:
        """The optional array of objects at key."""
        return [_Record(r, f"{self.at(key)}[{i}]") for i, r in enumerate(self.get(key, list, []))]

    def frac(self, key, default=_REQUIRED) -> Fraction:
        value = self.raw(key, default)
        return value if value is default else _frac(value, self.at(key))

    def int(self, key, default=_REQUIRED) -> int:
        value = self.raw(key, default)
        return value if value is default else _int(value, self.at(key))

    def positive(self, key, default=_REQUIRED) -> int:
        value = self.int(key, default)
        if value < 1:
            raise ProblemFileError(f"field {self.at(key)!r} must be positive, got {value}")
        return value

    def fracs(self, key) -> list:
        return _fracs(self.raw(key), self.at(key))

    def ints(self, key) -> list:
        """The optional array of integers at key."""
        return [_int(q, f"{self.at(key)}[{i}]") for i, q in enumerate(self.get(key, list, []))]

    def prime(self, key) -> int:
        return _prime(self.int(key), self.at(key))


def _pair(xy, what: str, where: str):
    """The two coordinates of a point [x, y] at path where."""
    if not isinstance(xy, list) or len(xy) != 2:
        raise ProblemFileError(f"{what} must be a pair [x, y], got {xy!r}")
    return _frac(xy[0], f"{where}[0]"), _frac(xy[1], f"{where}[1]")


def load_problem(path, p_override: int | None = None,
                 prec_override: int | None = None) -> Engine:
    return build_engine(json.loads(Path(path).read_text()), p_override, prec_override)


def build_engine(data: dict, p_override: int | None = None,
                 prec_override: int | None = None) -> Engine:
    if not isinstance(data, dict):
        raise ProblemFileError("a problem file holds one JSON object")
    doc = _Record(data, "")
    if doc.raw("schema", None) != SCHEMA:
        raise ProblemFileError(f"unsupported schema {doc.raw('schema', None)!r}")
    curve_block = doc.record("curve")
    family = curve_block.get("family", str)
    if family == "even_hyperelliptic":
        curve = make_curve(family, f=curve_block.fracs("f"))
    elif family == "superelliptic":
        curve = make_curve(family, a=curve_block.frac("a"))
    else:
        curve = make_curve(family)

    arith = doc.record("arithmetic")
    p = arith.int("p") if p_override is None else p_override
    prec = arith.int("precision", 12) if prec_override is None else prec_override
    S = [_prime(q, f"arithmetic.S[{i}]") for i, q in enumerate(arith.ints("S"))]

    bp = doc.record("base_point")
    base = KnownPoint(bp.frac("x"), bp.frac("y"), "P0")
    problem = CurveProblem(curve=curve, base_point=base, S=S, p=p, prec=prec,
                           label=doc.get("label", str, "problem"))

    points = {"P0": base}
    for rec in doc.records("points"):
        pt = KnownPoint(rec.frac("x"), rec.frac("y"), rec.get("id", str))
        if not curve.contains(pt.x, pt.y):
            raise ProblemFileError(f"point {pt.id} is not on the curve")
        points[pt.id] = pt

    generators = []
    for rec in doc.records("generators"):
        gid, divisor = rec.get("id", str), []
        for i, term in enumerate(rec.get("divisor", list)):
            where = f"{rec.at('divisor')}[{i}]"
            if not (isinstance(term, list) and len(term) == 2 and isinstance(term[0], str)):
                raise ProblemFileError(
                    f"field {where!r} must be a pair [point id, multiplicity], got {term!r}")
            pid, mult = term[0], _int(term[1], where)
            if pid not in points:
                raise ProblemFileError(f"generator {gid} references unknown point {pid}")
            divisor.append((points[pid], mult))
        if not divisor:
            raise ProblemFileError(f"field {rec.at('divisor')!r} must not be empty")
        if sum(m for _, m in divisor) != 0:
            raise ProblemFileError(f"generator {gid} is not a degree-zero divisor")
        generators.append(MWGenerator(gid, divisor))

    cusp_fields = {c.id: c.nfield for c in curve.cusps}

    units = []
    for rec in doc.records("units"):
        uid, values, by_cusp = rec.get("id", str), {}, rec.record("values")
        for cid in by_cusp.data:
            if cid not in cusp_fields:
                raise ProblemFileError(f"unit {uid} references unknown cusp {cid}")
            values[cid] = cusp_fields[cid](by_cusp.fracs(cid))
        units.append(UnitGenerator(uid, values))

    imported = []
    for rec in doc.records("imported_integrals"):
        values = [_padic(v, p, f"{rec.at('values')}[{i}]")
                  for i, v in enumerate(rec.get("values", list))]
        if len(values) != curve.basis_size():
            raise ProblemFileError(f"field {rec.at('values')!r} must hold {curve.basis_size()} "
                                   f"values, one per basis differential, got {len(values)}")
        imported.append((_pair(rec.raw("from"), "an integral endpoint", rec.at("from")),
                         _pair(rec.raw("to"), "an integral endpoint", rec.at("to")), values))

    known = []
    for i, xy in enumerate(doc.get("known_points", list, [])):
        x, y = _pair(xy, "a known point", f"known_points[{i}]")
        kp = KnownPoint(x, y, f"({xy[0]},{xy[1]})")
        if not curve.contains(kp.x, kp.y):
            raise ProblemFileError(f"known point {xy} is not on the curve")
        known.append(kp)

    rational = {*points, *(kp.id for kp in known), *(f"({kp.x},{kp.y})" for kp in known)}
    model = _build_model(doc.record("model", {}), cusp_fields, rational)
    return Engine(problem, model, generators, units=units,
                  imported=imported, known_points=known)


def _build_model(block: _Record, cusp_fields: dict, rational: set) -> RegularModelData:
    """The model data.  A rational point's (id in rational) incidence vector is a unit vector
    on a multiplicity-1 component: a section of a regular model meets the special fibre
    there (Liu, Algebraic Geometry and Arithmetic Curves, 9.1).  Where P0 has a vector, its
    component is the fibre's base component."""
    fibres = {}
    for rec in block.records("fibres"):
        q = rec.prime("prime")
        comps = [ComponentData(c.get("id", str), c.positive("multiplicity"),
                               c.get("has_smooth_point", bool, True))
                 for c in rec.records("components")]
        rows = [_fracs(row, f"{rec.at('intersection_matrix')}[{i}]")
                for i, row in enumerate(rec.get("intersection_matrix", list))]
        if any(len(row) != len(comps) for row in rows):
            raise ProblemFileError(f"fibre over {q}: matrix shape mismatch")
        mat = RationalMatrix(rows)
        inc = rec.record("incidences", {})
        incidences = {k: inc.fracs(k) for k in inc.data}
        for k, vec in incidences.items():
            if len(vec) != len(comps):
                raise ProblemFileError(f"field {inc.at(k)!r} must hold {len(comps)} entries, "
                                       f"one per component, got {len(vec)}")
            if k in rational and (sorted(vec) != [0] * (len(vec) - 1) + [1]
                                  or comps[vec.index(1)].multiplicity != 1):
                raise ProblemFileError(f"field {inc.at(k)!r}, a rational point's incidences, "
                                       "must be a unit vector on a component of multiplicity 1, "
                                       f"got [{', '.join(map(str, vec))}]")
        base = rec.get("base_component", str, "")
        if "P0" in incidences:
            own = comps[incidences["P0"].index(1)].id
            if base not in ("", own):
                raise ProblemFileError(f"field {rec.at('base_component')!r} must name P0's "
                                       f"component {own}, got {base!r}")
            base = own
        fibres[q] = FibreData(prime=q, components=comps, matrix=mat, incidences=incidences,
                              base_component=base)
    lambdas = []
    for rec in block.records("cusp_primes"):
        lid, cusp = rec.get("id", str), rec.get("cusp", str)
        if cusp not in cusp_fields:
            raise ProblemFileError(f"lambda record {lid} references unknown cusp {cusp}")
        gen = cusp_fields[cusp](rec.fracs("generator"))
        if gen.is_zero():
            raise ProblemFileError(f"lambda record {lid} has a zero generator")
        incidences = rec.record("component_incidences", {})
        lambdas.append(LambdaRecord(
            id=lid, cusp=cusp, over_prime=rec.prime("over_prime"),
            e=rec.positive("e", 1), f=rec.positive("f", 1),
            generator=gen,
            gen_exponent=rec.frac("exponent", Fraction(1)),
            split_residue=rec.int("split_residue", None),
            component_incidences={k: incidences.frac(k) for k in incidences.data},
            cuspidal_point=rec.get("cuspidal_point", bool, False),
        ))
    overrides = {}
    for rec in block.records("overrides"):
        overrides[(rec.get("object", str), rec.get("lambda", str))] = rec.frac("value")
    rho = block.record("rho", {})
    return RegularModelData(
        fibres=fibres,
        lambdas=lambdas,
        rho={_int(k, rho.at(k)): rho.frac(k) for k in rho.data},
        transversal_over=block.ints("transversal_over"),
        overrides=overrides,
        regular_charts=block.ints("regular_charts"),
    )
