"""Problem-file ingestion: JSON schema, validation and Engine construction."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .curves import CurveProblem, KnownPoint, make_curve
from .engine import Engine, MWGenerator, NamedPoint, UnitGenerator
from .errors import ProblemFileError
from .linalg import RationalMatrix
from .models import ComponentData, FibreData, LambdaRecord, RegularModelData
from .padics import parse_padic

SCHEMA = "affine-chabauty-problem/1"


def _frac(v) -> Fraction:
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise ProblemFileError(f"expected a rational, got {v!r}")


def _block(data: dict, key: str, kind: type, default=None):
    """data[key], which must be a JSON object (kind dict) or array (kind list);
    a block with no default is required."""
    value = data[key] if default is None else data.get(key, default)
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ProblemFileError(f"field {key!r} must be {name}, got {value!r}")
    return value


def _pair(xy, what: str):
    """The two coordinates of a point [x, y]."""
    if not isinstance(xy, list) or len(xy) != 2:
        raise ProblemFileError(f"{what} must be a pair [x, y], got {xy!r}")
    return _frac(xy[0]), _frac(xy[1])


def load_problem(path, p_override: int | None = None,
                 prec_override: int | None = None) -> Engine:
    data = json.loads(Path(path).read_text())
    try:
        return build_engine(data, p_override, prec_override)
    except KeyError as e:
        raise ProblemFileError(f"problem file lacks the required field {e.args[0]!r}") from None


def build_engine(data: dict, p_override: int | None = None,
                 prec_override: int | None = None) -> Engine:
    if not isinstance(data, dict):
        raise ProblemFileError("a problem file holds one JSON object")
    if data.get("schema") != SCHEMA:
        raise ProblemFileError(f"unsupported schema {data.get('schema')!r}")
    curve_block = _block(data, "curve", dict)
    family = curve_block["family"]
    kw = {}
    if "f" in curve_block:
        kw["f"] = [_frac(c) for c in curve_block["f"]]
    if "a" in curve_block:
        kw["a"] = _frac(curve_block["a"])
    curve = make_curve(family, **kw)

    arith = _block(data, "arithmetic", dict)
    p = int(arith["p"]) if p_override is None else p_override
    prec = int(arith.get("precision", 12)) if prec_override is None else prec_override
    S = [int(q) for q in arith.get("S", [])]

    bp = _block(data, "base_point", dict)
    base = KnownPoint(_frac(bp["x"]), _frac(bp["y"]))
    problem = CurveProblem(curve=curve, base_point=base, S=S, p=p, prec=prec,
                           label=data.get("label", "problem"))

    points = {"P0": NamedPoint("P0", base.x, base.y)}
    for rec in _block(data, "points", list, []):
        pt = NamedPoint(rec["id"], _frac(rec["x"]), _frac(rec["y"]))
        if not curve.contains(pt.x, pt.y):
            raise ProblemFileError(f"point {pt.id} is not on the curve")
        points[pt.id] = pt

    generators = []
    for rec in _block(data, "generators", list, []):
        divisor = []
        for pid, mult in rec["divisor"]:
            if pid not in points:
                raise ProblemFileError(f"generator {rec['id']} references unknown point {pid}")
            divisor.append((points[pid], int(mult)))
        if sum(m for _, m in divisor) != 0:
            raise ProblemFileError(f"generator {rec['id']} is not a degree-zero divisor")
        generators.append(MWGenerator(rec["id"], divisor))

    cusp_fields = {c.id: c.nfield for c in curve.cusps}

    units = []
    for rec in _block(data, "units", list, []):
        values = {}
        for cid, coeffs in rec["values"].items():
            if cid not in cusp_fields:
                raise ProblemFileError(f"unit {rec['id']} references unknown cusp {cid}")
            values[cid] = cusp_fields[cid]([_frac(c) for c in coeffs])
        units.append(UnitGenerator(rec["id"], values))

    model = _build_model(_block(data, "model", dict, {}), cusp_fields)

    imported = [(_pair(rec["from"], "an integral endpoint"),
                 _pair(rec["to"], "an integral endpoint"),
                 [parse_padic(s, p) for s in rec["values"]])
                for rec in _block(data, "imported_integrals", list, [])]

    known = []
    for xy in _block(data, "known_points", list, []):
        x, y = _pair(xy, "a known point")
        kp = NamedPoint(f"({xy[0]},{xy[1]})", x, y)
        if not curve.contains(kp.x, kp.y):
            raise ProblemFileError(f"known point {xy} is not on the curve")
        known.append(kp)

    return Engine(problem, model, generators, units=units,
                  imported=imported, known_points=known)


def _build_model(block: dict, cusp_fields: dict) -> RegularModelData:
    fibres = {}
    for rec in _block(block, "fibres", list, []):
        q = int(rec["prime"])
        comps = [ComponentData(c["id"], int(c["multiplicity"]),
                               bool(c.get("has_smooth_point", True)))
                 for c in rec["components"]]
        mat = RationalMatrix(rec["intersection_matrix"])
        inc = {k: [_frac(x) for x in v] for k, v in rec.get("incidences", {}).items()}
        fibres[q] = FibreData(prime=q, components=comps, matrix=mat, incidences=inc,
                              base_component=rec.get("base_component", ""))
    lambdas = []
    for rec in _block(block, "cusp_primes", list, []):
        cusp = rec["cusp"]
        if cusp not in cusp_fields:
            raise ProblemFileError(f"lambda record {rec['id']} references unknown cusp {cusp}")
        gen = cusp_fields[cusp]([_frac(c) for c in rec["generator"]])
        if gen.is_zero():
            raise ProblemFileError(f"lambda record {rec['id']} has a zero generator")
        lambdas.append(LambdaRecord(
            id=rec["id"], cusp=cusp, over_prime=int(rec["over_prime"]),
            e=int(rec.get("e", 1)), f=int(rec.get("f", 1)),
            generator=gen,
            gen_exponent=_frac(rec.get("exponent", 1)),
            split_residue=rec.get("split_residue"),
            component_incidences={k: _frac(v) for k, v in
                                  rec.get("component_incidences", {}).items()},
            cuspidal_point=bool(rec.get("cuspidal_point", False)),
        ))
    overrides = {}
    for rec in _block(block, "overrides", list, []):
        overrides[(rec["object"], rec["lambda"])] = _frac(rec["value"])
    return RegularModelData(
        fibres=fibres,
        lambdas=lambdas,
        rho={int(k): _frac(v) for k, v in _block(block, "rho", dict, {}).items()},
        transversal_over=[int(q) for q in block.get("transversal_over", [])],
        overrides=overrides,
        regular_charts=[int(q) for q in block.get("regular_charts", [])],
    )
