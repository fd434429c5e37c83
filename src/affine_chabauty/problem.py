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


def load_problem(path, p_override: int | None = None,
                 prec_override: int | None = None) -> Engine:
    data = json.loads(Path(path).read_text())
    try:
        return build_engine(data, p_override, prec_override)
    except KeyError as e:
        raise ProblemFileError(f"problem file lacks the required field {e.args[0]!r}") from None


def build_engine(data: dict, p_override: int | None = None,
                 prec_override: int | None = None) -> Engine:
    if data.get("schema") != SCHEMA:
        raise ProblemFileError(f"unsupported schema {data.get('schema')!r}")
    curve_block = data["curve"]
    family = curve_block["family"]
    kw = {}
    if "f" in curve_block:
        kw["f"] = [_frac(c) for c in curve_block["f"]]
    if "a" in curve_block:
        kw["a"] = _frac(curve_block["a"])
    curve = make_curve(family, **kw)

    arith = data["arithmetic"]
    p = int(arith["p"]) if p_override is None else p_override
    prec = int(arith.get("precision", 12)) if prec_override is None else prec_override
    S = [int(q) for q in arith.get("S", [])]

    bp = data["base_point"]
    base = KnownPoint(_frac(bp["x"]), _frac(bp["y"]))
    problem = CurveProblem(curve=curve, base_point=base, S=S, p=p, prec=prec,
                           label=data.get("label", "problem"))

    points = {"P0": NamedPoint("P0", base.x, base.y)}
    for rec in data.get("points", []):
        pt = NamedPoint(rec["id"], _frac(rec["x"]), _frac(rec["y"]))
        if not curve.contains(pt.x, pt.y):
            raise ProblemFileError(f"point {pt.id} is not on the curve")
        points[pt.id] = pt

    generators = []
    for rec in data.get("generators", []):
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
    for rec in data.get("units", []):
        values = {}
        for cid, coeffs in rec["values"].items():
            if cid not in cusp_fields:
                raise ProblemFileError(f"unit {rec['id']} references unknown cusp {cid}")
            values[cid] = cusp_fields[cid]([_frac(c) for c in coeffs])
        units.append(UnitGenerator(rec["id"], values))

    model = _build_model(data.get("model", {}), cusp_fields)

    imported = [((_frac(rec["from"][0]), _frac(rec["from"][1])),
                 (_frac(rec["to"][0]), _frac(rec["to"][1])),
                 [parse_padic(s, p) for s in rec["values"]])
                for rec in data.get("imported_integrals", [])]

    known = []
    for xy in data.get("known_points", []):
        kp = NamedPoint(f"({xy[0]},{xy[1]})", _frac(xy[0]), _frac(xy[1]))
        if not curve.contains(kp.x, kp.y):
            raise ProblemFileError(f"known point {xy} is not on the curve")
        known.append(kp)

    return Engine(problem, model, generators, units=units,
                  imported=imported, known_points=known)


def _build_model(block: dict, cusp_fields: dict) -> RegularModelData:
    fibres = {}
    for rec in block.get("fibres", []):
        q = int(rec["prime"])
        comps = [ComponentData(c["id"], int(c["multiplicity"]),
                               bool(c.get("has_smooth_point", True)))
                 for c in rec["components"]]
        mat = RationalMatrix(rec["intersection_matrix"])
        inc = {k: [_frac(x) for x in v] for k, v in rec.get("incidences", {}).items()}
        fibres[q] = FibreData(prime=q, components=comps, matrix=mat, incidences=inc,
                              base_component=rec.get("base_component", ""))
    lambdas = []
    for rec in block.get("cusp_primes", []):
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
    for rec in block.get("overrides", []):
        overrides[(rec["object"], rec["lambda"])] = _frac(rec["value"])
    return RegularModelData(
        fibres=fibres,
        lambdas=lambdas,
        rho={int(k): _frac(v) for k, v in block.get("rho", {}).items()},
        transversal_over=[int(q) for q in block.get("transversal_over", [])],
        overrides=overrides,
        regular_charts=[int(q) for q in block.get("regular_charts", [])],
    )
