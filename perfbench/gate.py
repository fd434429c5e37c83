"""Correctness gate: one sample's report against the workload's reference.

The reference outcome of each workload was captured from the program by
capture_reference.py and is kept in reference/<workload>.json.  A sample
fails when

* a point the reference matched is not matched,
* a kernel or ``c`` digit contradicts the reference at the lower of the
  two precisions,
* its certified precision is below the reference,
* verify does not pass, or a determinant does not vanish,
* or the call raised (recorded by the worker).

Fewer unresolved discs or fewer extra candidates is not a failure.  Digit
strings are read by a parser of the gate's own, not the program's.
"""

from __future__ import annotations

from fractions import Fraction


def parse_digits(s: str) -> tuple[Fraction, int | None, int | None]:
    """'a0 + a1*p + ... + O(p^N)' as (value, p, N); the exact '0' has no p or N."""
    s = s.replace(" ", "")
    if s == "0":
        return Fraction(0), None, None
    body, sep, tail = s.rpartition("O(")
    if not sep or not tail.endswith(")"):
        raise ValueError(f"no O(p^N) tail in {s!r}")
    base, _, exp = tail[:-1].partition("^")
    p, N = int(base), int(exp) if exp else 1
    value = Fraction(0)
    for term in filter(None, body.split("+")):
        digit, _, power = term.rpartition("*")
        if not digit and not (power == base or power.startswith(base + "^")):
            digit, power = power, ""
        k = 0 if not power else int(power.partition("^")[2] or 1)
        value += Fraction(digit or 1) * Fraction(p) ** k
    return value, p, N


def _valuation(x: Fraction, p: int) -> int:
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def digits_agree(a: str, b: str) -> bool:
    """True when the two digit strings are congruent modulo the lower precision."""
    va, pa, na = parse_digits(a)
    vb, pb, nb = parse_digits(b)
    if pa and pb and pa != pb:
        return False
    diff = va - vb
    if diff == 0:
        return True
    caps = [n for n in (na, nb) if n is not None]
    return bool(caps) and _valuation(diff, pa or pb) >= min(caps)


def outcome(mode: str, report: dict) -> dict:
    """The parts of a solve or verify report that the gate and the metrics use."""
    if mode == "solve":
        types = {e["label"]: {"kernel": e["kernel"], "c": e["c"],
                              "kernel_precision": e["certificates"]["kernel_precision"]}
                 for e in report["reduction_types"] if "kernel" in e}
        precs = [t["kernel_precision"] for t in types.values()
                 if t["kernel_precision"] is not None]
        pts = report["points"]
        return {"types": types,
                "matched": sorted(list(m) for m in pts["matched_known"]),
                "extra_candidates": len(pts["extra_candidates"]),
                "unresolved_discs": len(pts["unresolved_discs"]),
                "certified_prec": min(precs, default=None)}
    dets = report["determinants"]
    return {"pass": report["pass"],
            "determinants": len(dets),
            "determinants_vanish": all(d["pass"] for d in dets),
            "certified_prec": min((d["precision"] for d in dets), default=None)}


def check(reference: dict, got: dict) -> list[str]:
    """Reasons the sample is wrong; empty when it passes."""
    problems = []
    if got["certified_prec"] is None or got["certified_prec"] < reference["certified_prec"]:
        problems.append(f"certified precision {got['certified_prec']} is below "
                        f"the reference {reference['certified_prec']}")
    if "types" in reference:
        lost = {tuple(m) for m in reference["matched"]} - {tuple(m) for m in got["matched"]}
        problems += [f"matched point {m} is lost" for m in sorted(lost)]
        for label, ref in reference["types"].items():
            problems += _compare_type(label, ref, got["types"].get(label))
    else:
        if not got["pass"]:
            problems.append("verify does not pass")
        if not got["determinants_vanish"]:
            problems.append("a determinant does not vanish")
        if got["determinants"] != reference["determinants"]:
            problems.append(f"{got['determinants']} determinants checked, "
                            f"reference {reference['determinants']}")
    return problems


def _compare_type(label: str, ref: dict, got: dict | None) -> list[str]:
    if got is None:
        return [f"{label}: no kernel"]
    problems = []
    if [len(v) for v in got["kernel"]] != [len(v) for v in ref["kernel"]]:
        return [f"{label}: kernel shape differs from the reference"]
    for i, (gv, rv) in enumerate(zip(got["kernel"], ref["kernel"])):
        for j, (g, r) in enumerate(zip(gv, rv)):
            if not digits_agree(g, r):
                problems.append(f"{label}: kernel[{i}][{j}] = {g} contradicts {r}")
    if len(got["c"]) != len(ref["c"]):
        return problems + [f"{label}: {len(got['c'])} constants, reference {len(ref['c'])}"]
    for i, (g, r) in enumerate(zip(got["c"], ref["c"])):
        if not digits_agree(g, r):
            problems.append(f"{label}: c[{i}] = {g} contradicts {r}")
    return problems
