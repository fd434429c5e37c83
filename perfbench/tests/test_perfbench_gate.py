"""Tests of the benchmark's correctness gate (perfbench/gate.py)."""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402


def reference(name):
    return json.loads((BENCH / "reference" / f"{name}.json").read_text())


@pytest.mark.parametrize("s, value, p, N", [
    ("0", 0, None, None),
    ("O(7^12)", 0, 7, 12),
    ("1 + O(7^17)", 1, 7, 17),
    ("2 + 7 + 3*7^2 + 7^5 + O(7^9)", 2 + 7 + 3 * 49 + 7 ** 5, 7, 9),
    ("4*7^-1 + 5 + O(7^3)", pytest.approx(4 / 7 + 5), 7, 3),
    ("22 + 23 + 2*23^2 + O(23^4)", 22 + 23 + 2 * 529, 23, 4),
])
def test_parse_digits(s, value, p, N):
    v, got_p, got_N = gate.parse_digits(s)
    assert float(v) == value and got_p == p and got_N == N


def test_digits_agree_at_the_lower_precision():
    assert gate.digits_agree("1 + 2*7 + O(7^2)", "1 + 2*7 + 5*7^4 + O(7^6)")
    assert not gate.digits_agree("1 + 3*7 + O(7^2)", "1 + 2*7 + 5*7^4 + O(7^6)")
    assert gate.digits_agree("0", "O(7^17)")
    assert not gate.digits_agree("0", "7^3 + O(7^17)")


def test_reference_passes_its_own_gate():
    for name in ("hyper-p23-solve", "super-p7-solve", "hyper-p7-verify"):
        ref = reference(name)
        assert gate.check(ref, copy.deepcopy(ref)) == []


def test_gate_rejects_a_changed_kernel_digit():
    ref = reference("super-p7-solve")
    got = copy.deepcopy(ref)
    label = "Sigma(3:C0, 487:fibre)"
    entry = got["types"][label]["kernel"][0][1]
    assert entry.startswith("2 + 2*7 + 5*7^2")
    got["types"][label]["kernel"][0][1] = "2 + 3*7" + entry[len("2 + 2*7"):]
    problems = gate.check(ref, got)
    assert len(problems) == 1 and "kernel[0][1]" in problems[0]


def test_gate_accepts_more_digits_that_agree():
    ref = reference("hyper-p23-solve")
    got = copy.deepcopy(ref)
    for t in got["types"].values():
        t["kernel"] = [[x.replace("O(23^17)", "O(23^19)") for x in v] for v in t["kernel"]]
        t["kernel_precision"] += 2
    got["certified_prec"] += 2
    got["extra_candidates"] -= 1
    assert gate.check(ref, got) == []


def test_gate_rejects_a_missing_matched_point():
    ref = reference("hyper-p23-solve")
    got = copy.deepcopy(ref)
    lost = got["matched"].pop(3)
    assert gate.check(ref, got) == [f"matched point {tuple(lost)} is lost"]


def test_gate_rejects_lower_precision_and_failed_verify():
    ref = reference("hyper-p7-verify")
    got = dict(ref, certified_prec=ref["certified_prec"] - 1,
               determinants_vanish=False, **{"pass": False})
    assert len(gate.check(ref, got)) == 3
