"""The package's records are plain slotted classes: no class factory runs at import,
only NFElement and Subordination compare by value, every mutable default is fresh
per instance, and a misspelt field fails loudly."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from affine_chabauty.engine import DiscLocus, TypeRecord
from affine_chabauty.models import RegularModelData
from affine_chabauty.numberfield import NFElement, NumberField
from affine_chabauty.series import Subordination

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "src/affine_chabauty/problems/hyperelliptic_6081b.json"


def test_import_and_load_run_no_class_factory():
    script = (
        "import sys\n"
        "import affine_chabauty\n"
        f"affine_chabauty.load_problem({str(FIXTURE)!r}, p_override=7, prec_override=6)\n"
        "import affine_chabauty.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_nfelement_equals_and_hashes_by_value():
    k = NumberField([Fraction(1), Fraction(1), Fraction(1)])
    a, b = k((Fraction(1), Fraction(2))), k((Fraction(1), Fraction(2)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 0, b: 1}) == 1
    assert a != k((Fraction(2), Fraction(1)))


def test_subordination_equals_by_value():
    assert Subordination(1, Fraction(-1, 2)) == Subordination(Fraction(1), Fraction(-1, 2))
    assert Subordination(1, 0).slope.__class__ is Fraction
    assert Subordination(1, 0) != Subordination(1, 1)


def test_mutable_defaults_are_fresh_per_instance():
    one, two = DiscLocus(None, "ok"), DiscLocus(None, "ok")
    assert one.roots == [] and one.roots is not two.roots
    m1, m2 = RegularModelData({}, [], {}, []), RegularModelData({}, [], {}, [])
    assert m1.overrides == {} and m1.overrides is not m2.overrides
    assert m1.regular_charts == [] and m1.regular_charts is not m2.regular_charts


def test_a_misspelt_field_raises():
    rec = TypeRecord(None)
    rec.kernel = ()
    with pytest.raises(AttributeError):
        rec.kernal = ()
