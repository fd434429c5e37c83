"""Behaviour lock: golden reports and the precision ladder.

The golden files under tests/golden/ are the CLI's own output at prec 12;
regenerate one with

    affine-chabauty solve src/affine_chabauty/problems/<fixture>.json --prec 12 \
        --out tests/golden/<fixture>.solve.json

(and likewise `verify` into `<fixture>.verify.json`).  A change that moves
any byte of them changes the engine's behaviour.

tests/golden/disc_layer.json locks the disc layer underneath the reports:
the center, x(t), y(t) and every basis expansion of each non-cuspidal disc,
at primes that reach even and superelliptic Weierstrass discs.

tests/golden/model_disc_layer.json locks the same layer on the Frobenius
models (main, w and X_1): per affine and Weierstrass disc, one point of the
disc, its center, the disc series at the center and the tiny integrals of the
basis from the point to the center, at full stored precision.

Regenerate both disc files with `PYTHONPATH=src python tests/test_golden.py`.
"""

import functools
import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_chabauty.hyperelliptic import Point
from affine_chabauty.models import enumerate_reduction_types, selmer_target
from affine_chabauty.padics import PadicNumber, _horner_mod, hensel_lift_root, render_padic
from affine_chabauty.problem import load_problem

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "src/affine_chabauty/problems"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FIXTURES = ("hyperelliptic_6081b", "superelliptic_a1")
GOLDEN_PREC = 12
LADDER_STEP = 4
DISC_LAYER_PREC = 8
DISC_LAYER_PRIMES = {"hyperelliptic_6081b": (7, 19), "superelliptic_a1": (7, 13)}
FROBENIUS_MODELS = {"hyperelliptic_6081b": ("main_model",),
                    "superelliptic_a1": ("w_model", "x1_model")}


@pytest.mark.parametrize("mode", ["solve", "verify"])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_report_matches_golden_byte_for_byte(fixture, mode):
    engine = load_problem(PROBLEMS / f"{fixture}.json", prec_override=GOLDEN_PREC)
    fresh = json.dumps(getattr(engine, mode)(), indent=2)
    assert fresh == (GOLDEN / f"{fixture}.{mode}.json").read_text()


def _disc_layer() -> dict:
    """Per fixture and prime: every non-cuspidal disc's center, x(t), y(t) and
    basis expansions, rendered at work + 20 digits (exact zeros as "0").
    Also asserts that each value that is not an exact zero carries at least
    _hi() digits."""
    out = {}
    for fixture, primes in DISC_LAYER_PRIMES.items():
        for p in primes:
            I = load_problem(PROBLEMS / f"{fixture}.json", p_override=p,
                             prec_override=DISC_LAYER_PREC).integrator

            def render(values):
                values = list(values)
                assert all(v.is_exact_zero() or v.N >= I._hi() for v in values)
                return [render_padic(v if v.is_exact_zero() else v.at_precision(I.work + 20))
                        for v in values]

            discs = []
            for disc in I.residue_discs():
                if disc.cuspidal:
                    continue
                xs, ys = I.disc_parametrization(disc)
                expansions = [I.expand_differential_on_disc(om, disc) for om in I.curve.basis()]
                discs.append({
                    "disc": [disc.xbar, disc.ybar, disc.kind],
                    "center": render(I.disc_center(disc)),
                    "x": render(xs.coeffs),
                    "y": render(ys.coeffs),
                    "omega": [{"series": render(e.series.coeffs)} for e in expansions],
                })
            out[f"{fixture}@{p}"] = discs
    return out


def test_disc_layer_matches_golden_byte_for_byte():
    fresh = json.dumps(_disc_layer(), indent=1)
    assert fresh == (GOLDEN / "disc_layer.json").read_text()


def _model_discs(m):
    """(xbar, ybar, P, center) for every affine and Weierstrass disc of the model.

    An affine disc gets P = (xbar + p, y) with y over ybar and its Teichmueller
    point; a Weierstrass disc gets P = (x, p) with f(x) = p^2 and its
    Weierstrass point (ybar = 0).
    """
    p, M = m.p, m.M
    den = math.lcm(*(c.denominator for c in m.f_rational))
    ics = [int(c * den) for c in m.f_rational[: m.deg + 1]]
    out = []
    for xb in range(p):
        fb = _horner_mod(ics, xb, p)
        if fb == 0:
            wx = PadicNumber.from_int(hensel_lift_root(ics, xb, p, M), p, M)
            x = hensel_lift_root([ics[0] - den * p * p] + ics[1:], xb, p, M)
            P = m.point(PadicNumber.from_int(x, p, M), p)
            out.append((xb, 0, P, Point(wx, PadicNumber.exact_zero(p))))
            continue
        for yb in range(1, p):
            if yb * yb * den % p == fb:
                P = m.lift_x(xb + p, sign_hint=yb)
                out.append((xb, yb, P, m.teichmueller_point(P)))
    return out


def _model_disc_layer() -> dict:
    """Per fixture, prime and Frobenius model: the _model_discs of the model
    with the disc series at the center and the tiny basis integrals from P to
    the center, every value rendered at its full stored precision."""
    out = {}
    for fixture, primes in DISC_LAYER_PRIMES.items():
        for p in primes:
            I = load_problem(PROBLEMS / f"{fixture}.json", p_override=p,
                             prec_override=DISC_LAYER_PREC).integrator
            for name in FROBENIUS_MODELS[fixture]:
                m = getattr(I, name)()
                discs = []
                for xb, yb, P, center in _model_discs(m):
                    xs, ys, _ = m.disc_series(center)
                    discs.append({
                        "disc": [xb, yb],
                        "point": [render_padic(P.x), render_padic(P.y)],
                        "center": [render_padic(center.x), render_padic(center.y)],
                        "x": [render_padic(c) for c in xs.coeffs],
                        "y": [render_padic(c) for c in ys.coeffs],
                        "tiny": [render_padic(v) for v in m.tiny_basis_integrals(P, center)],
                    })
                out[f"{fixture}@{p}/{name}"] = discs
    return out


def test_model_disc_layer_matches_golden_byte_for_byte():
    fresh = json.dumps(_model_disc_layer(), indent=1)
    assert fresh == (GOLDEN / "model_disc_layer.json").read_text()


@functools.lru_cache(maxsize=None)
def _printed_values(fixture: str, prec: int) -> tuple:
    """Every matrix, kernel and c value of every reduction type, in a fixed order."""
    engine = load_problem(PROBLEMS / f"{fixture}.json", prec_override=prec)
    by_csp = {}
    out = []
    for sigma in enumerate_reduction_types(engine.problem, engine.model):
        if not engine.check_chabauty_condition(sigma)[0]:
            continue
        if sigma.cuspidal_part() not in by_csp:
            by_csp[sigma.cuspidal_part()] = engine.annihilator(sigma)
        vectors, omegas, mat, _ = by_csp[sigma.cuspidal_part()]
        target = selmer_target(engine.problem, engine.model, sigma)
        out += [(sigma.label, "matrix", i, x.at_precision(prec))
                for i, x in enumerate(x for row in mat.rows for x in row)]
        out += [(sigma.label, "kernel", i, x)
                for i, x in enumerate(x for vec in vectors for x in vec)]
        out += [(sigma.label, "c", i, engine.constant_c(target, om))
                for i, om in enumerate(omegas)]
    return tuple(out)


@settings(max_examples=2, deadline=None, database=None)
@given(N=st.integers(min_value=8, max_value=12))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_raising_the_precision_keeps_every_printed_digit(fixture, N):
    low = _printed_values(fixture, N)
    high = _printed_values(fixture, N + LADDER_STEP)
    assert [k[:3] for k in low] == [k[:3] for k in high]
    clashes = [(lo[:3], str(lo[3]), str(hi[3])) for lo, hi in zip(low, high)
               if lo[3].compare(hi[3]) == "distinct"]
    assert not clashes


if __name__ == "__main__":
    (GOLDEN / "disc_layer.json").write_text(json.dumps(_disc_layer(), indent=1))
    (GOLDEN / "model_disc_layer.json").write_text(json.dumps(_model_disc_layer(), indent=1))
