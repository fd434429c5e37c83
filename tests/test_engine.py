import pathlib
from fractions import Fraction

import pytest

from affine_chabauty.engine import Engine, MWGenerator, NamedPoint, UnitGenerator
from affine_chabauty.errors import NotSymmetric
from affine_chabauty.linalg import RationalMatrix
from affine_chabauty.models import (
    ComponentData,
    FibreData,
    enumerate_reduction_types,
    selmer_target,
)
from affine_chabauty.numberfield import NumberField, hensel_embed
from affine_chabauty.padics import PadicNumber, iwasawa_log, parse_padic

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "src/affine_chabauty/problems"


def load(name, **kw):
    from affine_chabauty.problem import load_problem
    return load_problem(PROBLEMS / name, **kw)


def test_chabauty_condition_paper_values():
    eng51 = load("hyperelliptic_6081b.json")
    types = enumerate_reduction_types(eng51.problem, eng51.model)
    ok, slack = eng51.check_chabauty_condition(types[0])
    assert ok and slack == 1      # r = g = 2, #|D| = 2, n2 = 0

    eng52 = load("superelliptic_a1.json")
    types = enumerate_reduction_types(eng52.problem, eng52.model)
    for sigma in types:
        ok, _ = eng52.check_chabauty_condition(sigma)
        assert ok


def test_chabauty_condition_fails_when_rank_large():
    # r = g, #C = g+1, rational cusps only: inequality fails
    eng = load("hyperelliptic_6081b.json")
    types = enumerate_reduction_types(eng.problem, eng.model)
    eng.generators = eng.generators * 2  # pretend r = 4 > g + #|D| - 1 - 0
    ok, slack = eng.check_chabauty_condition(types[0])
    assert not ok and slack <= 0


def test_beta_correction_matches_paper():
    """H(G, omega_2) = int omega_2 - beta_2 with beta_2 = -log 2 - (1/2) log 3."""
    eng = load("superelliptic_a1.json")
    gen = eng.generators[0]
    basis = eng.problem.curve.basis()
    beta_expected = -iwasawa_log(PadicNumber.from_int(2, 7, 30)) \
        - iwasawa_log(PadicNumber.from_int(3, 7, 30)) / 2
    for j in (1, 2):
        H = eng.pairing_H(gen, basis[j])
        plain = eng.generator_integrals(gen)[j]
        beta = plain - H
        assert beta.compare(beta_expected) == "equal"
    # holomorphic column: H equals the plain integral
    H0 = eng.pairing_H(gen, basis[0])
    assert H0.compare(eng.generator_integrals(gen)[0]) == "equal"


def test_H_invariant_under_fibre_multiples():
    """Adding a rational multiple of the whole fibre to Phi leaves H unchanged."""
    eng = load("hyperelliptic_6081b.json", prec_override=12)
    gen = eng.generators[1]        # G2 has a nonzero correction over 3
    om = eng.problem.curve.basis()[2]
    base_val = eng.pairing_H(gen, om)
    # shift the normalization: move the base component so Phi changes by a fibre multiple
    fib = eng.model.fibres[3]
    old = fib.base_component
    fib.base_component = "E1"
    shifted = eng.pairing_H(gen, om)
    fib.base_component = old
    diff = base_val - shifted
    assert diff.is_zero() and diff.N >= eng.problem.prec - 2, diff


def test_H_vanishes_on_principal_divisor_trivial_on_D():
    """H(div(f), omega) = 0 for f = (x - x1)/(x - x2) (f = 1 on D)."""
    eng = load("hyperelliptic_6081b.json")
    m = eng.integrator.main_model()
    P1 = m.lift_x(3, sign_hint=2)   # f(3) = 4 mod 7, a square unit
    P2 = m.lift_x(0, sign_hint=3)
    om = eng.problem.curve.basis()[2]
    # integral over div(f) with all horizontal contacts zero: H = plain integral = 0
    divisor = [((P1.x, P1.y), 1), ((P1.x, -P1.y), 1),
               ((P2.x, P2.y), -1), ((P2.x, -P2.y), -1)]
    val = eng.integrator.divisor_integral(om, divisor).value
    assert val.is_zero(), val


def test_matrix_shapes_and_zero_blocks():
    eng52 = load("superelliptic_a1.json")
    types = enumerate_reduction_types(eng52.problem, eng52.model)
    sigma = next(t for t in types if t.cuspidal_choice.get(487) == "Q2|487a")
    mat, st = eng52.assemble_M(sigma)
    assert mat.shape == (2, 3)
    assert mat.blocks == {"r": 1, "k": 0, "s": 1, "g": 1, "n": 3}
    # zero block under A
    assert mat.rows[1][0].is_zero() or mat.rows[1][0].is_exact_zero()

    eng51 = load("hyperelliptic_6081b.json")
    t51 = enumerate_reduction_types(eng51.problem, eng51.model)
    mat51, _ = eng51.assemble_M(t51[0])
    assert mat51.shape == (2, 3)


def test_d_block_matches_paper():
    eng = load("superelliptic_a1.json")
    types = enumerate_reduction_types(eng.problem, eng.model)
    sigma = next(t for t in types if t.cuspidal_choice.get(487) == "Q2|487a")
    mat, st = eng.assemble_M(sigma)
    D2, D3 = mat.rows[1][1], mat.rows[1][2]
    assert D2.compare(parse_padic("6*7^2 + 2*7^3 + 6*7^4 + O(7^6)", 7)) == "equal"
    assert D3.compare(parse_padic("7 + 4*7^2 + 7^3 + 5*7^4 + 4*7^5 + O(7^6)", 7)) == "equal"


def test_constant_c_direct_evaluation():
    """b supported on one lambda away from p: c follows the defining sum."""
    eng = load("hyperelliptic_6081b.json")
    types = enumerate_reduction_types(eng.problem, eng.model)
    st = selmer_target(eng.problem, eng.model, types[0])
    st.b = {"inf+|3": Fraction(1)}
    om = eng.problem.curve.basis()[2]   # residues -+1
    c = eng.constant_c(st, om)
    expected = -iwasawa_log(PadicNumber.from_int(3, 7, 30))
    assert c.compare(expected) == "equal"
    # with both cusp lambdas weighted equally the residues cancel
    st.b = {"inf+|3": Fraction(1), "inf-|3": Fraction(1)}
    c2 = eng.constant_c(st, om)
    assert c2.is_zero() or c2.is_exact_zero()


def test_c_linear_in_omega():
    eng = load("superelliptic_a1.json")
    types = enumerate_reduction_types(eng.problem, eng.model)
    sigma = next(t for t in types if t.cuspidal_support)
    st = selmer_target(eng.problem, eng.model, sigma)
    st.b = {"Q2|487a": Fraction(2), "Q1|487": Fraction(-1)}
    b1 = eng.problem.curve.basis()[1]
    b2 = eng.problem.curve.basis()[2]
    combo = eng.problem.curve.differential([Fraction(0), Fraction(3), Fraction(-5)])
    lhs = eng.constant_c(st, combo)
    rhs = eng.constant_c(st, b1) * 3 - eng.constant_c(st, b2) * 5
    assert lhs.compare(rhs) != "distinct"


def test_c_block_with_real_quadratic_units():
    """Synthetic unit generator on a real-quadratic cusp field feeds the C block."""
    field = NumberField([-2, 0, 1])   # Q(sqrt 2), unit rank 1
    embs = hensel_embed([-2, 0, 1], 7, 24, field)
    assert len(embs) == 2
    fundamental = field([1, 1])       # 1 + sqrt(2)
    acc = PadicNumber.exact_zero(7)
    res_plus, res_minus = Fraction(1, 2), Fraction(-1, 2)
    for phi, r in zip(embs, (res_plus, res_minus)):
        acc = acc + phi(field(r)) * iwasawa_log(phi(fundamental))
    # direct formula: sum phi(res) log phi(e); both roots of sqrt(2) appear
    direct = (embs[0](field(1)) * iwasawa_log(embs[0](fundamental))
              - embs[1](field(1)) * iwasawa_log(embs[1](fundamental))) / 2
    assert acc.compare(direct) == "equal"
    # norm of the fundamental unit is -1: the two logs differ by sign modulo torsion
    total = iwasawa_log(embs[0](fundamental)) + iwasawa_log(embs[1](fundamental))
    assert total.is_zero()


def test_determinant_criterion_duplicate_rows():
    eng = load("hyperelliptic_6081b.json")
    types = enumerate_reduction_types(eng.problem, eng.model)
    pts = [(Fraction(0), Fraction(3)), (Fraction(0), Fraction(3)),
           (Fraction(1), Fraction(3))]
    det = eng.determinant_criterion([(pt, types[0]) for pt in pts])
    assert det.is_zero()


def test_annihilator_kernel_matches_paper_51():
    eng = load("hyperelliptic_6081b.json", prec_override=12)
    types = enumerate_reduction_types(eng.problem, eng.model)
    vectors, omegas, mat, st = eng.annihilator(types[0])
    assert len(vectors) == 1
    a0, a1, a2 = vectors[0]
    assert a0.compare(1) == "equal"
    assert a1.compare(parse_padic(
        "5 + 3*7 + 3*7^2 + 5*7^3 + 3*7^4 + 2*7^6 + 2*7^7 + O(7^8)", 7)) == "equal"
    assert a2.compare(parse_padic(
        "5 + 6*7 + 6*7^2 + 7^3 + 4*7^4 + 6*7^5 + 5*7^6 + 3*7^7 + O(7^8)", 7)) == "equal"


def test_degenerate_rank_zero_shape():
    # no generators: M is empty and every basis differential annihilates
    eng = load("hyperelliptic_6081b.json")
    eng.generators = []
    types = enumerate_reduction_types(eng.problem, eng.model)
    vectors, omegas, mat, st = eng.annihilator(types[0])
    assert mat.shape == (0, 3)
    assert len(vectors) == 3
    for j, v in enumerate(vectors):
        assert v[j].compare(1) == "equal"


def test_more_roots_than_the_strassmann_bound_leave_the_disc_unresolved(monkeypatch):
    import affine_chabauty.series as series

    eng = load("hyperelliptic_6081b.json", prec_override=8)
    types = enumerate_reduction_types(eng.problem, eng.model)
    vectors, omegas, mat, st = eng.annihilator(types[0])
    pairs = [(om, eng.constant_c(st, om)) for om in omegas]
    disc = next(d for d in eng.integrator.residue_discs() if not d.cuspidal)
    assert eng.disc_locus(pairs, disc).status == "ok"
    root = (PadicNumber.from_int(1, 7, 8), 1)
    monkeypatch.setattr(series, "_isolate", lambda f, m, depth: [root] * f.order)
    locus = eng.disc_locus(pairs, disc)
    assert locus.status == "unresolved"
    assert locus.reason.startswith("PrecisionLoss") and "Strassmann bound" in locus.reason


def test_verify_builds_each_selmer_target_and_pseudoinverse_once(monkeypatch):
    import affine_chabauty.engine as engine_module
    import affine_chabauty.models as models_module

    calls = {"selmer_target": 0, "moore_penrose": 0}
    for module, name in ((engine_module, "selmer_target"), (models_module, "moore_penrose")):
        def counted(*args, _orig=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _orig(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    eng = load("hyperelliptic_6081b.json", prec_override=8)
    assert eng.problem.p == 7
    assert eng.verify()["pass"]
    assert calls["selmer_target"] <= len(enumerate_reduction_types(eng.problem, eng.model))
    assert calls["moore_penrose"] <= len(eng.model.fibres)
