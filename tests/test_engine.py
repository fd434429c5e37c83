import pathlib
from fractions import Fraction

import pytest

from affine_chabauty.models import enumerate_reduction_types, selmer_target
from affine_chabauty.numberfield import NumberField, hensel_embed
from affine_chabauty.padics import PadicNumber, iwasawa_log, parse_padic
from tests_support import (disc_center, disc_locus_differences, lift_x, log_differences,
                           reference_log)

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
    beta_expected = -reference_log(PadicNumber.from_int(2, 7, 30)) \
        - reference_log(PadicNumber.from_int(3, 7, 30)) / 2
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
    P1 = lift_x(m, 3, sign_hint=2)   # f(3) = 4 mod 7, a square unit
    P2 = lift_x(m, 0, sign_hint=3)
    om = eng.problem.curve.basis()[2]
    # integral over div(f) with all horizontal contacts zero: H = plain integral = 0
    divisor = [((P1.x, P1.y), 1), ((P1.x, -P1.y), 1),
               ((P2.x, P2.y), -1), ((P2.x, -P2.y), -1)]
    val = eng.integrator.divisor_integral(om, divisor)
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
    expected = -reference_log(PadicNumber.from_int(3, 7, 30))
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
    monkeypatch.setattr(series, "_isolate", lambda p, level, depth: [(1, 8)] * len(level[0]))
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


def test_solve_builds_each_disc_once(monkeypatch):
    """One parametrization per residue disc, whichever layer asks for it: the
    integrator reads its discs from the model's disc_series."""
    import importlib
    import pkgutil

    import affine_chabauty
    from affine_chabauty import hyperelliptic

    calls = []
    orig = hyperelliptic._local_parametrization

    def counted(*args):
        calls.append(args)
        return orig(*args)
    for info in pkgutil.iter_modules(affine_chabauty.__path__):
        module = importlib.import_module(f"affine_chabauty.{info.name}")
        if vars(module).get("_local_parametrization") is orig:
            monkeypatch.setattr(module, "_local_parametrization", counted)
    eng = load("superelliptic_a1.json", prec_override=12)
    assert eng.problem.p == 7
    eng.solve()
    assert len(calls) == len(eng.integrator.main_model()._discs) == 9


def test_solve_expands_each_kernel_differential_once_per_disc(monkeypatch):
    """The four reduction types of the hyperelliptic fixture share one kernel, so
    series.dot runs once per (kernel differential, non-cuspidal disc), not once
    per type; a disc center is t = 0 of the disc's series, equal to the
    Teichmueller lift as (v, u, N), and reading it lifts nothing again."""
    from affine_chabauty import integration
    from affine_chabauty.hyperelliptic import HyperellipticModel, Point

    dots, lifts = [], []
    orig_dot, orig_lift = integration.dot, HyperellipticModel.teichmueller_point
    monkeypatch.setattr(integration, "dot", lambda *a: dots.append(a) or orig_dot(*a))
    monkeypatch.setattr(HyperellipticModel, "teichmueller_point",
                        lambda self, pt: lifts.append(pt) or orig_lift(self, pt))
    eng = load("hyperelliptic_6081b.json", p_override=7, prec_override=6)
    report = eng.solve()
    I = eng.integrator
    discs = [d for d in I.residue_discs() if not d.cuspidal]
    assert report["status"] == "complete" and len(report["reduction_types"]) == 4
    assert len(eng._kernels) == 1
    assert len(dots) == len(discs) * sum(len(k[1]) for k in eng._kernels.values())
    lifts.clear()
    centers = [disc_center(I, d) for d in discs]
    assert lifts == []
    p = I.p
    for d, (x, y) in zip(discs, centers):
        T = orig_lift(I.main_model(), Point(PadicNumber.from_int(d.xbar, p, 1),
                                            PadicNumber.from_int(d.ybar, p, 1)))
        assert (x.v, x.u, x.N, y.v, y.u, y.N) == (T.x.v, T.x.u, T.x.N, T.y.v, T.y.u, T.y.N)


@pytest.mark.parametrize("fixture", ["hyperelliptic_6081b", "superelliptic_a1"])
def test_a_type_solved_alone_reads_as_in_the_full_solve(fixture):
    """Expansions shared between reduction types leak nothing from one type
    into another: each type solved alone, on a fresh engine, gives the entry
    of the full solve."""
    full = load(f"{fixture}.json", p_override=7, prec_override=6).solve()
    types = full["reduction_types"]
    assert len(types) > 1
    for i, entry in enumerate(types):
        alone = load(f"{fixture}.json", p_override=7, prec_override=6).solve(sigma=i)
        assert alone["reduction_types"][0] == entry


def test_hyperelliptic_p23_solve_integrates_no_series_between_identical_points(monkeypatch):
    """Every tiny integral of the hyperelliptic solve at p = 23 runs from a point
    to itself (its own Teichmueller point, or a disc center to itself), and
    each is an exact zero: the model antidifferentiates no series."""
    from affine_chabauty import hyperelliptic

    calls = []
    orig = hyperelliptic.antiderivative

    def counted(*args):
        calls.append(args)
        return orig(*args)
    monkeypatch.setattr(hyperelliptic, "antiderivative", counted)
    eng = load("hyperelliptic_6081b.json", p_override=23, prec_override=12)
    report = eng.solve()
    assert report["status"] == "complete" and len(report["points"]["matched_known"]) == 10
    assert calls == []


def test_solve_lifts_each_cusp_embedding_once(monkeypatch):
    """The pi-compatibility check and the residue sums share one Hensel lift
    per cusp at prec + 40 digits (52 here), cached on the problem."""
    from affine_chabauty import curves

    lifts = []
    orig = curves.hensel_embed

    def counted(minpoly, p, N, field=None):
        lifts.append((tuple(minpoly), N))
        return orig(minpoly, p, N, field)
    monkeypatch.setattr(curves, "hensel_embed", counted)
    eng = load("superelliptic_a1.json", prec_override=12)
    eng.solve()
    full = [minpoly for minpoly, N in lifts if N == 52]
    assert sorted(full) == sorted(tuple(c.nfield.minpoly) for c in eng.problem.curve.cusps)


def test_verify_keeps_a_point_without_a_reduction_type_in_the_report():
    """A known point that reduces onto a cusp point no lambda record lists
    gets a failing row with the error, and no determinant."""
    import json

    from affine_chabauty.problem import build_engine

    data = json.loads((PROBLEMS / "superelliptic_a1.json").read_text())
    data["model"]["cusp_primes"] = [rec for rec in data["model"]["cusp_primes"]
                                    if rec["id"] != "Q2|487a"]
    data["arithmetic"]["precision"] = 8
    report = build_engine(data).verify()
    assert report == {
        "problem": data["label"],
        "points": [{"point": ["216/487", "438/487"], "sigma": None, "pass": False,
                    "error": "ChabautyError: point reduces to an unlisted cusp point "
                             "modulo 487"}],
        "determinants": [],
        "pass": False,
    }


def _count_calls(monkeypatch, name: str) -> list:
    """The argument of every call of padics.<name> through any module of the package,
    padics itself included."""
    import importlib
    import pkgutil

    import affine_chabauty
    from affine_chabauty import padics

    calls = []
    orig = getattr(padics, name)

    def counted(x):
        calls.append(x)
        return orig(x)
    for info in pkgutil.iter_modules(affine_chabauty.__path__):
        module = importlib.import_module(f"affine_chabauty.{info.name}")
        if vars(module).get(name) is orig:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_solve_takes_each_cusp_log_once_at_load(monkeypatch):
    """One log per (cusp, value, embedding): the pi-compatibility check at load
    takes the logs of every generator and of every rho_q, 15 at p = 7, and solve()
    reads them."""
    calls = _count_calls(monkeypatch, "iwasawa_log")
    eng = load("superelliptic_a1.json", prec_override=12)
    assert eng.problem.p == 7
    at_load = len(calls)
    eng.solve()
    assert len(calls) == at_load
    cusps = {c.id: c for c in eng.problem.curve.cusps}
    values = {(lam.cusp, lam.generator) for lam in eng.model.lambdas}
    values |= {(lam.cusp, cusps[lam.cusp].nfield(eng.model.rho.get(lam.over_prime,
                                                                    lam.over_prime)))
               for lam in eng.model.lambdas}
    distinct = sum(len(eng.problem.embeddings(cusps[cid])) for cid, _ in values)
    assert at_load == distinct == 15


def test_hyperelliptic_solve_and_verify_take_no_log(monkeypatch):
    calls = _count_calls(monkeypatch, "iwasawa_log")
    eng = load("hyperelliptic_6081b.json", prec_override=8)
    assert len(calls) <= 4  # log 3 and log 2027 at each of the two rational cusps
    at_load = len(calls)
    assert eng.verify()["pass"]
    assert eng.solve()["status"] == "complete"
    assert len(calls) == at_load


def test_hyperelliptic_solve_lifts_zeta_and_each_disc_center_once(monkeypatch):
    """Load and solve at p = 23, prec 12 take 21 Teichmueller lifts: one for the model's
    zeta and one per center the solve visits off the Weierstrass discs and x = 0 mod p;
    the cusp logs take none."""
    calls = _count_calls(monkeypatch, "teichmuller")
    eng = load("hyperelliptic_6081b.json", p_override=23, prec_override=12)
    assert eng.solve()["status"] == "complete"
    lifted = [key for key, center in eng.integrator.main_model()._centers.items()
              if key[0] and not center.y.is_exact_zero()]
    assert len(calls) == 1 + len(lifted) == 21


@pytest.mark.parametrize("fixture,p", [("hyperelliptic_6081b", 7), ("superelliptic_a1", 13)])
def test_cusp_logs_zeta_and_centers_match_their_padic_reference(fixture, p):
    """Every log of the load's table, the model's zeta and every disc center equal the
    PadicNumber-series log and the Hensel-lifted root as (v, u, N)."""
    diffs, counts = log_differences(load(f"{fixture}.json", p_override=p, prec_override=12))
    assert diffs == []
    assert counts["logs"] > 0 and counts["centers"] > 0


LOCUS_GRID = ([("hyperelliptic_6081b", p) for p in (5, 7, 11, 13, 19, 23)]
              + [("superelliptic_a1", p) for p in (7, 13, 19)])


@pytest.mark.parametrize("prec", [8, 12])
@pytest.mark.parametrize("fixture,p", LOCUS_GRID)
def test_int_disc_locus_matches_the_padic_reference(fixture, p, prec):
    """On every non-cuspidal disc, for each basis differential and each kernel
    omega of every reduction type with its c, the int locus equals the
    PadicNumber one as (v, u, N): the antiderivative plus c, every level
    _isolate sees, the StrassmannResult and each root's t, x and y."""
    diffs, counts = disc_locus_differences(load(f"{fixture}.json", p_override=p,
                                                prec_override=prec))
    assert diffs == []
    assert counts["loci"] > 0
    # the series have T = 2 prec terms, so p | k + 1 for some k + 1 <= T once p <= T
    assert counts["p_divides_k_plus_1"] == (counts["loci"] if p <= 2 * prec else 0)
    # the superelliptic fibre types' kernels hold exact-zero entries
    assert (counts["exact_zero_entry"] > 0) == (fixture == "superelliptic_a1")


def test_verify_takes_each_constant_once_per_type_and_differential(monkeypatch):
    """The p = 7 verify takes c(b, omega) once per (type, basis or kernel differential),
    however many subsets share the type."""
    from affine_chabauty.engine import Engine

    constants = []
    orig_c = Engine.constant_c
    monkeypatch.setattr(Engine, "constant_c",
                        lambda self, st, om: constants.append(1) or orig_c(self, st, om))
    eng = load("hyperelliptic_6081b.json", prec_override=8)
    assert eng.problem.p == 7
    report = eng.verify()
    assert report["pass"] and len(report["determinants"]) > 1
    size = len(eng.problem.curve.basis())
    kernel_constants = sum(len(rec.constants or ()) for rec in eng._types.values())
    assert len(constants) <= len(eng._types) * size + kernel_constants
