import json
from fractions import Fraction

import pytest

from affine_chabauty.errors import (
    NeedsOverride,
    NotTransversal,
    ProblemFileError,
    UnsupportedFamily,
)
from affine_chabauty.linalg import RationalMatrix
from affine_chabauty.models import (
    ComponentData,
    FibreData,
    LambdaRecord,
    RegularModelData,
    correction_divisor,
    enumerate_reduction_types,
    horizontal_intersection,
    psi_intersection_with_components,
    selmer_target,
)
from affine_chabauty.problem import build_engine, load_problem

import pathlib

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "src/affine_chabauty/problems"


def two_component_model():
    fib = FibreData(
        prime=5,
        components=[ComponentData("A", 1), ComponentData("B", 1)],
        matrix=RationalMatrix([[-1, 1], [1, -1]]),
        incidences={"P0": [1, 0]},
        base_component="A",
    )
    return RegularModelData(fibres={5: fib}, lambdas=[], rho={}, transversal_over=[])


def test_correction_good_reduction_prime_is_zero():
    model = two_component_model()
    corr = correction_divisor(model, 11, [0])  # prime absent from the model
    assert corr.coeffs == {}


def test_correction_two_component_fibre():
    model = two_component_model()
    corr = correction_divisor(model, 5, [1, -1])
    # Psi = G + Phi must meet both components trivially
    rem = psi_intersection_with_components(model, 5, [1, -1], corr)
    assert rem == [0, 0]
    coeffs = corr.coeffs
    diff = coeffs.get("A", Fraction(0)) - coeffs.get("B", Fraction(0))
    assert diff == 1
    # normalized: zero coefficient on the base-point component
    assert coeffs.get("A", Fraction(0)) == 0


def test_vertical_correction_multiplicity_one():
    model = two_component_model()
    fib = model.fibres[5]
    corr = correction_divisor(model, 5, fib.matrix.matvec([1, -1]))
    # Psi = V + Phi lands in the kernel (a fibre multiple), here zero after
    # normalization on multiplicity-one components
    psi = [Fraction(1) + corr.coeffs.get("A", 0), Fraction(-1) + corr.coeffs.get("B", 0)]
    out = fib.matrix.matvec(psi)
    assert out == [0, 0]


def test_model_validation_rejects_bad_matrix():
    fib = FibreData(prime=3, components=[ComponentData("A", 1), ComponentData("B", 2)],
                    matrix=RationalMatrix([[-2, 1], [1, -1]]),
                    incidences={})
    model = RegularModelData(fibres={3: fib}, lambdas=[], rho={}, transversal_over=[])
    with pytest.raises(ProblemFileError):
        model.validate()


def test_sigma_enumeration_counts():
    eng51 = load_problem(PROBLEMS / "hyperelliptic_6081b.json")
    types = enumerate_reduction_types(eng51.problem, eng51.model)
    assert len(types) == 4  # four components in the mod-3 fibre
    assert all(not t.cuspidal_support for t in types)

    eng52 = load_problem(PROBLEMS / "superelliptic_a1.json")
    types = enumerate_reduction_types(eng52.problem, eng52.model)
    assert len(types) == 4  # one non-cuspidal + three cuspidal F_487-points
    cuspidal = [t for t in types if t.cuspidal_support]
    assert len(cuspidal) == 3
    labels = {t.cuspidal_choice[487] for t in cuspidal}
    assert labels == {"Q1|487", "Q2|487a", "Q2|487b"}


def test_transversality_required_over_S():
    eng = load_problem(PROBLEMS / "superelliptic_a1.json")
    eng.model.transversal_over = []
    with pytest.raises(NotTransversal):
        enumerate_reduction_types(eng.problem, eng.model)


def test_horizontal_intersection_superelliptic_paper_values():
    eng = load_problem(PROBLEMS / "superelliptic_a1.json")
    A = next(pt for pt, _ in eng.generators[0].divisor if pt.id == "A")
    lam = {l.id: l for l in eng.model.lambdas}
    hi = lambda lid: horizontal_intersection(eng.problem, eng.model, "A", A, lam[lid])
    assert hi("Q1|2") == 1
    assert hi("Q1|3") == 1
    assert hi("Q2|3") == 1
    assert hi("Q2|2") == 0
    assert hi("Q1|487") == 0
    assert hi("Q2|487a") == 0
    # the base point never reduces onto a cusp
    P0 = eng.generators[0].divisor[1][0]
    for lid in lam:
        assert horizontal_intersection(eng.problem, eng.model, "P0", P0, lam[lid]) == 0


def test_horizontal_intersection_needs_override():
    eng = load_problem(PROBLEMS / "superelliptic_a1.json")
    eng.model.regular_charts = []
    A = next(pt for pt, _ in eng.generators[0].divisor if pt.id == "A")
    lam = eng.model.lambda_by_id("Q1|2")
    with pytest.raises(NeedsOverride):
        horizontal_intersection(eng.problem, eng.model, "A", A, lam)
    eng.model.overrides[("A", "Q1|2")] = Fraction(1)
    assert horizontal_intersection(eng.problem, eng.model, "A", A, lam) == 1


def test_selmer_target_superelliptic():
    eng = load_problem(PROBLEMS / "superelliptic_a1.json")
    types = enumerate_reduction_types(eng.problem, eng.model)
    target_sigma = next(t for t in types if t.cuspidal_choice.get(487) == "Q2|487a")
    st = selmer_target(eng.problem, eng.model, target_sigma)
    assert st.b == {}                # b = 0
    assert st.u_basis == [{"Q2|487a": Fraction(1)}]
    trivial = next(t for t in types if not t.cuspidal_support)
    st2 = selmer_target(eng.problem, eng.model, trivial)
    assert st2.b == {} and st2.u_basis == []


def test_selmer_target_trivial_when_all_irreducible():
    eng = load_problem(PROBLEMS / "hyperelliptic_6081b.json")
    types = enumerate_reduction_types(eng.problem, eng.model)
    for sigma in types:
        st = selmer_target(eng.problem, eng.model, sigma)
        assert st.u_basis == []
        # b may only be supported where the cusps meet the chosen component;
        # with both cusps on the same component every contribution cancels in c
        for lid, val in st.b.items():
            assert val != 0


def test_fixture_fibre_contracts():
    # Psi_q zero-intersection contract on every ingested fibre
    for name in ("hyperelliptic_6081b.json", "superelliptic_a1.json"):
        eng = load_problem(PROBLEMS / name)
        for q, fib in eng.model.fibres.items():
            for oid, vec in fib.incidences.items():
                # degree-zero combination against the base point
                base = fib.incidences["P0"]
                delta = [Fraction(a) - Fraction(b) for a, b in zip(vec, base)]
                corr = correction_divisor(eng.model, q, delta)
                rem = psi_intersection_with_components(eng.model, q, delta, corr)
                assert all(x == 0 for x in rem)


def test_sigma_enumeration_trivial():
    # good reduction everywhere, empty S: exactly one (trivial) type
    eng = load_problem(PROBLEMS / "hyperelliptic_6081b.json")
    eng.model.fibres = {}
    types = enumerate_reduction_types(eng.problem, eng.model)
    assert len(types) == 1
    assert not types[0].cuspidal_support and not types[0].component_choice


def test_zero_cusp_prime_generator_is_rejected():
    # a zero generator has no valuation; ingesting it used to hang
    data = json.loads((PROBLEMS / "superelliptic_a1.json").read_text())
    data["model"]["cusp_primes"][0]["generator"] = ["0"]
    with pytest.raises(ProblemFileError, match="zero generator"):
        build_engine(data)


def test_fractional_superelliptic_parameter_is_rejected():
    # a = 3/2 must not load as the a = 1 curve
    data = json.loads((PROBLEMS / "superelliptic_a1.json").read_text())
    data["curve"]["a"] = "3/2"
    with pytest.raises(UnsupportedFamily, match="parameter a must be an integer"):
        build_engine(data)


def test_fractional_hyperelliptic_coefficient_is_rejected():
    # rejected for the coefficient itself, not as a truncated f_0 = 0 failing the base point
    data = json.loads((PROBLEMS / "hyperelliptic_6081b.json").read_text())
    data["curve"]["f"][0] = "1/2"
    with pytest.raises(ProblemFileError, match="integer coefficients required"):
        build_engine(data)
