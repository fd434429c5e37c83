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
    RegularModelData,
    correction_divisor,
    enumerate_reduction_types,
    horizontal_intersection,
    selmer_target,
)
from affine_chabauty.problem import build_engine, load_problem
from tests_support import psi_intersection_with_components, report_texts

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


@pytest.mark.parametrize("path, value, where", [
    (("cusp_primes", 0, "e"), 0, "model.cusp_primes[0].e"),
    (("cusp_primes", 0, "f"), 0, "model.cusp_primes[0].f"),
    (("cusp_primes", 0, "f"), -1, "model.cusp_primes[0].f"),
    (("fibres", 0, "components", 1, "multiplicity"), 0,
     "model.fibres[0].components[1].multiplicity"),
])
def test_non_positive_model_integers_are_rejected(path, value, where):
    # e = 0 or f = 0 on inf+|3 used to load, and solve then ended complete: the only
    # check that reads e f, check_pi_compatibility, skips groups where e f != degree
    data = json.loads((PROBLEMS / "hyperelliptic_6081b.json").read_text())
    node = data["model"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ProblemFileError) as e:
        build_engine(data)
    assert e.value.args[0] == f"field {where!r} must be positive, got {value}"


@pytest.mark.parametrize("fibre, key, vec", [
    (0, "P0", []), (0, "(1,3)", []), (0, "(1,3)", [0, 0, 1]), (0, "P2", [0, 0, 1, 0, 0]),
    (1, "P1", []),
])
def test_incidence_vectors_of_the_wrong_length_are_rejected(fibre, key, vec):
    # an empty vector for P0 or (1,3) used to raise an untyped ValueError from max()
    # in solve and verify, and a shortened one loaded silently
    data = json.loads((PROBLEMS / "hyperelliptic_6081b.json").read_text())
    data["model"]["fibres"][fibre]["incidences"][key] = vec
    size = len(data["model"]["fibres"][fibre]["components"])
    with pytest.raises(ProblemFileError) as e:
        build_engine(data)
    assert e.value.args[0] == (f"field 'model.fibres[{fibre}].incidences.{key}' must hold "
                               f"{size} entries, one per component, got {len(vec)}")


@pytest.mark.parametrize("fixture, fibre, key, vec, shown", [
    ("hyperelliptic_6081b", 0, "P0", [2, 0, 0, 0], "2, 0, 0, 0"),
    ("hyperelliptic_6081b", 0, "P0", [0, 0, 0, 0], "0, 0, 0, 0"),
    ("hyperelliptic_6081b", 0, "P1", [1, 0, 1, 0], "1, 0, 1, 0"),
    ("hyperelliptic_6081b", 0, "(1,3)", ["1/2", 0, "1/2", 0], "1/2, 0, 1/2, 0"),
    ("hyperelliptic_6081b", 0, "(-4,-37)", [1, -1, 1, 0], "1, -1, 1, 0"),
    ("hyperelliptic_6081b", 1, "P2", [10 ** 6], "1000000"),
    ("superelliptic_a1", 0, "A", [-1], "-1"),
])
def test_a_rational_point_off_a_unit_incidence_vector_is_rejected(fixture, fibre, key, vec,
                                                                  shown):
    # a section of a regular model meets its fibre in one component: these loaded, and
    # solve and verify read the vector by its argmax
    data = json.loads((PROBLEMS / f"{fixture}.json").read_text())
    data["model"]["fibres"][fibre]["incidences"][key] = vec
    with pytest.raises(ProblemFileError) as e:
        build_engine(data)
    assert e.value.args[0] == (f"field 'model.fibres[{fibre}].incidences.{key}', a rational "
                               "point's incidences, must be a unit vector on a component of "
                               f"multiplicity 1, got [{shown}]")


def test_a_rational_point_on_a_component_of_multiplicity_two_is_rejected():
    # the fibre over 3 of the superelliptic fixture is one component, C0, which P0 and A
    # meet: with multiplicity 2 its matrix [[0]] still kills the fibre, and it loaded
    data = json.loads((PROBLEMS / "superelliptic_a1.json").read_text())
    data["model"]["fibres"][0]["components"][0]["multiplicity"] = 2
    with pytest.raises(ProblemFileError) as e:
        build_engine(data)
    assert e.value.args[0] == ("field 'model.fibres[0].incidences.P0', a rational point's "
                               "incidences, must be a unit vector on a component of "
                               "multiplicity 1, got [1]")


def test_only_the_incidence_vectors_of_rational_points_are_unit_vectors():
    # a vector under an id that names no rational point loads as it is, and a fibre
    # may list only some of the points (the one over 2027 lists P0, P1 and P2)
    data = json.loads((PROBLEMS / "hyperelliptic_6081b.json").read_text())
    data["model"]["fibres"][0]["incidences"]["D"] = [2, 0, 1, 0]
    assert set(data["model"]["fibres"][1]["incidences"]) == {"P0", "P1", "P2"}
    model = build_engine(data).model
    assert model.fibres[3].incidences["D"] == [2, 0, 1, 0]


def test_a_sum_of_e_f_above_the_cusp_degree_is_rejected():
    # no set of primes over 3 has sum e f = 2 in the rational cusp field of inf+;
    # "e": 2 on inf+|3 used to load, and solve then ended complete
    data = json.loads((PROBLEMS / "hyperelliptic_6081b.json").read_text())
    data["model"]["cusp_primes"][0]["e"] = 2
    with pytest.raises(ProblemFileError) as e:
        build_engine(data)
    assert e.value.args[0] == ("the records over 3 at cusp inf+ have sum of e f = 2, "
                               "above the degree 1 of the cusp field")


def test_a_zero_exponent_is_rejected_with_the_valuation_of_pi():
    # the message used to read "expected f/exponent = 1/0"
    data = json.loads((PROBLEMS / "hyperelliptic_6081b.json").read_text())
    data["model"]["cusp_primes"][0]["exponent"] = 0
    with pytest.raises(ProblemFileError) as e:
        build_engine(data)
    assert e.value.args[0] == ("pi of inf+|3, its generator to the power 0, has q-norm "
                               "valuation 0, expected f = 1")


@pytest.mark.parametrize("fibre, value, own", [(0, "E2", "C0"), (1, "C0", "D0")])
def test_a_base_component_off_the_base_points_vector_is_rejected(fibre, value, own):
    # "E2" over 3 used to load, and solve then ended complete with a changed report:
    # correction_divisor normalized Phi on a component that P0 does not meet
    data = json.loads((PROBLEMS / "hyperelliptic_6081b.json").read_text())
    data["model"]["fibres"][fibre]["base_component"] = value
    with pytest.raises(ProblemFileError) as e:
        build_engine(data)
    assert e.value.args[0] == (f"field 'model.fibres[{fibre}].base_component' must name P0's "
                               f"component {own}, got {value!r}")


@pytest.mark.parametrize("blank", ["", None])
def test_a_blank_or_missing_base_component_is_the_base_points_own(blank):
    # "" or no field used to skip the normalization of Phi, and solve reported other
    # values; now the component comes from P0's unit vector
    data = json.loads((PROBLEMS / "hyperelliptic_6081b.json").read_text())
    want = report_texts(lambda: build_engine(data, prec_override=6))
    for fib in data["model"]["fibres"]:
        if blank is None:
            del fib["base_component"]
        else:
            fib["base_component"] = blank
    assert [f.base_component for f in build_engine(data).model.fibres.values()] == ["C0", "D0"]
    assert report_texts(lambda: build_engine(data, prec_override=6)) == want
