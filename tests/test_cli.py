import copy
import json
import pathlib
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_chabauty import errors
from affine_chabauty.cli import main
from affine_chabauty.engine import Engine
from affine_chabauty.models import enumerate_reduction_types
from affine_chabauty.problem import build_engine, load_problem

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "src/affine_chabauty/problems"


def _stage(tmp_path, name):
    dst = tmp_path / name
    shutil.copy(PROBLEMS / name, dst)
    return dst


def test_verify_hyperelliptic_exit_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default report path is in the current directory
    path = _stage(tmp_path, "hyperelliptic_6081b.json")
    rc = main(["verify", str(path), "--prec", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    report = json.loads(path.with_suffix(".report.json").read_text())
    assert report["pass"] is True
    assert len(report["points"]) == 10
    assert len(report["determinants"]) == 120  # all 3-subsets of the 10 points
    assert all(d["pass"] for d in report["determinants"])


def test_default_report_path_leaves_the_problem_directory_unchanged(tmp_path, capsys,
                                                                   monkeypatch):
    problems, run = tmp_path / "problems", tmp_path / "run"
    problems.mkdir()
    run.mkdir()
    path = _stage(problems, "hyperelliptic_6081b.json")
    monkeypatch.chdir(run)
    rc = main(["verify", str(path), "--prec", "6"])
    assert rc == 0
    assert "report written to hyperelliptic_6081b.report.json" in capsys.readouterr().out
    assert [f.name for f in problems.iterdir()] == ["hyperelliptic_6081b.json"]
    assert json.loads((run / "hyperelliptic_6081b.report.json").read_text())["pass"] is True


def test_solve_superelliptic_complete_exit_zero(tmp_path, capsys):
    path = _stage(tmp_path, "superelliptic_a1.json")
    rc = main(["solve", str(path), "--prec", "10", "--out", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert rc == 0  # every disc of the y^3 chart is resolved
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["status"] == "complete"
    assert report["points"]["unresolved_discs"] == []
    assert report["points"]["matched_known"] == [["0", "0"], ["216/487", "438/487"]]


@pytest.mark.parametrize("p, prec", [(19, 8), (37, 8)])
def test_solve_superelliptic_matches_both_known_points(tmp_path, capsys, p, prec):
    # p = 19 once failed every reduction type, and p = 37 lost the known point
    # on the disc (36, 36); both lie on discs the elliptic-chart transport missed
    path = _stage(tmp_path, "superelliptic_a1.json")
    rc = main(["solve", str(path), "--p", str(p), "--prec", str(prec),
               "--out", str(tmp_path / "r.json")])
    capsys.readouterr()
    report = json.loads((tmp_path / "r.json").read_text())
    assert rc == 0 and report["status"] == "complete"
    assert not any("error" in e for e in report["reduction_types"])
    assert report["points"]["matched_known"] == [["0", "0"], ["216/487", "438/487"]]


def _fail_every_integral(monkeypatch):
    """Make each basis integral vector raise, so that every reduction type fails."""
    from affine_chabauty.integration import Integrator

    def restricted(self, P, Q):
        raise errors.EndpointRestriction("endpoint lies in an infinite disc")

    monkeypatch.setattr(Integrator, "basis_integral_vector", restricted)


def test_solve_summary_names_each_failed_type(tmp_path, capsys, monkeypatch):
    _fail_every_integral(monkeypatch)
    path = _stage(tmp_path, "superelliptic_a1.json")
    rc = main(["solve", str(path), "--p", "19", "--prec", "8", "--out", str(tmp_path / "r.json")])
    out = capsys.readouterr().out.splitlines()
    entries = json.loads((tmp_path / "r.json").read_text())["reduction_types"]
    assert rc == 2
    assert len(entries) == 4 and all(e["error"].startswith("EndpointRestriction: ") for e in entries)
    assert [line.strip() for line in out if "error:" in line] == [
        f"error: {e['error']}" for e in entries]
    assert out[-2].endswith("unresolved discs: 0; failed types: 4")


def test_verify_records_a_typed_error_in_the_point_row(tmp_path, capsys, monkeypatch):
    # with every integral failing, the known point's reduction type has no locus data
    _fail_every_integral(monkeypatch)
    path = _stage(tmp_path, "superelliptic_a1.json")
    rc = main(["verify", str(path), "--p", "19", "--prec", "8", "--out", str(tmp_path / "r.json")])
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "r.json").read_text())
    assert rc == 2
    assert report["pass"] is False
    (row,) = report["points"]
    assert row["point"] == ["216/487", "438/487"] and row["pass"] is False
    assert row["error"].startswith("EndpointRestriction: ")
    assert row["error"] in out


def test_unwritable_report_path_exits_one_with_a_record(tmp_path, capsys):
    path = _stage(tmp_path, "hyperelliptic_6081b.json")
    out = tmp_path / "missing" / "r.json"
    rc = main(["verify", str(path), "--prec", "6", "--out", str(out)])
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rc == 1
    assert record["error"] == "FileNotFoundError"
    assert str(out) in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("prec", [1, 2])
@pytest.mark.parametrize("fixture", ["hyperelliptic_6081b.json", "superelliptic_a1.json"])
def test_tiny_precision_ends_partial_with_typed_reasons(tmp_path, capsys, fixture, prec):
    path = _stage(tmp_path, fixture)
    rc = main(["solve", str(path), "--prec", str(prec), "--out", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert rc == 2
    unresolved = json.loads((tmp_path / "r.json").read_text())["points"]["unresolved_discs"]
    assert unresolved
    for rec in unresolved:
        name = rec["reason"].split(":")[0]
        assert issubclass(getattr(errors, name), errors.ChabautyError), rec


@pytest.mark.parametrize("fixture, flags, error, message", [
    ("superelliptic_a1.json", ["--p", "5"], "BadReduction", "admissible"),
    ("hyperelliptic_6081b.json", ["--p", "0"], "ProblemFileError", "not a prime"),
    ("hyperelliptic_6081b.json", ["--p", "1"], "ProblemFileError", "not a prime"),
    ("hyperelliptic_6081b.json", ["--p", "9"], "ProblemFileError", "not a prime"),
    ("hyperelliptic_6081b.json", ["--prec", "0"], "ProblemFileError", "must be positive"),
    ("hyperelliptic_6081b.json", ["--prec", "-2"], "ProblemFileError", "must be positive"),
], ids=["super-p5", "p0", "p1", "p9", "prec0", "prec-2"])
def test_prime_rejection_exit_one(tmp_path, capsys, fixture, flags, error, message):
    path = _stage(tmp_path, fixture)
    rc = main(["solve", str(path)] + flags)
    err = json.loads(capsys.readouterr().err)
    assert rc == 1
    assert err["error"] == error
    assert message in err["message"]


def test_missing_field_exit_one(tmp_path, capsys):
    path = _stage(tmp_path, "hyperelliptic_6081b.json")
    data = json.loads(path.read_text())
    del data["curve"]
    path.write_text(json.dumps(data))
    rc = main(["solve", str(path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ProblemFileError",
        "message": "problem file lacks the required field 'curve'"}


def _edited(data, path, value):
    """A copy of data with the node at path set to value."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("edit, message", [
    (lambda data: [], "a problem file holds one JSON object"),
    (lambda data: {**data, "known_points": [[1]]}, "a known point must be a pair [x, y], got [1]"),
    (lambda data: {**data, "curve": "x"}, "field 'curve' must be an object, got 'x'"),
    (lambda data: {**data, "model": {**data["model"], "fibres": "x"}},
     "field 'model.fibres' must be an array, got 'x'"),
    (lambda data: {**data, "points": [1]}, "field 'points[0]' must be an object, got 1"),
    (lambda data: {**data, "units": [{"id": "u", "values": []}]},
     "field 'units[0].values' must be an object, got []"),
    (lambda data: {**data, "arithmetic": {**data["arithmetic"], "p": [7]}},
     "field 'arithmetic.p' must be an integer, got [7]"),
    (lambda data: {**data, "generators": [{"id": "G", "divisor": [["P0"]]}]},
     "field 'generators[0].divisor[0]' must be a pair [point id, multiplicity], got ['P0']"),
    (lambda data: _edited(data, ("model", "fibres", 0, "intersection_matrix", 1), [1, -2, 1]),
     "fibre over 3: matrix shape mismatch"),
    (lambda data: {**data, "imported_integrals": [
        {"from": ["-1", "1"], "to": ["0", "3"], "values": ["1 + O(7^8)", 7]}]},
     "field 'imported_integrals[0].values[1]' must be a p-adic number, got 7"),
    # an over_prime of 1 used to hang the loader in the valuation loop
    (lambda data: _edited(data, ("model", "cusp_primes", 0, "over_prime"), 1),
     "field 'model.cusp_primes[0].over_prime' must be a prime, got 1"),
    (lambda data: _edited(data, ("arithmetic", "S"), [0]),
     "field 'arithmetic.S[0]' must be a prime, got 0"),
    (lambda data: _edited(data, ("model", "fibres", 0, "prime"), 4),
     "field 'model.fibres[0].prime' must be a prime, got 4"),
    # a short vector used to be zipped short: a wrong integral, no error
    (lambda data: {**data, "imported_integrals": [
        {"from": ["-1", "1"], "to": ["0", "3"], "values": ["1 + O(7^8)"]}]},
     "field 'imported_integrals[0].values' must hold 3 values, one per basis differential, "
     "got 1"),
    # an empty divisor has degree zero but no point to integrate from
    (lambda data: {**data, "generators": [{"id": "G", "divisor": []}]},
     "field 'generators[0].divisor' must not be empty"),
], ids=["top-level-array", "one-coordinate-point", "string-curve", "string-fibres",
        "integer-point-record", "array-unit-values", "array-prime", "one-entry-divisor-term",
        "ragged-matrix", "integer-imported-value", "over-prime-one", "s-zero", "fibre-prime-four",
        "short-imported-values", "empty-divisor"])
def test_malformed_problem_file_exit_one(tmp_path, capsys, edit, message):
    path = _stage(tmp_path, "hyperelliptic_6081b.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    rc = main(["verify", str(path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ProblemFileError", "message": message}


def _nodes(value, path=()):
    """The path of every node below value, the root excluded."""
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


FIXTURE_DATA = {name: json.loads((PROBLEMS / name).read_text())
                for name in ("hyperelliptic_6081b.json", "superelliptic_a1.json")}
FIXTURE_NODES = [(name, path) for name, data in FIXTURE_DATA.items() for path in _nodes(data)]
JSON_VALUES = [None, True, 0, 2.5, "x", [], {}]


@settings(max_examples=150, deadline=None, database=None)
@given(node=st.sampled_from(FIXTURE_NODES), op=st.sampled_from(["delete", "swap", "wrap"]),
       other=st.sampled_from(JSON_VALUES))
def test_one_malformed_node_loads_or_raises_a_typed_error(node, op, other):
    """Delete a key, swap a value for one of another JSON type or wrap it in a
    list: loading either succeeds or raises a ChabautyError."""
    name, path = node
    data = copy.deepcopy(FIXTURE_DATA[name])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "delete" and isinstance(parent, dict):
        del parent[key]
    elif op == "wrap":
        parent[key] = [parent[key]]
    elif type(other) is not type(parent[key]):
        parent[key] = other
    try:
        assert isinstance(build_engine(data), Engine)
    except errors.ChabautyError:
        pass


def test_bad_known_point_rejected(tmp_path, capsys):
    path = _stage(tmp_path, "hyperelliptic_6081b.json")
    data = json.loads(path.read_text())
    data["known_points"].append(["-1", "2"])
    path.write_text(json.dumps(data))
    rc = main(["verify", str(path)])
    assert rc == 1
    assert "not on the curve" in capsys.readouterr().err


def test_prime_and_precision_flags_do_not_change_the_locus(tmp_path, capsys):
    # a different auxiliary prime changes digits, never the matched points
    path = _stage(tmp_path, "hyperelliptic_6081b.json")
    rc = main(["solve", str(path), "--p", "5", "--prec", "10",
               "--out", str(tmp_path / "p5.json")])
    assert rc == 0
    report = json.loads((tmp_path / "p5.json").read_text())
    assert report["status"] == "complete"
    assert len(report["points"]["matched_known"]) == 10
    assert not report["points"]["extra_candidates"]
    capsys.readouterr()


def test_roundtrip_pinned_integrals_reproduce_kernel(tmp_path, capsys):
    path = _stage(tmp_path, "hyperelliptic_6081b.json")
    rc = main(["solve", str(path), "--prec", "10", "--out", str(tmp_path / "a.json")])
    assert rc == 0
    report = json.loads((tmp_path / "a.json").read_text())
    pinned = [{"from": rec["from"], "to": rec["to"], "values": rec["values"]}
              for rec in report["pinned_integrals"]]
    data = json.loads(path.read_text())
    data["imported_integrals"] = pinned
    path2 = tmp_path / "pinned.json"
    path2.write_text(json.dumps(data))
    rc2 = main(["solve", str(path2), "--prec", "10", "--out", str(tmp_path / "b.json")])
    assert rc2 == 0
    report2 = json.loads((tmp_path / "b.json").read_text())
    # the generator rows' pairs: (P1, P0), (P2, P0); the self-pairs (P1, P1) and
    # (P2, P2) are exact zeros, never integrated and so never pinned
    assert len(pinned) == 2
    assert report2 == report
    capsys.readouterr()


def test_sigma_solves_only_the_chosen_reduction_type(tmp_path, capsys):
    path = _stage(tmp_path, "superelliptic_a1.json")
    engine = load_problem(path)
    label = enumerate_reduction_types(engine.problem, engine.model)[2].label
    rc = main(["solve", str(path), "--prec", "10", "--sigma", "2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
    (entry,) = report["reduction_types"]
    assert entry["label"] == label
    # points and status describe the chosen type alone
    points = report["points"]
    roots = [r for d in entry["discs"] for r in d.get("roots", [])]
    assert points["extra_candidates"] == [r for r in roots if not r["matched"]]
    assert points["matched_known"] == sorted(
        [list(m) for m in {tuple(r["matched"]) for r in roots if r["matched"]}])
    assert ["216/487", "438/487"] in points["matched_known"]
    assert [(u["sigma"], u["disc"]) for u in points["unresolved_discs"]] == [
        (label, d["disc"]) for d in entry["discs"] if d["status"] == "unresolved"]
    assert report["status"] == "complete"
    capsys.readouterr()


@pytest.mark.parametrize("index", ["4", "-1"])
def test_sigma_out_of_range_exits_one(tmp_path, capsys, index):
    path = _stage(tmp_path, "superelliptic_a1.json")
    rc = main(["solve", str(path), "--prec", "10", "--sigma", index,
               "--out", str(tmp_path / "r.json")])
    err = json.loads(capsys.readouterr().err)
    assert rc == 1
    assert err["error"] == "ChabautyError" and "out of range" in err["message"]
    assert not (tmp_path / "r.json").exists()
