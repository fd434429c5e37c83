import json
import pathlib
import shutil

import pytest

from affine_chabauty import errors
from affine_chabauty.cli import main
from affine_chabauty.models import enumerate_reduction_types
from affine_chabauty.problem import load_problem

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "src/affine_chabauty/problems"


def _stage(tmp_path, name):
    dst = tmp_path / name
    shutil.copy(PROBLEMS / name, dst)
    return dst


def test_verify_hyperelliptic_exit_zero(tmp_path, capsys):
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


def test_solve_superelliptic_partial_exit_two(tmp_path, capsys):
    path = _stage(tmp_path, "superelliptic_a1.json")
    rc = main(["solve", str(path), "--prec", "10", "--out", str(tmp_path / "r.json")])
    out = capsys.readouterr().out
    assert rc == 2  # cusp-adjacent discs are unresolved for this family
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["status"] == "partial"
    assert report["points"]["unresolved_discs"]
    # the demonstrated reduction type matched the known S-integral point
    assert ["216/487", "438/487"] in [
        r["matched"] for e in report["reduction_types"]
        for d in e.get("discs", []) for r in d.get("roots", []) if r["matched"]]


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


@pytest.mark.parametrize("edit, message", [
    (lambda data: [], "a problem file holds one JSON object"),
    (lambda data: {**data, "known_points": [[1]]}, "a known point must be a pair [x, y], got [1]"),
    (lambda data: {**data, "curve": "x"}, "field 'curve' must be an object, got 'x'"),
    (lambda data: {**data, "model": {**data["model"], "fibres": "x"}},
     "field 'fibres' must be an array, got 'x'"),
], ids=["top-level-array", "one-coordinate-point", "string-curve", "string-fibres"])
def test_malformed_problem_file_exit_one(tmp_path, capsys, edit, message):
    path = _stage(tmp_path, "hyperelliptic_6081b.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    rc = main(["verify", str(path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ProblemFileError", "message": message}


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
    k1 = report["reduction_types"][0]["kernel"]
    k2 = report2["reduction_types"][0]["kernel"]
    assert k1 == k2
    capsys.readouterr()


def test_sigma_solves_only_the_chosen_reduction_type(tmp_path, capsys):
    path = _stage(tmp_path, "superelliptic_a1.json")
    engine = load_problem(path)
    label = enumerate_reduction_types(engine.problem, engine.model)[2].label
    rc = main(["solve", str(path), "--prec", "10", "--sigma", "2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
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
    assert report["status"] == "partial"
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
