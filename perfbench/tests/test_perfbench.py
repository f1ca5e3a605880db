"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
from checks import check_report  # noqa: E402
from hermsig.cli import run_session  # noqa: E402
from hermsig.session import parse_session  # noqa: E402
from tracer import Spans, called_targets  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_and_documents_parse(workload):
    text = generate(workload, 7)
    assert generate(workload, 7) == text
    assert generate(workload, 8) != text
    doc = parse_session(text)
    for cmd in doc.commands:
        if cmd["op"] == "sos-find":
            assert "height" in cmd and "max_terms" in cmd


def _spans(rows):
    """Spans from (name, parent, start, end) rows."""
    names = sorted({r[0] for r in rows})
    return Spans(names,
                 array("i", [names.index(r[0]) for r in rows]),
                 array("i", [r[1] for r in rows]),
                 array("d", [r[2] for r in rows]),
                 array("d", [r[3] for r in rows]))


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = _spans([
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("d", 1, 2.0, 3.0),
        ("c", 0, 3.0, 6.0),   # overlaps b: [3, 4] is subtracted once
        ("e", 0, 9.0, 12.0),  # clipped to the parent's end
    ])
    assert spans.self_times() == [10 - 5 - 1, 3 - 1, 1, 3, 3]
    calls, self_s = spans.totals()
    assert calls["a"] == 1 and self_s["b"] == 2
    assert spans.under({"b"}) == [False, False, True, False, False]
    assert spans.count_under({"d", "e"}, {"a"}) == 2
    assert spans.count_under({"c"}, {"b"}) == 0


def test_traced_and_untraced_reports_are_byte_identical():
    run.WORK.mkdir(exist_ok=True)
    doc_path = run.WORK / "test_session.json"
    doc_path.write_text(generate("cone_search", 3), encoding="utf-8")
    plain = run.run_child(doc_path)
    spans_path = run.WORK / "test_spans.bin"
    traced = run.run_child(doc_path, spans_path)
    assert plain["report"] == traced["report"]
    # every wrapper meant for this workload saw calls
    assert run.EXPECTED_TARGETS["cone_search"] <= called_targets(Spans.load(str(spans_path)))


def test_reference_job_does_fixed_work():
    runs = [json.loads(subprocess.run([sys.executable, str(HERE / "reference.py")],
                                      capture_output=True, text=True,
                                      check=True).stdout)
            for _ in range(2)]
    assert runs[0]["modules"] == runs[1]["modules"] > 0
    assert all(r["ref_s"] > 0 for r in runs)
    assert run.run_reference() > 0


def test_error_record_counts_as_failed():
    doc = {
        "field": {"min_poly": ["-2", "0", "1"]},
        "forms": [{"name": "q", "diag": ["1", "x"]}],
        "commands": [{"op": "sign", "form": "q", "ordering": 0},
                     {"op": "sign", "form": "q", "ordering": 7}],
    }
    run.WORK.mkdir(exist_ok=True)
    doc_path = run.WORK / "test_error.json"
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    sample = run.run_child(doc_path)
    assert run.tally([sample, sample], 2, []) == (4, 2)
    assert run.tally([{"timed_out": True}], 2, []) == (2, 2)
    # and makes the run incorrect
    attempted, failed, problems = run.assess(parse_session(doc_path.read_text()),
                                             [sample, sample])
    assert (attempted, failed) == (4, 2)
    assert problems == ["records with status error: [1]"]


def test_output_check_flags_a_wrong_signature():
    doc = parse_session(generate("small_forms", 5))
    records = run_session(doc).records
    assert check_report(doc, records) == []
    rec = next(r for r in records if r["op"] == "total-sign")
    rec["result"][0][1] += 2
    assert rec["index"] in check_report(doc, records)


def _tampered(result):
    """Wrong answers of the shape each cone_search op returns."""
    if isinstance(result, bool):
        return [not result]
    if "cones" in result:
        return [dict(result, count=result["count"] - 2, cones=result["cones"][:-2])]
    if "x_tilde" in result:
        return [dict(result, x_tilde=result["x_tilde"][:-1])]
    if "open_sets" in result:
        return [dict(result, topologies_agree=False),
                dict(result, space_size=result["space_size"] + 2)]
    if "trivial" in result:
        flipped = dict(result, trivial=[not result["trivial"][0], result["trivial"][1]])
        return [flipped] + ([dict(result, equivalent=True)] if "witness" in result else [])
    if "certificate" in result and "diagonal" in result:
        return [dict(result, certificate=result["certificate"][:-1])]
    if result.get("status") == "refuted":
        return [{"status": "unknown"}]
    if result.get("status") == "unknown":
        return [{"status": "refuted", "refutation": {"ordering": 0, "witness": "1"}}]
    if "pairs" in result:
        return [dict(result, ok=False)]
    if "prime_sample" in result:
        wrong = [dict(result, prime_sample="counterexample (prime)")]
        if "h_in_submodule" in result:
            wrong += [dict(result, h_in_submodule=not result["h_in_submodule"]),
                      dict(result, q_in_ideal=not result["q_in_ideal"])]
        return wrong
    return []


def test_output_check_flags_wrong_cone_search_answers():
    doc = parse_session(generate("cone_search", 1))
    records = run_session(doc).records
    assert check_report(doc, records) == []
    tried = set()
    for rec in records:
        for wrong in _tampered(rec["result"]):
            tried.add(rec["op"])
            saved, rec["result"] = rec["result"], wrong
            assert check_report(doc, records) == [rec["index"]], (rec["op"], wrong)
            rec["result"] = saved
    assert tried == {c["op"] for c in doc.commands}
