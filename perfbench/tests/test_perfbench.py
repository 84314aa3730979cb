"""Tests of the benchmark itself: the verdict gate, metric names, span
arithmetic, and BENCHMARK.json against the metric catalogue.

    python3 -m pytest perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from onsalg.report import CheckReport  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def _passing():
    return CheckReport(name="planted", status="pass")


def _failing():
    return CheckReport(name="planted", status="fail", residual_term_count=3,
                       witnesses=[{"position": "(0,1)", "residual": "x"}])


def _raises():
    raise RuntimeError("planted")


def test_gate_counts_planted_wrong_verdict_and_exception():
    jobs = [
        workloads.Job(_passing),                  # right: pass expected
        workloads.Job(_failing, expect="fail"),   # right: fail expected
        workloads.Job(_passing, expect="fail"),   # wrong verdict
        workloads.Job(_failing),                  # wrong verdict
        workloads.Job(_raises),                   # exception
    ]
    outcomes = [child.run_job(job, None) for job in jobs]
    assert [o["ok"] for o in outcomes] == [True, True, False, False, False]
    assert outcomes[4]["error"] == "RuntimeError: planted"
    expected = ["planted"] * 4 + ["the raising check"]
    assert run.gate({"outcomes": outcomes}, expected) == (5, 3)


def test_gate_rejects_a_changed_check_list():
    outcomes = [child.run_job(workloads.Job(_passing), None)]
    with pytest.raises(run.BenchError):
        run.gate({"outcomes": outcomes}, ["planted", "another"])
    with pytest.raises(run.BenchError):
        run.gate({"outcomes": outcomes}, ["renamed"])


def test_a_result_that_is_not_a_report_counts_as_wrong():
    outcome = child.run_job(workloads.Job(lambda: "not a report"), None)
    assert not outcome["ok"] and outcome["error"].startswith("AttributeError")


def test_failing_report_without_witnesses_is_wrong():
    bare = CheckReport(name="planted", status="fail", residual_term_count=1)
    assert not workloads.judge("fail", bare)
    dirty = CheckReport(name="planted", status="pass", residual_term_count=1)
    assert not workloads.judge("pass", dirty)


def test_check_names_map_to_legal_distinct_metric_names():
    assert spans.metric_name("nscybe[k_general]") == "nscybe.k_general"
    assert spans.metric_name("U_conditions[U_diag, eps=+1]") == "U_conditions.U_diag.eps.1"
    assert spans.metric_name("U_conditions[U_offdiag, eps=-1]") == (
        "U_conditions.U_offdiag.eps.-1"
    )
    fingerprints = json.loads((HERE / "checks.json").read_text())
    for names in fingerprints.values():
        mapped = [spans.metric_name(n) for n in names]
        assert len(set(mapped)) == len(mapped)
        assert all(NAME.match(f"tensormat.{m}") for m in mapped), mapped


def test_self_time_is_inclusive_minus_children_on_a_synthetic_tree():
    S = spans.Span
    tree = [
        S(0, None, "run", "bench", "run", 0.0, 10.0),
        S(1, 0, "a", "tensormat", "check", 1.0, 4.0),
        S(2, 1, "a.build", "tensormat", "build", 1.5, 2.5),
        S(3, 1, "a.kernel", "exactalg", "kernel", 3.0, 3.5),
        S(4, 0, "b", "envelope", "check", 5.0, 9.0),
        S(5, 4, "b.1", "envelope", "kernel", 5.0, 7.0),
        S(6, 4, "b.2", "envelope", "kernel", 6.0, 8.0),  # overlaps b.1
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0 - 0.5)
    assert selfs[4] == pytest.approx(4.0 - 3.0)
    assert selfs[2] == pytest.approx(1.0)
    layers = spans.layer_times(tree)
    # nested spans of one layer are counted once in its inclusive time
    assert layers["tensormat"]["inclusive_s"] == pytest.approx(3.0)
    assert layers["tensormat"]["self_s"] == pytest.approx(1.5 + 1.0)
    assert layers["envelope"]["inclusive_s"] == pytest.approx(4.0)


def test_tracer_records_parents_and_one_run_id():
    tracer = spans.Tracer()
    with tracer.span("run", "bench", "run"):
        spans.call(tracer, "inner", "exactalg", "kernel", sum, [1, 2])
    rows = tracer.dump()
    assert [r["parent"] for r in rows] == [None, 0]
    assert {r["run_id"] for r in rows} == {tracer.run_id}
    assert all(r["end"] >= r["start"] for r in rows)


def test_layer_of_counts_cli_wrappers_as_tensormat():
    from onsalg import cli, envelope

    fn, _ = cli.suite_checks(cli.SuiteConfig("rmatrix"))[0]
    assert spans.layer_of(fn) == "tensormat"
    assert spans.layer_of(envelope.check_quadratic_charges) == "envelope"


def test_benchmark_json_matches_the_metric_catalogue():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SUITES)
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in metrics.END_TO_END
    ]
    assert bench["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in metrics.PER_LAYER
    ]
    traced = {m["name"] for m in metrics.PER_LAYER if m["source"] == "trace"}
    assert set(metrics.LAYER_CHECK_TIMES) <= traced


def test_every_per_layer_metric_has_a_producer():
    probed = {n for _, names in probes.PROBES for n in names}
    empty_pass = {"spans": [], "outcomes": [], "memo_words": 0}
    traced = set(run.traced_metrics(empty_pass)) | {"trace.overhead_s"}
    for m in metrics.PER_LAYER:
        assert m["name"] in (probed if m["source"] == "probe" else traced), m["name"]


def test_a_probe_whose_function_is_gone_reports_null_with_reason(monkeypatch):
    def gone(tracer):
        raise AttributeError("module 'onsalg.envelope' has no attribute 'x'")

    monkeypatch.setattr(probes, "PROBES", ((gone, ("envelope.x_s",)),))
    value, reason = probes.run_all(spans.Tracer())["envelope.x_s"]
    assert value is None and "no attribute" in reason
