"""Exit codes, report formats, and configuration handling for `verify`."""

import json
import os
import platform
import subprocess
import sys

import pytest

from onsalg import cli, currents, envelope, exactalg, kacmoody
from onsalg.report import CheckReport

CHECK_KEYS = {"name", "status", "residual_terms", "region", "duration_ms", "witnesses"}


def run_json(argv, capsys):
    code = cli.run(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


# -- exit codes ---------------------------------------------------------------


def test_unknown_suite_is_a_usage_error(capsys):
    assert cli.run(["bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_missing_suite_is_a_usage_error(capsys):
    assert cli.run([]) == 2
    assert "no suite" in capsys.readouterr().err


def test_unknown_flag_exits_two(capsys):
    assert cli.run(["frt", "--bogus"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "verification suite" in capsys.readouterr().out


def test_window_too_small(capsys):
    assert cli.run(["frt", "--window", "1"]) == 2
    assert "window" in capsys.readouterr().err


def test_max_k_may_exceed_window(capsys):
    # no window bounds the quadratic charges, and kappa takes no max-k
    assert cli.run(["kappa", "--window", "2"]) == 0
    capsys.readouterr()
    code, doc = run_json(["charges", "--window", "2", "--max-k", "6"], capsys)
    assert code == 0
    regions = {c["region"] for c in doc["checks"] if c["name"].startswith("quadratic_charges")}
    assert regions == {f"in U({f}), normal-ordered, 0 <= j < k <= 6"
                       for f in ("onsager", "augmented", "invariant")}


@pytest.mark.parametrize("suite", ["charges", "all"])
def test_max_k_zero_exits_two(capsys, suite):
    # max-k 0 leaves the charge checks no pair j < k to compare
    assert cli.run([suite, "--max-k", "0"]) == 2
    captured = capsys.readouterr()
    assert "max-k must be >= 1, got 0" in captured.err and not captured.out


def test_check_level_window_error_is_config_error(capsys):
    # frt needs window >= 4; the failure surfaces as exit 2, not a crash
    assert cli.run(["frt", "--window", "3", "--max-k", "3"]) == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["all", "--window", "3", "--max-k", "3"],
         "suite 'frt' needs window >= 4, got 3"),
        (["currents", "--window", "3", "--max-k", "3"],
         "suite 'currents' needs window >= 4, got 3"),
    ],
    ids=["all", "currents"],
)
def test_window_below_a_suite_minimum_is_rejected_before_any_check(
    monkeypatch, capsys, argv, message
):
    def no_checks(checks, parallel):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "_execute", no_checks)
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_passing_suite_exits_zero(capsys):
    assert cli.run(["frt", "--window", "4"]) == 0
    out = capsys.readouterr().out
    assert "[ok  ]" in out
    assert "summary: 2 passed, 0 failed" in out


def test_failing_check_exits_one(monkeypatch, capsys):
    def forced_failure():
        return CheckReport(
            "forced", "fail", 1, [{"position": "spot", "residual": "leftover"}],
            "synthetic",
        )

    monkeypatch.setattr(cli, "suite_checks", lambda cfg: [(forced_failure, ())])
    assert cli.run(["rmatrix"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] forced" in out
    assert "at spot: leftover" in out
    assert "summary: 0 passed, 1 failed" in out


def test_an_exception_in_a_check_is_its_error_report(monkeypatch, capsys):
    # F^- read one degree low: build_B raises inside two exchange checks,
    # and the run goes on past them
    monkeypatch.setitem(currents._T_CURRENTS["-"], "F", ("F", -1, 0, False))
    code, doc = run_json(["all", "--window", "4"], capsys)
    assert code == 1
    assert len(doc["checks"]) == 51
    errors = {c["name"]: c for c in doc["checks"] if c["status"] == "error"}
    assert sorted(errors) == ["check_exchange('augmented', 4)",
                              "check_exchange('kappa_minus', 4)"]
    assert errors["check_exchange('augmented', 4)"]["witnesses"] == [{
        "position": "exception",
        "residual": "ValueError: build_B('augmented', window=4) has degree -2 at "
                    "entry (0, 1), below the family's lowest degree 0",
    }]
    assert doc["summary"]["fail"] == sum(c["status"] != "pass" for c in doc["checks"])
    assert doc["summary"]["pass"] + doc["summary"]["fail"] == 51


def test_an_error_report_prints_its_exception(monkeypatch, capsys):
    def raises():
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(cli, "suite_checks", lambda cfg: [(raises, ())])
    assert cli.run(["rmatrix"]) == 1
    out = capsys.readouterr().out
    assert "[ERR ] raises()\n" in out
    assert "at exception: ZeroDivisionError: planted" in out
    assert "summary: 0 passed, 1 failed" in out


def test_summary_reports_wall_time_not_summed_durations(capsys):
    # the runner sets duration_ms, so the summary is checked on planted
    # reports: under --parallel the durations overlap
    reports = [CheckReport("slow on paper", "pass", duration_ms=1000.0)] * 2
    assert cli._emit(cli.SuiteConfig("rmatrix"), reports, [], 0.005, 0.0) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == "summary: 2 passed, 0 failed (5 ms)"


@pytest.mark.parametrize("flags", [[], ["--parallel"]], ids=["serial", "parallel"])
def test_the_runner_times_every_check(capsys, flags):
    _, doc = run_json(["all", "--window", "4", "--max-k", "2", *flags], capsys)
    durations = [c["duration_ms"] for c in doc["checks"]]
    assert len(durations) == 51 and all(d > 0 for d in durations)
    if not flags:
        # serial checks do not overlap; wall_s is rounded to the millisecond
        assert sum(durations) <= 1e3 * doc["wall_s"] + 0.5


def test_main_raises_systemexit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


# -- json format --------------------------------------------------------------


def test_json_document_shape(capsys):
    code, doc = run_json(["frt", "--window", "4"], capsys)
    assert code == 0
    assert set(doc) == {
        "suite", "window", "max_k", "seed", "parallel", "rational_backend",
        "python", "wall_s", "cpu_s", "checks", "summary",
    }
    assert doc["suite"] == "frt"
    assert doc["window"] == 4
    assert (doc["max_k"], doc["seed"], doc["parallel"]) == (4, 0, False)
    assert doc["rational_backend"] == exactalg.RATIONAL_BACKEND
    assert doc["python"] == platform.python_version()
    assert doc["wall_s"] >= 0 and doc["cpu_s"] >= 0
    assert doc["summary"] == {"pass": 2, "fail": 0}
    for check in doc["checks"]:
        assert set(check) == CHECK_KEYS
        assert check["status"] == "pass"
        assert check["residual_terms"] == 0
        assert check["witnesses"] == []


def test_json_is_deterministic_apart_from_timings(capsys):
    def scrubbed():
        _, doc = run_json(["onsager", "--window", "2", "--max-k", "2"], capsys)
        for check in doc["checks"]:
            check["duration_ms"] = 0.0
        doc["wall_s"] = doc["cpu_s"] = 0.0
        return doc

    assert scrubbed() == scrubbed()


def test_seed_reaches_the_sampled_check(capsys):
    _, doc = run_json(["onsager", "--window", "2", "--max-k", "2", "--seed", "7"], capsys)
    sampled = [c for c in doc["checks"] if c["name"].startswith("jacobi_sampled")]
    assert len(sampled) == 1
    assert "seed 7" in sampled[0]["region"]


def test_notes_only_for_charge_suites(capsys):
    _, doc = run_json(["charges", "--window", "3", "--max-k", "2"], capsys)
    assert doc["notes"][0] == "[t_1, I_1] for onsager: 10 normal-ordered terms"
    assert len(doc["notes"]) == 3
    _, doc = run_json(["kappa", "--window", "3", "--max-k", "2"], capsys)
    assert "notes" not in doc
    # currents names the premises of its exchange checks that other suites decide
    _, doc = run_json(["currents", "--window", "4"], capsys)
    assert doc["notes"] == [
        "exchange[onsager], exchange[augmented], exchange[invariant], exchange[kappa_minus] "
        "cite premises this suite does not decide: morphism[onsager] (suite onsager), "
        "morphism[augmented] (suite augmented), morphism[invariant] (suite invariant), "
        "morphism[kappa_minus] (suite kappa); verify all decides them"]


def test_currents_passes_on_a_failed_premise_and_says_so(monkeypatch, capsys):
    # with sl2's [e, f] doubled every morphism[f] fails, in its own suite:
    # verify currents still passes, and its note names what it left undecided
    monkeypatch.setitem(kacmoody._SL2, ("E", "F"), ((2, "H"),))
    for module, memo in ((kacmoody, "_BRACKET_MEMO"), (envelope, "_BRACKET"),
                         (envelope, "_NORMAL")):
        monkeypatch.setattr(module, memo, {})
    code, doc = run_json(["currents", "--window", "4"], capsys)
    assert code == 0 and "morphism[onsager] (suite onsager)" in doc["notes"][0]
    assert run_json(["all", "--window", "4", "--max-k", "2"], capsys)[0] == 1


def test_all_runs_every_suite(capsys):
    code, doc = run_json(["all", "--window", "4", "--max-k", "2"], capsys)
    assert code == 0
    assert len(doc["checks"]) == 51
    assert doc["summary"] == {"pass": 51, "fail": 0}
    assert "notes" in doc


# -- config files -------------------------------------------------------------


def test_config_file_supplies_fields(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": "frt", "window": 4, "format": "json"}))
    assert cli.run(["--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "frt"
    assert doc["window"] == 4


def test_flags_override_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": "frt", "window": 4}))
    _, doc = run_json(["--config", str(path), "--window", "5"], capsys)
    assert doc["window"] == 5


def test_config_errors(tmp_path, capsys):
    assert cli.run(["--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err

    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    assert cli.run(["--config", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err

    path.write_text(json.dumps({"suite": "frt", "windw": 4}))
    assert cli.run(["--config", str(path)]) == 2
    assert "unknown config keys: windw" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("window", [4]),
        ("window", 4.7),
        ("window", True),
        ("max_k", "2"),
        ("seed", None),
        ("parallel", "false"),
        ("parallel", 0),
        ("suite", 3),
        ("format", ["json"]),
    ],
)
def test_config_field_types_are_strict(tmp_path, capsys, field, value):
    cfg = {"suite": "frt", "window": 4, field: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"config field {field!r} must be" in captured.err
    assert captured.out == ""


# -- parallel execution -------------------------------------------------------


def test_import_leaves_the_process_pool_unloaded():
    # concurrent.futures (and with it multiprocessing and logging) is
    # imported only when --parallel runs
    import onsalg

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(onsalg.__file__)))
    child = "import sys, onsalg.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.split() == ["False"]


def test_parallel_matches_serial(capsys):
    _, serial = run_json(["currents", "--window", "4", "--max-k", "2"], capsys)
    _, parallel = run_json(
        ["currents", "--window", "4", "--max-k", "2", "--parallel"], capsys
    )
    names = [c["name"] for c in serial["checks"]]
    assert names == [c["name"] for c in parallel["checks"]]
    assert parallel["summary"] == {"pass": len(names), "fail": 0}
