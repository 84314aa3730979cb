"""Benchmark of the `verify` checks: one closed-loop client, one pass at a time.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Each pass is a fresh interpreter (perfbench/child.py) that imports onsalg,
builds one workload's check list and runs it serially.  Passes repeat until
`--seconds` is spent (at least MIN_PASSES), and every metric is the median
over them.  Wall and CPU time come from this script's clocks: set-up from
spawning the child to its `ready` line, CPU time and peak memory from the
child's own rusage (`os.wait4`).  `CheckReport.duration_ms` is never summed.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
untraced and traced passes alternate, the layer probes run in one more fresh
interpreter, and the last line reports the per-layer metrics.  Either way a
self-describing record (config, Python, rational backend, nproc, commit,
every pass, and with tracing every span) goes to perfbench/out/.

Every verdict is gated: a check that gives the wrong verdict or raises
counts as failed, and a check list that differs from perfbench/checks.json
is an error (exit 1, no result).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.SUITES)
MIN_PASSES = 3
MIN_SETUPS = 9
PASS_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0


class BenchError(Exception):
    pass


def spawn(workload, seed, mode):
    """Run one child; returns its JSON document plus this side's clocks."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(
            f"{mode} pass of {workload} failed (exit {proc.returncode})"
        )
    doc = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    doc.update(
        mode=mode,
        setup_s=ready - t0,
        wall_s=time.perf_counter() - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    return doc


def gate(doc, expected_names):
    """(attempted, wrong) for one pass; a changed check list is an error.

    A check that raised has no report to name it, so it matches any name.
    """
    outcomes = doc["outcomes"]
    names = [o["name"] for o in outcomes]
    if len(names) != len(expected_names) or any(
        o["error"] is None and o["name"] != want
        for o, want in zip(outcomes, expected_names)
    ):
        raise BenchError(
            "the check list differs from perfbench/checks.json: "
            f"expected {expected_names}, got {names}"
        )
    wrong = [o for o in outcomes if not o["ok"]]
    for o in wrong:
        print(f"wrong verdict: {o['name']} (expected {o['expect']}): "
              f"{o.get('error') or o.get('status')}", file=sys.stderr)
    return len(outcomes), len(wrong)


def run_passes(workload, seed, seconds, modes, started):
    """Cycle through `modes` until `seconds` are spent (MIN_PASSES at least)."""
    docs = []
    while True:
        docs.append(spawn(workload, seed, modes[len(docs) % len(modes)]))
        elapsed = time.perf_counter() - started
        next_s = statistics.median(d["wall_s"] for d in docs)
        done = len(docs) >= max(MIN_PASSES, len(modes)) and elapsed + next_s > seconds
        if done or elapsed + next_s > RUN_LIMIT_S:
            return docs


def check_times(doc):
    """Span durations of one traced pass: {check metric name: seconds}."""
    out = {}
    for row in doc["spans"]:
        if row["kind"] == "check":
            key = f"{row['layer']}.{spans.metric_name(row['name'])}"
            out[key] = out.get(key, 0.0) + row["end"] - row["start"]
    return out


def traced_metrics(doc):
    """Per-layer metrics that come from one traced pass."""
    checks = [s for s in doc["spans"] if s["kind"] == "check"]
    out = {}
    for metric, (layer, prefix) in metrics.LAYER_CHECK_TIMES.items():
        out[metric] = sum(
            (s["end"] - s["start"] for s in checks
             if s["layer"] == layer and (prefix is None or s["name"].startswith(prefix))),
            0.0,
        )
    reports = [o for o in doc["outcomes"] if "residual_terms" in o]
    out["report.residual_terms"] = sum(o["residual_terms"] for o in reports)
    out["report.witnesses"] = sum(o["witnesses"] for o in reports)
    out["report.witness_chars"] = sum(o["witness_chars"] for o in reports)
    out["envelope.normal_memo_words"] = doc["memo_words"]
    return out


def layer_table(doc):
    table = spans.layer_times(spans.spans_from_dicts(doc["spans"]))
    total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["share"] = row["inclusive_s"] / total if total else 0.0
    return table


def _median_of(dicts):
    """Per-key lower median over dicts (so counts stay whole); a
    (None, reason) value passes through."""
    out = {}
    for key in dicts[0]:
        vals = [d[key] for d in dicts]
        if any(isinstance(v, list) or v is None for v in vals):
            out[key] = next(v for v in vals if isinstance(v, list) or v is None)
        else:
            out[key] = statistics.median_low(vals)
    return out


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (record, result line)."""
    started = time.perf_counter()
    expected = json.loads((HERE / "checks.json").read_text())[workload]
    setups = [spawn(workload, seed, "setup") for _ in range(MIN_SETUPS // 2)]
    modes = ("pass", "traced") if trace else ("pass",)
    docs = run_passes(workload, seed, seconds, modes, started)
    probe_doc = spawn(workload, seed, "probes") if trace else None
    setups += [d for d in docs if d["mode"] == "pass"]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup"))

    attempted = failed = 0
    for doc in docs:
        a, w = gate(doc, expected)
        attempted += a
        failed += w
    plain = [d for d in docs if d["mode"] == "pass"]
    traced = [d for d in docs if d["mode"] == "traced"]

    def med(key, rows):
        return statistics.median(d[key] for d in rows)

    record = {
        "config": workloads.config(workload, seed),
        "env": dict(docs[0]["env"], commit=git_commit()),
        "seconds": seconds,
        "trace": trace,
        "passes": [
            {k: d[k] for k in ("mode", "setup_s", "wall_s", "verify_s", "cpu_s",
                               "peak_rss_mb")}
            for d in docs
        ],
        "setup_samples_s": [d["setup_s"] for d in setups],
    }
    if not trace:
        values = {
            "verify_s": med("verify_s", plain),
            "cpu_s": med("cpu_s", plain),
            "peak_rss_mb": med("peak_rss_mb", plain),
            "setup_s": med("setup_s", setups),
        }
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
    else:
        values = _median_of([traced_metrics(d) for d in traced])
        values.update(probe_doc["probes"])
        values["trace.overhead_s"] = med("verify_s", traced) - med("verify_s", plain)
        units = {m["name"]: m["unit"] for m in metrics.PER_LAYER}
        typical = sorted(traced, key=lambda d: d["verify_s"])[(len(traced) - 1) // 2]
        record["layers"] = layer_table(typical)
        record["check_times_s"] = [check_times(d) for d in traced]
        record["spans"] = {d["run_id"]: d["spans"] for d in traced + [probe_doc]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    for name, unit in units.items():
        v = values[name]
        entry = {"value": v, "unit": unit}
        if isinstance(v, list):  # (None, reason) from a probe that cannot run
            entry = {"value": None, "unit": unit, "reason": v[1]}
        result["metrics"][name] = entry
    record["result"] = result
    return record, result


def write_record(record):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    cfg = record["config"]
    path = out / f"{cfg['workload']}-seed{cfg['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def print_human(record):
    res = record["result"]
    cfg = record["config"]
    print(f"workload {cfg['workload']}: {len(record['passes'])} passes, "
          f"{res['attempted']} checks, {res['failed']} wrong verdicts")
    for name, m in res["metrics"].items():
        print(f"  {name:36} {m['value']!s:>24} {m['unit']}")
    if "layers" in record:
        print("  layer (median traced pass)  inclusive_s    self_s   share")
        rows = sorted(record["layers"].items(), key=lambda kv: -kv[1]["inclusive_s"])
        for layer, row in rows:
            print(f"  {layer:27} {row['inclusive_s']:11.3f} {row['self_s']:9.3f} "
                  f"{row['share']:7.1%}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "onsalg" / "__init__.py").is_file():
        print("error: no onsalg sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record, result = measure(name, args.seed, args.seconds, args.trace)
            write_record(record)
            print_human(record)
            results[name] = result
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
