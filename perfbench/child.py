"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <mode>

mode is `setup` (import the library and build the check list, then stop),
`pass` (run the checks untraced), `traced` (run them with spans) or
`probes` (time the layer probes).  The child prints `ready` once its check
list is built, so the parent can time set-up on its own clock, and then one
JSON line with its results.  A fresh interpreter per pass matters: the
envelope's normal-order memo is a module global that is never cleared.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _outcome(job, result, error):
    name = job.label or getattr(result, "name", None) or job.fn.__name__
    out = {"name": name, "expect": job.expect, "error": error}
    if error is not None:
        out["ok"] = False
        return out
    out["ok"] = bool(workloads.judge(job.expect, result))
    if job.expect != "notes":
        witnesses = list(result.witnesses)
        out.update(
            status=result.status,
            residual_terms=result.residual_term_count,
            witnesses=len(witnesses),
            witness_chars=sum(len(str(v)) for w in witnesses for v in w.values()),
        )
    return out


def run_job(job, tracer):
    """Run one job; an exception is recorded as a wrong verdict, not raised."""

    def build(name, layer, fn, *args, **kwargs):
        return spans.call(tracer, name, layer, "build", fn, *args, **kwargs)

    layer = job.layer or spans.layer_of(job.fn)
    span = None
    try:
        args = job.prepare(build) if job.prepare else job.args
        if tracer is None:
            result = job.fn(*args, **job.kwargs)
        else:
            with tracer.span(job.fn.__name__, layer, "check") as span:
                result = job.fn(*args, **job.kwargs)
        outcome = _outcome(job, result, None)
    except Exception as e:  # the gate counts it and the run goes on
        return _outcome(job, None, f"{type(e).__name__}: {e}")
    if span is not None:
        span.name = outcome["name"]
    return outcome


def _memo_words():
    from onsalg import envelope

    memo = getattr(envelope, "_NORMAL", None)
    if isinstance(memo, dict):
        return len(memo)
    return None, "the normal-order memo is not readable"


def environment():
    from onsalg import exactalg

    return {
        "python": platform.python_version(),
        "rational_backend": getattr(exactalg, "RATIONAL_BACKEND", None),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import onsalg  # noqa: F401  (set-up includes the import)

    jobs = workloads.build_jobs(workload, seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    tracer = spans.Tracer() if mode in ("traced", "probes") else None
    doc = {"env": environment()}
    if mode == "probes":
        doc["probes"] = probes.run_all(tracer)  # JSON carries (None, reason) as a list
    else:
        t0 = time.perf_counter()
        if tracer is None:
            outcomes = [run_job(job, None) for job in jobs]
        else:
            with tracer.span(workload, "bench", "run"):
                outcomes = [run_job(job, tracer) for job in jobs]
        doc["verify_s"] = time.perf_counter() - t0
        doc["outcomes"] = outcomes
        if tracer is not None:
            doc["memo_words"] = _memo_words()
    if tracer is not None:
        doc["run_id"] = tracer.run_id
        doc["spans"] = tracer.dump()
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
