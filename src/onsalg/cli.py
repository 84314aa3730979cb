"""Command-line harness: run named verification suites, report text or JSON.

Exit codes: 0 every check passed, 1 at least one failed or raised (status
error), 2 usage or configuration error (including a window below a suite's
minimum, which is rejected before any check runs).
"""

import argparse
import json
import platform
import resource
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace

from . import currents, envelope, exactalg, kacmoody, onsager, report, tensormat
from .currents import REALIZATIONS, _rbar, check_exchange, check_frt_relations
from .exactalg import spectral
from .onsager import FAMILIES
from .tensormat import build_boundary, build_r, build_rbar

SUITE_ORDER = (
    "rmatrix",
    "frt",
    "currents",
    "onsager",
    "augmented",
    "invariant",
    "kappa",
    "charges",
)

# the smallest window each suite's checks accept, where it is above 2, the
# smallest any suite takes
SUITE_MIN_WINDOW = {
    "frt": currents.MIN_WINDOW,
    "currents": currents.MIN_WINDOW,
}


@dataclass
class SuiteConfig:
    suite: str
    window: int = 6
    max_k: int = 4
    format: str = "text"
    seed: int = 0
    parallel: bool = False

    def validate(self):
        if self.suite not in SUITE_ORDER and self.suite != "all":
            raise ValueError(
                f"unknown suite {self.suite!r} (choose from "
                f"{', '.join(SUITE_ORDER + ('all',))})"
            )
        for name in SUITE_ORDER if self.suite == "all" else (self.suite,):
            need = SUITE_MIN_WINDOW.get(name, 2)
            if self.window < need:
                raise ValueError(
                    f"suite {name!r} needs window >= {need}, got {self.window}"
                )
        if self.max_k < 1:
            # the charge checks compare pairs j < k <= max-k
            raise ValueError(f"max-k must be >= 1, got {self.max_k}")
        if self.format not in ("text", "json"):
            raise ValueError(f"unknown format {self.format!r}")


# --- check runners -----------------------------------------------------
#
# Module-level so the process pool can pickle them.  The tensormat checks
# need their inputs built on the worker side, hence the small wrappers.


def _check_cybe():
    return tensormat.check_cybe(build_r(spectral("u")))


def _check_r_symmetries():
    return tensormat.check_r_symmetries(build_r(spectral("u")))


def _check_u_conditions(family, epsilon):
    return tensormat.check_U_conditions(build_boundary(family), epsilon)


def _check_reflection():
    return tensormat.check_reflection(build_boundary("k_general"))


def _check_nscybe(family):
    x, y = spectral("x"), spectral("y")
    rbar = build_rbar(build_boundary(family, x=x), x, y)
    return tensormat.check_nscybe(rbar, label=family)


def _check_m_condition(family):
    # pair the family's M with the rbar of the boundary its B(x) uses
    m = build_boundary(REALIZATIONS[family].m, x=spectral("x"))
    return tensormat.check_M_condition(m, _rbar(family))


def suite_checks(cfg):
    """The (callable, args) list for one suite, in its fixed order."""
    w, mk, seed = cfg.window, cfg.max_k, cfg.seed

    def family_block(fam):
        return [
            (onsager.check_jacobi, (fam, min(w, 4))),
            (onsager.check_jacobi_sampled, (fam, 3 * w, seed)),
            (onsager.check_dolan_grady, (fam,)),
            (onsager.check_morphism, (fam, w)),
            (kacmoody.check_automorphism, (REALIZATIONS[fam].fixing, w)),
            (onsager.check_fixed_point, (fam, w)),
        ]

    suites = {
        "rmatrix": [
            (_check_cybe, ()),
            (_check_r_symmetries, ()),
            (_check_u_conditions, ("U_diag", 1)),
            (_check_u_conditions, ("U_offdiag", -1)),
            (_check_reflection, ()),
        ]
        + [(_check_nscybe, (row.boundary[0],)) for row in REALIZATIONS.values()]
        + [(_check_nscybe, ("k_general",))]
        + [(_check_m_condition, (fam,)) for fam, row in REALIZATIONS.items() if row.m],
        "frt": [
            (kacmoody.check_serre_chevalley, ()),
            (check_frt_relations, (w,)),
        ],
        "currents": [(check_exchange, (fam, w)) for fam in REALIZATIONS]
        + [(onsager.check_current_relations, (fam, w)) for fam in FAMILIES],
        "onsager": family_block("onsager"),
        "augmented": family_block("augmented"),
        "invariant": family_block("invariant"),
        "kappa": [
            (onsager.check_morphism, ("kappa_minus", w)),
            (kacmoody.check_automorphism, (REALIZATIONS["kappa_minus"].fixing, w)),
            (kacmoody.check_automorphism, ("shift", w)),
            (onsager.check_fixed_point, ("kappa_minus", w)),
            (onsager.check_kappa_isomorphism, (w,)),
        ],
        "charges": [(envelope.check_linear_charges, (fam, w)) for fam in FAMILIES]
        + [(envelope.check_quadratic_charges, (fam, mk)) for fam in FAMILIES],
    }
    if cfg.suite == "all":
        out = []
        for name in SUITE_ORDER:
            out.extend(suites[name])
        return out
    return suites[cfg.suite]


def suite_notes(cfg):
    """Informational lines with no pass/fail verdict: for the currents
    suite, the premises its exchange checks cite and other suites decide;
    for charges and all, the mixed commutators."""
    if cfg.suite == "currents":
        where = {args[0]: name for name in SUITE_ORDER for fn, args in
                 suite_checks(replace(cfg, suite=name)) if fn is onsager.check_morphism}
        checks = ", ".join(f"exchange[{f}]" for f in REALIZATIONS)
        premises = ", ".join(f"morphism[{f}] (suite {where[f]})" for f in REALIZATIONS)
        return [f"{checks} cite premises this suite does not decide: {premises}; "
                "verify all decides them"]
    if cfg.suite not in ("charges", "all"):
        return []
    return [envelope.note_mixed_commutator(fam, 1, 1) for fam in FAMILIES]


def _cpu_seconds():
    """CPU time of this process and of its reaped children (pool workers)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _run_one(job):
    """Run one check and set its duration_ms: the whole call, building the
    check's inputs included.  An exception is the check's error report."""
    fn, args = job
    started = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as e:
        witness = {"position": "exception", "residual": f"{type(e).__name__}: {e}"}
        result = report.CheckReport(f"{fn.__name__}{args}", "error", witnesses=[witness])
    result.duration_ms = (time.perf_counter() - started) * 1000.0
    return result


def _execute(checks, parallel):
    if parallel and len(checks) > 1:
        # imported here: concurrent.futures pulls in multiprocessing and
        # logging, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            futures = [pool.submit(_run_one, job) for job in checks]
            return [f.result() for f in futures]
    return [_run_one(job) for job in checks]


# --- argument handling -------------------------------------------------

# the exact JSON type and the default of each config field; bool is not
# accepted as an int, and suite has no default
_CONFIG_TYPES = {f.name: f.type for f in fields(SuiteConfig)}
_DEFAULTS = {
    f.name: None if f.default is MISSING else f.default for f in fields(SuiteConfig)
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="verify",
        description="Run a named verification suite over the algebra library.",
    )
    p.add_argument(
        "suite",
        nargs="?",
        help=f"one of: {', '.join(SUITE_ORDER + ('all',))}",
    )
    p.add_argument(
        "--window", type=int,
        help=f"series truncation window (default {_DEFAULTS['window']})",
    )
    p.add_argument(
        "--max-k", type=int, dest="max_k",
        help=f"quadratic charge depth (default {_DEFAULTS['max_k']})",
    )
    p.add_argument("--format", choices=("text", "json"), help="report format")
    p.add_argument("--seed", type=int, help="seed for randomized spot checks")
    p.add_argument(
        "--parallel", action="store_true", default=None,
        help="run the suite's checks in worker processes",
    )
    p.add_argument("--config", help="JSON file with the same fields; flags win")
    return p


def _resolve_config(args):
    file_vals = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_vals = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ValueError(f"cannot read config {args.config!r}: {e}")
        if not isinstance(file_vals, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(file_vals) - set(_CONFIG_TYPES))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, val in file_vals.items():
            want = _CONFIG_TYPES[key]
            if type(val) is not want:
                raise ValueError(
                    f"config field {key!r} must be {want.__name__}, got {val!r}"
                )

    vals = {}
    for name, default in _DEFAULTS.items():
        flag_val = getattr(args, name)
        vals[name] = file_vals.get(name, default) if flag_val is None else flag_val
    if vals["suite"] is None:
        raise ValueError("no suite given (pass one or set it in --config)")
    cfg = SuiteConfig(**vals)
    cfg.validate()
    return cfg


def _emit(cfg, reports, notes, wall_s, cpu_s):
    npass = sum(1 for r in reports if r.passed)
    nfail = len(reports) - npass
    if cfg.format == "json":
        doc = {
            "suite": cfg.suite,
            "window": cfg.window,
            "max_k": cfg.max_k,
            "seed": cfg.seed,
            "parallel": cfg.parallel,
            "rational_backend": exactalg.RATIONAL_BACKEND,
            "python": platform.python_version(),
            "wall_s": round(wall_s, 3),
            "cpu_s": round(cpu_s, 3),
            "checks": [r.as_dict() for r in reports],
            "summary": {"pass": npass, "fail": nfail},
        }
        if notes:
            doc["notes"] = notes
        print(json.dumps(doc, indent=2))
    else:
        for r in reports:
            print(r)
        for note in notes:
            print(f"note: {note}")
        # wall time: under --parallel the per-check durations overlap
        print(f"summary: {npass} passed, {nfail} failed ({1e3 * wall_s:.0f} ms)")
    return 0 if nfail == 0 else 1


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _resolve_config(args)
        started, cpu_started = time.perf_counter(), _cpu_seconds()
        reports = _execute(suite_checks(cfg), cfg.parallel)
        wall_s = time.perf_counter() - started
        cpu_s = _cpu_seconds() - cpu_started
        notes = suite_notes(cfg)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return _emit(cfg, reports, notes, wall_s, cpu_s)


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
