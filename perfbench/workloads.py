"""The benchmark's workloads: which checks run, and which verdict each must give.

Passing workloads take their check lists from `cli.suite_checks`, so they
run exactly what `verify <suite>` runs.  Together they cover the check list
of `verify all --window 8 --max-k 6`.  `mutation_sweep` feeds every checker
a documented perturbed input, which it must reject with witnesses.  Only
public names of the library are used here, so its internals can change
without editing the benchmark.
"""

from dataclasses import dataclass, field

WINDOW = 8
MAX_K = 6

# workload -> suites run, in `cli.SUITE_ORDER` order
SUITES = {
    "tensor_symbolic": ("rmatrix",),
    "series_modes": ("frt", "currents", "onsager", "augmented", "invariant", "kappa"),
    "charges_deep": ("charges",),
    "mutation_sweep": (),
}

# The mutation sweep raises every window argument to WINDOW; the perturbed
# quadratic charges keep their documented depth, which is a max-k.
QUADRATIC_MUTATION_MAX_K = 2


@dataclass
class Job:
    """One call into the library whose result the gate judges.

    expect is "pass" (a passing report with no residual terms), "fail"
    (a failing report with at least one witness) or "notes" (a non-empty
    list of note strings).  prepare, if given, builds the checker's
    arguments; it receives a `build(name, layer, fn, *args)` callable that
    records each builder call as a span.
    """

    fn: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    expect: str = "pass"
    layer: str = ""
    prepare: object = None
    label: str = ""


def config(workload, seed):
    """The workload's settings, as recorded in every result."""
    return {
        "workload": workload,
        "suites": list(SUITES[workload]),
        "window": WINDOW,
        "max_k": MAX_K,
        "seed": seed,
    }


def build_jobs(workload, seed):
    if workload == "mutation_sweep":
        return mutation_jobs()
    from onsalg import cli

    jobs = []
    for suite in SUITES[workload]:
        cfg = cli.SuiteConfig(suite=suite, window=WINDOW, max_k=MAX_K, seed=seed)
        cfg.validate()
        jobs.extend(Job(fn, tuple(args)) for fn, args in cli.suite_checks(cfg))
        if suite == "charges":
            jobs.append(
                Job(cli.suite_notes, (cfg,), expect="notes", layer="envelope",
                    label="notes[charges]")
            )
    return jobs


def judge(expect, result):
    """Whether a job's result is the verdict the workload expects."""
    if expect == "notes":
        return (
            isinstance(result, list)
            and bool(result)
            and all(isinstance(n, str) for n in result)
        )
    if expect == "pass":
        return result.passed and result.residual_term_count == 0
    return not result.passed and len(result.witnesses) > 0


# -- the mutation sweep --------------------------------------------------------
#
# The perturbed inputs of the acceptance test of the same name, built from
# public operations only, with the checkers' windows raised to WINDOW.


def _entry_scaled(m, i, j, factor):
    """m with entry (i, j) multiplied by factor, via unit projectors."""
    from onsalg.tensormat import TensorMat

    dim = m.dim

    def unit(k):
        return TensorMat(
            m.legs, [[int(a == b == k) for b in range(dim)] for a in range(dim)]
        )

    return m + (unit(i) @ m @ unit(j)).scale(factor - 1)


def _altered_k(b):
    """k_general with entry (0,1) = beta + gamma*x instead of beta + gamma/x."""
    from onsalg.exactalg import LaurentPoly
    from onsalg.tensormat import BoundaryMat, TensorMat

    x, ga = b.x, b.params["gamma"]
    g = LaurentPoly.var(ga, (ga,))
    shift = g * LaurentPoly.var(x, (x,)) - g * LaurentPoly.monomial((x,), (-2,), 1)
    zero = LaurentPoly.zero()
    delta = TensorMat(1, [[zero, shift], [zero, zero]])
    return BoundaryMat(b.family, b.mat + delta, x, b.params)


def _shifted_theta(sym):
    from onsalg.kacmoody import F, LieElt

    if sym.type == "E":
        return LieElt.single(F(-sym.mode + 1))
    return None


def _dropped_f(sym):
    from onsalg.kacmoody import E, LieElt

    if sym.letter == "A":
        return LieElt.single(E(sym.mode), 2)
    return None


def mutation_jobs():
    from onsalg import currents, envelope, kacmoody, onsager, tensormat
    from onsalg.exactalg import spectral

    u, x, y = spectral("u"), spectral("x"), spectral("y")

    def r_entry(i, j, factor):
        def prepare(build):
            r = build("build_r", "tensormat", tensormat.build_r, u)
            return (build("perturb_entry", "tensormat", _entry_scaled, r, i, j, factor),)

        return prepare

    def boundary(family, epsilon):
        def prepare(build):
            return (build("build_boundary", "tensormat", tensormat.build_boundary, family),
                    epsilon)

        return prepare

    def altered_k(prepare_rbar):
        def prepare(build):
            b = build("build_boundary", "tensormat", tensormat.build_boundary,
                      "k_general", x=x)
            k = build("perturb_k", "tensormat", _altered_k, b)
            if not prepare_rbar:
                return (k,)
            return (build("build_rbar", "tensormat", tensormat.build_rbar, k, x, y),)

        return prepare

    def m_with_wrong_rbar(build):
        m = build("build_boundary", "tensormat", tensormat.build_boundary, "M_ons", x=x)
        b = build("build_boundary", "tensormat", tensormat.build_boundary,
                  "U_offdiag", x=x)
        return m, build("build_rbar", "tensormat", tensormat.build_rbar, b, x, y)

    def bad(fn, args=(), kwargs=None, prepare=None):
        return Job(fn, args, kwargs or {}, expect="fail", prepare=prepare)

    w = WINDOW
    return [
        bad(tensormat.check_cybe, prepare=r_entry(1, 2, 2)),
        bad(tensormat.check_r_symmetries, prepare=r_entry(0, 0, -1)),
        bad(tensormat.check_U_conditions, prepare=boundary("U_diag", -1)),
        bad(tensormat.check_reflection, prepare=altered_k(False)),
        bad(tensormat.check_nscybe, prepare=altered_k(True)),
        bad(tensormat.check_M_condition, prepare=m_with_wrong_rbar),
        bad(kacmoody.check_automorphism, ("theta1", w), {"override": _shifted_theta}),
        bad(currents.check_frt_relations, (w,), {"omit_central": True}),
        bad(currents.check_exchange, ("onsager", w), {"rbar_family": "augmented"}),
        bad(onsager.check_morphism, ("onsager", w), {"override": _dropped_f}),
        bad(onsager.check_kappa_isomorphism, (w,), {"correspondence_shift": 1}),
        bad(envelope.check_linear_charges, ("onsager", w), {"mutate": True}),
        bad(envelope.check_quadratic_charges, ("onsager", QUADRATIC_MUTATION_MAX_K),
            {"mutate": True}),
    ]
