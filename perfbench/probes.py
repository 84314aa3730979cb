"""Layer probes: public library functions timed on fixed inputs.

Each probe returns metric -> value.  A probe whose public function is gone
reports every one of its metrics as None with the reason, and the run goes
on; the library's internals can change without editing the benchmark.
Run in a fresh interpreter, envelope first, so its memo starts cold.
"""

import statistics
import time

from spans import call


def _timed(tracer, name, layer, fn, *args, repeat=1):
    """(median seconds over `repeat` calls, last result)."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = call(tracer, name, layer, "kernel", fn, *args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def envelope_probe(tracer):
    from onsalg import envelope

    build_s, ts = _timed(tracer, "build_quadratic_charge", "envelope",
                         envelope.build_quadratic_charge, "augmented", 6)
    commutator_s, _ = _timed(tracer, "uea_commutator[t_5, t_6]", "envelope",
                             envelope.uea_commutator, ts[5], ts[6])
    return {
        "envelope.build_quadratic_charge_s": build_s,
        "envelope.commutator_t5_t6_s": commutator_s,
        "envelope.charge_terms": sum(len(t.terms) for t in ts.values()),
    }


def tensormat_probe(tracer):
    from onsalg.exactalg import LaurentPoly, spectral
    from onsalg.tensormat import build_boundary, build_rbar, leg_embed

    x, y = spectral("x"), spectral("y")
    x1, x2, x3 = spectral("x1"), spectral("x2"), spectral("x3")

    def rbar_k_general():
        return build_rbar(build_boundary("k_general", x=x), x, y)

    build_s, rbar = _timed(tracer, "build_rbar[k_general]", "tensormat",
                           rbar_k_general, repeat=3)

    def at(vi, vj, legs):
        sub = {x: LaurentPoly.var(vi, (vi,)), y: LaurentPoly.var(vj, (vj,))}
        return leg_embed(rbar.substitute(sub), legs, 3)

    rb13, rb23 = at(x1, x3, (1, 3)), at(x2, x3, (2, 3))
    rb21, rb12 = at(x2, x1, (2, 1)), at(x1, x2, (1, 2))
    matmul_s, _ = _timed(tracer, "matmul_3leg", "tensormat",
                         rb13.__matmul__, rb23, repeat=3)
    c1 = rb13.commutator(rb23)
    c2 = rb21.commutator(rb13)
    c3 = rb23.commutator(rb12)
    sub_s, _ = _timed(tracer, "sub_3leg", "tensormat",
                      lambda: c1 - c2 - c3, repeat=2)
    return {
        "tensormat.build_s": build_s,
        "tensormat.rbar_terms": rbar.term_count(),
        "tensormat.matmul_3leg_ms": 1e3 * matmul_s,
        "tensormat.sub_3leg_ms": 1e3 * sub_s,
    }


def _power_sum(variables, degree):
    """(1 + 2 v_1 + ... + (n+1) v_n)^degree, v_i sorted by name, held over
    the given variable order."""
    from onsalg.exactalg import LaurentPoly

    base = LaurentPoly.const(1, variables)
    for i, v in enumerate(sorted(variables, key=lambda v: v.name)):
        base = base + LaurentPoly.var(v, variables) * (i + 2)
    out = base
    for _ in range(degree - 1):
        out = out * base
    return out


def exactalg_probe(tracer):
    from onsalg.exactalg import parameter, spectral

    order = (spectral("x1"), spectral("x2"), spectral("x3"),
             parameter("alpha"), parameter("beta"))
    p = _power_sum(order, 4)
    mul_s, prod = _timed(tracer, "mul", "exactalg", p.__mul__, p, repeat=5)
    # the same polynomial over the reversed variable order: the sum must
    # first bring both operands into one order
    a = _power_sum(order, 6)
    b = _power_sum(order[::-1], 6)
    add_s, total = _timed(tracer, "add_mixed_order", "exactalg",
                          a.__add__, b, repeat=21)
    if (total - a * 2).terms or (prod - p * p).terms:
        raise ValueError("exactalg probe computed a wrong result")
    return {
        "exactalg.mul_ms": 1e3 * mul_s,
        "exactalg.add_mixed_order_ms": 1e3 * add_s,
    }


def kacmoody_probe(tracer):
    from onsalg.kacmoody import E, F, H, LieElt, bracket

    def dense(shift):
        out = LieElt.zero()
        for n in range(-8, 9):
            out = out + LieElt.single(E(n), n + shift) + LieElt.single(F(n), 2)
            out = out + LieElt.single(H(n), n - shift)
        return out

    secs, _ = _timed(tracer, "bracket", "kacmoody", bracket, dense(1), dense(3),
                     repeat=21)
    return {"kacmoody.bracket_ms": 1e3 * secs}


def currents_probe(tracer):
    from onsalg.currents import build_T, series_bracket
    from onsalg.exactalg import spectral

    tp = build_T("+", 8, spectral("x"))
    tm = build_T("-", 8, spectral("y"))
    secs, _ = _timed(tracer, "series_bracket", "currents", series_bracket, tp, tm,
                     repeat=5)
    return {"currents.series_bracket_ms": 1e3 * secs}


def onsager_probe(tracer):
    from onsalg.onsager import OnsElt, abstract_bracket, canonical_symbols, ons

    def dense(fam, shift):
        out = OnsElt.zero()
        for s in canonical_symbols(fam, 8):
            out = out + ons(fam, s.letter, s.mode, s.mode + shift)
        return out

    secs, _ = _timed(tracer, "abstract_bracket", "onsager", abstract_bracket,
                     dense("augmented", 1), dense("augmented", 3), repeat=5)
    return {"onsager.abstract_bracket_ms": 1e3 * secs}


# envelope first: its memo must be cold
PROBES = (
    (envelope_probe, ("envelope.build_quadratic_charge_s",
                      "envelope.commutator_t5_t6_s", "envelope.charge_terms")),
    (tensormat_probe, ("tensormat.build_s", "tensormat.rbar_terms",
                       "tensormat.matmul_3leg_ms", "tensormat.sub_3leg_ms")),
    (exactalg_probe, ("exactalg.mul_ms", "exactalg.add_mixed_order_ms")),
    (kacmoody_probe, ("kacmoody.bracket_ms",)),
    (currents_probe, ("currents.series_bracket_ms",)),
    (onsager_probe, ("onsager.abstract_bracket_ms",)),
)


def run_all(tracer):
    """metric -> value, or -> (None, reason) when the probe cannot run."""
    out = {}
    for probe, names in PROBES:
        try:
            with tracer.span(probe.__name__, "bench", "probe"):
                got = probe(tracer)
        except (AttributeError, ImportError) as e:
            reason = f"{probe.__name__}: {type(e).__name__}: {e}"
            got = {n: (None, reason) for n in names}
        out.update(got)
    return out
