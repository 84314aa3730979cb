"""The benchmark's metrics, and which end-to-end number each layer metric
should move.

BENCHMARK.json lists the same names, units and directions (a test keeps
the two in step); the reasoning lives here because that file's schema has
no room for it.  `source` says where a per-layer value comes from:

- `trace`: the traced pass of the workload itself, so a layer that the
  workload does not use reads 0 there;
- `probe`: a public function timed on a fixed input, the same on every
  workload.
"""

END_TO_END = (
    # name, unit, better, bound, meaning
    ("verify_s", "s", "lower", 0.25,
     "wall time from the first check call to the last verdict"),
    ("cpu_s", "s", "lower", 0.25,
     "user + system CPU time of the pass's process"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the pass's process"),
    ("setup_s", "s", "lower", 0.25,
     "interpreter start, `import onsalg` and the built check list"),
)

_TS = "tensor_symbolic"
_SM = "series_modes"
_CD = "charges_deep"
_MS = "mutation_sweep"


def _layer(name, unit, better, source, moves, flat_on=()):
    return {"name": name, "unit": unit, "better": better, "source": source,
            "moves": moves, "flat_on": list(flat_on)}


PER_LAYER = (
    _layer("tensormat.check_s", "s", "lower", "trace",
           f"verify_s, cpu_s on {_TS}", (_SM, _CD)),
    _layer("tensormat.nscybe_k_general_s", "s", "lower", "trace",
           f"verify_s, cpu_s on {_TS}", (_SM, _CD)),
    _layer("tensormat.build_s", "s", "lower", "probe",
           f"verify_s, cpu_s on {_TS}", (_SM, _CD)),
    _layer("tensormat.matmul_3leg_ms", "ms", "lower", "probe",
           f"verify_s on {_TS}", (_SM, _CD)),
    _layer("tensormat.sub_3leg_ms", "ms", "lower", "probe",
           f"verify_s on {_TS}", (_SM, _CD)),
    _layer("tensormat.rbar_terms", "count", "lower", "probe",
           f"verify_s, peak_rss_mb on {_TS}", (_SM, _CD)),
    _layer("exactalg.mul_ms", "ms", "lower", "probe",
           f"cpu_s on every workload, most on {_TS}"),
    _layer("exactalg.add_mixed_order_ms", "ms", "lower", "probe",
           f"cpu_s on every workload, most on {_TS}"),
    _layer("kacmoody.check_s", "s", "lower", "trace",
           f"verify_s on {_SM}", (_TS,)),
    _layer("kacmoody.bracket_ms", "ms", "lower", "probe",
           f"verify_s on {_SM}", (_TS,)),
    _layer("currents.check_s", "s", "lower", "trace",
           f"verify_s on {_SM}", (_TS,)),
    _layer("currents.exchange_s", "s", "lower", "trace",
           f"verify_s on {_SM}", (_TS,)),
    _layer("currents.series_bracket_ms", "ms", "lower", "probe",
           f"verify_s on {_SM}", (_TS,)),
    _layer("onsager.check_s", "s", "lower", "trace",
           f"verify_s on {_SM}", (_TS,)),
    _layer("onsager.abstract_bracket_ms", "ms", "lower", "probe",
           f"verify_s on {_SM}", (_TS,)),
    _layer("envelope.check_s", "s", "lower", "trace",
           f"verify_s on {_CD}", (_TS, _SM)),
    _layer("envelope.quadratic_charges_s", "s", "lower", "trace",
           f"verify_s on {_CD}", (_TS, _SM)),
    _layer("envelope.build_quadratic_charge_s", "s", "lower", "probe",
           f"verify_s on {_CD}", (_TS, _SM)),
    _layer("envelope.commutator_t5_t6_s", "s", "lower", "probe",
           f"verify_s on {_CD}", (_TS, _SM)),
    _layer("envelope.charge_terms", "count", "lower", "probe",
           f"peak_rss_mb on {_CD}", (_TS, _SM)),
    _layer("envelope.normal_memo_words", "count", "lower", "trace",
           f"peak_rss_mb on {_CD}", (_TS, _SM)),
    _layer("report.residual_terms", "count", "lower", "trace",
           f"verify_s on {_MS} only", (_TS, _SM, _CD)),
    _layer("report.witnesses", "count", "higher", "trace",
           f"verify_s on {_MS} only", (_TS, _SM, _CD)),
    _layer("report.witness_chars", "count", "lower", "trace",
           f"verify_s on {_MS} only", (_TS, _SM, _CD)),
    _layer("trace.overhead_s", "s", "lower", "trace",
           "nothing: traced minus untraced verify_s, the cost of the spans"),
)

# trace-derived per-layer times: metric -> (layer, check-name prefix or None)
LAYER_CHECK_TIMES = {
    "tensormat.check_s": ("tensormat", None),
    "tensormat.nscybe_k_general_s": ("tensormat", "nscybe[k_general]"),
    "kacmoody.check_s": ("kacmoody", None),
    "currents.check_s": ("currents", None),
    "currents.exchange_s": ("currents", "exchange["),
    "onsager.check_s": ("onsager", None),
    "envelope.check_s": ("envelope", None),
    "envelope.quadratic_charges_s": ("envelope", "quadratic_charges["),
}
