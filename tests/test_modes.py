"""The mode checks, decided for every mode, against their windowed oracles.

automorphism, morphism, fixed_point, kappa_isomorphism and jacobi decide
their identities at symbolic modes (onsalg.modes).  A symbolic pass is a
claim about every concrete mode, so here, on random concrete modes and on
single-table mutants, whatever the windowed oracles (tests/oracles.py and
the override path's sweep) find must fail the symbolic check, and a
symbolic residual read at those modes must be the concrete residual.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onsalg.cli as cli
import onsalg.currents as currents
import onsalg.kacmoody as kacmoody
import onsalg.onsager as onsager
import onsalg.tensormat as tensormat
from onsalg import modes
from onsalg.exactalg import rat
from onsalg.kacmoody import C, BasisSymbol, _basis_bracket, _homomorphism, _map_fn
from onsalg.onsager import _pair_bracket, canonicalize, morphism_image
from onsalg.report import Residuals

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracles  # noqa: E402
from test_mutations import _clear_memos  # noqa: E402

_MAPS, _LETTERS, _BRACKETS = kacmoody._MAPS, onsager._LETTERS, onsager._BRACKETS
_IMAGES = {f: row.image for f, row in currents.REALIZATIONS.items()}
_LUSZTIG_PLUS = {"E": (((1, "E", -1, 0),), 0), "F": (((1, "F", -1, 0),), 0),
                 "H": (((1, "H", -1, 0),), 0), "C": ((), -1)}

# single-table mutants, as (container, key, value): None is the live tables
MUTANTS = [
    None,
    (_BRACKETS, ("Z+", "Z-"), ((4, "K", 1, 1, 0), (4, "K", -1, 1, 0))),
    (_BRACKETS, ("G", "A"), ((4, "A", 1, 1, 0), (-2, "A", -1, 1, 0))),
    (_BRACKETS, ("H", "E"), ((2, "E", 1, 1, 0), (2, "E", -1, 1, 1))),
    (kacmoody._SL2, ("E", "F"), ((2, "H"),)),
    (kacmoody._FORM, ("H", "H"), 4),
    (_MAPS, "theta1", _LUSZTIG_PLUS),
    (_MAPS, "lusztig_plus", dict(_LUSZTIG_PLUS, E=(((2, "E", -1, 0),), 0),
                                 F=(((rat(1, 2), "F", -1, 0),), 0))),
    (_MAPS, "shift", dict(_MAPS["shift"], H=(((1, "H", 1, 0),), 0))),
    (_IMAGES["augmented"], "K", (_IMAGES["augmented"]["K"][0], 0)),
    (_IMAGES["onsager"], "A", (((2, "E", 1, 0), (2, "F", 1, 0)), 0)),
    (_IMAGES["kappa_minus"], "E", (((1, "E", 1, 1), (1, "E", -1, 0)), 0)),
    (_LETTERS["onsager"], "G", (1, -1)),
    (_LETTERS["invariant"], "E", None),
]


def _syms(family, mode):
    """The canonical generators of family at mode, letter by letter."""
    out = [canonicalize(family, letter, mode)[1] for letter in _LETTERS[family]]
    return [s for s in out if s is not None and s.mode == mode]


def _automorphism(name, n, m, _):
    image = kacmoody._memo_image(_map_fn(name), lambda sym: None)
    res = Residuals()
    basis = [[BasisSymbol(t, k) for t in "EFH"] + [C] for k in (n, m)]
    _homomorphism(res, *basis, image, _basis_bracket, _basis_bracket, 1)
    if all(s == -1 for terms, _ in _MAPS[name].values() for _, _, s, _ in terms):
        for sym in basis[0]:
            res.add(image(sym).linear(image) - kacmoody.LieElt.single(sym), "{}", sym)
    return res


def _morphism(family, n, m, _):
    row = currents.REALIZATIONS[family]
    res = Residuals()
    _homomorphism(res, _syms(row.family, n), _syms(row.family, m),
                  lambda s: morphism_image(family, s), _pair_bracket, _basis_bracket, -1)
    return res


def _fixed_point(family, n, m, _):
    row = currents.REALIZATIONS[family]
    return oracles.fixed_point(family, _syms(row.family, n) + _syms(row.family, m), row.fixing)


def _kappa(_, n, m, __):
    return oracles.kappa_isomorphism(_syms("invariant", n) + _syms("invariant", m))


def _jacobi(family, n, m, k):
    syms = sorted({s for mode in (n, m, k) for s in _syms(family, mode)})
    return oracles.jacobi(family, syms=syms)


def check_jacobi(family):
    """jacobi[family] with the premise it cites, morphism[family]: the
    first report that fails, else jacobi's."""
    reps = [onsager.check_jacobi(family), onsager.check_morphism(family)]
    return next((r for r in reps if not r.passed), reps[0])


# the 17 checks the library decides for every mode, each with its oracle;
# jacobi's symbolic side is jacobi[f] or the morphism[f] it cites
CHECKS = (
    [(kacmoody.check_automorphism, name, _automorphism) for name in kacmoody.MAP_NAMES]
    + [(onsager.check_morphism, f, _morphism) for f in currents.REALIZATIONS]
    + [(onsager.check_fixed_point, f, _fixed_point) for f in currents.REALIZATIONS]
    + [(lambda _: onsager.check_kappa_isomorphism(), None, _kappa)]
    + [(check_jacobi, f, _jacobi) for f in onsager.FAMILIES]
)


def _failed(oracle):
    return bool(oracle.count) if isinstance(oracle, Residuals) else not oracle.passed


@pytest.mark.parametrize("check, arg, oracle", CHECKS,
                         ids=[f"{c.__name__}[{a}]" for c, a, _ in CHECKS])
@settings(max_examples=40, deadline=None)
@given(mutant=st.sampled_from(MUTANTS), n=st.integers(-5, 5), m=st.integers(-5, 5),
       k=st.integers(-5, 5))
def test_symbolic_verdict_agrees_with_the_windowed_oracle(check, arg, oracle, mutant, n, m, k):
    with pytest.MonkeyPatch.context() as patch:
        if mutant:
            patch.setitem(*mutant)
        _clear_memos()
        try:
            rep = check(arg)
            found = _failed(oracle(arg, n, m, k))
        finally:
            _clear_memos()
    assert not (found and rep.passed), (rep, n, m, k)
    if mutant is None:
        assert rep.passed and not found, rep


def _symbolic(image, firsts, seconds, product, bracket, sign):
    """Each residual of _homomorphism, in its order."""
    got = []

    class Grab:
        def add(self, residual, position, *args):
            got.append(residual)

    _homomorphism(Grab(), firsts, seconds, image, product, bracket, sign)
    return got


@pytest.mark.parametrize("name", kacmoody.MAP_NAMES)
@settings(max_examples=30, deadline=None)
@given(mutant=st.sampled_from(MUTANTS), n=st.integers(-6, 6), m=st.integers(-6, 6))
def test_symbolic_residuals_read_at_modes_are_the_concrete_ones(name, mutant, n, m):
    # every pair (x[n], y[m]) of basis types and c, and the square at x[n]
    with pytest.MonkeyPatch.context() as patch:
        if mutant:
            patch.setitem(*mutant)
        _clear_memos()
        try:
            row = _MAPS[name]
            types = [[modes.Loop(t, f) for t in "EFH"] + [modes.C] for f in (modes.N, modes.M)]
            sym = _symbolic(lambda key: modes.image(row, key), *types,
                            kacmoody._loop, kacmoody._loop, 1)
            image = kacmoody._memo_image(_map_fn(name), lambda s: None)
            basis = [[BasisSymbol(t, j) for t in "EFH"] + [C] for j in (n, m)]
            got = _symbolic(image, *basis, _basis_bracket, _basis_bracket, 1)
            assert [oracles.at(r, n, m) for r in sym] == got
            for t in "EFH":
                twice = modes.image(row, modes.Loop(t, modes.N)).linear(
                    lambda key: modes.image(row, key))
                assert oracles.at(twice, n) == kacmoody.apply_map(
                    name, kacmoody.apply_map(name, kacmoody.LieElt.single(BasisSymbol(t, n))))
        finally:
            _clear_memos()


@pytest.mark.parametrize("family", list(currents.REALIZATIONS))
@given(n=st.integers(-6, 6), m=st.integers(-6, 6))
def test_raw_bracket_read_at_modes_is_the_table_bracket(family, n, m):
    # with no mutant the realization is well defined, so the symbolic raw
    # residual at canonical modes is the windowed sweep's, and the raw
    # bracket at canonical modes, canonicalised, is _pair_bracket
    row = currents.REALIZATIONS[family]
    letters = list(_LETTERS[row.family])
    sym = _symbolic(lambda key: modes.image(row.image, key),
                    [modes.Gen(x, modes.N) for x in letters],
                    [modes.Gen(x, modes.M) for x in letters], onsager._raw, kacmoody._loop, -1)
    raw = {(x, y): r for (x, y), r in zip(((x, y) for x in letters for y in letters), sym)}
    for a in _syms(row.family, n):
        for b in _syms(row.family, m):
            got = _symbolic(lambda s: morphism_image(family, s), [a], [b],
                            _pair_bracket, _basis_bracket, -1)
            assert [oracles.at(raw[a.letter, b.letter], n, m)] == got
            pair = onsager._raw(modes.Gen(a.letter, modes.N), modes.Gen(b.letter, modes.M))
            at = oracles.at(onsager.OnsElt(dict(pair)), n, m, family=row.family)
            canon = sum((onsager.ons(row.family, s.letter, s.mode, c)
                         for s, c in at.terms.items()), onsager.OnsElt.zero())
            single = onsager.OnsElt.single
            assert canon == onsager.abstract_bracket(single(a), single(b))


# -- vacuity ----------------------------------------------------------------------


@pytest.mark.parametrize("check", [
    lambda: onsager.check_morphism("onsager"),
    lambda: onsager.check_fixed_point("onsager"),
    lambda: onsager.check_jacobi("onsager"),
])
def test_a_proof_over_an_empty_letter_table_fails(monkeypatch, check):
    # with no letters, morphism and fixed_point decide nothing; jacobi still
    # decides the loop axioms, but its realization premises are gone, so
    # only the two that decide nothing must fail, with a witness saying so
    monkeypatch.setitem(_LETTERS, "onsager", {})
    rep = check()
    if rep.name.startswith("jacobi"):
        assert rep.passed and "(36 identities)" in rep.region
        return
    assert not rep.passed
    assert rep.witnesses == [{"position": "vacuous proof", "residual": "no identity was decided"}]
    assert rep.region.endswith("(0 identities)")


def test_every_mode_check_counts_what_it_decided():
    reps = [cli._run_one(job) for suite in ("onsager", "augmented", "invariant", "kappa")
            for job in cli.suite_checks(cli.SuiteConfig(suite=suite, window=2))]
    proved = [r for r in reps if r.region.endswith(" identities)")]
    assert len(proved) == 17
    assert all(r.passed and "(0 identities)" not in r.region for r in proved)


# -- witness order and the hash seed ---------------------------------------------------

_WITNESSES = """
import json
import onsalg.onsager as onsager
onsager._BRACKETS[("Z+", "Z-")] = ((4, "K", 1, 1, 0), (4, "K", -1, 1, 0))
onsager._LETTERS["onsager"]["G"] = (1, -1)
reps = [onsager.check_morphism("augmented"), onsager.check_morphism("onsager")]
print(json.dumps([r.witnesses for r in reps]))
"""


def test_witness_order_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _WITNESSES], env=env, check=True,
                             capture_output=True, text=True).stdout
        runs.append(json.loads(out))
    assert runs[0] == runs[1]
    assert all(witnesses for witnesses in runs[0])


# -- the lead-term test of injectivity ----------------------------------------------


def test_injective_says_the_lead_term_test_did_not_decide(monkeypatch):
    # A -> e[n] + e[n + 1] has independent images over all n, but its lead
    # e[n] is in A[m] at m = n - 1: the sufficient test fails, and the
    # witness says it decided nothing, not that the map is not injective
    monkeypatch.setitem(_IMAGES["onsager"], "A", (((1, "E", 1, 0), (1, "E", 1, 1)), 0))
    rep = onsager.check_morphism("onsager")
    assert not rep.passed
    assert {"position": "injective at A[n], every n",
            "residual": "undecided (the lead-term test is only sufficient): "
                        "e[n] is in A[m] for infinitely many n"} in rep.witnesses


# -- K(x) scaled by x ------------------------------------------------------------------


@pytest.mark.parametrize("family, check", [
    ("kappa_plus", "exchange[invariant]"),
    ("kappa_minus", "exchange[kappa_minus]"),
])
def test_k_scaled_by_x_fails_verify_all_in_exchange(monkeypatch, family, check):
    # x K(x) leaves rbar alone and adds -c to B(x) at degree 0, which
    # commutes with every term of the exchange relation; B = D phi(B_abs)
    # D^-1 sees it
    defaults, entries = tensormat._BOUNDARY[family]
    raised = {pos: tuple((k, p, e + 2) for k, p, e in terms) for pos, terms in entries.items()}
    monkeypatch.setitem(tensormat._BOUNDARY, family, (defaults, raised))
    cfg = cli.SuiteConfig(suite="all", window=6, max_k=4)
    failed = [r for r in map(cli._run_one, cli.suite_checks(cfg)) if not r.passed]
    assert [r.name for r in failed] == [check]
    assert failed[0].witnesses[0] == {
        "position": "realized B entry (0, 0), degree (0,)", "residual": "-c"}
