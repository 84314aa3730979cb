"""Checkers fail on a perturbed structure-constant table.

serre_chevalley, jacobi, jacobi_sampled, dolan_grady, fixed_point and
current_relations take no override: the structure constants, the
realizations, the automorphisms, the abstract B(x) and the finite
presentations they test are module data (kacmoody._SL2 and _FORM,
onsager._BRACKETS, currents.REALIZATIONS, onsager._B_CURRENTS and
_DOLAN_GRADY, kacmoody._MAPS), and so are the matrices the rmatrix checks
read (tensormat._R_ROWS and _BOUNDARY).  Each test changes one entry for
its duration and pins the residual count and first witness of the
failure.  The realization rows and the Lie-side tables are also swept:
every mutant generated from the live tables must fail verify all's checks.
"""

import os
import sys

import pytest

import onsalg.cli as cli
import onsalg.currents as currents
import onsalg.envelope as envelope
import onsalg.kacmoody as kacmoody
import onsalg.onsager as onsager
import onsalg.tensormat as tensormat
from onsalg.exactalg import rat
from onsalg.tensormat import (
    build_boundary, build_r, build_rbar, check_cybe, check_nscybe, check_reflection
)

# test_acceptance sits next to this file and builds the hand-made mutants
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracles  # noqa: E402
from test_acceptance import U, X, Y, _altered_k, _mutate_entry  # noqa: E402


def _first(rep):
    assert not rep.passed and rep.witnesses, rep
    w = rep.witnesses[0]
    return rep.residual_term_count, w["position"], w["residual"]


def test_serre_chevalley_fails_without_the_central_term(monkeypatch):
    # [e_n, f_m] = h_{n+m} + c n delta_{n+m}, with the form's (e, f) = 1
    # dropped; an empty memo makes the bracket read the changed table
    monkeypatch.delitem(kacmoody._FORM, ("E", "F"))
    monkeypatch.setattr(kacmoody, "_BRACKET_MEMO", {})
    assert _first(kacmoody.check_serre_chevalley(3)) == (1, "[x0+, x0-]", "c")


def test_augmented_realization_fails_without_its_central_term(monkeypatch):
    # K[n] goes to h[n] + h[-n] + delta_{n,0} c, with the c dropped
    image = currents.REALIZATIONS["augmented"].image
    terms, _ = image["K"]
    monkeypatch.setitem(image, "K", (terms, 0))
    # the images of the two K terms of [Z+[n], Z-[m]] each lack 4c on a line
    assert _first(onsager.check_morphism("augmented", 3)) == (
        4, "[Z+[n], Z-[m]]", "4*c on n - m - 1 = 0; 4*c on n + m = 0")
    assert _first(onsager.check_fixed_point("augmented", 3)) == (1, "K[n]", "2*c on n = 0")
    # the windowed oracle fails at the first pair on one of those lines
    syms = onsager.canonical_symbols("augmented", 3)
    assert _first(oracles.fixed_point("augmented", syms, "theta2")) == (1, "K[0]", "2*c")


def test_jacobi_fails_on_a_bracket_that_is_not_antisymmetric(monkeypatch):
    # [G_n, G_m] = G_n, so [x, x] = x
    monkeypatch.setitem(onsager._BRACKETS, ("G", "G"), ((1, "G", 1, 0, 0),))
    rep = onsager.check_jacobi("onsager", 2)
    # the pullback's premise fails: the realization no longer preserves [G, G]
    assert _first(rep) == (2, "[G[n], G[m]]", "h[-n] - h[n]")
    assert len(rep.witnesses) == 1
    # the windowed oracle sees the antisymmetry fail
    rep = oracles.jacobi("onsager", 2)
    assert _first(rep) == (60, "[G[1], G[1]] + [G[1], G[1]]", "2*G[1]")
    assert rep.witnesses[1] == {
        "position": "[G[1], G[2]] + [G[2], G[1]]",
        "residual": "G[1] + G[2]",
    }


# [Z+_n, Z-_m] = 4 K_{n+m} + 4 K_{m-n+1}, with the +1 dropped
_SHIFTED_ZZ = ((4, "K", 1, 1, 0), (4, "K", -1, 1, 0))


def test_jacobi_fails_on_a_wrong_structure_constant(monkeypatch):
    monkeypatch.setitem(onsager._BRACKETS, ("Z+", "Z-"), _SHIFTED_ZZ)
    assert _first(onsager.check_jacobi("augmented", 2)) == (
        12, "[Z+[n], Z-[m]]",
        "-4*h[-n + m] + 4*h[-n + m + 1] + 4*h[n - m - 1] - 4*h[n - m]; "
        "4*c on n - m - 1 = 0; -4*c on n - m = 0")
    assert _first(oracles.jacobi("augmented", 2)) == (
        58, "(K[1], Z+[1], Z-[0])", "-8*K[0] + 8*K[2]")


def test_jacobi_sampled_fails_on_a_wrong_structure_constant(monkeypatch):
    monkeypatch.setitem(onsager._BRACKETS, ("Z+", "Z-"), _SHIFTED_ZZ)
    assert _first(onsager.check_jacobi_sampled("augmented", 12, seed=0)) == (
        79, "(Z+[12], Z-[1], K[2])", "8*K[11] - 16*K[12] + 8*K[13]")


def test_dolan_grady_fails_on_a_halved_structure_constant(monkeypatch):
    # [A_n, A_m] = 2 G_{n-m} instead of 4 G_{n-m}
    monkeypatch.setitem(onsager._BRACKETS, ("A", "A"), ((2, "G", 1, -1, 0),))
    assert _first(onsager.check_dolan_grady("onsager")) == (
        2, "[A0,[A0,[A0,A1]]] = 16 [A0,A1]", "16*G[1]")


# every relation "lhs = k rhs" of onsager._DOLAN_GRADY with k nonzero
_SCALED_RELATIONS = [
    (f, i, text) for f, rels in onsager._DOLAN_GRADY.items()
    for i, text in enumerate(rels) if not text.endswith(" = 0")
]


@pytest.mark.parametrize("family, index, text", _SCALED_RELATIONS,
                         ids=[text for _, _, text in _SCALED_RELATIONS])
def test_dolan_grady_fails_at_a_relation_with_a_changed_coefficient(
        monkeypatch, family, index, text):
    # "lhs = k rhs" stated as "lhs = k+1 rhs": only that relation fails, and
    # its residual -rhs has as many terms as rhs stated alone as "rhs = 0"
    lhs, rhs = text.split(" = ")
    k, rest = rhs.split(" ", 1)
    edited = f"{lhs} = {int(k) + 1} {rest}"
    relations = list(onsager._DOLAN_GRADY[family])
    relations[index] = edited
    monkeypatch.setitem(onsager._DOLAN_GRADY, family, tuple(relations))
    rep = onsager.check_dolan_grady(family)
    assert not rep.passed
    assert [w["position"] for w in rep.witnesses] == [edited]
    monkeypatch.setitem(onsager._DOLAN_GRADY, family, (f"{rest} = 0",))
    assert rep.residual_term_count == onsager.check_dolan_grady(family).residual_term_count


def _failure(rep):
    assert not rep.passed and rep.witnesses, rep
    return rep.name, rep.residual_term_count, rep.witnesses


def test_boundary_row_with_gamma_x_fails_as_the_hand_made_mutant(monkeypatch):
    # k_general's entry (0, 1), beta + gamma/x, as beta + gamma*x
    altered = _altered_k()
    want_reflection = _failure(check_reflection(altered))
    want_nscybe = _failure(check_nscybe(build_rbar(altered, X, Y)))
    defaults, entries = tensormat._BOUNDARY["k_general"]
    row = (defaults, {**entries, (0, 1): ((1, "beta", 0), (1, "gamma", 2))})
    monkeypatch.setitem(tensormat._BOUNDARY, "k_general", row)
    k = build_boundary("k_general", x=X)
    assert _failure(check_reflection(k)) == want_reflection
    assert _failure(check_nscybe(build_rbar(k, X, Y))) == want_nscybe
    assert want_reflection[:2] == ("reflection[k_general]", 64)
    assert want_nscybe[:2] == ("nscybe", 10892)


def test_r_row_doubled_fails_as_the_doubled_entry(monkeypatch):
    # r(u)'s entry (1, 2), -2/(u - 1), doubled
    want = _failure(check_cybe(_mutate_entry(build_r(U), 1, 2, lambda p: 2 * p)))
    monkeypatch.setitem(tensormat._R_ROWS, (1, 2), ((-4, None, 0),))
    assert _failure(check_cybe(build_r(U))) == want
    assert want[:2] == ("cybe", 12)


# every term of onsager._BRACKETS, doubled, against current_relations at
# window 4: (pair, term index, (residual terms, first position, residual))
_DOUBLED_TERMS = [
    (("A", "A"), 0, (46, "entry (0, 3), degree (0, 2)", "4*G[1]")),
    (("G", "A"), 0, (96, "entry (0, 1), degree (1, 1)", "2*A[1]")),
    (("G", "A"), 1, (96, "entry (0, 1), degree (1, 1)", "-2*A[-1]")),
    (("K", "Z+"), 0, (68, "entry (1, 0), degree (0, 2)", "Z+[1]")),
    (("K", "Z+"), 1, (76, "entry (1, 0), degree (0, 2)", "Z+[1]")),
    (("K", "Z-"), 0, (84, "entry (0, 1), degree (0, 1)", "-Z-[0]")),
    (("K", "Z-"), 1, (92, "entry (0, 1), degree (0, 1)", "-Z-[0]")),
    (("Z+", "Z-"), 0, (24, "entry (1, 2), degree (0, 2)", "-4*K[1]")),
    (("Z+", "Z-"), 1, (24, "entry (1, 2), degree (0, 2)", "-4*K[0]")),
    (("H", "E"), 0, (96, "entry (1, 0), degree (0, 1)", "E[0]")),
    (("H", "E"), 1, (96, "entry (1, 0), degree (0, 1)", "E[0]")),
    (("H", "F"), 0, (96, "entry (0, 1), degree (0, 1)", "-F[0]")),
    (("H", "F"), 1, (96, "entry (0, 1), degree (0, 1)", "-F[0]")),
    (("E", "F"), 0, (48, "entry (1, 2), degree (0, 1)", "-H[0]")),
    (("E", "F"), 1, (48, "entry (1, 2), degree (0, 1)", "-H[0]")),
]


def test_every_bracket_term_is_doubled_once():
    want = [(pair, i) for pair, terms in onsager._BRACKETS.items() for i in range(len(terms))]
    assert [(pair, i) for pair, i, _ in _DOUBLED_TERMS] == want


@pytest.mark.parametrize(
    "pair, index, want", _DOUBLED_TERMS,
    ids=[f"{x},{y}[{i}]" for (x, y), i, _ in _DOUBLED_TERMS],
)
def test_current_relations_fail_on_a_doubled_bracket_term(monkeypatch, pair, index, want):
    terms = list(onsager._BRACKETS[pair])
    k, *rest = terms[index]
    terms[index] = (2 * k, *rest)
    monkeypatch.setitem(onsager._BRACKETS, pair, tuple(terms))
    family = next(f for f, letters in onsager._LETTERS.items() if pair[0] in letters)
    rep = onsager.check_current_relations(family, 4)
    assert rep.name == f"current_relations[{family}]"
    assert _first(rep) == want


def test_current_relations_fail_without_the_invariant_factor_two(monkeypatch):
    # the realized invariant B carries 2E below the diagonal; E alone breaks
    # the exchange relation
    monkeypatch.setitem(onsager._B_CURRENTS["invariant"], (1, 0), (1, "E"))
    assert _first(onsager.check_current_relations("invariant", 6)) == (
        44, "entry (1, 2), degree (0, 1)", "H[0]")


# theta2 without its translation, and theta1 without its e/f swap, are
# both lusztig_plus
_LUSZTIG_PLUS = {
    "E": (((1, "E", -1, 0),), 0),
    "F": (((1, "F", -1, 0),), 0),
    "H": (((1, "H", -1, 0),), 0),
    "C": ((), -1),
}


@pytest.mark.parametrize(
    "family, name, rule, want",
    [
        ("augmented", "theta2", _LUSZTIG_PLUS,
         ((9, "K[n]", "-2*c on n = 0"), (25, "K[0]", "-2*c"))),
        ("onsager", "theta1", _LUSZTIG_PLUS,
         ((6, "A[n]", "2*e[-n] - 2*e[n] - 2*f[-n] + 2*f[n]"),
          (30, "A[-3]", "-2*e[-3] + 2*e[3] + 2*f[-3] - 2*f[3]"))),
    ],
)
def test_fixed_point_fails_on_a_changed_involution(monkeypatch, family, name, rule, want):
    # the symbolic witness, then the windowed oracle's at |mode| <= 3
    monkeypatch.setitem(kacmoody._MAPS, name, rule)
    assert _first(onsager.check_fixed_point(family, 3)) == want[0]
    syms = onsager.canonical_symbols(family, 3)
    assert _first(oracles.fixed_point(family, syms, name)) == want[1]


def test_automorphism_fails_on_a_map_that_is_not_an_involution(monkeypatch):
    # e[n] -> 2 e[-n] and f[n] -> f[-n]/2 preserve every bracket, but applied
    # twice they give 4 e[n] and f[n]/4
    row = dict(_LUSZTIG_PLUS, E=(((2, "E", -1, 0),), 0), F=(((rat(1, 2), "F", -1, 0),), 0))
    monkeypatch.setitem(kacmoody._MAPS, "lusztig_plus", row)
    rep = kacmoody.check_automorphism("lusztig_plus", 2)
    assert _first(rep) == (2, "involution at e[n]", "3*e[n]")
    assert [w["position"] for w in rep.witnesses] == ["involution at e[n]", "involution at f[n]"]
    # the windowed sweep, which an override selects, fails at every mode
    rep = kacmoody.check_automorphism("lusztig_plus", 2, override=lambda sym: None)
    assert _first(rep) == (10, "involution at e[-2]", "3*e[-2]")
    assert all(w["position"].startswith("involution at ") for w in rep.witnesses)


# -- the realization rows -----------------------------------------------------------


def _row_mutants():
    """Every row of currents.REALIZATIONS with one field replaced by each
    distinct value another row holds there, and with lowest moved one
    degree (two doubled) down and up, as _survivors takes them."""
    rows = currents.REALIZATIONS
    for name, row in rows.items():
        for field in row._fields:
            held = [getattr(row, field)]
            values = [getattr(other, field) for other in rows.values()]
            if field == "lowest":
                values += [row.lowest - 2, row.lowest + 2]
            for value in values:
                if value not in held:
                    held.append(value)
                    yield (name, field, value), rows, name, row._replace(**{field: value})


def _clear_memos():
    kacmoody._BRACKET_MEMO.clear()
    envelope._BRACKET.clear()
    envelope._NORMAL.clear()


def _survivors(monkeypatch, mutants):
    """The labels of the mutants under which every check of verify all at
    window 4, max-k 2 passes; a mutant is (label, container, key, value),
    meaning container[key] = value.  The unmutated run must pass, and its
    durations order the checks cheapest first, so that a mutant stops at
    its first report that is not a pass (a check that raises is an error
    report, which is not a pass)."""
    cfg = cli.SuiteConfig(suite="all", window=4, max_k=2)
    _clear_memos()
    cost = {}
    for job in cli.suite_checks(cfg):
        rep = cli._run_one(job)
        assert rep.passed, rep
        cost[job] = rep.duration_ms
    survivors = []
    for label, container, key, value in mutants:
        with monkeypatch.context() as m:
            m.setitem(container, key, value)
            _clear_memos()
            jobs = sorted(cli.suite_checks(cfg), key=lambda job: cost.get(job, 0))
            if all(cli._run_one(job).passed for job in jobs):
                survivors.append(label)
    _clear_memos()  # no bracket or normal form of a mutant outlives it
    return survivors


def test_every_realization_row_mutant_fails(monkeypatch):
    mutants = list(_row_mutants())
    assert len(mutants) >= len(currents.REALIZATIONS) * len(currents.Realization._fields)
    assert _survivors(monkeypatch, mutants) == []


# -- the Lie-side tables, entry by entry ----------------------------------------------

_SCALE = (lambda v: 2 * v, lambda v: -v)  # doubled, negated
_STEP = (lambda v: v - 1, lambda v: v + 1)
_FLIP = (lambda v: -v,)


def _term_mutants(terms, moves):
    """terms with one field of one term moved: moves maps a field's index
    to the moves of that field."""
    for i, term in enumerate(terms):
        for field, fns in moves.items():
            for fn in fns:
                new = term[:field] + (fn(term[field]),) + term[field + 1:]
                yield terms[:i] + (new,) + terms[i + 1:]


def _lie_table_mutants():
    """Every mutant of the Lie-side tables, generated from the live tables
    as (label, container, key, value).  Each onsager._BRACKETS term
    (coeff, Z, p, q, r) has its coefficient doubled and negated and p, q
    and r moved by one; each _LETTERS rule (r, sign) has r moved, its sign
    flipped, or is dropped, and a letter with no rule gains (0, +-1); each
    kacmoody._SL2 term and _FORM value is doubled and negated; each term
    (k, type, s, b) of an affine map, in kacmoody._MAPS and in every
    realization's image, has k doubled and negated, s flipped and b moved;
    and each coefficient of currents._T_ROWS and onsager._B_CURRENTS is
    doubled and negated."""
    out = []

    def add(table, container, key, values):
        out.extend(((table, key, v), container, key, v) for v in values)

    for pair, terms in onsager._BRACKETS.items():
        add("_BRACKETS", onsager._BRACKETS, pair,
            _term_mutants(terms, {0: _SCALE, 2: _STEP, 3: _STEP, 4: _STEP}))
    for letters in onsager._LETTERS.values():
        for letter, rule in letters.items():
            if rule is None:
                add("_LETTERS", letters, letter, [(0, 1), (0, -1)])
            else:
                r, sign = rule
                add("_LETTERS", letters, letter, [(r - 1, sign), (r + 1, sign), (r, -sign), None])
    for pair, terms in kacmoody._SL2.items():
        add("_SL2", kacmoody._SL2, pair, _term_mutants(terms, {0: _SCALE}))
    for pair, value in kacmoody._FORM.items():
        add("_FORM", kacmoody._FORM, pair, [fn(value) for fn in _SCALE])
    maps = [("_MAPS", row) for row in kacmoody._MAPS.values()]
    maps += [("REALIZATIONS", row.image) for row in currents.REALIZATIONS.values()]
    for table, row in maps:
        for letter, (terms, z) in row.items():
            add(table, row, letter,
                [(new, z) for new in _term_mutants(terms, {0: _SCALE, 2: _FLIP, 3: _STEP})])
    rows = [("_T_ROWS", r) for r in currents._T_ROWS.values()]
    rows += [("_B_CURRENTS", r) for r in onsager._B_CURRENTS.values()]
    for table, row in rows:
        for pos, (k, letter) in row.items():
            add(table, row, pos, [(fn(k), letter) for fn in _SCALE])
    return out


def test_every_lie_table_mutant_fails(monkeypatch):
    mutants = _lie_table_mutants()
    tables = {"_BRACKETS", "_LETTERS", "_SL2", "_FORM", "_MAPS", "REALIZATIONS",
              "_T_ROWS", "_B_CURRENTS"}
    assert {label[0] for label, *_ in mutants} == tables
    assert _survivors(monkeypatch, mutants) == []
