"""The abstract subalgebra families, their realizations, and the checks."""

import pickle
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onsalg import onsager
from onsalg.currents import REALIZATIONS, _series, build_B
from onsalg.kacmoody import BasisSymbol, C, E as me, F as mf, H as mh, LieElt
from onsalg.onsager import (
    FAMILIES,
    OnsSymbol,
    abstract_bracket,
    build_abstract_B,
    canonical_symbols,
    canonicalize,
    check_current_relations,
    check_dolan_grady,
    check_fixed_point,
    check_jacobi,
    check_jacobi_sampled,
    check_kappa_isomorphism,
    check_morphism,
    morphism_image,
    ons,
)


# -- interned generators ------------------------------------------------------

BOUND = 2**31
modes = st.integers(-BOUND + 1, BOUND - 1)
_HEADS = [("onsager", "A"), ("onsager", "G"), ("augmented", "K"), ("augmented", "Z+"),
          ("augmented", "Z-"), ("invariant", "H"), ("invariant", "E"), ("invariant", "F")]
generators = st.builds(lambda head, n: OnsSymbol(*head, n), st.sampled_from(_HEADS), modes)


def test_generators_are_interned_and_immutable():
    a = OnsSymbol("onsager", "A", 3)
    assert a is OnsSymbol("onsager", "A", 3)
    assert ons("augmented", "Z+", 0).terms.keys() == {OnsSymbol("augmented", "Z+", 1)}
    with pytest.raises(AttributeError, match="immutable"):
        a.mode = 4
    with pytest.raises(AttributeError, match="immutable"):
        a.letter = "G"
    assert (a.family, a.letter, a.mode) == ("onsager", "A", 3)


def test_pickle_returns_the_interned_generator():
    for sym in (OnsSymbol("onsager", "G", 2), OnsSymbol("augmented", "Z-", -BOUND + 1)):
        assert pickle.loads(pickle.dumps(sym)) is sym


@given(st.lists(generators, max_size=12))
def test_generators_sort_as_their_family_letter_mode_tuples(syms):
    # the order the frozen dataclass had, which LinComb.__str__ prints in
    assert sorted(syms) == sorted(syms, key=lambda s: (s.family, s.letter, s.mode))


def test_no_generator_equals_a_basis_symbol():
    # the classes take disjoint ranges of values, over every valid mode
    lowest = min(OnsSymbol(*head, -BOUND + 1) for head in _HEADS)
    assert max(BasisSymbol(t, BOUND - 1) for t in "EFH") < lowest


# -- index symmetries --------------------------------------------------------


def test_onsager_canonicalization():
    assert ons("onsager", "G", -2) == -ons("onsager", "G", 2)
    assert not ons("onsager", "G", 0)
    assert ons("onsager", "A", -5) != ons("onsager", "A", 5)


def test_augmented_canonicalization():
    assert ons("augmented", "K", -3) == ons("augmented", "K", 3)
    assert ons("augmented", "Z+", 0) == ons("augmented", "Z+", 1)
    assert ons("augmented", "Z+", -2) == ons("augmented", "Z+", 3)
    assert ons("augmented", "Z-", -1) == ons("augmented", "Z-", 0)
    assert ons("augmented", "Z-", -4) == ons("augmented", "Z-", 3)


def test_invariant_canonicalization():
    for letter in ("H", "E", "F"):
        assert ons("invariant", letter, -2) == ons("invariant", letter, 2)


def test_canonical_symbols_order_is_pinned():
    # witness order follows this order, so it must not change
    assert [str(s) for s in canonical_symbols("onsager", 3)] == [
        "A[-3]", "A[-2]", "A[-1]", "A[0]", "A[1]", "A[2]", "A[3]",
        "G[1]", "G[2]", "G[3]",
    ]
    assert [str(s) for s in canonical_symbols("augmented", 3)] == [
        "K[0]", "K[1]", "K[2]", "K[3]", "Z+[1]", "Z+[2]", "Z+[3]",
        "Z-[0]", "Z-[1]", "Z-[2]", "Z-[3]",
    ]
    assert [str(s) for s in canonical_symbols("invariant", 3)] == [
        f"{letter}[{n}]" for letter in ("H", "E", "F") for n in range(4)
    ]


# (sign, canonical mode) of letter[m] for m = -4..4; None where it is zero
_CANONICAL = {
    ("onsager", "A"): [(1, m) for m in range(-4, 5)],
    ("onsager", "G"): [(-1, 4), (-1, 3), (-1, 2), (-1, 1), (0, None),
                       (1, 1), (1, 2), (1, 3), (1, 4)],
    ("augmented", "K"): [(1, abs(m)) for m in range(-4, 5)],
    ("augmented", "Z+"): [(1, 5), (1, 4), (1, 3), (1, 2), (1, 1),
                          (1, 1), (1, 2), (1, 3), (1, 4)],
    ("augmented", "Z-"): [(1, 3), (1, 2), (1, 1), (1, 0), (1, 0),
                          (1, 1), (1, 2), (1, 3), (1, 4)],
    ("invariant", "H"): [(1, abs(m)) for m in range(-4, 5)],
    ("invariant", "E"): [(1, abs(m)) for m in range(-4, 5)],
    ("invariant", "F"): [(1, abs(m)) for m in range(-4, 5)],
}


@pytest.mark.parametrize("family, letter", list(_CANONICAL))
def test_canonicalize_is_pinned(family, letter):
    got = []
    for m in range(-4, 5):
        sign, sym = canonicalize(family, letter, m)
        if sym is not None:
            assert (sym.family, sym.letter) == (family, letter)
        got.append((sign, sym.mode if sym is not None else None))
    assert got == _CANONICAL[family, letter]


# -- bracket tables -----------------------------------------------------------


def test_onsager_brackets():
    br = abstract_bracket
    assert br(ons("onsager", "A", 1), ons("onsager", "A", 3)) == ons(
        "onsager", "G", 2, -4
    )
    assert br(ons("onsager", "G", 1), ons("onsager", "A", 0)) == (
        ons("onsager", "A", 1, 2) - ons("onsager", "A", -1, 2)
    )
    assert not br(ons("onsager", "G", 2), ons("onsager", "G", 5))


def test_augmented_brackets():
    br = abstract_bracket
    assert br(ons("augmented", "K", 1), ons("augmented", "Z+", 2)) == (
        ons("augmented", "Z+", 3, 2) + ons("augmented", "Z+", 1, 2)
    )
    assert br(ons("augmented", "K", 1), ons("augmented", "Z-", 2)) == (
        ons("augmented", "Z-", 3, -2) + ons("augmented", "Z-", 1, -2)
    )
    assert br(ons("augmented", "Z+", 1), ons("augmented", "Z-", 0)) == (
        ons("augmented", "K", 1, 4) + ons("augmented", "K", 0, 4)
    )
    assert not br(ons("augmented", "Z+", 2), ons("augmented", "Z+", 5))
    assert not br(ons("augmented", "K", 2), ons("augmented", "K", 3))


def test_invariant_brackets():
    br = abstract_bracket
    assert br(ons("invariant", "H", 1), ons("invariant", "E", 2)) == (
        ons("invariant", "E", 3, 2) + ons("invariant", "E", 1, 2)
    )
    assert br(ons("invariant", "H", 1), ons("invariant", "F", 2)) == (
        ons("invariant", "F", 3, -2) + ons("invariant", "F", 1, -2)
    )
    assert br(ons("invariant", "E", 1), ons("invariant", "F", 1)) == (
        ons("invariant", "H", 2) + ons("invariant", "H", 0)
    )
    assert not br(ons("invariant", "E", 0), ons("invariant", "E", 4))


@st.composite
def family_elts(draw, family):
    syms = canonical_symbols(family, 4)
    n = draw(st.integers(0, 3))
    out = ons(family, syms[0].letter, syms[0].mode, 0)
    for _ in range(n):
        s = draw(st.sampled_from(syms))
        out = out + ons(family, s.letter, s.mode, draw(st.integers(-4, 4)))
    return out


@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data())
def test_bracket_antisymmetric(family, data):
    a, b = data.draw(family_elts(family)), data.draw(family_elts(family))
    assert abstract_bracket(a, b) == -abstract_bracket(b, a)


@pytest.mark.parametrize("family", FAMILIES)
def test_jacobi_window_four(family):
    rep = check_jacobi(family, 4)
    assert rep.passed, rep


@pytest.mark.parametrize("family", FAMILIES)
def test_jacobi_sampled(family):
    assert check_jacobi_sampled(family, 18, seed=0).passed
    assert check_jacobi_sampled(family, 18, seed=12345).passed


@pytest.mark.parametrize("family", FAMILIES)
def test_defining_relations(family):
    rep = check_dolan_grady(family)
    assert rep.passed, rep


# -- realizations in the mode algebra ----------------------------------------


def test_morphism_images():
    cases = [
        ("onsager", OnsSymbol("onsager", "A", 3),
         LieElt.single(me(3), 2) + LieElt.single(mf(-3), 2)),
        ("onsager", OnsSymbol("onsager", "G", 2),
         LieElt.single(mh(2)) + LieElt.single(mh(-2), -1)),
        ("augmented", OnsSymbol("augmented", "K", 0),
         LieElt.single(mh(0), 2) + LieElt.single(C)),
        ("augmented", OnsSymbol("augmented", "Z+", 2),
         LieElt.single(me(2), 2) + LieElt.single(me(-1), 2)),
        ("augmented", OnsSymbol("augmented", "Z-", 2),
         LieElt.single(mf(2), 2) + LieElt.single(mf(-3), 2)),
        ("invariant", OnsSymbol("invariant", "E", 2),
         LieElt.single(me(2)) + LieElt.single(me(-2))),
        ("kappa_minus", OnsSymbol("invariant", "E", 2),
         LieElt.single(me(3)) + LieElt.single(me(-1))),
        ("kappa_minus", OnsSymbol("invariant", "F", 2),
         LieElt.single(mf(1)) + LieElt.single(mf(-3))),
        ("kappa_minus", OnsSymbol("invariant", "H", 0),
         LieElt.single(mh(0), 2) + LieElt.single(C, 2)),
    ]
    for family, sym, want in cases:
        assert morphism_image(family, sym) == want, (family, str(sym))


@pytest.mark.parametrize("family", list(REALIZATIONS))
def test_morphisms(family):
    rep = check_morphism(family, 8)
    assert rep.passed, rep


def test_morphism_fails_without_f_term():
    def drop_f(sym):
        if sym.letter == "A":
            return LieElt.single(me(sym.mode), 2)
        return None

    rep = check_morphism("onsager", 4, override=drop_f)
    assert not rep.passed
    assert rep.residual_term_count == 144
    assert rep.witnesses[0] == {
        "position": "[A[-4], A[-3]]",
        "residual": "-4*h[-1] + 4*h[1]",
    }


@pytest.mark.parametrize("family", list(REALIZATIONS))
def test_fixed_points(family):
    rep = check_fixed_point(family, 8)
    assert rep.passed, rep


def test_kappa_isomorphism():
    assert check_kappa_isomorphism(8).passed


def test_kappa_isomorphism_fails_when_shifted():
    rep = check_kappa_isomorphism(8, correspondence_shift=1)
    assert not rep.passed
    assert rep.witnesses[0] == {
        "position": "H[n]",
        "residual": "-h[-n - 1] + h[-n] + h[n] - h[n + 1]; 2*c on n = 0; -2*c on n + 1 = 0",
    }


# -- generating series -------------------------------------------------------


def _letter_series(family, letter, window, x=None):
    """The generating series of one current letter of family, truncated at
    degree window: _series with a single row at (0, 0), so it reads the
    letter's coefficients as the family's abstract B(x) does."""
    letters = onsager._CURRENTS[family]
    return _series({(0, 0): (1, letter)}, letters, partial(ons, family), window, x)


def test_current_layout():
    g = _letter_series("onsager", "G", 3)
    assert sorted(g.entry(0, 0)) == [(2,), (4,), (6,)]
    assert g.entry(0, 0)[(2,)] == ons("onsager", "G", 1)

    k = _letter_series("augmented", "K", 3)
    # the zero mode enters halved
    assert k.entry(0, 0)[(0,)] == ons("augmented", "K", 0, "1/2")
    assert k.entry(0, 0)[(4,)] == ons("augmented", "K", 2)

    am = _letter_series("onsager", "A-", 2)
    assert am.entry(0, 0)[(0,)] == ons("onsager", "A", 0)
    assert am.entry(0, 0)[(4,)] == ons("onsager", "A", -2)


# _letter_series(family, letter, 3): the (letter, mode) at degree 2n for
# n = 1, 2, 3; the lowest degree; the degree-0 (letter, mode, coefficient)
_CURRENTS = {
    ("onsager", "G"): ((("G", 1), ("G", 2), ("G", 3)), 2, None),
    ("onsager", "A+"): ((("A", 1), ("A", 2), ("A", 3)), 2, None),
    ("onsager", "A-"): ((("A", -1), ("A", -2), ("A", -3)), 0, ("A", 0, 1)),
    ("augmented", "K"): ((("K", 1), ("K", 2), ("K", 3)), 0, ("K", 0, "1/2")),
    ("augmented", "Z+"): ((("Z+", 1), ("Z+", 2), ("Z+", 3)), 2, None),
    ("augmented", "Z-"): ((("Z-", 1), ("Z-", 2), ("Z-", 3)), 0, ("Z-", 0, 1)),
    ("invariant", "H"): ((("H", 1), ("H", 2), ("H", 3)), 0, ("H", 0, "1/2")),
    ("invariant", "E"): ((("E", 1), ("E", 2), ("E", 3)), 0, ("E", 0, "1/2")),
    ("invariant", "F"): ((("F", 1), ("F", 2), ("F", 3)), 0, ("F", 0, "1/2")),
}


@pytest.mark.parametrize("family, letter", list(_CURRENTS))
def test_build_current_is_pinned(family, letter):
    higher, lo, zero = _CURRENTS[family, letter]
    cur = _letter_series(family, letter, 3)
    coeffs = cur.entry(0, 0)
    want = {(2 * n,): ons(family, g, m) for n, (g, m) in enumerate(higher, 1)}
    if zero is not None:
        want[(0,)] = ons(family, *zero)
    assert sorted(coeffs) == sorted(want)
    assert coeffs == want
    (meta,) = cur.metas
    assert (meta.natural_lo, meta.natural_hi, meta.trunc_lo, meta.trunc_hi) == (
        lo, None, None, 6)


@pytest.mark.parametrize("family", FAMILIES)
def test_current_relations(family):
    rep = check_current_relations(family, 6)
    assert rep.passed, rep


def test_current_relations_reject_thin_window():
    with pytest.raises(ValueError):
        check_current_relations("onsager", 2)


@pytest.mark.parametrize("family", FAMILIES)
def test_abstract_B_realizes_as_build_B(family):
    # the morphism image of every coefficient of the abstract B(x) is the
    # realized B(x)'s, and both have the same exact window
    window = 5
    abstract = build_abstract_B(family, window)
    realized = build_B(family, window)
    assert abstract.metas == realized.metas
    assert sorted(abstract.entries) == sorted(realized.entries)
    for pos, coeffs in abstract.entries.items():
        image = {
            deg: elt.linear(lambda sym: morphism_image(family, sym))
            for deg, elt in coeffs.items()
        }
        assert image == realized.entry(*pos)


@pytest.mark.parametrize("family", FAMILIES)
def test_current_relations_region(family):
    # one exchange relation, compared on the abstract B's exact window in x
    # and in y
    for window in (4, 7):
        rep = check_current_relations(family, window)
        assert rep.region == f"x in [0, {window}], y in [0, {window}]"


def test_current_relations_fail_with_tagged_witnesses(monkeypatch):
    import onsalg.onsager as onsager

    real = onsager._pair_bracket
    monkeypatch.setattr(
        onsager, "_pair_bracket", lambda a, b: [(s, 2 * k) for s, k in real(a, b)]
    )
    rep = check_current_relations("onsager", 4)
    assert not rep.passed and rep.residual_term_count > 0
    # the entry of the 2-leg matrix names the pair of currents
    first = rep.witnesses[0]
    assert first["position"].startswith("entry (0, 1), degree (")
    assert "A[" in first["residual"]


# -- input guards -----------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: OnsSymbol("onsager", "K", 1),
         "'K' is not a generator letter of family 'onsager'"),
        (lambda: OnsSymbol("bogus", "A", 1),
         "'A' is not a generator letter of family 'bogus'"),
        (lambda: check_morphism("bogus", 2), "unknown family 'bogus'"),
        (lambda: canonicalize("bogus", "H", 1), "unknown family 'bogus'"),
        (lambda: abstract_bracket(ons("onsager", "A", 1), ons("invariant", "H", 1)),
         "cannot bracket generators of families 'onsager' and 'invariant'"),
        (lambda: morphism_image("bogus", OnsSymbol("invariant", "H", 1)),
         "unknown family 'bogus'"),
        (lambda: morphism_image("onsager", OnsSymbol("augmented", "K", 0)),
         "the 'onsager' realization takes generators of family 'onsager', "
         "not of family 'augmented'"),
        (lambda: morphism_image("invariant", OnsSymbol("onsager", "A", 1)),
         "the 'invariant' realization takes generators of family 'invariant', "
         "not of family 'onsager'"),
        (lambda: morphism_image("kappa_minus", OnsSymbol("onsager", "A", 1)),
         "the 'kappa_minus' realization takes generators of family 'invariant', "
         "not of family 'onsager'"),
        (lambda: check_dolan_grady("bogus"), "unknown family 'bogus'"),
        (lambda: check_current_relations("bogus", 3), "unknown family 'bogus'"),
        (lambda: check_current_relations("onsager", 3), "window must be >= 4"),
        (lambda: build_abstract_B("kappa_minus", 3),
         r"unknown family 'kappa_minus' \(choose from onsager, augmented, invariant\)"),
        (lambda: build_abstract_B("onsager", -1), "window must be >= 0, not -1"),
        (lambda: check_fixed_point("bogus", 3),
         r"unknown family 'bogus' \(choose from onsager, augmented, invariant, kappa_minus\)"),
        (lambda: check_jacobi("bogus", 2),
         r"unknown family 'bogus' \(choose from onsager, augmented, invariant\)"),
        (lambda: check_jacobi_sampled("bogus", 2, seed=0), "unknown family 'bogus'"),
        (lambda: canonical_symbols("bogus", 2), "unknown family 'bogus'"),
        (lambda: canonical_symbols("onsager", -1), "window must be >= 0, not -1"),
        (lambda: check_morphism("onsager", -1), "window must be >= 0, not -1"),
        (lambda: check_jacobi("augmented", -1), "window must be >= 0, not -1"),
        (lambda: check_fixed_point("invariant", -1), "window must be >= 0, not -1"),
        (lambda: check_kappa_isomorphism(-1), "window must be >= 0, not -1"),
        (lambda: OnsSymbol("onsager", "A", 2**31),
         "a mode must lie strictly between -2[*][*]31 and 2[*][*]31"),
        (lambda: ons("invariant", "H", -2**31),
         "a mode must lie strictly between -2[*][*]31 and 2[*][*]31"),
    ],
    ids=["letter", "symbol_family", "morphism_family", "canonicalize_family", "bracket_families", "image_family",
         "image_of_augmented_in_onsager", "image_of_onsager_in_invariant",
         "image_of_onsager_in_kappa_minus", "dolan_grady_family",
         "current_relations_family", "current_relations_window", "abstract_B_family",
         "abstract_B_window", "fixed_point_family", "jacobi_family",
         "jacobi_sampled_family", "symbols_family", "symbols_window",
         "morphism_window", "jacobi_window", "fixed_point_window", "kappa_window",
         "mode_above", "mode_below"],
)
def test_guards_raise_value_error(call, message):
    # explicit exceptions, so python -O keeps them
    with pytest.raises(ValueError, match=message):
        call()
