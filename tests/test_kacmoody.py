"""The mode Lie algebra: interned basis symbols, bracket tables, named
maps, consistency checks."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onsalg.kacmoody import (
    BasisSymbol,
    C,
    E,
    F,
    H,
    LieElt,
    MAP_NAMES,
    apply_map,
    bracket,
    check_automorphism,
    check_serre_chevalley,
)

MODES = range(-3, 4)
SYMS = [C] + [g(n) for g in (E, F, H) for n in MODES]


@st.composite
def lie_elts(draw):
    n = draw(st.integers(0, 4))
    out = LieElt.zero()
    for _ in range(n):
        out = out + LieElt.single(draw(st.sampled_from(SYMS)),
                                  draw(st.integers(-5, 5)))
    return out


# -- interned basis symbols -------------------------------------------------

BOUND = 2**31
modes = st.integers(-BOUND + 1, BOUND - 1)
symbols = st.one_of(
    st.just(C), st.builds(BasisSymbol, st.sampled_from("EFH"), modes)
)


def test_symbols_are_interned():
    assert E(3) is BasisSymbol("E", 3)
    assert BasisSymbol("C") is BasisSymbol("C", 0) is C
    assert E(3) is not F(3) and E(3) != F(3) and E(3) != E(4)


def test_symbols_are_immutable():
    sym = H(2)
    with pytest.raises(AttributeError, match="immutable"):
        sym.mode = 3
    with pytest.raises(AttributeError, match="immutable"):
        sym.other = 1
    with pytest.raises(AttributeError, match="immutable"):
        del sym.type
    assert sym.type == "H" and sym.mode == 2 and sym is H(2)


@pytest.mark.parametrize("sym", [C, E(-3), F(0), H(BOUND - 1)], ids=str)
def test_pickle_returns_the_interned_symbol(sym):
    assert pickle.loads(pickle.dumps(sym)) is sym
    assert pickle.loads(pickle.dumps(LieElt.single(sym, 2))) == LieElt.single(sym, 2)


def test_symbol_strings():
    assert [str(s) for s in (C, E(-1), F(0), H(12))] == ["c", "e[-1]", "f[0]", "h[12]"]
    assert repr(E(3)) == "BasisSymbol(type='E', mode=3)"
    assert f"{F(-2)}" == "f[-2]"


@given(st.lists(symbols, max_size=12))
def test_symbols_sort_as_their_type_mode_tuples(syms):
    # the order the frozen dataclass had, which LinComb.__str__ prints in
    assert sorted(syms) == sorted(syms, key=lambda s: (s.type, s.mode))
    assert all(s for s in syms)


# -- the structure constants ----------------------------------------------


@pytest.mark.parametrize("n", MODES)
@pytest.mark.parametrize("m", MODES)
def test_bracket_table(n, m):
    e_n, f_m = LieElt.single(E(n)), LieElt.single(F(m))
    h_n, e_m = LieElt.single(H(n)), LieElt.single(E(m))
    h_m, f_mm = LieElt.single(H(m)), LieElt.single(F(m))

    want_ef = LieElt.single(H(n + m))
    if n + m == 0:
        want_ef = want_ef + LieElt.single(C, n)
    assert bracket(e_n, f_m) == want_ef

    assert bracket(h_n, e_m) == LieElt.single(E(n + m), 2)
    assert bracket(h_n, f_mm) == LieElt.single(F(n + m), -2)

    want_hh = LieElt.single(C, 2 * n) if n + m == 0 else LieElt.zero()
    assert bracket(h_n, LieElt.single(H(m))) == want_hh

    assert not bracket(e_n, LieElt.single(E(m)))
    assert not bracket(LieElt.single(F(n)), f_m)
    assert not bracket(LieElt.single(C), LieElt.single(E(m)))


def test_strings():
    assert str(bracket(LieElt.single(E(0)), LieElt.single(F(0)))) == "h[0]"
    assert str(bracket(LieElt.single(H(1)), LieElt.single(H(-1)))) == "2*c"
    assert str(LieElt.single(F(-2), -2)) == "-2*f[-2]"


@given(lie_elts(), lie_elts())
def test_bracket_antisymmetric(a, b):
    assert bracket(a, b) == -bracket(b, a)


@given(lie_elts(), lie_elts(), lie_elts())
def test_bracket_jacobi(a, b, c):
    total = (
        bracket(bracket(a, b), c)
        + bracket(bracket(b, c), a)
        + bracket(bracket(c, a), b)
    )
    assert not total


@given(lie_elts(), lie_elts(), lie_elts())
def test_bracket_bilinear(a, b, c):
    assert bracket(a + b, c) == bracket(a, c) + bracket(b, c)
    assert bracket(a, b + c) == bracket(a, b) + bracket(a, c)


# -- the named order-two maps ----------------------------------------------


def test_map_images():
    cases = {
        "theta1": [(E(2), LieElt.single(F(-2))),
                   (F(2), LieElt.single(E(-2))),
                   (H(2), LieElt.single(H(-2), -1)),
                   (C, LieElt.single(C, -1))],
        "theta2": [(E(2), LieElt.single(E(-1))),
                   (F(2), LieElt.single(F(-3))),
                   (H(2), LieElt.single(H(-2))),
                   (H(0), LieElt.single(H(0)) + LieElt.single(C)),
                   (C, LieElt.single(C, -1))],
        "lusztig_plus": [(E(2), LieElt.single(E(-2))),
                         (F(2), LieElt.single(F(-2))),
                         (H(2), LieElt.single(H(-2))),
                         (C, LieElt.single(C, -1))],
        "lusztig_minus": [(E(2), LieElt.single(E(0))),
                          (F(2), LieElt.single(F(-4))),
                          (H(0), LieElt.single(H(0)) + LieElt.single(C, 2)),
                          (C, LieElt.single(C, -1))],
        "shift": [(E(2), LieElt.single(E(3))),
                  (F(2), LieElt.single(F(1))),
                  (H(0), LieElt.single(H(0)) + LieElt.single(C)),
                  (H(2), LieElt.single(H(2))),
                  (C, LieElt.single(C))],
    }
    for name, pairs in cases.items():
        for sym, want in pairs:
            assert apply_map(name, LieElt.single(sym)) == want, (name, sym)


# The named maps in an independent encoding, (swap, s, b): e_n goes to
# e_{s n + b} and f_n to f_{s n - b}, with e and f exchanged when swap is
# set; h_n goes to h_{s n} + b delta_{n,0} c, with h_{s n} negated when swap
# is set; c goes to s c.
_SWAP_RULES = {
    "theta1": (True, -1, 0),
    "theta2": (False, -1, 1),
    "lusztig_plus": (False, -1, 0),
    "lusztig_minus": (False, -1, 2),
    "shift": (False, 1, 1),
}


def _swap_rule_image(rule, sym):
    swap, s, b = rule
    t, n = sym.type, sym.mode
    if t == "C":
        return LieElt.single(C, s)
    if t == "H":
        return LieElt({H(s * n): -1 if swap else 1, C: b if n == 0 else 0})
    if t == "E":
        return LieElt.single((F if swap else E)(s * n + b))
    return LieElt.single((E if swap else F)(s * n - b))


def test_the_map_table_names_the_swap_rules():
    assert set(MAP_NAMES) == set(_SWAP_RULES)


@pytest.mark.parametrize("name", sorted(_SWAP_RULES))
def test_map_table_agrees_with_the_swap_rule(name):
    rule = _SWAP_RULES[name]
    syms = [C] + [g(n) for g in (E, F, H) for n in range(-6, 7)]
    for sym in syms:
        want = _swap_rule_image(rule, sym)
        assert apply_map(name, LieElt.single(sym)) == want, (name, sym)


@pytest.mark.parametrize("name", MAP_NAMES)
def test_named_maps_are_automorphisms(name):
    rep = check_automorphism(name)
    assert rep.passed, rep


def test_mutated_map_fails():
    # e_n -> f_{-n+1} instead of f_{-n}, everything else as theta1
    def override(sym):
        if sym.type == "E":
            return LieElt.single(F(-sym.mode + 1))
        return None

    rep = check_automorphism("theta1", 3, override=override)
    assert not rep.passed
    assert rep.witnesses[0] == {
        "position": "[e[-3], f[-3]]",
        "residual": "-h[6] + h[7]",
    }


def test_serre_chevalley():
    rep = check_serre_chevalley()
    assert rep.passed, rep
    assert rep.region == (
        "generator relations; k0 + k1 central at every integer mode (20 identities)")


# -- input guards -----------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BasisSymbol("X", 1), "type must be E, F, H or C, not 'X'"),
        (lambda: BasisSymbol("C", 2), "the central element C has mode 0, not 2"),
        (lambda: check_automorphism("bogus"),
         r"unknown map 'bogus' \(choose from theta1, theta2, lusztig_plus, lusztig_minus, shift\)"),
        (lambda: apply_map("bogus", LieElt.single(C)), "unknown map 'bogus'"),
        # the override sweep is the one part of automorphism that reads a window
        (lambda: check_automorphism("theta1", -1, override=lambda sym: None),
         "window must be >= 0, not -1"),
        (lambda: check_automorphism("theta1", override=lambda sym: None),
         "window must be >= 0, not None"),
        (lambda: E(2**31), "a mode must lie strictly between -2[*][*]31 and 2[*][*]31"),
        (lambda: H(-2**31), "a mode must lie strictly between -2[*][*]31 and 2[*][*]31"),
    ],
    ids=["type", "central_mode", "automorphism_map", "apply_map", "automorphism_window",
         "automorphism_override_without_window",
         "mode_above", "mode_below"],
)
def test_guards_raise_value_error(call, message):
    # explicit exceptions, so python -O keeps them
    with pytest.raises(ValueError, match=message):
        call()
