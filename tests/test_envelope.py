"""Normal-ordered products and the commuting charge hierarchies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onsalg import envelope
from onsalg.currents import build_B, build_T
from onsalg.envelope import (
    UeaElt,
    build_linear_charge,
    build_quadratic_charge,
    check_linear_charges,
    check_quadratic_charges,
    lie_to_uea,
    note_mixed_commutator,
    uea_commutator,
    uea_mul,
)
from onsalg.exactalg import LaurentPoly, parameter, rat, spectral
from onsalg.kacmoody import C, E, F, H, LieElt, bracket
from onsalg.onsager import FAMILIES, abstract_bracket, canonical_symbols, morphism_image

SYMS = [C] + [g(n) for g in (E, F, H) for n in range(-2, 3)]


def single(sym, c=1):
    return lie_to_uea(LieElt.single(sym, c))


# -- normal ordering ----------------------------------------------------------


def test_reordering_produces_the_bracket():
    # f0 e0 = e0 f0 + [f0, e0] = e0 f0 - h0
    got = uea_mul(single(F(0)), single(E(0)))
    want = UeaElt({(E(0), F(0)): 1, (H(0),): -1})
    assert got == want


def test_cartan_moves_left():
    got = uea_mul(single(E(0)), single(H(0)))
    want = UeaElt({(H(0), E(0)): 1, (E(0),): -2})
    assert got == want


def test_central_element_is_inert():
    ce = single(C)
    x = single(E(1))
    assert uea_mul(ce, x) == uea_mul(x, ce)
    assert not uea_commutator(ce, x)


@given(st.sampled_from(SYMS), st.sampled_from(SYMS))
def test_commutator_agrees_with_lie_bracket(a, b):
    lhs = uea_commutator(single(a), single(b))
    rhs = lie_to_uea(bracket(LieElt.single(a), LieElt.single(b)))
    assert lhs == rhs


@given(st.sampled_from(SYMS), st.sampled_from(SYMS), st.sampled_from(SYMS))
def test_multiplication_associates(a, b, c):
    x, y, z = single(a), single(b), single(c)
    assert uea_mul(uea_mul(x, y), z) == uea_mul(x, uea_mul(y, z))


TAU = LaurentPoly.var(parameter("tau"))


def words_over(syms):
    """Sums of one- to four-letter words in syms, with integer, half-integer
    or parameter coefficients (products of halves must come back to their
    stored form)."""
    return st.dictionaries(
        st.lists(st.sampled_from(syms), min_size=1, max_size=4).map(tuple),
        st.one_of(
            st.integers(-3, 3).filter(bool),
            st.integers(-3, 3).filter(bool).map(lambda n: rat(1, 2) * n),
            st.integers(-3, 3).filter(bool).map(lambda n: TAU * n),
        ),
        min_size=1,
        max_size=3,
    ).map(UeaElt)


elements = words_over(SYMS)


@given(elements, elements)
def test_leibniz_commutator_matches_both_products(x, y):
    assert uea_commutator(x, y) == uea_mul(x, y) - uea_mul(y, x)


# two elements of one family's enveloping algebra, in its canonical
# generators with |mode| <= 2
family_pairs = st.sampled_from(FAMILIES).map(lambda f: canonical_symbols(f, 2)).flatmap(
    lambda syms: st.tuples(words_over(syms), words_over(syms))
)


@given(family_pairs)
def test_leibniz_commutator_matches_both_products_in_each_family(pair):
    x, y = pair
    assert uea_commutator(x, y) == uea_mul(x, y) - uea_mul(y, x)


# -- quadratic charges ---------------------------------------------------------


def test_t0_frozen():
    assert str(build_quadratic_charge("onsager", 0)[0]) == "0"
    assert str(build_quadratic_charge("augmented", 0)[0]) == "(1/2)*K[0]*K[0]"
    assert (
        str(build_quadratic_charge("invariant", 0)[0])
        == "(-2)*H[0] + (1/2)*H[0]*H[0] + (2)*E[0]*F[0]"
    )


def _realized_charges(family, max_k):
    """t_0..t_max_k of tr(B(x)^2) for the realized B of build_B, normal
    ordered in U(affine sl2): an independent construction of the images of
    the abstract charges."""
    b = build_B(family, max_k + 1)
    out = [UeaElt.zero()] * (max_k + 1)
    for i in range(b.dim):
        for j in range(b.dim):
            for (da,), la in b.entry(i, j).items():
                for (db,), lb in b.entry(j, i).items():
                    d = da + db
                    if 0 <= d <= 2 * max_k and d % 2 == 0:
                        out[d // 2] = out[d // 2] + uea_mul(lie_to_uea(la), lie_to_uea(lb))
    return out


def _realize(family, elt):
    """The image of an element of U(family) in U(affine sl2): each word
    goes to the product of its letters' morphism images."""
    total = UeaElt.zero()
    for word, c in elt.terms.items():
        prod = UeaElt({(): c})
        for sym in word:
            prod = uea_mul(prod, lie_to_uea(morphism_image(family, sym)))
        total = total + prod
    return total


@pytest.mark.parametrize("family", FAMILIES)
def test_abstract_charges_realize_as_the_realized_charges(family):
    # the realization maps each t_k of U(family) onto the t_k that
    # tr(B(x)^2) gives for the realized B, so a pass in U(family) is the
    # realized identity too
    abstract = build_quadratic_charge(family, 4)
    assert [_realize(family, abstract[k]) for k in range(5)] == _realized_charges(family, 4)


@pytest.mark.parametrize("family", FAMILIES)
def test_realization_is_injective_on_the_charge_modes(family):
    # [t_j, t_k] with j, k <= max_k holds generators with |mode| <= 2 max_k.
    # Each of their images holds a basis symbol that no other canonical
    # generator's image holds, so the images are linearly independent, and
    # by PBW a failure in U(family) is a failure in U(affine sl2) too.  The
    # realizations shift modes by at most 1, so a generator with |mode| >
    # window + 2 holds only basis symbols beyond every image checked here.
    window = 2 * 4
    images = {s: morphism_image(family, s) for s in canonical_symbols(family, window + 2)}
    holders = {}
    for sym, image in images.items():
        for basis in image.terms:
            holders.setdefault(basis, []).append(sym)
    for sym in canonical_symbols(family, window):
        assert any(holders[basis] == [sym] for basis in images[sym].terms), sym


@pytest.mark.parametrize("family", ["onsager", "augmented", "invariant"])
def test_quadratic_charges_commute(family):
    rep = check_quadratic_charges(family, 3)
    assert rep.passed, rep


@pytest.mark.parametrize("family", ["onsager", "augmented", "invariant"])
def test_quadratic_mutation_fails(family):
    rep = check_quadratic_charges(family, 2, mutate=True)
    assert not rep.passed
    assert rep.witnesses


def test_quadratic_mutation_frozen():
    rep = check_quadratic_charges("onsager", 4, mutate=True)
    assert rep.residual_term_count == 12
    assert len(rep.witnesses) == 3
    assert rep.witnesses[0] == {
        "position": "[t_1, t_2]",
        "residual": "(-4)*A[-2]*A[1] + (-4)*A[-1]*A[0] + (4)*A[0]*A[3] "
                    "+ (4)*A[1]*A[2]",
    }


# -- linear charges --------------------------------------------------------------


def test_linear_charge_frozen():
    assert str(build_linear_charge("onsager", 1)) == (
        "kappa*A[-1] + kappastar*A[0] + kappa*A[1] + kappastar*A[2] + mu*G[2]"
    )
    assert str(build_linear_charge("augmented", 0)) == (
        "(1/2*tau)*K[0] + nu*Z+[1] + nustar*Z-[0]"
    )
    assert str(build_linear_charge("invariant", 0)) == (
        "mu1*E[0] + mu2*F[0] + (1/2*mu0)*H[0]"
    )


@pytest.mark.parametrize("family", ["onsager", "augmented", "invariant"])
def test_linear_charges_commute(family):
    rep = check_linear_charges(family, 6)
    assert rep.passed, rep


@pytest.mark.parametrize("max_k", [0, 3, 8])
@pytest.mark.parametrize("family", ["onsager", "augmented", "invariant"])
def test_one_series_gives_every_linear_charge(family, max_k):
    # check_linear_charges reads every charge off one series of window
    # max_k + 1; charge k must equal build_linear_charge(family, k) and the
    # mode-2k coefficient of the series of window k + 2, one mode wider
    charges = envelope._series_charges(family, max_k)
    own = [
        envelope._weight_series(family, k + 2, spectral("x")).entry(0, 0).get((2 * k,))
        for k in range(max_k + 1)
    ]
    assert charges == own
    assert charges == [build_linear_charge(family, k) for k in range(max_k + 1)]


@pytest.mark.parametrize("max_k", range(9))
@pytest.mark.parametrize(
    "family, extra", [("onsager", 0), ("augmented", 0), ("invariant", 2)]
)
def test_charge_series_window_reaches_the_last_charge(monkeypatch, family, extra, max_k):
    # _series_charges builds one series of window max_k + 1, which is exact
    # up to mode 2 max_k (one mode further for invariant): just wide enough
    # for every charge up to max_k
    built = []
    series = envelope._weight_series

    def spy(family, window, x):
        out = series(family, window, x)
        built.append((window, out.metas[0].exact_window()))
        return out

    monkeypatch.setattr(envelope, "_weight_series", spy)
    envelope._series_charges(family, max_k)
    assert built == [(max_k + 1, (0, 2 * max_k + extra))]


def test_linear_mutation_fails():
    rep = check_linear_charges("onsager", 2, mutate=True)
    assert not rep.passed
    assert rep.witnesses


def test_closed_form_variant():
    # the summed closed form agrees with the series expansion for the
    # first family, and k >= 1 everywhere; only its k = 0 boundary value
    # differs for the augmented family, where it fails to commute
    def brackets(family):
        charges = [build_linear_charge(family, k, "formula") for k in range(3)]
        return [abstract_bracket(charges[j], charges[k])
                for j in range(3) for k in range(j + 1, 3)]

    assert not any(brackets("onsager"))
    assert not any(brackets("invariant"))
    i01 = brackets("augmented")[0]
    assert str(i01) == ("(2*nu*tau)*Z+[1] + (2*nu*tau)*Z+[2] "
                        "+ (-2*nustar*tau)*Z-[0] + (-2*nustar*tau)*Z-[1]")


def test_mixed_commutator_is_reported_not_judged():
    note = note_mixed_commutator("onsager", 1, 1)
    assert note == "[t_1, I_1] for onsager: 10 normal-ordered terms"
    assert "pass" not in note and "fail" not in note


# -- input guards -----------------------------------------------------------------


def _short_b(monkeypatch):
    short = envelope.build_abstract_B
    monkeypatch.setattr(envelope, "build_abstract_B", lambda family, window: short(family, 1))
    build_quadratic_charge("onsager", 3)


def _short_series(monkeypatch):
    series = envelope._weight_series
    monkeypatch.setattr(
        envelope, "_weight_series", lambda family, window, x: series(family, 1, x)
    )
    build_linear_charge("onsager", 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (_short_b, "window too small for the requested charge"),
        (lambda mp: build_linear_charge("onsager", -1), "charge index must be >= 0"),
        (_short_series, "outside the series' exact window"),
        (lambda mp: build_linear_charge("onsager", 1, "closed"), "unknown variant"),
        (lambda mp: build_linear_charge("bogus", 1), "unknown charge family 'bogus'"),
        (
            lambda mp: build_linear_charge("bogus", 1, "formula"),
            "unknown charge family 'bogus'",
        ),
        (lambda mp: check_quadratic_charges("bogus", 2), "unknown family 'bogus'"),
        (lambda mp: check_linear_charges("onsager", -1), "max-k must be >= 0, not -1"),
        (lambda mp: build_B("onsager", 0), "window must be >= 1"),
        (lambda mp: build_T("0", 2), "sign must be '[+]' or '-', not '0'"),
        (lambda mp: build_T("+", -1), "window must be >= 0"),
        (lambda mp: build_quadratic_charge("onsager", -1), "max-k must be >= 0, not -1"),
        (lambda mp: check_quadratic_charges("augmented", -1), "max-k must be >= 0, not -1"),
        (lambda mp: note_mixed_commutator("onsager", -1, 0), "max-k must be >= 0, not -1"),
        (lambda mp: check_linear_charges("onsager", 0, mutate=True),
         "mutate needs max-k >= 1, not 0"),
        (lambda mp: check_quadratic_charges("onsager", 0, mutate=True),
         "mutate needs max-k >= 1, not 0"),
    ],
    ids=["charge_window", "negative_k", "exact_window", "variant",
         "series_family", "formula_family", "quadratic_family", "linear_max_k", "B_window",
         "T_sign", "T_window", "quadratic_max_k", "quadratic_check_max_k",
         "mixed_commutator_max_k", "linear_mutate_max_k", "quadratic_mutate_max_k"],
)
def test_guards_raise_value_error(monkeypatch, call, message):
    with pytest.raises(ValueError, match=message):
        call(monkeypatch)
