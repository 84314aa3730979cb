"""Normal-ordered products and the commuting charge hierarchies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsalg import envelope
from onsalg.currents import REALIZATIONS, CurrentMat, build_B, build_T
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
from onsalg.onsager import (
    FAMILIES, OnsElt, abstract_bracket, build_abstract_B, canonical_symbols, morphism_image, ons
)
from onsalg.tensormat import build_boundary

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


@settings(deadline=None)
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


def _weight_series(family, window, x):
    """tr(M(x)B(x)) as one series: the family's abstract B(x) at window,
    multiplied by its M matrix through CurrentMat._times, and traced.  The
    linear charges are its mode coefficients; this builds them by series
    arithmetic, independently of the row sums of envelope._linear_charges."""
    m = build_boundary(REALIZATIONS[family].m, x=x).mat.cleared(())
    mb = build_abstract_B(family, window, x)._times(m, False)
    trace = {}
    for i in range(mb.dim):
        for deg, elt in mb.entry(i, i).items():
            trace[deg] = trace.get(deg, OnsElt.zero()) + elt
    return CurrentMat(0, (x,), {(0, 0): trace}, mb.metas)


@pytest.mark.parametrize("max_k", [0, 3, 8])
@pytest.mark.parametrize("family", FAMILIES)
def test_one_series_gives_every_linear_charge(family, max_k):
    # the row sums are the coefficients of tr(M(x)B(x)) on its whole exact
    # window, which reaches the last charge: nothing at an odd degree, and
    # charge k at degree 2k
    series = _weight_series(family, max_k + 1, spectral("x"))
    lo, hi = series.metas[0].exact_window()
    assert lo <= 0 and 2 * max_k <= hi
    on_window = {deg: c for deg, c in series.entry(0, 0).items() if lo <= deg[0] <= hi}
    charges = envelope._linear_charges(family, hi // 2)
    assert on_window == {(2 * k,): c for k, c in enumerate(charges) if c}
    assert charges[: max_k + 1] == [build_linear_charge(family, k) for k in range(max_k + 1)]


@pytest.mark.parametrize("max_k", range(9))
@pytest.mark.parametrize(
    "family, extra", [("onsager", 0), ("augmented", 0), ("invariant", 2)]
)
def test_charge_series_window_reaches_the_last_charge(family, extra, max_k):
    # tr(M(x)B(x)) built at window max_k + 1 is exact from mode 0 or below
    # up to mode 2 max_k (one mode further for invariant), just wide enough
    # for every charge the oracle above compares
    series = _weight_series(family, max_k + 1, spectral("x"))
    lo, hi = series.metas[0].exact_window()
    assert lo <= 0 and hi == 2 * max_k + extra


def test_linear_mutation_fails():
    rep = check_linear_charges("onsager", 2, mutate=True)
    assert not rep.passed
    assert rep.witnesses


def _closed_form(family, k):
    """The k-th linear charge as the hand-written closed expression, its
    weights named by the parameters of the family's M (its row's m)."""
    w = {
        n: LaurentPoly.var(v)
        for n, v in build_boundary(REALIZATIONS[family].m).params.items()
    }
    if family == "onsager":
        return (
            ons(family, "A", k, w["kappa"])
            + ons(family, "A", -k, w["kappa"])
            + ons(family, "A", k + 1, w["kappastar"])
            + ons(family, "A", -k + 1, w["kappastar"])
            + ons(family, "G", k + 1, w["mu"])
            - ons(family, "G", k - 1, w["mu"])
        )
    if family == "augmented":
        # the closed form reads Z+_0 and Z-_{-1} as absent
        low = 1 if k >= 1 else 0
        return (
            ons(family, "K", k, w["tau"])
            + ons(family, "Z+", k, w["nu"] * low)
            + ons(family, "Z+", k + 1, w["nu"])
            + ons(family, "Z-", k - 1, w["nustar"] * low)
            + ons(family, "Z-", k, w["nustar"])
        )
    return (
        ons(family, "H", k, w["mu0"])
        + ons(family, "E", k, 2 * w["mu1"])
        + ons(family, "F", k, 2 * w["mu2"])
    )


def test_closed_form_variant():
    # the closed form agrees with the row sums for k >= 1 in every family;
    # at k = 0 the onsager and invariant closed forms are twice the row
    # sum, and the augmented one does not halve K[0], so only the
    # augmented k = 0 closed form fails to commute
    for family in FAMILIES:
        for k in range(1, 9):
            assert _closed_form(family, k) == build_linear_charge(family, k)
    assert str(_closed_form("onsager", 0)) == (
        "(2*kappa)*A[0] + (2*kappastar)*A[1] + (2*mu)*G[1]"
    )
    assert str(_closed_form("augmented", 0)) == (
        "tau*K[0] + nu*Z+[1] + nustar*Z-[0]"
    )
    assert str(_closed_form("invariant", 0)) == (
        "(2*mu1)*E[0] + (2*mu2)*F[0] + mu0*H[0]"
    )
    i0, i1 = (_closed_form("augmented", k) for k in range(2))
    assert str(abstract_bracket(i0, i1)) == (
        "(2*nu*tau)*Z+[1] + (2*nu*tau)*Z+[2] "
        "+ (-2*nustar*tau)*Z-[0] + (-2*nustar*tau)*Z-[1]"
    )


def test_mixed_commutator_is_reported_not_judged():
    note = note_mixed_commutator("onsager", 1, 1)
    assert note == "[t_1, I_1] for onsager: 10 normal-ordered terms"
    assert "pass" not in note and "fail" not in note


# -- input guards -----------------------------------------------------------------

# both kinds of charge refuse a family without rows with one message
_UNKNOWN_BOGUS = r"unknown family 'bogus' \(choose from onsager, augmented, invariant\)"
# a charge check at max-k 0 would compare no pair, so both refuse it
_NO_PAIR = "a charge check compares pairs j < k <= max-k, so max-k must be >= 1, not 0"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_linear_charge("onsager", -1), "charge index must be >= 0"),
        (lambda: build_linear_charge("bogus", 1), _UNKNOWN_BOGUS),
        (lambda: check_quadratic_charges("bogus", 2), _UNKNOWN_BOGUS),
        (lambda: check_linear_charges("kappa_minus", 2),
         r"unknown family 'kappa_minus' \(choose from onsager, augmented, invariant\)"),
        (lambda: note_mixed_commutator("bogus", 1, 1), _UNKNOWN_BOGUS),
        (lambda: check_linear_charges("onsager", -1), "max-k must be >= 1, not -1"),
        (lambda: build_B("onsager", 0), "window must be >= 1"),
        (lambda: build_T("0", 2), "sign must be '[+]' or '-', not '0'"),
        (lambda: build_T("+", -1), "window must be >= 0"),
        (lambda: build_quadratic_charge("onsager", -1), "max-k must be >= 0, not -1"),
        (lambda: check_quadratic_charges("augmented", -1), "max-k must be >= 1, not -1"),
        (lambda: note_mixed_commutator("onsager", -1, 0), "max-k must be >= 0, not -1"),
        (lambda: check_linear_charges("onsager", 0, mutate=True), _NO_PAIR),
        (lambda: check_quadratic_charges("onsager", 0, mutate=True), _NO_PAIR),
        (lambda: check_linear_charges("invariant", 0), _NO_PAIR),
        (lambda: check_quadratic_charges("augmented", 0), _NO_PAIR),
    ],
    ids=["negative_k", "series_family", "quadratic_family",
         "linear_family", "mixed_commutator_family", "linear_max_k", "B_window",
         "T_sign", "T_window", "quadratic_max_k", "quadratic_check_max_k",
         "mixed_commutator_max_k", "linear_mutate_max_k", "quadratic_mutate_max_k",
         "linear_max_k_0", "quadratic_max_k_0"],
)
def test_guards_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_A1, _K1, _E0 = (lie_to_uea(ons("onsager", "A", 1)), lie_to_uea(ons("augmented", "K", 1)),
                 single(E(0)))


@pytest.mark.parametrize("op", [uea_mul, uea_commutator])
@pytest.mark.parametrize(
    "a, b, message",
    [
        (_A1, _E0, r"cannot multiply words of U\(onsager\) and U\(affine sl2\)"),
        (_E0, _A1, r"cannot multiply words of U\(affine sl2\) and U\(onsager\)"),
        (_A1, _K1, r"cannot multiply words of U\(onsager\) and U\(augmented\)"),
        (UeaElt({(): 1}) + _K1, _A1 + _A1,
         r"cannot multiply words of U\(augmented\) and U\(onsager\)"),
    ],
    ids=["family_by_basis", "basis_by_family", "two_families", "with_a_scalar_word"],
)
def test_guards_uea_refuses_words_of_two_algebras(op, a, b, message):
    # a word holds the symbols of one algebra; explicit, so python -O keeps it
    with pytest.raises(ValueError, match=message):
        op(a, b)


@pytest.mark.parametrize(
    "lie, message",
    [
        (ons("onsager", "A", 1) + LieElt.single(E(0)), "of affine sl2 and onsager into"),
        (ons("onsager", "A", 1) + ons("augmented", "K", 1), "of augmented and onsager into"),
    ],
    ids=["family_and_basis", "two_families"],
)
def test_guards_lie_to_uea_refuses_two_algebras(lie, message):
    # the one way from a Lie element into U; explicit, so python -O keeps it
    with pytest.raises(ValueError, match=message):
        lie_to_uea(lie)


def test_a_scalar_multiplies_words_of_any_algebra():
    two = UeaElt({(): 2})
    for word in (_A1, _K1, _E0):
        assert uea_mul(two, word) == uea_mul(word, two) == word.scale(2)
        assert uea_commutator(two, word).is_zero()
