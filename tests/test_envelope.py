"""Normal-ordered products and the commuting charge hierarchies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onsalg.envelope import (
    UeaElt,
    build_linear_charge,
    build_quadratic_charge,
    check_charge_commutativity,
    check_linear_charges,
    check_quadratic_charges,
    lie_to_uea,
    note_mixed_commutator,
    uea_commutator,
    uea_mul,
)
from onsalg.kacmoody import C, E, F, H, LieElt, bracket

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


# -- quadratic charges ---------------------------------------------------------


def test_t0_frozen():
    assert str(build_quadratic_charge("onsager", 0)[0]) == "0"
    assert (
        str(build_quadratic_charge("augmented", 0)[0])
        == "(1/2)*c*c + (2)*c*h[0] + (2)*h[0]*h[0]"
    )
    assert (
        str(build_quadratic_charge("invariant", 0)[0])
        == "(-4)*h[0] + (2)*h[0]*h[0] + (8)*e[0]*f[0]"
    )


@pytest.mark.parametrize("family", ["onsager", "augmented", "invariant"])
def test_quadratic_charges_commute(family):
    rep = check_quadratic_charges(family, 3)
    assert rep.passed, rep


@pytest.mark.parametrize("family", ["onsager", "augmented", "invariant"])
def test_quadratic_mutation_fails(family):
    rep = check_quadratic_charges(family, 2, mutate=True)
    assert not rep.passed
    assert rep.witnesses


# -- linear charges --------------------------------------------------------------


def test_linear_charge_frozen():
    assert str(build_linear_charge("onsager", 1)) == (
        "kappa*A[-1] + kappastar*A[0] + kappa*A[1] + kappastar*A[2] + mu*G[2]"
    )
    assert str(build_linear_charge("augmented", 0)) == (
        "(1/2*tau)*K[0] + nu*Z+[1] + nustar*Z-[0]"
    )
    assert str(build_linear_charge("invariant", 0)) == (
        "(1/2*mu1)*E[0] + (1/2*mu2)*F[0] + (1/2*mu0)*H[0]"
    )


@pytest.mark.parametrize("family", ["onsager", "augmented", "invariant"])
def test_linear_charges_commute(family):
    rep = check_linear_charges(family, 6)
    assert rep.passed, rep


def test_linear_mutation_fails():
    rep = check_linear_charges("onsager", 2, mutate=True)
    assert not rep.passed
    assert rep.witnesses


def test_closed_form_variant():
    # the summed closed form agrees with the series expansion for the
    # first family, and k >= 1 everywhere; only its k = 0 boundary value
    # differs for the augmented family, where it fails to commute
    assert check_linear_charges("onsager", 2, variant="formula").passed
    assert check_linear_charges("invariant", 2, variant="formula").passed
    rep = check_linear_charges("augmented", 2, variant="formula")
    assert not rep.passed
    assert rep.witnesses[0] == {
        "position": "[I_0, I_1]",
        "residual": "(2*nu*tau)*Z+[1] + (2*nu*tau)*Z+[2] "
                    "+ (-2*nustar*tau)*Z-[0] + (-2*nustar*tau)*Z-[1]",
    }


def test_combined_runner():
    linear, quad = check_charge_commutativity("onsager", linear_max=3, quad_max=2)
    assert linear.passed and quad.passed


def test_mixed_commutator_is_reported_not_judged():
    note = note_mixed_commutator("onsager", 1, 1)
    assert note == "[t_1, b_1] for onsager: 36 normal-ordered terms"
    assert "pass" not in note and "fail" not in note
