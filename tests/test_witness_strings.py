"""Exact residual counts and witness strings of every documented mutation.

test_acceptance checks only that each perturbed input fails with some
witness.  These tests pin what each failing report says: its residual term
count and every witness, position and residual string alike, so a change
to the coefficient representation or to printing cannot alter a report
unseen.  check_current_relations, which has no perturbation argument, is
pinned with the abstract bracket doubled.
"""

import os
import sys

import pytest

import onsalg.onsager as onsager
from onsalg.currents import check_exchange, check_frt_relations
from onsalg.envelope import check_linear_charges, check_quadratic_charges
from onsalg.kacmoody import check_automorphism
from onsalg.onsager import check_kappa_isomorphism, check_morphism
from onsalg.tensormat import (
    build_boundary,
    build_r,
    build_rbar,
    check_cybe,
    check_M_condition,
    check_nscybe,
    check_reflection,
    check_r_symmetries,
    check_U_conditions,
)
# test_acceptance sits next to this file; put its directory on the path so
# the import works under every pytest import mode
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_acceptance import (  # noqa: E402
    U,
    X,
    Y,
    _altered_k,
    _dropped_f,
    _mutate_entry,
    _shifted_theta,
    _wrong_rbar,
)

# the perturbed inputs of test_acceptance.test_every_documented_mutation_fails
MUTATIONS = [
    lambda: check_cybe(_mutate_entry(build_r(U), 1, 2, lambda p: 2 * p)),
    lambda: check_r_symmetries(_mutate_entry(build_r(U), 0, 0, lambda p: -1 * p)),
    lambda: check_U_conditions(build_boundary("U_diag"), -1),
    lambda: check_reflection(_altered_k()),
    lambda: check_nscybe(build_rbar(_altered_k(), X, Y)),
    lambda: check_M_condition(build_boundary("M_ons", x=X), _wrong_rbar()),
    lambda: check_automorphism("theta1", 3, override=_shifted_theta),
    lambda: check_frt_relations(4, omit_central=True),
    lambda: check_exchange("onsager", 4, rbar_family="augmented"),
    lambda: check_morphism("onsager", 4, override=_dropped_f),
    lambda: check_kappa_isomorphism(correspondence_shift=1),
    lambda: check_linear_charges("onsager", 2, mutate=True),
    lambda: check_quadratic_charges("onsager", 2, mutate=True),
]

# report name -> (residual_term_count, [(position, residual), ...])
EXPECTED = {
    "cybe": (
        12,
        [
            ("entry (1,4)", "8*x2*x3^2 - 8*x1*x2*x3"),
            ("entry (2,1)", "-4*x1*x2*x3 + 4*x1*x2^2"),
            ("entry (3,6)", "-8*x2*x3^2 + 8*x1*x2*x3"),
            ("entry (4,2)", "-4*x1*x2*x3 + 4*x1^2*x3"),
            ("entry (5,3)", "4*x1*x2*x3 - 4*x1^2*x3"),
            ("entry (6,5)", "4*x1*x2*x3 - 4*x1*x2^2"),
        ],
    ),
    "r_symmetries": (
        22,
        [
            ("trace", "(1 + u)/(-1 + u)"),
            ("derivative identity entry (1,2)", "-4*x1^2*x3^3 + 8*x1^2*x2*x3^2 - 4*x1^2*x2^2*x3"),
            ("derivative identity entry (1,4)", "-4*x2^2*x3^3 + 8*x1*x2^2*x3^2 - 4*x1^2*x2^2*x3"),
            ("derivative identity entry (2,1)", "4*x1*x2*x3^3 - 8*x1*x2^2*x3^2 + 4*x1*x2^3*x3"),
            ("derivative identity entry (2,4)", "-4*x2^2*x3^3 + 4*x1*x2*x3^3 + 4*x1*x2^3*x3 - 4*x1^2*x2^2*x3"),
            ("derivative identity entry (4,1)", "4*x1*x2*x3^3 - 8*x1^2*x2*x3^2 + 4*x1^3*x2*x3"),
            ("derivative identity entry (4,2)", "4*x1*x2*x3^3 - 4*x1^2*x3^3 - 4*x1^2*x2^2*x3 + 4*x1^3*x2*x3"),
        ],
    ),
    "U_conditions[U_diag, eps=-1]": (
        2,
        [
            ("transpose condition entry (0,0)", "2*k"),
            ("transpose condition entry (1,1)", "-2*kstar"),
        ],
    ),
    "reflection[k_general]": (
        64,
        [
            ("entry (0,1)", "-2*alpha*gamma*y + 2*alpha*gamma*y^3 + 2*alpha*gamma*x - 2*alpha*gamma*x*y^2 + 2*alpha*gamma*x^2*y - 2*alpha*gamma*x^2*y^3 - 2*alpha*gamma*x^3 + 2*alpha*gamma*x^3*y^2"),
            ("entry (0,2)", "2*alpha*gamma*y - 2*alpha*gamma*y^3 - 2*alpha*gamma*x + 2*alpha*gamma*x*y^2 - 2*alpha*gamma*x^2*y + 2*alpha*gamma*x^2*y^3 + 2*alpha*gamma*x^3 - 2*alpha*gamma*x^3*y^2"),
            ("entry (1,0)", "-2*alpha*gamma*y + 2*alpha*gamma*y^3 + 2*alpha*gamma*x - 2*alpha*gamma*x*y^2 + 2*alpha*gamma*x^2*y - 2*alpha*gamma*x^2*y^3 - 2*alpha*gamma*x^3 + 2*alpha*gamma*x^3*y^2"),
            ("entry (1,3)", "-2*delta*gamma*y + 2*delta*gamma*y^3 + 2*delta*gamma*x - 2*delta*gamma*x*y^2 + 2*delta*gamma*x^2*y - 2*delta*gamma*x^2*y^3 - 2*delta*gamma*x^3 + 2*delta*gamma*x^3*y^2"),
            ("entry (2,0)", "2*alpha*gamma*y - 2*alpha*gamma*y^3 - 2*alpha*gamma*x + 2*alpha*gamma*x*y^2 - 2*alpha*gamma*x^2*y + 2*alpha*gamma*x^2*y^3 + 2*alpha*gamma*x^3 - 2*alpha*gamma*x^3*y^2"),
            ("entry (2,3)", "2*delta*gamma*y - 2*delta*gamma*y^3 - 2*delta*gamma*x + 2*delta*gamma*x*y^2 - 2*delta*gamma*x^2*y + 2*delta*gamma*x^2*y^3 + 2*delta*gamma*x^3 - 2*delta*gamma*x^3*y^2"),
            ("entry (3,1)", "-2*delta*gamma*y + 2*delta*gamma*y^3 + 2*delta*gamma*x - 2*delta*gamma*x*y^2 + 2*delta*gamma*x^2*y - 2*delta*gamma*x^2*y^3 - 2*delta*gamma*x^3 + 2*delta*gamma*x^3*y^2"),
            ("entry (3,2)", "2*delta*gamma*y - 2*delta*gamma*y^3 - 2*delta*gamma*x + 2*delta*gamma*x*y^2 - 2*delta*gamma*x^2*y + 2*delta*gamma*x^2*y^3 + 2*delta*gamma*x^3 - 2*delta*gamma*x^3*y^2"),
        ],
    ),
    "nscybe": (
        10892,
        [
            ("entry (0,1)", "-4*alpha*gamma^3*x1^3*x2^5*x3^3 + 4*alpha*gamma^3*x1^3*x2^6*x3^2 + 4*alpha*gamma^3*x1^3*x2^7*x3^3 - 4*alpha*gamma^3*x1^3*x2^8*x3^2 + 8*alpha*gamma^3*x1^4*x2^4*x3^3 - 4*alpha*gamma^3*x1^4*x2^5*x3^2 - 4 ..."),
            ("entry (0,2)", "2*alpha*gamma^3*x1^3*x2^4*x3^2 - 2*alpha*gamma^3*x1^3*x2^5*x3 + 2*alpha*gamma^3*x1^3*x2^5*x3^3 - 4*alpha*gamma^3*x1^3*x2^6*x3^2 + 2*alpha*gamma^3*x1^3*x2^7*x3 - 2*alpha*gamma^3*x1^3*x2^7*x3^3 + 2*alph ..."),
            ("entry (0,3)", "4*alpha^2*gamma^2*x1*x2^4*x3^2 - 4*alpha^2*gamma^2*x1*x2^5*x3 - 4*alpha^2*gamma^2*x1*x2^5*x3^3 + 4*alpha^2*gamma^2*x1*x2^7*x3 + 4*alpha^2*gamma^2*x1*x2^7*x3^3 - 4*alpha^2*gamma^2*x1*x2^8*x3^2 - 4*alph ..."),
            ("entry (0,4)", "-2*alpha*gamma^3*x1^3*x2^4*x3^2 + 2*alpha*gamma^3*x1^3*x2^5*x3 + 2*alpha*gamma^3*x1^3*x2^5*x3^3 - 2*alpha*gamma^3*x1^3*x2^7*x3 - 2*alpha*gamma^3*x1^3*x2^7*x3^3 + 2*alpha*gamma^3*x1^3*x2^8*x3^2 + 2*alp ..."),
            ("entry (0,5)", "-4*alpha^2*gamma^2*x1*x2^4*x3^2 + 4*alpha^2*gamma^2*x1*x2^5*x3 + 8*alpha^2*gamma^2*x1*x2^5*x3^3 - 4*alpha^2*gamma^2*x1*x2^6*x3^2 - 4*alpha^2*gamma^2*x1*x2^7*x3 - 8*alpha^2*gamma^2*x1*x2^7*x3^3 + 8*alp ..."),
            ("entry (0,6)", "-4*alpha^2*gamma^2*x1*x2^5*x3^3 + 4*alpha^2*gamma^2*x1*x2^6*x3^2 + 4*alpha^2*gamma^2*x1*x2^7*x3^3 - 4*alpha^2*gamma^2*x1*x2^8*x3^2 + 8*alpha^2*gamma^2*x1^2*x2^4*x3^3 - 4*alpha^2*gamma^2*x1^2*x2^5*x3^2 ..."),
            ("entry (0,7)", "-8*alpha^3*gamma*x1*x2^3*x3^3 + 8*alpha^3*gamma*x1*x2^4*x3^2 + 16*alpha^3*gamma*x1*x2^5*x3^3 - 16*alpha^3*gamma*x1*x2^6*x3^2 - 8*alpha^3*gamma*x1*x2^7*x3^3 + 8*alpha^3*gamma*x1*x2^8*x3^2 + 16*alpha^3* ..."),
            ("entry (1,0)", "4*delta*gamma^3*x1^3*x2^5*x3^3 - 4*delta*gamma^3*x1^3*x2^6*x3^2 - 4*delta*gamma^3*x1^3*x2^7*x3^3 + 4*delta*gamma^3*x1^3*x2^8*x3^2 - 8*delta*gamma^3*x1^4*x2^4*x3^3 + 4*delta*gamma^3*x1^4*x2^5*x3^2 + 4* ..."),
        ],
    ),
    "M_condition[M_ons]": (
        68,
        [
            ("entry (0,0)", "2*kappastar^2*y + 2*kappastar^2*y^2 - 2*kappastar^2*x - 4*kappastar^2*x*y - 2*kappastar^2*x*y^2 + 2*kappastar^2*x^2 + 2*kappastar^2*x^2*y - 2*kappa^2*y - 2*kappa^2*y^2 + 2*kappa^2*x + 4*kappa^2*x*y +  ..."),
            ("entry (0,1)", "2*kappastar*mu*x^-1 - 2*kappastar*mu*y^-1 - 2*kappastar*mu + 2*kappastar*mu*y + 2*kappastar*mu*y^2 + 2*kappastar*mu*x*y^-1 - 2*kappastar*mu*x - 2*kappastar*mu*x*y - 2*kappastar*mu*x*y^2 + 2*kappastar* ..."),
            ("entry (1,0)", "-2*kappastar*mu*x^-1*y^2 + 2*kappastar*mu*x + 2*kappastar*mu*x*y + 2*kappastar*mu*x*y^2 - 2*kappastar*mu*x*y^3 - 2*kappastar*mu*x^2 - 2*kappastar*mu*x^2*y + 2*kappastar*mu*x^2*y^2 + 2*kappastar*mu*x^2 ..."),
            ("entry (1,1)", "-2*kappastar^2*y - 2*kappastar^2*y^2 + 2*kappastar^2*x + 4*kappastar^2*x*y + 2*kappastar^2*x*y^2 - 2*kappastar^2*x^2 - 2*kappastar^2*x^2*y + 2*kappa^2*y + 2*kappa^2*y^2 - 2*kappa^2*x - 4*kappa^2*x*y - ..."),
        ],
    ),
    "automorphism[theta1]": (
        246,
        [
            ("[e[-3], f[-3]]", "-h[6] + h[7]"),
            ("[e[-3], f[-2]]", "-h[5] + h[6]"),
            ("[e[-3], f[-1]]", "-h[4] + h[5]"),
            ("[e[-3], f[0]]", "-h[3] + h[4]"),
            ("[e[-3], f[1]]", "-h[2] + h[3]"),
            ("[e[-3], f[2]]", "-h[1] + h[2]"),
            ("[e[-3], f[3]]", "3*c - h[0] + h[1]"),
            ("[f[-3], e[-3]]", "h[6] - h[7]"),
        ],
    ),
    "frt_relations[no central term]": (
        6,
        [
            ("[T+,T-] entry (0, 0), degree (1, 1)", "-2*c"),
            ("[T+,T-] entry (1, 1), degree (1, 1)", "2*c"),
            ("[T+,T-] entry (1, 2), degree (1, 1)", "-4*c"),
            ("[T+,T-] entry (2, 1), degree (1, 1)", "-4*c"),
            ("[T+,T-] entry (2, 2), degree (1, 1)", "2*c"),
            ("[T+,T-] entry (3, 3), degree (1, 1)", "-2*c"),
        ],
    ),
    "exchange[onsager][rbar from augmented]": (
        532,
        [
            ("entry (0, 1), degree (0, 1)", "4*e[0] + 4*f[0]"),
            ("entry (0, 1), degree (0, 2)", "4*e[-1] + 4*f[1]"),
            ("entry (0, 1), degree (0, 3)", "4*e[-2] + 4*f[2]"),
            ("entry (0, 1), degree (0, 4)", "4*e[-3] + 4*f[3]"),
            ("entry (0, 1), degree (1, 0)", "-4*e[0] - 4*f[0]"),
            ("entry (0, 1), degree (1, 1)", "-4*e[-1] + 4*e[0] + 4*e[1] + 4*f[-1] + 4*f[0] - 4*f[1]"),
            ("entry (0, 1), degree (1, 2)", "-4*e[-2] + 4*e[0] + 4*f[0] - 4*f[2]"),
            ("entry (0, 1), degree (1, 3)", "-4*e[-3] + 4*e[-1] + 4*f[1] - 4*f[3]"),
        ],
    ),
    "morphism[onsager][override]": (
        144,
        [
            ("[A[-4], A[-3]]", "-4*h[-1] + 4*h[1]"),
            ("[A[-4], A[-2]]", "-4*h[-2] + 4*h[2]"),
            ("[A[-4], A[-1]]", "-4*h[-3] + 4*h[3]"),
            ("[A[-4], A[0]]", "-4*h[-4] + 4*h[4]"),
            ("[A[-4], A[1]]", "-4*h[-5] + 4*h[5]"),
            ("[A[-4], A[2]]", "-4*h[-6] + 4*h[6]"),
            ("[A[-4], A[3]]", "-4*h[-7] + 4*h[7]"),
            ("[A[-4], A[4]]", "-4*h[-8] + 4*h[8]"),
        ],
    ),
    "kappa_isomorphism[shift +1]": (
        14,
        [
            ("H[n]", "-h[-n - 1] + h[-n] + h[n] - h[n + 1]; 2*c on n = 0; -2*c on n + 1 = 0"),
            ("E[n]", "-e[-n] + e[-n + 1] + e[n + 1] - e[n + 2]"),
            ("F[n]", "-f[-n - 2] + f[-n - 1] + f[n - 1] - f[n]"),
        ],
    ),
    "linear_charges[onsager][mutated]": (
        8,
        [
            ("[I_0, I_1]", "(-4*kappa*mu)*A[-2] + (-4*kappastar*mu)*A[-1] + (4*kappa*mu)*A[2] + (4*kappastar*mu)*A[3]"),
            ("[I_1, I_2]", "(4*kappa*mu)*A[-4] + (4*kappastar*mu)*A[-3] + (-4*kappa*mu)*A[4] + (-4*kappastar*mu)*A[5]"),
        ],
    ),
    "quadratic_charges[onsager][mutated]": (
        4,
        [
            ("[t_1, t_2]", "(-4)*A[-2]*A[1] + (-4)*A[-1]*A[0] + (4)*A[0]*A[3] + (4)*A[1]*A[2]"),
        ],
    ),
}


@pytest.mark.parametrize("run", MUTATIONS, ids=list(EXPECTED))
def test_mutation_report_is_pinned(run):
    rep = run()
    count, witnesses = EXPECTED[rep.name]
    assert rep.residual_term_count == count
    assert [(w["position"], w["residual"]) for w in rep.witnesses] == witnesses


def test_every_mutation_is_pinned():
    assert len(MUTATIONS) == len(EXPECTED)


# check_current_relations at window 4 with every abstract bracket doubled:
# family -> (residual_term_count, [(position, residual), ...])
CURRENT_RELATIONS_DOUBLED = {
    "onsager": (
        198,
        [
            ("entry (0, 1), degree (1, 1)", "-2*A[-1] + 2*A[1]"),
            ("entry (0, 1), degree (1, 2)", "-2*A[-2] + 2*A[0]"),
            ("entry (0, 1), degree (1, 3)", "-2*A[-3] + 2*A[-1]"),
            ("entry (0, 1), degree (1, 4)", "-2*A[-4] + 2*A[-2]"),
            ("entry (0, 1), degree (2, 0)", "2*A[-1] - 2*A[1]"),
            ("entry (0, 1), degree (2, 1)", "-2*A[0] + 2*A[2]"),
            ("entry (0, 1), degree (3, 0)", "2*A[-2] - 2*A[2]"),
            ("entry (0, 1), degree (3, 1)", "-2*A[-1] + 2*A[3]"),
        ],
    ),
    "augmented": (
        200,
        [
            ("entry (0, 1), degree (0, 1)", "-2*Z-[0]"),
            ("entry (0, 1), degree (0, 2)", "-2*Z-[1]"),
            ("entry (0, 1), degree (0, 3)", "-2*Z-[2]"),
            ("entry (0, 1), degree (0, 4)", "-2*Z-[3]"),
            ("entry (0, 1), degree (1, 0)", "2*Z-[0]"),
            ("entry (0, 1), degree (1, 1)", "-2*Z-[0]"),
            ("entry (0, 1), degree (2, 0)", "2*Z-[0] + 2*Z-[1]"),
            ("entry (0, 1), degree (2, 1)", "-2*Z-[1]"),
        ],
    ),
    "invariant": (
        140,
        [
            ("entry (0, 1), degree (0, 1)", "-2*F[0]"),
            ("entry (0, 1), degree (0, 2)", "-4*F[1]"),
            ("entry (0, 1), degree (0, 3)", "-4*F[2]"),
            ("entry (0, 1), degree (0, 4)", "-4*F[3]"),
            ("entry (0, 1), degree (1, 0)", "2*F[0]"),
            ("entry (0, 1), degree (1, 2)", "-2*F[0]"),
            ("entry (0, 1), degree (2, 0)", "4*F[1]"),
            ("entry (0, 1), degree (2, 1)", "2*F[0]"),
        ],
    ),
}


@pytest.mark.parametrize("family", list(CURRENT_RELATIONS_DOUBLED))
def test_current_relations_failure_is_pinned(monkeypatch, family):
    real = onsager._pair_bracket
    monkeypatch.setattr(
        onsager, "_pair_bracket", lambda a, b: [(s, 2 * k) for s, k in real(a, b)]
    )
    rep = onsager.check_current_relations(family, 4)
    count, witnesses = CURRENT_RELATIONS_DOUBLED[family]
    assert rep.name == f"current_relations[{family}]"
    assert rep.residual_term_count == count
    assert [(w["position"], w["residual"]) for w in rep.witnesses] == witnesses
