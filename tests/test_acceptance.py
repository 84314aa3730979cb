"""End-to-end gate: every identity the library claims, at working size.

Each test carries a wall-clock budget so a regression that makes the
exact arithmetic blow up combinatorially fails loudly instead of
quietly stretching CI.
"""

import ast
import time
from pathlib import Path

import pytest

from onsalg.currents import REALIZATIONS, check_exchange, check_frt_relations
from onsalg.envelope import check_linear_charges, check_quadratic_charges
from onsalg.exactalg import LaurentPoly, spectral
from onsalg.kacmoody import F, LieElt, check_automorphism, check_serre_chevalley
from onsalg.kacmoody import E as kme
from onsalg.onsager import (
    FAMILIES,
    check_current_relations,
    check_dolan_grady,
    check_fixed_point,
    check_jacobi,
    check_kappa_isomorphism,
    check_morphism,
)
from onsalg.tensormat import (
    BoundaryMat,
    TensorMat,
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

U = spectral("u")
X = spectral("x")
Y = spectral("y")


class deadline:
    """Assert the enclosed block finishes inside `seconds` of wall clock."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            took = time.monotonic() - self.started
            assert took < self.seconds, f"took {took:.1f}s, budget {self.seconds}s"
        return False


def ok(rep):
    assert rep.passed, rep
    assert rep.residual_term_count == 0


def bad(rep):
    assert not rep.passed, rep.name
    assert rep.witnesses, rep.name


# -- the identities -----------------------------------------------------------


def test_classical_yang_baxter():
    with deadline(5):
        ok(check_cybe(build_r(U)))


def test_r_matrix_symmetries():
    # skew symmetry, transpose symmetry, zero trace, and the cleared
    # derivative identity, all symbolically in u
    with deadline(2):
        ok(check_r_symmetries(build_r(U)))


def test_boundary_solutions():
    with deadline(10):
        ok(check_U_conditions(build_boundary("U_diag"), 1))
        ok(check_U_conditions(build_boundary("U_offdiag"), -1))
        ok(check_reflection(build_boundary("k_general")))


def test_twisted_yang_baxter():
    # the boundary-twisted equation for every solution family, the last
    # one with fully symbolic parameters
    with deadline(60):
        for fam in ("U_diag", "U_offdiag", "kappa_plus", "kappa_minus", "k_general"):
            rbar = build_rbar(build_boundary(fam, x=X), X, Y)
            ok(check_nscybe(rbar, label=fam))


def test_defining_relations_of_the_current_algebra():
    with deadline(30):
        ok(check_serre_chevalley())
        ok(check_frt_relations(6))
        bad(check_frt_relations(6, omit_central=True))


def test_exchange_relations():
    with deadline(60):
        for fam in ("onsager", "augmented", "invariant", "kappa_minus"):
            ok(check_exchange(fam, 6))
        for fam in FAMILIES:
            ok(check_current_relations(fam, 6))


def test_abstract_algebras():
    with deadline(30):
        for fam in FAMILIES:
            ok(check_jacobi(fam, 4))
            ok(check_dolan_grady(fam))
        for fam in REALIZATIONS:
            ok(check_morphism(fam, 8))
        ok(check_kappa_isomorphism(8))


def test_fixed_subalgebras():
    with deadline(10):
        for fam in REALIZATIONS:
            ok(check_fixed_point(fam, 8))
        # the involution sweep inside these proves the maps square to id
        ok(check_automorphism("theta1", 8))
        ok(check_automorphism("theta2", 8))
        ok(check_automorphism("lusztig_plus", 8))
        ok(check_automorphism("lusztig_minus", 8))


def test_commuting_charges():
    with deadline(120):
        for fam in FAMILIES:
            ok(check_linear_charges(fam, 6))
            ok(check_quadratic_charges(fam, 4))
        bad(check_linear_charges("onsager", 2, mutate=True))
        for fam in FAMILIES:
            bad(check_quadratic_charges(fam, 2, mutate=True))


# -- mutation coverage ---------------------------------------------------------
#
# Every checker must reject its documented perturbed input with at least
# one witness.  A checker that cannot fail verifies nothing.


def _pv(v):
    return LaurentPoly.var(v, (v,))


def _mutate_entry(m, i, j, fn):
    nums = [list(row) for row in m.nums]
    nums[i][j] = fn(nums[i][j])
    return TensorMat._raw(m.legs, m.variables, nums, m.den_factors)


def _altered_k():
    b = build_boundary("k_general", x=X)
    nums = [list(r) for r in b.mat.nums]
    be, ga = b.params["beta"], b.params["gamma"]
    nums[0][1] = _pv(be) + _pv(ga) * _pv(X)
    mat = TensorMat._raw(1, b.mat.variables, nums, b.mat.den_factors)
    return BoundaryMat("k_general", mat, X, b.params)


def _wrong_rbar():
    return build_rbar(build_boundary("U_offdiag", x=X), X, Y)


def _shifted_theta(sym):
    if sym.type == "E":
        return LieElt.single(F(-sym.mode + 1))
    return None


def _dropped_f(sym):
    if sym.letter == "A":
        return LieElt.single(kme(sym.mode), 2)
    return None


def test_every_documented_mutation_fails():
    with deadline(30):
        bad(check_cybe(_mutate_entry(build_r(U), 1, 2, lambda p: 2 * p)))
        bad(check_r_symmetries(_mutate_entry(build_r(U), 0, 0, lambda p: -1 * p)))
        bad(check_U_conditions(build_boundary("U_diag"), -1))
        bad(check_reflection(_altered_k()))
        bad(check_nscybe(build_rbar(_altered_k(), X, Y)))
        bad(check_M_condition(build_boundary("M_ons", x=X), _wrong_rbar()))
        bad(check_automorphism("theta1", 3, override=_shifted_theta))
        bad(check_frt_relations(4, omit_central=True))
        bad(check_exchange("onsager", 4, rbar_family="augmented"))
        bad(check_morphism("onsager", 4, override=_dropped_f))
        bad(check_kappa_isomorphism(8, correspondence_shift=1))
        bad(check_linear_charges("onsager", 2, mutate=True))
        bad(check_quadratic_charges("onsager", 2, mutate=True))


# -- python -O ------------------------------------------------------------------


def test_guards_are_never_asserts():
    # python -O strips assert statements, so no check of the library is one
    src = Path(__file__).resolve().parent.parent / "src" / "onsalg"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_only_exactalg_decides_a_stored_form():
    # exactalg._normalise is the one stored-form rule: no other module
    # reaches the coefficient-form helpers, and none defines a second rule
    src = Path(__file__).resolve().parent.parent / "src" / "onsalg"
    private = {"_normalise", "_rational", "_as_coeff", "_stored"}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "_stored":
                found.append(f"{path.name}:{node.lineno} defines _stored")
            if path.name == "exactalg.py":
                continue
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno} uses {n}" for n in sorted(names & private)]
    assert not found, found
