"""The matrix-side inputs, frozen entry by entry.

Every boundary family, with its parameters symbolic and with each pinned
to a small int, and the numerators and denominator of r(u), as strings.
A boundary matrix's params (names, order and values) and its
mat.variables are pinned too: the checks' reports and the charge weights
read them.
"""

import pytest

from onsalg.exactalg import parameter, spectral
from onsalg.tensormat import BOUNDARY_FAMILIES, build_boundary, build_r

X = spectral("x")

# family -> params given -> (entries, params after the build, the
# parameters of mat.variables after x); a str value in params is the
# name of the symbolic parameter it became
_FROZEN = {
    ("U_diag", None): (
        [["k", "0"], ["0", "-kstar"]],
        [("k", "k"), ("kstar", "kstar")],
        ("k", "kstar"),
    ),
    ("U_diag", (("k", 2), ("kstar", 3))): (
        [["2", "0"], ["0", "-3"]],
        [("k", 2), ("kstar", 3)],
        (),
    ),
    ("U_offdiag", None): (
        [["0", "x^(-1/2)"], ["-x^(1/2)", "0"]],
        [("sign", -1)],
        (),
    ),
    ("U_offdiag", (("sign", 1),)): (
        [["0", "x^(-1/2)"], ["x^(1/2)", "0"]],
        [("sign", 1)],
        (),
    ),
    ("k_general", None): (
        [["-alpha*x^-1 + alpha*x", "gamma*x^-1 + beta"],
         ["-gamma*x - beta", "-delta*x^-1 + delta*x"]],
        [("alpha", "alpha"), ("beta", "beta"), ("gamma", "gamma"), ("delta", "delta")],
        ("alpha", "beta", "gamma", "delta"),
    ),
    ("k_general", (("alpha", 2), ("beta", 3), ("gamma", 5), ("delta", 7))): (
        [["-2*x^-1 + 2*x", "5*x^-1 + 3"], ["-3 - 5*x", "-7*x^-1 + 7*x"]],
        [("alpha", 2), ("beta", 3), ("gamma", 5), ("delta", 7)],
        (),
    ),
    # given parameters keep their order and come first; None is symbolic
    ("k_general", (("gamma", 2), ("alpha", None))): (
        [["-alpha*x^-1 + alpha*x", "2*x^-1 + beta"],
         ["-2*x - beta", "-delta*x^-1 + delta*x"]],
        [("gamma", 2), ("alpha", "alpha"), ("beta", "beta"), ("delta", "delta")],
        ("alpha", "beta", "delta"),
    ),
    ("kappa_plus", None): ([["0", "1"], ["-1", "0"]], [], ()),
    ("kappa_minus", None): ([["0", "x^-1"], ["-x", "0"]], [], ()),
    ("M_ons", None): (
        [["mu*x^-1", "kappastar*x^-1 + kappa"], ["kappastar*x + kappa", "mu*x"]],
        [("kappa", "kappa"), ("kappastar", "kappastar"), ("mu", "mu")],
        ("mu", "kappa", "kappastar"),
    ),
    ("M_ons", (("kappa", 2), ("kappastar", 3), ("mu", 5))): (
        [["5*x^-1", "3*x^-1 + 2"], ["2 + 3*x", "5*x"]],
        [("kappa", 2), ("kappastar", 3), ("mu", 5)],
        (),
    ),
    ("M_aug", None): (
        [["tau", "nu*x^-1 + nu"], ["nustar + nustar*x", "0"]],
        [("tau", "tau"), ("nu", "nu"), ("nustar", "nustar")],
        ("tau", "nu", "nustar"),
    ),
    ("M_aug", (("tau", 2), ("nu", 3), ("nustar", 5))): (
        [["2", "3*x^-1 + 3"], ["5 + 5*x", "0"]],
        [("tau", 2), ("nu", 3), ("nustar", 5)],
        (),
    ),
    ("M_inv", None): (
        [["mu0", "mu1"], ["mu2", "0"]],
        [("mu0", "mu0"), ("mu1", "mu1"), ("mu2", "mu2")],
        ("mu0", "mu1", "mu2"),
    ),
    ("M_inv", (("mu0", 2), ("mu1", 3), ("mu2", 5))): (
        [["2", "3"], ["5", "0"]],
        [("mu0", 2), ("mu1", 3), ("mu2", 5)],
        (),
    ),
}


def test_every_family_is_frozen_symbolic_and_pinned():
    symbolic = [f for f, given in _FROZEN if given is None]
    assert symbolic == list(BOUNDARY_FAMILIES)
    pinned = {f for f, given in _FROZEN if given}
    assert pinned == {f for f in BOUNDARY_FAMILIES if _FROZEN[f, None][1]}


@pytest.mark.parametrize(
    "family, given", list(_FROZEN),
    ids=[f"{f}-{'symbolic' if g is None else '-'.join(n for n, _ in g)}" for f, g in _FROZEN],
)
def test_boundary_entries_params_and_variables(family, given):
    entries, params, variables = _FROZEN[family, given]
    b = build_boundary(family, None if given is None else dict(given))
    assert [[str(n) for n in row] for row in b.mat.nums] == entries
    assert b.mat.den_factors == ()
    assert b.x == X and b.family == family
    want = [(n, parameter(v) if isinstance(v, str) else v) for n, v in params]
    assert list(b.params.items()) == want
    # a pinned value stays the int given, not a polynomial equal to it
    assert [type(v) for v in b.params.values()] == [type(v) for _, v in want]
    assert b.mat.variables == (X,) + tuple(parameter(n) for n in variables)


def test_r_numerators_and_denominator():
    u = spectral("u")
    r = build_r(u)
    assert [[str(n) for n in row] for row in r.nums] == [
        ["-1/2 - 1/2*u", "0", "0", "0"],
        ["0", "1/2 + 1/2*u", "-2", "0"],
        ["0", "-2*u", "1/2 + 1/2*u", "0"],
        ["0", "0", "0", "-1/2 - 1/2*u"],
    ]
    assert [str(f) for f in r.den_factors] == ["-1 + u"]
    assert r.variables == (u,)
