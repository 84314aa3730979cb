"""Arithmetic layer: sparse Laurent polynomials, denominator factors and
linear combinations, the stored form of their coefficients, and the input
guards of the matrices built on them."""

import operator
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onsalg.exactalg import (
    LaurentPoly,
    LinComb,
    Variable,
    complement,
    content_in,
    factor_canonical,
    factor_lcm,
    parameter,
    rat,
    spectral,
)
from onsalg import exactalg, tensormat
from onsalg.envelope import UeaElt, uea_commutator, uea_mul
from onsalg.kacmoody import C, E, F, H, bracket
from onsalg.onsager import OnsSymbol, abstract_bracket
from onsalg.tensormat import TensorMat

X = spectral("x")
Y = spectral("y")
A = parameter("a")

coeffs = st.integers(-9, 9)


def _exp_strategy(v):
    # exponents are stored doubled; parameters stay polynomial
    if v.kind == "spectral":
        return st.integers(-6, 6)
    return st.sampled_from([0, 2, 4])


@st.composite
def polys(draw, variables=(X, Y)):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        e = tuple(draw(_exp_strategy(v)) for v in variables)
        terms[e] = draw(coeffs)
    return LaurentPoly(variables, terms)


@st.composite
def nonzero_polys(draw, variables=(X, Y)):
    p = draw(polys(variables=variables))
    if p.is_zero():
        p = p + LaurentPoly.monomial(variables, (2,) + (0,) * (len(variables) - 1), 3)
    return p


def test_rat_is_exact():
    assert rat(1, 3) * 3 == 1
    assert rat(2, 4) == rat(1, 2)


def test_variable_kind_is_checked():
    with pytest.raises(ValueError):
        Variable("q", "imaginary")


def test_constructor_merges_and_drops_zeros():
    p = LaurentPoly((X,), {(2,): 1, (0,): 0})
    q = LaurentPoly((X,), {(2,): rat(1, 2)}) + LaurentPoly((X,), {(2,): rat(1, 2)})
    assert p == q
    assert not LaurentPoly((X,), {(4,): 1, (0,): 2}).is_zero()
    assert (p - q).is_zero()


def test_str_sorts_terms():
    assert str(LaurentPoly.var(X) - 1) == "-1 + x"
    assert str(LaurentPoly.monomial((X,), (-2,), 1)) == "x^-1"
    assert str(LaurentPoly.monomial((X,), (1,), 1)) == "x^(1/2)"


@given(polys(), polys())
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys(), polys(), polys())
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys(), polys(), polys())
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys())
def test_additive_inverse(p):
    assert (p - p).is_zero()
    assert (p + 0) == p
    assert (1 * p) == p


@given(polys(), polys())
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative(X)
    rhs = p.derivative(X) * q + p * q.derivative(X)
    assert lhs == rhs


def test_derivative_half_power():
    # d/dx x^(1/2) = (1/2) x^(-1/2)
    half = LaurentPoly.var(X, half_steps=1)
    assert half.derivative(X) == LaurentPoly.monomial((X,), (-1,), rat(1, 2))


def test_derivative_rejects_parameters():
    with pytest.raises(ValueError):
        LaurentPoly.var(A).derivative(A)


@given(polys(variables=(X,)))
def test_inversion_is_involutive(p):
    inv = LaurentPoly.monomial((X,), (-2,), 1)
    assert p.substitute({X: inv}).substitute({X: inv}) == p


def test_substitute_quotient():
    u = spectral("u")
    p = LaurentPoly.var(u) - 1
    q = p.substitute({u: LaurentPoly.monomial((X, Y), (2, -2), 1)})
    assert q == LaurentPoly((X, Y), {(2, -2): 1, (0, 0): -1})


def test_substitute_requires_monomial():
    p = LaurentPoly.var(X)
    with pytest.raises(ValueError):
        p.substitute({X: LaurentPoly.var(Y) + 1})


def test_substitute_reads_every_exponent_before_replacing():
    p = LaurentPoly((X, Y), {(2, 4): 3, (-2, 0): 1})
    swapped = p.substitute({X: LaurentPoly.var(Y), Y: LaurentPoly.var(X)})
    assert swapped == LaurentPoly((Y, X), {(2, 4): 3, (-2, 0): 1})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: factor_canonical(LaurentPoly.zero((X,))), "zero denominator factor"),
        (lambda: TensorMat(1, [[1, 1], [1, 1]]).inverse_2x2(), "singular matrix"),
        (lambda: LaurentPoly((X, Y), {(2,): 1}), "exponent tuple length mismatch"),
        (lambda: LaurentPoly.var(X).substitute({X: LaurentPoly.var(Y, half_steps=1)}),
         "substitution monomial must have integer powers"),
        (lambda: LaurentPoly.var(X, half_steps=1).substitute(
            {X: LaurentPoly.monomial((Y,), (2,), 3)}),
         "fractional power of a non-monic monomial"),
        (lambda: TensorMat(1, [[1]]), "a 1-leg matrix needs 2 rows of 2 entries"),
        (lambda: TensorMat(1) + TensorMat(2), "leg mismatch: 1 and 2 legs"),
        (lambda: TensorMat(2) @ TensorMat(1), "leg mismatch: 2 and 1 legs"),
        (lambda: tensormat.leg_embed(TensorMat(2), (1, 1), 3),
         "legs must list 2 distinct positions"),
        (lambda: tensormat.leg_embed(TensorMat(1), (3,), 2),
         "leg positions must lie in 1..2"),
        (lambda: tensormat.partial_transpose(TensorMat(2), 3), "leg 3 is not in 1..2"),
        (lambda: tensormat.trace_leg(TensorMat(2), 0), "leg 0 is not in 1..2"),
        (lambda: tensormat.build_r(A), "build_r needs a spectral Variable"),
        (lambda: tensormat.build_boundary("bogus"),
         r"unknown family 'bogus' \(choose from U_diag, U_offdiag, k_general, kappa_plus, "
         r"kappa_minus, M_ons, M_aug, M_inv\)"),
        (lambda: tensormat.build_boundary("U_offdiag", params={"sign": 2}),
         "U_offdiag sign must be"),
        (lambda: tensormat.build_boundary("M_ons", params={"kapa": 1}),
         r"unknown parameter\(s\) kapa for M_ons \(its parameters: kappa, kappastar, mu\)"),
        (lambda: tensormat.build_boundary("kappa_plus", params={"sign": 1, "k": 2}),
         r"unknown parameter\(s\) k, sign for kappa_plus \(its parameters: none\)"),
        (lambda: tensormat.build_rbar(tensormat.build_boundary("U_diag", x=X), Y, X),
         "boundary matrix must be built in the first variable"),
        (lambda: tensormat.check_nscybe(tensormat.build_r(spectral("u"))),
         "rbar must depend on two spectral variables"),
        (lambda: tensormat.check_M_condition(
            tensormat.build_boundary("M_ons", x=X), tensormat.build_r(X)),
         "rbar must depend on two spectral variables"),
        (lambda: tensormat.check_M_condition(
            tensormat.build_boundary("M_ons", x=Y),
            tensormat.build_rbar(tensormat.build_boundary("U_diag", x=X), X, Y)),
         "M must be built in rbar's first spectral variable"),
        (lambda: exactalg._divide_in(LaurentPoly((X,), {(4,): 1, (0,): 1}), [1, 0, -1], X),
         r"\[1, 0, -1\] \(half steps of x, highest first\) does not divide 1 \+ x\^2"),
        # x^2 - 1 divides the y^0 part, not the y^1 part x + 2
        (lambda: exactalg._divide_in(
            LaurentPoly((X, Y), {(4, 0): 1, (0, 0): -1, (2, 2): 1, (0, 2): 2}), [1, 0, -1], X),
         r"\(half steps of x, highest first\) does not divide"),
    ],
    ids=["zero-factor", "singular", "length", "half-power-image", "non-monic",
         "matrix-shape", "add-legs", "matmul-legs", "embed-distinct", "embed-range",
         "transpose-leg", "trace-leg", "r-variable", "boundary-family",
         "offdiag-sign", "boundary-param", "boundary-param-none",
         "rbar-variable", "nscybe-variables", "m-rbar-variables",
         "m-variable", "content-remainder", "content-remainder-one-part"],
)
def test_guards_raise_value_error(call, message):
    # explicit exceptions, so python -O keeps them
    with pytest.raises(ValueError, match=message):
        call()


def test_squaring_until_a_field_would_overflow_raises():
    # y sits in a neighbouring field, so a spilled x field would change it
    p, doubled = LaurentPoly.var(X) * LaurentPoly.var(Y, half_steps=-2), 2
    with pytest.raises(OverflowError):
        for _ in range(64):
            p, doubled = p * p, 2 * doubled
            assert p == LaurentPoly.monomial((X, Y), (doubled, -doubled))
    assert doubled < 2 ** 20


def test_pickle_names_variables_across_interpreters():
    p1, p2, p3 = spectral("pickle_1"), spectral("pickle_2"), parameter("pickle_3")
    here = LaurentPoly((p1, p2, p3), {(1, -2, 0): rat(3, 2), (0, 4, 2): -1})
    child = textwrap.dedent("""
        import pickle, sys
        from onsalg.exactalg import LaurentPoly, parameter, rat, spectral
        p1, p2, p3 = spectral("pickle_1"), spectral("pickle_2"), parameter("pickle_3")
        LaurentPoly((p3, p2, p1), {(2, 2, 2): 1})  # registers p3 first
        p = LaurentPoly((p1, p2, p3), {(1, -2, 0): rat(3, 2), (0, 4, 2): -1})
        print(sorted(p.terms))
        print(pickle.dumps(p).hex())
    """)
    import onsalg

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(onsalg.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    keys, payload = out[:-1], out[-1]
    # the child's keys differ from ours, yet the pickle reads back equal
    assert " ".join(keys) != str(sorted(here.terms))
    there = pickle.loads(bytes.fromhex(payload))
    assert there == here and str(there) == str(here)


def test_degree_range_and_uses():
    p = LaurentPoly((X, Y), {(2, 0): 1, (-4, 2): 2})
    assert p.degree_range(X) == (-4, 2)
    assert p.variables == (X, Y)
    assert LaurentPoly((X, Y), {(2, 0): 1}).variables == (X,)
    assert LaurentPoly.zero((X,)).degree_range(X) is None


def test_equality_ignores_context():
    p = LaurentPoly((X, Y), {(2, 0): 3})
    q = LaurentPoly((Y, X), {(0, 2): 3})
    r = LaurentPoly((X,), {(2,): 3})
    assert p == q == r
    assert hash(p) == hash(r)


def test_constant_hashes_as_its_value():
    one = LaurentPoly.const(1, (X,))
    assert one == 1 and hash(one) == hash(1)
    assert len({one, 1, rat(1)}) == 1
    assert hash(LaurentPoly.const(rat(-3, 2))) == hash(rat(-3, 2))
    assert LaurentPoly.zero((X, Y)) == 0 and hash(LaurentPoly.zero((X, Y))) == hash(0)


def test_lincomb_equality_and_hash_ignore_coefficient_context():
    a = LinComb({"e": LaurentPoly((X, A), {(0, 2): 3}), "f": 1})
    b = LinComb({"f": LaurentPoly.const(1, (Y,)), "e": LaurentPoly((A,), {(2,): 3})})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != a.scale(2) and a != LinComb({"e": 3})
    assert a - b == LinComb.zero() and not (a - b)
    with pytest.raises(TypeError):
        a.scale(b)
    with pytest.raises(TypeError):
        a * b


def test_lincomb_drops_zero_coefficients():
    a = LinComb({"e": 2, "f": 0, "g": LaurentPoly.zero((X,))})
    assert a.terms.keys() == {"e"}
    assert str(a + LinComb.single("f", -1)) == "2*e - f"
    assert (a + LinComb.single("e", -2)).terms == {}
    assert a.scale(0) == LinComb.zero()


_TWO = LaurentPoly.const(2, (X,))
_E = LinComb.single("e")


@pytest.mark.parametrize(
    "op, left, right, want",
    [
        (operator.mul, _TWO, _E, LinComb.single("e", 2)),
        (operator.mul, _E, _TWO, LinComb.single("e", 2)),
        (operator.add, _E, _TWO, TypeError),
        (operator.add, _TWO, _E, TypeError),
        (operator.sub, _E, _TWO, TypeError),
        (operator.sub, _TWO, _E, TypeError),
        (operator.add, LaurentPoly.var(X), TensorMat(1), TypeError),
        (operator.add, TensorMat(1), LaurentPoly.var(X), TypeError),
        (operator.matmul, TensorMat(1), 2, TypeError),
    ],
    ids=["poly*elt", "elt*poly", "elt+poly", "poly+elt", "elt-poly", "poly-elt",
         "poly+matrix", "matrix+poly", "matrix@scalar"],
)
def test_mixed_type_arithmetic(op, left, right, want):
    # a coefficient scales an element from either side; an element or a
    # matrix and a coefficient never add
    if want is TypeError:
        with pytest.raises(TypeError, match="unsupported operand"):
            op(left, right)
    else:
        assert op(left, right) == want


def _xy_factors(order=(X, Y)):
    """x - y and xy - 1, built through the constructor over order."""
    def poly(terms):
        return LaurentPoly(order, {
            tuple(exps[v] for v in order): c for exps, c in terms
        })

    xmy = poly([({X: 2, Y: 0}, 1), ({X: 0, Y: 2}, -1)])
    xy1 = poly([({X: 2, Y: 2}, 1), ({X: 0, Y: 0}, -1)])
    return xmy, xy1


def test_complement_counts_multiplicity():
    xmy, xy1 = _xy_factors()
    yx_xmy, yx_xy1 = _xy_factors((Y, X))
    assert complement([xmy], [xmy, yx_xy1, xmy]) == xmy * xy1
    assert complement([xmy, yx_xy1], [xy1, yx_xmy]) == 1
    assert complement((), [xmy, xmy]) == xmy * xmy
    with pytest.raises(ValueError, match="not covered by the clearing set"):
        complement([xmy, xmy], [xmy, xy1])


def test_complement_rejects_a_foreign_factor():
    xmy, xy1 = _xy_factors()
    with pytest.raises(ValueError, match=r"not covered by the clearing set: -y \+ x"):
        complement([xmy], [xy1])


def test_factor_lcm_takes_the_highest_multiplicity():
    xmy, xy1 = _xy_factors()
    yx_xmy, yx_xy1 = _xy_factors((Y, X))
    lcm = factor_lcm([xmy, yx_xmy, xy1], [yx_xy1, xmy], [xy1, yx_xy1])
    assert sorted(map(str, lcm)) == sorted(map(str, (xmy, xmy, xy1, xy1)))
    assert factor_lcm() == [] and factor_lcm([], [xmy]) == [xmy]


@given(nonzero_polys())
def test_factor_canonical_reassembles(p):
    inv_unit, factors = factor_canonical(p)
    prod = LaurentPoly.const(1, p.variables)
    for f in factors:
        prod = prod * f
    # p = unit * prod(factors), i.e. inv_unit * p = prod(factors)
    assert inv_unit * p == prod


# dense terms over (X, Y); swapping each tuple gives the same polynomial
# over (Y, X)
xy_terms = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.integers(-9, 9).filter(bool),
    min_size=1,
    max_size=5,
)


def _both_orders(terms):
    return (
        LaurentPoly((X, Y), terms),
        LaurentPoly((Y, X), {(ey, ex): c for (ex, ey), c in terms.items()}),
    )


@given(xy_terms)
def test_variable_order_does_not_show(terms):
    p, q = _both_orders(terms)
    assert p.terms == q.terms and p == q and hash(p) == hash(q)
    assert str(p) == str(q)
    assert p.variables == q.variables
    used = tuple(v for i, v in enumerate((X, Y)) if any(e[i] for e in terms))
    assert p.variables == used


@given(xy_terms)
def test_factor_canonical_ignores_context_order(terms):
    p, q = _both_orders(terms)
    up, fp = factor_canonical(p)
    uq, fq = factor_canonical(q)
    assert up == uq and fp == fq
    assert [str(f) for f in fp] == [str(f) for f in fq]


# -- the content in one variable ------------------------------------------------

half_coeffs = st.builds(rat, st.integers(-9, 9), st.sampled_from([1, 2]))


@st.composite
def xya_polys(draw):
    # polynomials in x, y and a parameter, half powers of x and y included
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([0, 2, 4])),
        half_coeffs, max_size=5))
    return LaurentPoly((X, Y, A), terms)


@st.composite
def univariate(draw):
    # g(x) in full or half steps of x, with nonzero lowest and highest terms
    step = draw(st.sampled_from([1, 2]))
    cs = draw(st.lists(half_coeffs, min_size=1, max_size=4).filter(lambda c: c[0] and c[-1]))
    return LaurentPoly((X,), {(step * i,): c for i, c in enumerate(cs)})


def _divides(g, p):
    """Whether g divides p, both polynomials in x alone, up to a power of x."""

    def coefficients(q):  # the highest first, one per half step
        parts = q.split((X,))
        return [Fraction(parts.get((e,), 0))
                for e in range(max(parts)[0], min(parts)[0] - 1, -1)]

    a, b = coefficients(p), coefficients(g)
    while len(a) >= len(b):
        c = a[0] / b[0]
        a = [ai - c * bi for ai, bi in zip(a, b + [0] * len(a))][1:]
    return not any(a)


@settings(deadline=None)
@given(st.lists(xya_polys(), min_size=1, max_size=3).filter(lambda ps: any(ps)), univariate())
def test_content_in_finds_a_common_univariate_factor(ps, g):
    inputs = [g * p for p in ps]
    content, quotients = content_in(inputs, X)
    assert set(content.variables) <= {X}
    assert _divides(g, content)
    low, high = content.degree_range(X)
    assert low == 0 and content.split((X,))[(high,)] == 1  # monic, g(0) != 0
    assert [content * q for q in quotients] == inputs


@settings(deadline=None)
@given(st.lists(xya_polys(), max_size=3))
def test_content_in_without_a_common_factor_is_one(ps):
    # x + y has the content 1 in x: its y^0 and y^1 parts are powers of x
    inputs = ps + [LaurentPoly.var(X) + LaurentPoly.var(Y)]
    content, quotients = content_in(inputs, X)
    assert content == 1
    assert quotients == inputs


def test_content_in_strips_half_steps_and_units():
    # x^(1/2) (x - 1) and x^-1 (x - 1)(x + 1) y share x - 1; x^(1/2) is a unit
    x, y = LaurentPoly.var(X), LaurentPoly.var(Y)
    half, inv = LaurentPoly.var(X, half_steps=1), LaurentPoly.var(X, half_steps=-2)
    content, quotients = content_in([half * (x - 1), inv * (x - 1) * (x + 1) * y], X)
    assert content == x - 1
    assert quotients == [half, inv * (x + 1) * y]


def test_factor_canonical_splits_parameter_monomials():
    p = LaurentPoly.monomial((A,), (4,), rat(3))
    inv_unit, factors = factor_canonical(p)
    assert inv_unit == LaurentPoly.const(rat(1, 3))
    assert factors == [LaurentPoly.var(A), LaurentPoly.var(A)]


# -- stored coefficients: an int, or a Rational when not integral -----------------

_RATIONAL = type(rat(1, 2))

# ints, proper fractions, and integral values given as rat or Fraction
mixed_coeffs = st.one_of(
    st.integers(-9, 9),
    st.builds(rat, st.integers(-9, 9), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-9, 9)),
)


@st.composite
def mixed_polys(draw):
    # few exponents, so that sums and products meet on common monomials
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        e = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        terms[e] = draw(mixed_coeffs)
    return LaurentPoly((X, Y), terms)


@st.composite
def display_polys(draw):
    # spectral half powers, a parameter, and fractional coefficients
    variables = (X, Y, A)
    n = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n):
        terms[tuple(draw(_exp_strategy(v)) for v in variables)] = draw(mixed_coeffs)
    return LaurentPoly(variables, terms)


def _split_str(p):
    """str(p) as written through split: each term's exponents come from
    splitting off every variable p uses, and its coefficient is the
    constant left over, which split returns as its scalar."""
    if not p.terms:
        return "0"
    variables = p.variables
    bits = []
    for exps, c in sorted(p.split(variables).items()):
        assert not isinstance(c, LaurentPoly), repr(c)
        factors = []
        for v, e in zip(variables, exps):
            if e == 2:
                factors.append(v.name)
            elif e and e % 2 == 0:
                factors.append(f"{v.name}^{e // 2}")
            elif e:
                factors.append(f"{v.name}^({e}/2)")
        if not factors:
            bits.append(str(c))
        elif c == 1:
            bits.append("*".join(factors))
        elif c == -1:
            bits.append("-" + "*".join(factors))
        else:
            bits.append(f"{c}*" + "*".join(factors))
    return " + ".join(bits).replace("+ -", "- ")


@given(display_polys())
@example(LaurentPoly((X, Y, A), {(-3, 2, 4): rat(-1, 2), (0, 0, 0): 7, (2, -4, 0): -1}))
def test_str_matches_a_split_reference(p):
    assert str(p) == _split_str(p)


def _assert_stored(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is _RATIONAL and c.denominator != 1), repr(c)


_HALVES = LaurentPoly((X, Y), {(2, 0): rat(1, 2), (0, 2): rat(3, 2)})


@given(mixed_polys(), mixed_polys(), mixed_coeffs, mixed_coeffs.filter(bool))
@example(_HALVES, _HALVES, rat(2, 3), rat(1, 2))
def test_coefficients_are_ints_unless_not_integral(p, q, c, m):
    results = [p, q, p + q, p - q, p * q, p * c, c * p, p.derivative(X)]
    # x -> m / x needs an integer power of x wherever m is not 1
    even = all(e % 2 == 0 for (e,) in p.split((X,)))
    image = LaurentPoly.monomial((X,), (-2,), m if even else 1)
    # x -> y merges terms, so coefficients are summed
    results += [p.substitute({X: image}), p.substitute({X: LaurentPoly.var(Y)})]
    if p:
        inv_unit, factors = factor_canonical(p)
        results += [inv_unit, *factors, complement(factors[:1], factors + factors)]
    for r in results:
        _assert_stored(r)


def test_derivative_stores_an_int():
    d = LaurentPoly.monomial((X,), (4,), 3).derivative(X)
    assert d == LaurentPoly.monomial((X,), (2,), 6)
    assert [type(c) for c in d.terms.values()] == [int]


def test_an_integral_fraction_is_stored_as_an_int():
    two = LaurentPoly.const(Fraction(2))
    assert two == LaurentPoly.const(2) and hash(two) == hash(LaurentPoly.const(2))
    assert [type(c) for c in two.terms.values()] == [int]


def test_guards_refuse_float_coefficients():
    # a float's binary value is rarely the number meant: 0.1 is not 1/10
    for call in (
        lambda: LaurentPoly.const(0.1),
        lambda: LaurentPoly((X,), {(2,): 0.5}),
        lambda: LaurentPoly((X,), {(2,): 0.0}),
        lambda: LinComb.single("e", 0.5),
        lambda: LinComb({"e": 0.5}),
        lambda: LinComb.single("e").scale(0.5),
        lambda: LaurentPoly.var(X) * 0.5,
    ):
        with pytest.raises(TypeError):
            call()
    # a string parses exactly
    assert LaurentPoly.const("1/2") == LaurentPoly.const(rat(1, 2))
    assert LinComb.single("e", "-3/6") == LinComb.single("e", rat(-1, 2))


def test_guards_refuse_a_basis_symbol_as_a_coefficient():
    # an interned symbol is an int, whose value would pass for a huge
    # integer coefficient
    for call in (
        lambda: LinComb.single(E(1), E(2)),
        lambda: LinComb({E(1): H(0)}),
        lambda: LinComb.single(E(1)).scale(C),
        lambda: LinComb.single(E(1)) * OnsSymbol("onsager", "A", 1),
        lambda: LaurentPoly.const(E(0)),
        lambda: LaurentPoly.var(X) * F(1),
        lambda: LaurentPoly.var(X) + F(1),
    ):
        with pytest.raises(TypeError, match="a basis symbol is a key, not a coefficient"):
            call()


# -- LinComb coefficients: a scalar unless it involves a variable ------------------

# ints, proper and integral rationals, and one-variable polynomials, some
# of them constant and some whose products are (x times 1/x)
lin_coeffs = st.one_of(
    mixed_coeffs,
    st.builds(
        lambda e, c, c0: LaurentPoly((X,), {(e,): c, (0,): c0}),
        st.sampled_from([-2, 0, 2]),
        mixed_coeffs,
        mixed_coeffs,
    ),
)
_LIE_KEYS = [E(0), E(1), F(-1), F(0), H(0), H(1), C]
_ONS_KEYS = [OnsSymbol("onsager", "A", n) for n in (-1, 0, 1, 2)] + [
    OnsSymbol("onsager", "G", n) for n in (1, 2)
]


def _elements(keys):
    return st.dictionaries(st.sampled_from(keys), lin_coeffs, max_size=4).map(LinComb)


def _assert_lincomb_stored(elt):
    _assert_terms_stored(elt.terms)


def _assert_terms_stored(terms):
    for c in terms.values():
        if isinstance(c, LaurentPoly):
            assert any(c.terms.keys() - {0}), f"constant polynomial {c!r}"
            _assert_stored(c)
        else:
            assert type(c) is int or (type(c) is _RATIONAL and c.denominator != 1), repr(c)


@settings(max_examples=60, deadline=None)
@given(_elements(_LIE_KEYS), _elements(_LIE_KEYS), _elements(_ONS_KEYS),
       _elements(_ONS_KEYS), lin_coeffs)
def test_lincomb_coefficients_are_scalars_unless_they_involve_a_variable(a, b, p, q, c):
    ua = UeaElt({(s,): k for s, k in a.terms.items()})
    ub = uea_mul(ua, UeaElt({(s,): k for s, k in b.terms.items()}))
    results = [a, b, a + b, a - b, a.scale(c), c * b, bracket(a, b),
               p, q, p - q, p.scale(c), abstract_bracket(p, q), uea_commutator(ua, ub)]
    for r in results:
        _assert_lincomb_stored(r)


def test_a_constant_coefficient_is_stored_as_its_scalar():
    for value in (2, rat(-1, 2)):
        poly = LinComb.single("k", LaurentPoly.const(value, (X,)))
        plain = LinComb.single("k", value)
        assert poly == plain and hash(poly) == hash(plain)
        assert str(poly) == str(plain)
        assert [type(c) for c in poly.terms.values()] == [type(value)]
    # x times 1/x is a constant, and so is a sum that cancels the variable
    x, inv = LaurentPoly.var(X), LaurentPoly.var(X, half_steps=-2)
    scaled = LinComb.single("k", x).scale(inv)
    assert scaled.terms == {"k": 1} and type(scaled.terms["k"]) is int
    summed = LinComb.single("k", x + 3) - LinComb.single("k", x)
    assert [type(c) for c in summed.terms.values()] == [int]


# what a term dict may hold before it becomes a value: ints, integral and
# non-integral Rationals of the backend type, and constant and non-constant
# polynomials, none of them zero
raw_coeffs = st.one_of(
    st.integers(-9, 9),
    st.builds(exactalg.Rational, st.integers(-9, 9)),
    st.builds(rat, st.integers(-9, 9), st.integers(2, 4)),
    st.builds(LaurentPoly.const, mixed_coeffs),
    st.builds(lambda c, c0: LaurentPoly((X, A), {(2, 0): c, (0, 2): c0}), mixed_coeffs,
              mixed_coeffs),
).filter(bool)


@given(st.dictionaries(st.integers(-3, 3) | st.sampled_from(["a", "ab"]), raw_coeffs,
                       max_size=6))
@example({0: exactalg.Rational(4, 2), "a": LaurentPoly.const(rat(3, 1)),
          "ab": LaurentPoly.const(rat(1, 2))})
def test_normalise_is_the_one_stored_form(raw):
    terms = dict(raw)
    assert exactalg._normalise(terms) is terms
    # every value is stored as its simplest form and still equals itself
    assert terms.keys() == raw.keys() and all(terms[k] == raw[k] for k in raw)
    _assert_terms_stored(terms)
    # a stored dict is a fixed point: a second call replaces nothing
    again = dict(terms)
    exactalg._normalise(again)
    assert all(again[k] is terms[k] for k in terms)


# -- the linear and bilinear extensions --------------------------------------------

_WORD_KEYS = ["a", "b", "ab", "ba"]


def _image(key):
    # reversal with a polynomial part; "ab" and "ba" share a reversed key
    return LinComb({key[::-1]: 2, key + "!": LaurentPoly.var(X) - rat(1, 2)})


def _product(ka, kb):
    # not symmetric, and zero on equal keys
    if ka == kb:
        return ()
    return ((ka + kb, 3), (kb, rat(-1, 2)), (ka + kb, -1))


@settings(max_examples=60, deadline=None)
@given(_elements(_WORD_KEYS), _elements(_WORD_KEYS), _elements(_WORD_KEYS), lin_coeffs)
def test_linear_and_bilinear_extend_by_linearity(p, q, r, c):
    s = p + q.scale(c)
    assert s.linear(_image) == p.linear(_image) + q.linear(_image).scale(c)
    left = p.bilinear(r, _product) + q.bilinear(r, _product).scale(c)
    assert s.bilinear(r, _product) == left
    right = r.bilinear(p, _product) + r.bilinear(q, _product).scale(c)
    assert r.bilinear(s, _product) == right
    for result in (s.linear(_image), s.bilinear(r, _product), r.bilinear(s, _product)):
        _assert_lincomb_stored(result)


@given(st.sampled_from(_WORD_KEYS), st.sampled_from(_WORD_KEYS), lin_coeffs, lin_coeffs)
def test_linear_and_bilinear_agree_with_the_rule_on_keys(ka, kb, c, d):
    a, b = LinComb.single(ka, c), LinComb.single(kb, d)
    assert a.linear(_image) == _image(ka).scale(c)
    want = LinComb.zero()
    for key, k in _product(ka, kb):
        want = want + LinComb.single(key, k)
    assert a.bilinear(b, _product) == want.scale(c).scale(d)


def test_extensions_keep_the_element_type():
    u = UeaElt.single(("a",), 2)
    assert type(u.linear(lambda w: LinComb.single(w + w))) is UeaElt
    assert type(u.bilinear(u, lambda wa, wb: ((wa + wb, 1),))) is UeaElt


# -- the LinComb kernels: _addlin and _addbilin --------------------------------------

# the coefficients above, and parametric polynomials in a, whose products
# with each other are polynomial products
kernel_coeffs = st.one_of(
    lin_coeffs,
    st.builds(lambda c, c0: LaurentPoly((A,), {(2,): c, (0,): c0}), mixed_coeffs, mixed_coeffs),
)


def _kernel_elements(keys):
    return st.dictionaries(st.sampled_from(keys), kernel_coeffs, max_size=4).map(LinComb)


def _reference(*scaled):
    """sum of s * terms over the (s, terms) pairs, coefficient by coefficient
    with plain arithmetic, stored through the LinComb constructor."""
    total = {}
    for s, terms in scaled:
        for key, c in terms.items():
            total[key] = total.get(key, 0) + c * s
    return LinComb(total)


def _bilinear_terms(a, b, product):
    """The bilinear extension of product, pair by pair, as a plain dict."""
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            for k, ck in product(ka, kb):
                out[k] = out.get(k, 0) + ca * cb * ck
    return out


@settings(max_examples=80, deadline=None)
@given(_kernel_elements(_WORD_KEYS), _kernel_elements(_WORD_KEYS), kernel_coeffs.filter(bool))
def test_addlin_equals_scale_and_sum(p, q, s):
    out = dict(p.terms)
    exactalg._addlin(out, q.terms, exactalg._as_coeff(s))
    got = LinComb.from_dict(out)
    assert got == p + q.scale(s) == _reference((1, p.terms), (s, q.terms))
    _assert_lincomb_stored(got)
    out = dict(p.terms)
    exactalg._addlin(out, q.terms)
    assert LinComb.from_dict(out) == p + q == _reference((1, p.terms), (1, q.terms))
    # p - p cancels every key, and adding s q then -s q gives p back
    out = dict(p.terms)
    exactalg._addlin(out, p.terms, -1)
    assert out == {}
    assert (p - p).terms == {} and p - q == _reference((1, p.terms), (-1, q.terms))
    out = dict(p.terms)
    exactalg._addlin(out, q.terms, exactalg._as_coeff(s))
    exactalg._addlin(out, q.terms, exactalg._as_coeff(-s))
    assert LinComb.from_dict(out) == p
    _assert_lincomb_stored(LinComb.from_dict(out))


@settings(max_examples=80, deadline=None)
@given(_kernel_elements(_WORD_KEYS), _kernel_elements(_WORD_KEYS),
       _kernel_elements(_WORD_KEYS), kernel_coeffs.filter(bool))
def test_addbilin_equals_bilinear(p, q, r, s):
    s = exactalg._as_coeff(s)
    pq = _bilinear_terms(p, q, _product)
    out = dict(r.terms)
    exactalg._addbilin(out, p.terms, q.terms, _product, s)
    got = LinComb.from_dict(out)
    assert got == r + p.bilinear(q, _product).scale(s) == _reference((1, r.terms), (s, pq))
    _assert_lincomb_stored(got)
    assert p.bilinear(q, _product) == _reference((1, pq))
    # adding the same extension with -s cancels it in full
    exactalg._addbilin(out, p.terms, q.terms, _product, -s)
    assert LinComb.from_dict(out) == r
    out = {}
    exactalg._addbilin(out, p.terms, q.terms, _product)
    exactalg._addbilin(out, p.terms, q.terms, _product, -1)
    assert out == {}


def test_kernels_store_simplest_forms_on_cancellation():
    a = LaurentPoly.var(A)

    def stored(out):
        # the element the accumulated dict becomes, which normalises it
        return LinComb.from_dict(dict(out)).terms

    # (a + 1/2) - a is the non-integral scalar 1/2, and 1/2 + 1/2 the int 1
    out = {"k": a + rat(1, 2)}
    exactalg._addlin(out, {"k": a}, -1)
    got = stored(out)
    assert got == {"k": rat(1, 2)} and type(got["k"]) is _RATIONAL
    exactalg._addlin(out, {"k": rat(1, 2)})
    got = stored(out)
    assert got == {"k": 1} and type(got["k"]) is int
    # 1/2 scaled by 2a is the polynomial a, which the bilinear term cancels
    out = {}
    exactalg._addlin(out, {"k": rat(1, 2)}, 2 * a)
    got = stored(out)
    assert got == {"k": a} and isinstance(got["k"], LaurentPoly)
    exactalg._addbilin(out, {"x": 1}, {"y": a}, lambda ka, kb: (("k", -1),))
    assert out == {}


def test_addlin_forms_no_product_for_a_unit_scale():
    # with s = 1 each coefficient is stored as it is: no polynomial product
    coeff = LaurentPoly.var(A) + 1
    out = {}
    exactalg._addlin(out, {"k": coeff})
    assert out["k"] is coeff
