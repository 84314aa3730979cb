"""Truncated matrix series: the generating currents and their relations."""

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsalg import currents, onsager
from onsalg.currents import (
    CurrentMat,
    SupportMeta,
    build_B,
    build_T,
    check_exchange,
    check_frt_relations,
    series_bracket,
)
from onsalg.exactalg import LaurentPoly, parameter, rat, spectral
from onsalg.kacmoody import C, E, F, H, LieElt, _basis_bracket, bracket
from onsalg.report import Residuals
from onsalg.tensormat import TensorMat, build_r, build_rbar

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracles  # noqa: E402


def lie(*pairs):
    out = LieElt.zero()
    for sym, c in pairs:
        out = out + LieElt.single(sym, c)
    return out


def extract_mode(m, degree):
    """The nonzero coefficients of a one-variable current at an integer
    degree: dict (i, j) -> LieElt."""
    out = {}
    for pos, coeffs in m.entries.items():
        c = coeffs.get((2 * degree,))
        if c:
            out[pos] = c
    return out


# -- exactness bookkeeping --------------------------------------------------


def test_meta_exact_window():
    assert SupportMeta(0, None, None, 12).exact_window() == (0, 12)
    assert SupportMeta(0, 4, -2, 10).exact_window() == (0, 4)
    assert SupportMeta().exact_window() == (None, None)


def test_meta_vacuous_window_raises():
    bad = SupportMeta(6, None, None, 2)
    with pytest.raises(ValueError):
        bad.require_nonvacuous("test")
    SupportMeta(0, None, None, 2).require_nonvacuous("test")


def test_meta_addition_takes_worst_truncation():
    a = SupportMeta(0, None, None, 12)
    b = SupportMeta(-2, None, None, 8)
    s = a.added(b)
    assert (s.natural_lo, s.natural_hi) == (-2, None)
    assert (s.trunc_lo, s.trunc_hi) == (None, 8)


def _scale_poly(cur, p):
    """cur times the scalar p, through CurrentMat._times with p on the
    diagonal: spectral degrees shift the series, parameters scale the
    coefficients."""
    return cur._times([[p if i == j else None for j in range(cur.dim)] for i in range(cur.dim)],
                      True)


def test_scale_poly_shifts_metas_by_the_exact_span():
    # a span widened to include degree 0 would leave x * T+ at (0, 8)
    x = spectral("x")
    xx = LaurentPoly.var(x)
    tp = build_T("+", 4, x)
    assert _scale_poly(tp, xx).metas[0].exact_window() == (2, 10)
    assert _scale_poly(tp, xx * xx).metas[0].exact_window() == (4, 12)
    assert _scale_poly(tp, xx + xx * xx).metas[0].exact_window() == (2, 10)
    assert _scale_poly(tp, xx * xx).entry(0, 1)[(4,)] == LieElt.single(F(0), 2)


def test_meta_shift_and_invert():
    m = SupportMeta(0, None, None, 12)
    s = m.shifted(-2, 2)
    assert (s.natural_lo, s.trunc_hi) == (-2, 10)
    inv = m.inverted()
    assert (inv.natural_hi, inv.trunc_lo) == (0, -12)


# -- the one-row currents ---------------------------------------------------


def test_t_plus_table():
    t = build_T("+", 3)
    assert extract_mode(t, 0) == {
        (0, 0): lie((H(0), "1/2")),
        (0, 1): lie((F(0), 2)),
        (1, 1): lie((H(0), "-1/2")),
    }
    for n in (1, 2, 3):
        assert extract_mode(t, n) == {
            (0, 0): lie((H(n), 1)),
            (0, 1): lie((F(n), 2)),
            (1, 0): lie((E(n), 2)),
            (1, 1): lie((H(n), -1)),
        }
    assert t.metas[0].exact_window() == (0, 6)


def test_t_minus_table():
    t = build_T("-", 3)
    assert extract_mode(t, 0) == {
        (0, 0): lie((H(0), "-1/2")),
        (1, 0): lie((E(0), -2)),
        (1, 1): lie((H(0), "1/2")),
    }
    for n in (1, 2, 3):
        assert extract_mode(t, -n) == {
            (0, 0): lie((H(-n), -1)),
            (0, 1): lie((F(-n), -2)),
            (1, 0): lie((E(-n), -2)),
            (1, 1): lie((H(-n), 1)),
        }
    assert t.metas[0].exact_window() == (-6, 0)


# -- the double-row currents ------------------------------------------------


def test_b_onsager_table():
    b = build_B("onsager", 4)
    assert b.metas[0].exact_window() == (0, 8)
    assert extract_mode(b, 0) == {(0, 1): lie((E(0), 2), (F(0), 2))}
    for n in (1, 2, 3):
        assert extract_mode(b, n) == {
            (0, 0): lie((H(-n), -1), (H(n), 1)),
            (0, 1): lie((E(-n), 2), (F(n), 2)),
            (1, 0): lie((E(n), 2), (F(-n), 2)),
            (1, 1): lie((H(-n), 1), (H(n), -1)),
        }


def test_b_augmented_table():
    b = build_B("augmented", 4)
    assert extract_mode(b, 0) == {
        (0, 0): lie((C, "1/2"), (H(0), 1)),
        (0, 1): lie((F(-1), 2), (F(0), 2)),
        (1, 1): lie((C, "-1/2"), (H(0), -1)),
    }
    for n in (1, 2, 3):
        assert extract_mode(b, n) == {
            (0, 0): lie((H(-n), 1), (H(n), 1)),
            (0, 1): lie((F(-n - 1), 2), (F(n), 2)),
            (1, 0): lie((E(1 - n), 2), (E(n), 2)),
            (1, 1): lie((H(-n), -1), (H(n), -1)),
        }


def test_b_invariant_table():
    b = build_B("invariant", 4)
    assert extract_mode(b, 0) == {
        (0, 0): lie((H(0), 1)),
        (0, 1): lie((F(0), 2)),
        (1, 0): lie((E(0), 2)),
        (1, 1): lie((H(0), -1)),
    }
    for n in (1, 2, 3):
        assert extract_mode(b, n) == {
            (0, 0): lie((H(-n), 1), (H(n), 1)),
            (0, 1): lie((F(-n), 2), (F(n), 2)),
            (1, 0): lie((E(-n), 2), (E(n), 2)),
            (1, 1): lie((H(-n), -1), (H(n), -1)),
        }


def test_b_kappa_minus_table():
    # this family reaches one mode below zero
    b = build_B("kappa_minus", 4)
    assert b.metas[0].exact_window() == (-2, 6)
    assert extract_mode(b, -1) == {(0, 1): lie((F(-1), 2))}
    assert extract_mode(b, 0) == {
        (0, 0): lie((C, 1), (H(0), 1)),
        (0, 1): lie((F(-2), 2), (F(0), 2)),
        (1, 1): lie((C, -1), (H(0), -1)),
    }
    assert extract_mode(b, 1)[(1, 0)] == lie((E(1), 2))
    for n in (2, 3):
        assert extract_mode(b, n) == {
            (0, 0): lie((H(-n), 1), (H(n), 1)),
            (0, 1): lie((F(-n - 2), 2), (F(n), 2)),
            (1, 0): lie((E(2 - n), 2), (E(n), 2)),
            (1, 1): lie((H(-n), -1), (H(n), -1)),
        }


def test_diagonal_antisymmetry():
    # the two diagonal entries are opposite in every family
    for fam in ("onsager", "augmented", "invariant", "kappa_minus"):
        b = build_B(fam, 4)
        assert b.entry(0, 0) == {
            deg: -lieval for deg, lieval in b.entry(1, 1).items()
        }


# -- series commutators -----------------------------------------------------


def test_series_bracket_frozen_coefficients():
    x, y = spectral("x"), spectral("y")
    b1 = build_B("onsager", 6, x=x).embed((1,), 2)
    b2 = build_B("onsager", 6, x=y).embed((2,), 2)
    br = series_bracket(b1, b2)
    assert br.entry(0, 1).get((2, 2)) == lie(
        (E(-2), -4), (E(0), 4), (F(0), 4), (F(2), -4)
    )

    t1 = build_T("+", 6, x=x).embed((1,), 2)
    t2 = build_T("+", 6, x=y).embed((2,), 2)
    brt = series_bracket(t1, t2)
    assert brt.entry(0, 1).get((0, 0)) == lie((F(0), -2))


def test_series_bracket_needs_disjoint_variables():
    x = spectral("x")
    a = build_T("+", 3, x=x).embed((1,), 2)
    b = build_T("+", 3, x=x).embed((2,), 2)
    with pytest.raises(ValueError, match="series_bracket needs disjoint spectral variables"):
        series_bracket(a, b)


# -- relation checks --------------------------------------------------------


def test_frt_relations_window_six():
    rep = check_frt_relations(6)
    assert rep.passed, rep
    assert "[T+,T-]" in rep.region


def test_frt_relations_need_central_term():
    rep = check_frt_relations(6, omit_central=True)
    assert not rep.passed
    assert rep.residual_term_count == 6
    assert all("c" in w["residual"] for w in rep.witnesses)


def test_frt_relations_reject_thin_window():
    with pytest.raises(ValueError):
        check_frt_relations(3)


@pytest.mark.parametrize("family", ["onsager", "augmented", "invariant", "kappa_minus"])
def test_exchange(family):
    rep = check_exchange(family, 6)
    assert rep.passed, rep


def test_exchange_region_strings():
    assert "x in [0, 6]" in check_exchange("onsager", 6).region
    assert "x in [-1, 5]" in check_exchange("kappa_minus", 6).region


def test_exchange_fails_with_mismatched_rbar():
    rep = check_exchange("onsager", 6, rbar_family="augmented")
    assert not rep.passed
    assert rep.witnesses


def test_exchange_rejects_thin_window():
    with pytest.raises(ValueError):
        check_exchange("onsager", 3)


@pytest.mark.parametrize("window", [4, 6, 8])
def test_exchange_by_transport_matches_the_relation_on_the_realized_series(window):
    # every row with every row's rbar: the transported residual is the
    # realized relation's, witness for witness, on the same window
    counts = {}
    for family in currents.REALIZATIONS:
        for rbar_family in currents.REALIZATIONS:
            got = check_exchange(family, window, rbar_family)
            want = oracles.exchange(family, window, rbar_family)
            assert (got.name, got.status, got.residual_term_count, got.witnesses) == (
                want.name, want.status, want.residual_term_count, want.witnesses)
            assert got.region.startswith(want.region + " by transport from ")
            assert got.passed == (family == rbar_family)
            counts[family, rbar_family] = got.residual_term_count
    if window == 6:
        assert counts["onsager", "augmented"] == 852
        assert counts["kappa_minus", "invariant"] == 420


def test_the_gauge_carries_rbar_of_kappa_plus_to_kappa_minus():
    # rbar[kappa_minus] = D1(x) D2(y) rbar[kappa_plus] (D1(x) D2(y))^-1 with
    # D = diag(1, x), exactly; D1(x) D2(y) is diag(1, y, x, xy)
    x, y = spectral("x"), spectral("y")
    rbar = {f: build_rbar(currents.boundary_for(f, x), x, y) for f in ("invariant", "kappa_minus")}
    assert currents.REALIZATIONS["kappa_minus"].gauge == (0, 2)

    def diag(sign):
        degrees = [(0, 0), (0, 2), (2, 0), (2, 2)]
        return TensorMat(2, [[LaurentPoly.monomial((x, y), (sign * a, sign * b), 1) if i == j
                              else 0 for j in range(4)] for i, (a, b) in enumerate(degrees)])

    assert (currents._gauged((0, 2)) - diag(1)).is_zero()
    assert (rbar["kappa_minus"] - diag(1) @ rbar["invariant"] @ diag(-1)).is_zero()
    assert not (rbar["kappa_minus"] - rbar["invariant"]).is_zero()


def test_exchange_fails_without_the_kappa_minus_gauge(monkeypatch):
    row = currents.REALIZATIONS["kappa_minus"]
    monkeypatch.setitem(currents.REALIZATIONS, "kappa_minus", row._replace(gauge=(0, 0)))
    rep = check_exchange("kappa_minus", 6)
    assert not rep.passed and rep.witnesses
    # the exchange relation itself fails, not only B = phi(B_abs)
    assert any(not w["position"].startswith("realized B") for w in rep.witnesses)


def test_compare_adds_tagged_residuals_to_the_callers_collector():
    x = spectral("x")
    tp = build_T("+", 4, x)
    res = Residuals()
    res.add(LieElt.single(C), "earlier")
    # a residual current T+ leaves every stored coefficient of T+
    assert currents._compare(res, "[T]", tp) == "x in [0, 4]"
    assert res.count == 1 + 19
    assert res.witnesses[:3] == [
        ("earlier", "c"),
        ("[T] entry (0, 0), degree (0,)", "(1/2)*h[0]"),
        ("[T] entry (0, 0), degree (1,)", "h[1]"),
    ]


def test_exchange_residual_equals_the_unfused_difference():
    # [T+(x), T-(y)] against [T+1, r12(x/y)] - 2 [T-2, r12(x/y)], which
    # fails: _exchange adds every product into one dict, and must report
    # what subtracting the products as currents reports
    x, y, u = spectral("x"), spectral("y"), spectral("u")
    vars2 = (x, y)
    r_xy = build_r(u).substitute({u: LaurentPoly.monomial(vars2, (2, -2), 1)})
    xy = LaurentPoly.var(x) - LaurentPoly.var(y)
    clearing = [xy, xy]
    rows = r_xy.cleared(clearing)
    a, b = build_T("+", 4, x), build_T("-", 4, y)
    fused = Residuals()
    commutators = ((1, rows), (-2, rows))
    region = currents._exchange(fused, "", a, b, _basis_bracket, clearing, commutators)
    diff = _scale_poly(series_bracket(a, b), xy * xy)
    a1 = a.embed((1,), 2).with_spectral_vars(vars2)
    b2 = b.embed((2,), 2).with_spectral_vars(vars2)
    for sign, cur in ((1, a1), (-2, b2)):
        minus = LaurentPoly.const(-1)
        commutator = cur._times(rows, True) + _scale_poly(cur._times(rows, False), minus)
        diff = diff + _scale_poly(commutator, LaurentPoly.const(-sign))
    plain = Residuals()
    assert currents._compare(plain, "", diff) == region == "x in [0, 4], y in [-2, 2]"
    assert fused.count == plain.count > 0
    assert fused.witnesses == plain.witnesses


# -- input guards -----------------------------------------------------------------

_X, _Y = spectral("x"), spectral("y")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CurrentMat(1, (_X,), {}, ()), "0 support metas for 1 spectral variables"),
        (lambda: build_T("+", 3, _X) + build_T("+", 3, _Y),
         r"shape mismatch: 1 legs over \(x\) and 1 legs over \(y\)"),
        (lambda: build_T("+", 3, _X) + build_T("+", 3, _X).embed((1,), 2),
         r"shape mismatch: 1 legs over \(x\) and 2 legs over \(x\)"),
        (lambda: build_T("+", 3, _X)._times([[LaurentPoly.const(1)]], True),
         "a 1-leg current needs 2 rows, not 1"),
        (lambda: series_bracket(build_T("+", 3, _X), build_T("-", 3, _X)),
         "series_bracket needs disjoint spectral variables"),
        (lambda: check_exchange("onsager", 4, rbar_family="bogus"),
         r"unknown family 'bogus' \(choose from onsager, augmented, invariant, kappa_minus\)"),
        (lambda: build_B("bogus", 4),
         r"unknown family 'bogus' \(choose from onsager, augmented, invariant, kappa_minus\)"),
        (lambda: CurrentMat(-1, (_X,)), "legs must be a non-negative int, not -1"),
        (lambda: CurrentMat(1.0, (_X,)), "legs must be a non-negative int, not 1.0"),
        (lambda: CurrentMat(True, (_X,)), "legs must be a non-negative int, not True"),
        (lambda: CurrentMat(1, (_X,), {(5, 7): {(0,): LieElt.single(H(0))}}),
         r"a 1-leg matrix has no entry at \(5, 7\) \(positions are \(row, column\) in range\(2\)\)"),
        (lambda: CurrentMat(1, (_X,), {(0, -1): {(0,): LieElt.single(H(0))}}),
         r"a 1-leg matrix has no entry at \(0, -1\)"),
        (lambda: CurrentMat(1, (_X,), {0: {(0,): LieElt.single(H(0))}}),
         "a 1-leg matrix has no entry at 0 "),
        # a current is a series in a spectral variable, as build_boundary's x is
        (lambda: build_T("-", 3, parameter("a")),
         "a series needs x to be a spectral Variable, not "
         r"Variable\(name='a', kind='parameter'\)"),
        (lambda: build_T("+", 3, "x"), "a series needs x to be a spectral Variable, not 'x'"),
    ],
    ids=["metas", "add_variables", "add_legs", "rows", "disjoint", "exchange_rbar_family",
         "B_family", "negative_legs", "float_legs", "bool_legs", "position_outside_dim",
         "negative_position", "position_not_a_pair", "series_parameter_x", "series_str_x"],
)
def test_guards_raise_value_error(call, message):
    # explicit exceptions, so python -O keeps them
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "lowest, message",
    [
        # a lowest degree above the family's leaves terms below it, which
        # truncating would silently drop
        (2, r"build_B\('onsager', window=4\) has degree 0 at entry \(0, 1\), "
            "below the family's lowest degree 2"),
        # a window past the construction's margin
        (40, r"build_B\('onsager', window=4\) is exact only up to degree 10, not 48"),
        # a lowest degree below the family's, where no entry has a term,
        # which would slide the window down onto a degree that is all zero
        (-2, r"build_B\('onsager', window=4\) has no term at the family's lowest "
             "degree -2"),
    ],
    ids=["degree_below_lowest", "window_past_margin", "no_term_at_lowest"],
)
def test_guards_build_B_post_conditions(monkeypatch, lowest, message):
    # explicit exceptions, so python -O keeps them
    row = currents.REALIZATIONS["onsager"]
    monkeypatch.setitem(currents.REALIZATIONS, "onsager", row._replace(lowest=lowest))
    with pytest.raises(ValueError, match=message):
        build_B("onsager", 4)


def test_guards_add_refuses_a_non_current():
    with pytest.raises(TypeError, match="unsupported operand"):
        build_T("+", 3, _X) + LieElt.single(C)
    with pytest.raises(TypeError, match="unsupported operand"):
        build_T("+", 3, _X) - LieElt.single(C)


# -- the fused series operations against coefficient-by-coefficient ones ------------

_A = parameter("a")
_COEFFS = st.one_of(
    st.integers(-4, 4),
    st.builds(rat, st.integers(-4, 4), st.integers(2, 3)),
    st.builds(lambda c, c0: LaurentPoly((_A,), {(2,): c, (0,): c0}),
              st.integers(-2, 2), st.integers(-2, 2)),
)
_BOUNDS = st.one_of(st.none(), st.integers(-6, 6))


def _lies(keys):
    return st.dictionaries(st.sampled_from(keys), _COEFFS, max_size=3).map(LieElt)


@st.composite
def _currents(draw, legs, spectral_vars, keys):
    """A current whose entries, degrees, coefficients and metas are drawn;
    degrees are few so that sums meet on common ones."""
    dim = 2 ** legs
    n = len(spectral_vars)
    positions = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    degrees = st.tuples(*[st.integers(-2, 2)] * n)
    entries = draw(st.dictionaries(
        positions, st.dictionaries(degrees, _lies(keys), max_size=3), max_size=3
    ))
    metas = [SupportMeta(*draw(st.tuples(*[_BOUNDS] * 4))) for _ in range(n)]
    return CurrentMat(legs, spectral_vars, entries, metas)


_LIE_KEYS = [E(0), E(1), F(-1), F(0), H(0), H(1), C]


def _summed(contributions):
    """{pos: {deg: LieElt}} from (pos, deg, LieElt) triples, summed with +,
    zeros dropped."""
    out = {}
    for pos, deg, lie in contributions:
        tgt = out.setdefault(pos, {})
        tgt[deg] = tgt.get(deg, LieElt.zero()) + lie
    out = {pos: {d: c for d, c in tgt.items() if c} for pos, tgt in out.items()}
    return {pos: tgt for pos, tgt in out.items() if tgt}


@settings(max_examples=60, deadline=None)
@given(_currents(1, (_X, _Y), _LIE_KEYS), st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([0, 2])),
    st.integers(-3, 3).filter(bool), min_size=1, max_size=4,
))
def test_scale_poly_equals_scaling_each_coefficient(m, terms):
    # a polynomial in x, y and the parameter a, doubled exponents
    p = LaurentPoly((_X, _Y, _A), {(2 * i, 2 * j, e): c for (i, j, e), c in terms.items()})
    parts = p.split(m.spectral_vars).items()
    want = _summed(
        (pos, tuple(d + s for d, s in zip(deg, shift)), lie.scale(rest))
        for pos, coeffs in m.entries.items()
        for deg, lie in coeffs.items()
        for shift, rest in parts
    )
    scaled = _scale_poly(m, p)
    assert scaled.entries == want
    spans = [p.degree_range(v) or (0, 0) for v in m.spectral_vars]
    assert scaled.metas == tuple(x.shifted(*span) for x, span in zip(m.metas, spans))


def _bracket_reference(a, b, br):
    dim_b = b.dim
    return _summed(
        ((ia * dim_b + ib, ja * dim_b + jb), da + db, br(la, lb))
        for (ia, ja), ca in a.entries.items()
        for (ib, jb), cb in b.entries.items()
        for da, la in ca.items()
        for db, lb in cb.items()
    )


_ONS_KEYS = onsager.canonical_symbols("onsager", 2)


@settings(max_examples=40, deadline=None)
@given(_currents(1, (_X,), _ONS_KEYS), _currents(0, (_Y,), _ONS_KEYS),
       _currents(1, (_X,), _LIE_KEYS), _currents(1, (_Y,), _LIE_KEYS))
def test_series_bracket_equals_bracketing_each_coefficient_pair(a, b, c, d):
    fused = series_bracket(a, b, onsager._pair_bracket)
    assert fused.entries == _bracket_reference(a, b, onsager.abstract_bracket)
    assert (fused.legs, fused.spectral_vars, fused.metas) == (1, (_X, _Y), a.metas + b.metas)
    assert series_bracket(c, d).entries == _bracket_reference(c, d, bracket)


@pytest.mark.parametrize("family", onsager.FAMILIES)
def test_series_bracket_of_family_currents_equals_the_abstract_bracket(family):
    # the family's abstract B, one scaled by a parameter-times-x polynomial
    a = onsager.build_abstract_B(family, 3, _X)
    a = _scale_poly(a, LaurentPoly.var(_A) * LaurentPoly.var(_X) + 1)
    b = onsager.build_abstract_B(family, 3, _Y)
    fused = series_bracket(a, b, onsager._pair_bracket)
    assert fused.entries
    assert fused.entries == _bracket_reference(a, b, onsager.abstract_bracket)
