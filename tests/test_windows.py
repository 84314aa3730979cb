"""Exact windows are sound and tight.

Every series check compares only on SupportMeta.exact_window(), so a pass
is a theorem only if each stored coefficient in that window equals the
untruncated series'.  Each truncated construction below is built at window
w and at w + 3: on the window-w build's exact window the two must agree
(sound), and one degree past each truncated end of it they must differ
(tight, so the window is no narrower than the data allows).  The
residual current of two failing relations is checked for soundness the
same way.
"""

import os
import sys

import pytest

from onsalg import currents
from onsalg.currents import (
    REALIZATIONS, build_B, build_T, check_exchange, check_frt_relations, series_bracket
)
from onsalg.exactalg import LaurentPoly, parameter, spectral
from onsalg.onsager import _CURRENTS, FAMILIES, _pair_bracket, build_abstract_B

# the builders under test that live with their own module's tests, next to
# this file; put its directory on the path so the imports work under every
# pytest import mode
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_currents import _scale_poly  # noqa: E402
from test_envelope import _weight_series  # noqa: E402
from test_onsager import _letter_series  # noqa: E402

WINDOWS = (4, 5, 6)
WIDER = 3


def _on(cur, windows):
    """The coefficients of cur whose doubled degrees lie in windows, one
    (lo, hi) per spectral variable (None = unbounded)."""
    out = {}
    for pos, coeffs in cur.entries.items():
        kept = {
            deg: c for deg, c in coeffs.items()
            if all((lo is None or d >= lo) and (hi is None or d <= hi)
                   for d, (lo, hi) in zip(deg, windows))
        }
        if kept:
            out[pos] = kept
    return out


def _truncated_ends(meta):
    """(lo, hi) of meta's exact window, each end kept only where the
    truncation, not the natural support, sets it."""
    lo, hi = meta.exact_window()
    return (
        lo if meta.trunc_lo is not None and lo == meta.trunc_lo else None,
        hi if meta.trunc_hi is not None and hi == meta.trunc_hi else None,
    )


def _assert_sound_and_tight(build):
    for w in WINDOWS:
        narrow, wide = build(w), build(w + WIDER)
        windows = [m.exact_window() for m in narrow.metas]
        assert _on(narrow, windows) == _on(wide, windows), w
        ends = [_truncated_ends(m) for m in narrow.metas]
        assert any(end is not None for pair in ends for end in pair), w
        for k, (lo, hi) in enumerate(ends):
            for end, step in ((lo, -2), (hi, 2)):
                if end is None:
                    continue
                past = list(windows)
                a, b = past[k]
                past[k] = (a + step, b) if step < 0 else (a, b + step)
                assert _on(narrow, past) != _on(wide, past), (w, k, end)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_build_T_window(sign):
    _assert_sound_and_tight(lambda w: build_T(sign, w))


@pytest.mark.parametrize("family", list(REALIZATIONS))
def test_build_B_window(family):
    _assert_sound_and_tight(lambda w: build_B(family, w))


@pytest.mark.parametrize(
    "family, letter", [(f, l) for f, letters in _CURRENTS.items() for l in letters]
)
def test_build_current_window(family, letter):
    # one current letter's series, as the rows of B(x) read it
    _assert_sound_and_tight(lambda w: _letter_series(family, letter, w))


@pytest.mark.parametrize("family", FAMILIES)
def test_abstract_B_window(family):
    _assert_sound_and_tight(lambda w: build_abstract_B(family, w))


@pytest.mark.parametrize("family", FAMILIES)
def test_weight_series_window(family):
    # tr(M(x)B(x)), the series the linear charges are checked against
    x = spectral("x")
    _assert_sound_and_tight(lambda w: _weight_series(family, w, x))


@pytest.mark.parametrize("family", FAMILIES)
def test_series_bracket_window(family):
    # the family's first two current letters, which do not commute, at
    # unequal windows, so that each variable's window is its own
    first, second = list(_CURRENTS[family])[:2]
    x, y = spectral("x"), spectral("y")
    _assert_sound_and_tight(lambda w: series_bracket(
        _letter_series(family, first, w, x), _letter_series(family, second, w + 1, y),
        _pair_bracket,
    ))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_scale_poly_window(sign):
    # 1/x + a x^2 shifts the two ends of the support by different amounts
    x = spectral("x")
    xx = LaurentPoly.var(x)
    p = LaurentPoly.monomial((x,), (-2,), 1) + LaurentPoly.var(parameter("a")) * xx * xx
    _assert_sound_and_tight(lambda w: _scale_poly(build_T(sign, w, x), p))


def _residual(monkeypatch, check):
    """The residual currents a check hands to currents._compare."""
    seen = []
    compare = currents._compare

    def spy(res, tag, diff):
        seen.append(diff)
        return compare(res, tag, diff)

    with monkeypatch.context() as patch:
        patch.setattr(currents, "_compare", spy)
        check()
    return seen


@pytest.mark.parametrize(
    "check",
    [
        lambda w: check_exchange("onsager", w, rbar_family="augmented"),
        lambda w: check_frt_relations(w, omit_central=True),
    ],
    ids=["exchange_rbar_from_augmented", "frt_no_central_term"],
)
def test_failing_residual_window(monkeypatch, check):
    # the residual of a failing exchange relation is nonzero on its window,
    # so the window's soundness is a statement about real coefficients
    for w in WINDOWS:
        narrow = _residual(monkeypatch, lambda: check(w))
        wide = _residual(monkeypatch, lambda: check(w + WIDER))
        assert len(narrow) == len(wide) > 0
        for a, b in zip(narrow, wide):
            windows = [m.exact_window() for m in a.metas]
            assert _on(a, windows) == _on(b, windows), w
        assert any(_on(a, [m.exact_window() for m in a.metas]) for a in narrow)
