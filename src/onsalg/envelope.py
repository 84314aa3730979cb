"""PBW calculus in the enveloping algebra and the commuting charges.

Quadratic charges are mode coefficients of tr(B(x)^2).  Linear charges are
mode coefficients of the weighted series tr(M(x)B(x)): M(x) is the family's
boundary matrix from tensormat.build_boundary (M_FAMILY), with symbolic
weight parameters, and B(x) is the family's abstract matrix of currents,
onsager._B_CURRENTS, coefficients included, so every weight is read off M
once.

Products are normal-ordered against the basis order: c first, then modes
ascending, with H before E before F at a tied mode.  Commutators use the
Leibniz rule and bracket per letter pair, not per word pair: the words of
the right operand are indexed by letter, each letter of a left word is
bracketed once with each distinct letter on the right, and only the
shorter words are normal-ordered.

A word is a tuple of interned basis symbols (see kacmoody.BasisSymbol), so
it hashes at C speed.  Each symbol's PBW place is one int, memoised by
symbol (_key), and each word's normal form is memoised in the module-level
dict _NORMAL for the life of the process.  Bergman's diamond lemma makes
the normal form independent of the rewrite order, so a memoised form is
the same whichever product first asked for it.
"""

from .exactalg import MODE_BOUND, LaurentPoly, LinComb, accumulate, spectral
from .kacmoody import BasisSymbol, _basis_bracket
from .currents import build_B
from .onsager import (
    _B_CURRENTS, _CURRENTS, OnsElt, abstract_bracket, build_current, morphism_image, ons
)
from .tensormat import build_boundary
from .report import Residuals

__all__ = [
    "UeaElt",
    "uea_mul",
    "uea_commutator",
    "lie_to_uea",
    "build_quadratic_charge",
    "build_linear_charge",
    "check_linear_charges",
    "check_quadratic_charges",
    "note_mixed_commutator",
]


class _PbwOrder(dict):
    """Each basis symbol's place in PBW order as one int, memoised by
    symbol: c is 0, and e, f, h of mode n sort after every symbol of lower
    mode, H before E before F."""

    def __missing__(self, sym):
        if sym.type == "C":
            key = 0
        else:
            key = 3 * (sym.mode + MODE_BOUND) + "HEF".index(sym.type) + 1
        self[sym] = key
        return key


_key = _PbwOrder().__getitem__


class UeaElt(LinComb):
    """Linear combination of normal-ordered words (tuples) of basis symbols."""

    __slots__ = ()

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for word in sorted(self.terms, key=lambda w: (len(w), tuple(map(_key, w)))):
            c = self.terms[word]
            name = "*".join(str(s) for s in word) if word else "1"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)


_NORMAL = {}


def _normal_word(word):
    """Normal-order a word, rewriting out-of-order adjacent pairs via the
    bracket; memoized on the word."""
    cached = _NORMAL.get(word)
    if cached is not None:
        return cached
    for i in range(len(word) - 1):
        if _key(word[i]) > _key(word[i + 1]):
            out = _normal_word(word[:i] + (word[i + 1], word[i]) + word[i + 2 :])
            pairs = _basis_bracket(word[i], word[i + 1])
            if pairs:
                terms = dict(out.terms)
                for sym, k in pairs:
                    sub = word[:i] + (sym,) + word[i + 2 :]
                    for w, c in _normal_word(sub).terms.items():
                        accumulate(terms, w, c * k)
                out = UeaElt.from_dict(terms)
            break
    else:
        out = UeaElt({word: 1})
    _NORMAL[word] = out
    return out


def uea_mul(a, b):
    return a.bilinear(b, lambda wa, wb: _normal_word(wa + wb).terms.items())


def uea_commutator(a, b):
    """[a, b] by the Leibniz rule, bracketing per letter pair.

    [a1..am, b1..bn] is the sum over i, j of a1..a(i-1) b1..b(j-1) [ai, bj]
    b(j+1)..bn a(i+1)..am.  The words of b are indexed by letter once, so
    each letter x of a word of a is bracketed once with each distinct
    letter y of b, and a zero bracket skips every word of b that holds y.
    Only words of length m+n-1 are normal-ordered, instead of both degree
    m+n products.  The normal form does not depend on the rewrite order
    (Bergman's diamond lemma), so this equals uea_mul(a, b) - uea_mul(b, a).
    """
    sites = {}
    for wb, cb in b.terms.items():
        for j, y in enumerate(wb):
            sites.setdefault(y, []).append((wb[:j], wb[j + 1 :], cb))
    out = {}
    for wa, ca in a.terms.items():
        for i, x in enumerate(wa):
            head, tail = wa[:i], wa[i + 1 :]
            for y, at_y in sites.items():
                for sym, k in _basis_bracket(x, y):
                    c = ca * k
                    for prefix, suffix, cb in at_y:
                        accumulate(out, head + prefix + (sym,) + suffix + tail, c * cb)
    return UeaElt.from_dict(out).linear(_normal_word)


def lie_to_uea(lie):
    return UeaElt({(sym,): c for sym, c in lie.terms.items()})


# -- quadratic charges --------------------------------------------------------------


def build_quadratic_charge(family, max_k):
    """Coefficients t_0..t_max_k of tr(B(x)^2), normal ordered."""
    if max_k < 0:
        raise ValueError(f"max-k must be >= 0, not {max_k}")
    window = max_k + 1
    b = build_B(family, window)
    meta = b.metas[0]
    prod = meta.multiplied(meta)
    if prod.trunc_hi is not None and prod.trunc_hi < 2 * max_k:
        raise ValueError("window too small for the requested charge")
    out = {k: {} for k in range(max_k + 1)}
    dim = b.dim
    for i in range(dim):
        for j in range(dim):
            ca = b.entry(i, j)
            cb = b.entry(j, i)
            if not ca or not cb:
                continue
            for da, la in ca.items():
                for db, lb in cb.items():
                    d = da[0] + db[0]
                    if d < 0 or d % 2 or d // 2 > max_k:
                        continue
                    pair = uea_mul(lie_to_uea(la), lie_to_uea(lb))
                    for w, c in pair.terms.items():
                        accumulate(out[d // 2], w, c)
    return {k: UeaElt.from_dict(terms) for k, terms in out.items()}


# -- linear charges ---------------------------------------------------------------


# each family's M matrix (see tensormat.build_boundary), whose entries and
# parameters weight the linear charges
M_FAMILY = {"onsager": "M_ons", "augmented": "M_aug", "invariant": "M_inv"}


def _m_boundary(family, x=None):
    """The family's M(x), with symbolic weight parameters."""
    m_family = M_FAMILY.get(family)
    if m_family is None:
        raise ValueError(
            f"unknown charge family {family!r} (choose from {', '.join(M_FAMILY)})"
        )
    return build_boundary(m_family, x=x)


def _weight_series(family, window, x):
    """tr(M(x)B(x)), the abstract weighted series whose mode coefficients
    are the linear charges: the sum over positions (i, j) of M_ji(x) times
    B's (i, j) entry, its coefficient times its current (see
    onsager._B_CURRENTS).  Weights stay symbolic.  A position where M
    is zero is skipped, so its current's metas cannot narrow the exact
    window."""
    m = _m_boundary(family, x).mat.cleared(())
    total = None
    for (i, j), (k, letter) in _B_CURRENTS[family].items():
        weight = m[j][i]
        if weight.is_zero():
            continue
        term = build_current(family, letter, window, x).scale_poly(k * weight)
        total = term if total is None else total + term
    return total


def _series_charges(family, max_k):
    """The linear charges 0..max_k read off one weighted series: charge k
    is its mode-2k coefficient."""
    series = _weight_series(family, max_k + 1, spectral("x"))
    lo, hi = series.metas[0].exact_window()
    for mode in (0, 2 * max_k):
        if (lo is not None and mode < lo) or (hi is not None and mode > hi):
            raise ValueError(
                f"mode {mode} lies outside the series' exact window ({lo}, {hi})"
            )
    coeffs = series.entry(0, 0)
    return [coeffs.get((2 * k,), OnsElt.zero()) for k in range(max_k + 1)]


def build_linear_charge(family, k, variant="series"):
    """The k-th linear charge as an abstract element with symbolic weights.

    variant="series" reads the mode straight off the weighted series (the
    form the commutativity suite uses).  variant="formula" is the closed
    expression; at k=0 the augmented closed form drops the halving of the
    zero mode and is NOT proportional to the series value, so it fails to
    commute with the higher charges -- keep it out of suites.
    """
    if k < 0:
        raise ValueError(f"charge index must be >= 0, got {k}")
    if variant == "series":
        return _series_charges(family, k)[k]
    if variant != "formula":
        raise ValueError(f"unknown variant {variant!r} (choose series or formula)")
    w = {n: LaurentPoly.var(v) for n, v in _m_boundary(family).params.items()}
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
        + ons(family, "E", k, w["mu1"])
        + ons(family, "F", k, w["mu2"])
    )


def check_linear_charges(family, max_k, mutate=False):
    """All pairs of linear charges commute, with fully symbolic weights.

    j < k suffices: abstract_bracket is antisymmetric by construction (see
    onsager._BRACKETS; the one same-letter entry, [A_n, A_m] = 4 G_{n-m},
    is odd because G is), and check_jacobi confirms it on its window.

    mutate=True flips the sign of the diagonal-letter part of the second
    charge, which must break commutativity."""
    if max_k < 0:
        raise ValueError(f"max-k must be >= 0, not {max_k}")
    if mutate and max_k == 0:
        # the mutation perturbs charge 1, which max-k 0 leaves out
        raise ValueError("mutate needs max-k >= 1, not 0")
    charges = _series_charges(family, max_k)
    if mutate:
        # the generator of B's (0, 0) current
        flip = _CURRENTS[family][_B_CURRENTS[family][0, 0][1]][0]
        c1 = charges[1]
        charges[1] = OnsElt(
            {s: (-c if s.letter == flip else c) for s, c in c1.terms.items()}
        )
    res = Residuals()
    for j in range(len(charges)):
        for k in range(j + 1, len(charges)):
            res.add(abstract_bracket(charges[j], charges[k]), "[I_{}, I_{}]", j, k)
    return res.report(
        f"linear_charges[{family}]" + ("[mutated]" if mutate else ""),
        f"symbolic weights, 0 <= j < k <= {max_k}",
    )


def check_quadratic_charges(family, max_k, mutate=False):
    """All pairs of quadratic charges commute in the enveloping algebra.

    j < k suffices: uea_commutator equals ab - ba, which is antisymmetric
    (tests/test_envelope.py compares the two).

    mutate=True adds a stray degree-one term to t_1, which must fail."""
    if mutate and max_k == 0:
        # the mutation perturbs t_1, which max-k 0 leaves out
        raise ValueError("mutate needs max-k >= 1, not 0")
    ts = build_quadratic_charge(family, max_k)
    if mutate:
        ts[1] = ts[1] + UeaElt({(BasisSymbol("E", 1),): 1})
    res = Residuals()
    for j in range(max_k + 1):
        for k in range(j + 1, max_k + 1):
            res.add(uea_commutator(ts[j], ts[k]), "[t_{}, t_{}]", j, k)
    return res.report(
        f"quadratic_charges[{family}]" + ("[mutated]" if mutate else ""),
        f"normal-ordered, 0 <= j < k <= {max_k}",
    )


def note_mixed_commutator(family, j, k):
    """[t_j, image(I_k)] is generically nonzero; report its size as a note."""
    ts = build_quadratic_charge(family, j)
    ik = build_linear_charge(family, k)
    image = ik.linear(lambda sym: morphism_image(family, sym))
    res = uea_commutator(ts[j], lie_to_uea(image))
    size = "0" if res.is_zero() else f"{len(res.terms)} normal-ordered terms"
    return f"[t_{j}, b_{k}] for {family}: {size}"
