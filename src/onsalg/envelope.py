"""PBW calculus in the enveloping algebras and the commuting charges.

Both kinds of charge are finite sums over the rows of the family's
abstract B(x) (onsager._B_CURRENTS), each coefficient B_ij[n] read by
currents._coefficient; no truncated series is built.  The quadratic
charge t_k, the coefficient of x^k in tr(B(x)^2), is the sum of
B_ij[n] B_ji[k - n] in U(family), the enveloping algebra of the
Onsager-type algebra itself, where the charges commute.  The realization
is injective, and so is its extension to the enveloping algebras
(Poincare-Birkhoff-Witt), so this holds exactly when the realized charges
commute in U(affine sl2).  The linear charge I_k, the coefficient of x^k
in tr(M(x)B(x)), is the sum of w B_ij[k - e] over the monomials w x^e of
M_ji(x): M(x) is the boundary matrix from tensormat.build_boundary that the
family's row in currents.REALIZATIONS names, with symbolic weight
parameters.

One PBW routine serves U(affine sl2) and the three U(family).  Products
are normal-ordered against the basis order: c first, then modes
ascending; at a tied mode H before E before F in the mode algebra, and a
family's letters in their onsager._LETTERS order in U(family).  The
bracket of two letters is read once per pair from kacmoody._basis_bracket
or onsager._pair_bracket, by symbol class, and memoised (_bracket).
Commutators use the Leibniz rule and bracket per letter pair, not per word
pair: the words of the right operand are indexed by letter, each letter of
a left word is bracketed once with each distinct letter on the right, and
only the shorter words are normal-ordered.

A word is a tuple of interned symbols (see exactalg.Symbol), so it hashes
at C speed.  Each symbol's PBW place is one int, memoised by symbol
(_key), and each word's normal form is memoised in the module-level dict
_NORMAL for the life of the process.  The one memo holds words of every
algebra: symbols of different classes or families never compare equal, so
words of different algebras never collide; lie_to_uea, uea_mul and
uea_commutator refuse elements of two algebras.  Bergman's diamond lemma
makes the normal form independent of the rewrite order, so a memoised
form is the same whichever product first asked for it.
"""

from functools import partial

from .currents import REALIZATIONS, _coefficient, _row
from .exactalg import MODE_BOUND, LinComb, _addlin, accumulate, spectral
from .kacmoody import _basis_bracket
from .onsager import (
    _B_CURRENTS, _CURRENTS, _LETTERS, OnsElt, OnsSymbol, _pair_bracket, abstract_bracket, ons
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
    """Each symbol's place in PBW order as one int, memoised by symbol: c is
    0, and the letters of mode n sort after every symbol of lower mode, H
    before E before F for a basis symbol, in onsager._LETTERS order for a
    family generator."""

    def __missing__(self, sym):
        if type(sym) is OnsSymbol:
            key = 3 * (sym.mode + MODE_BOUND) + tuple(_LETTERS[sym.family]).index(sym.letter) + 1
        elif sym.type == "C":
            key = 0
        else:
            key = 3 * (sym.mode + MODE_BOUND) + "HEF".index(sym.type) + 1
        self[sym] = key
        return key


_key = _PbwOrder().__getitem__

_BRACKET = {}


def _bracket(a, b):
    """[a, b] for two basis symbols or two generators of one family, as a
    tuple of (symbol, coefficient) pairs, memoised per pair."""
    out = _BRACKET.get((a, b))
    if out is None:
        pairs = _pair_bracket(a, b) if type(a) is OnsSymbol else _basis_bracket(a, b)
        out = _BRACKET[a, b] = tuple(pairs)
    return out


class UeaElt(LinComb):
    """Linear combination of normal-ordered words (tuples) of symbols, all
    basis symbols of the mode algebra or all generators of one family."""

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
            pairs = _bracket(word[i], word[i + 1])
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


def _symbol_algebra(sym):
    """A generator's family, or affine sl2 for a basis symbol."""
    return sym.family if type(sym) is OnsSymbol else "affine sl2"


def _algebra(a):
    """The algebra of a's words, read off the first symbol (lie_to_uea makes
    every word of one algebra); None for a scalar."""
    for word in a.terms:
        if word:
            return _symbol_algebra(word[0])
    return None


def _one_algebra(a, b):
    """Refuse operands of two algebras: a word holds symbols of one."""
    x, y = _algebra(a), _algebra(b)
    if x != y and x is not None and y is not None:
        raise ValueError(f"cannot multiply words of U({x}) and U({y})")


def uea_mul(a, b):
    _one_algebra(a, b)
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
    _one_algebra(a, b)
    sites = {}
    for wb, cb in b.terms.items():
        for j, y in enumerate(wb):
            sites.setdefault(y, []).append((wb[:j], wb[j + 1 :], cb))
    out = {}
    for wa, ca in a.terms.items():
        for i, x in enumerate(wa):
            head, tail = wa[:i], wa[i + 1 :]
            for y, at_y in sites.items():
                for sym, k in _bracket(x, y):
                    c = ca * k
                    for prefix, suffix, cb in at_y:
                        accumulate(out, head + prefix + (sym,) + suffix + tail, c * cb)
    return UeaElt.from_dict(out).linear(_normal_word)


def lie_to_uea(lie):
    """lie as a sum of one-letter words; its keys must lie in one algebra."""
    algebras = sorted(set(map(_symbol_algebra, lie.terms)))
    if len(algebras) > 1:
        raise ValueError(f"cannot map a Lie element of {' and '.join(algebras)} into one U")
    return UeaElt({(sym,): c for sym, c in lie.terms.items()})


# -- the charges, read off B(x)'s rows ----------------------------------------------


def _rows(family):
    """The family's abstract B(x) as table rows (onsager._B_CURRENTS) and
    its current letters (onsager._CURRENTS), read by both kinds of
    charge; an unknown family is refused here, before any work."""
    return _row(_B_CURRENTS, family), _CURRENTS[family]


def build_quadratic_charge(family, max_k):
    """Coefficients t_0..t_max_k of tr(B(x)^2) for the family's abstract
    B(x), normal ordered in U(family).

    t_k is the sum over positions (i, j) of B_ij[n] B_ji[k - n] for n from
    B_ij's first degree to k minus B_ji's, both read off the rows, so each
    t_k is a finite sum whatever the tables hold."""
    rows, letters = _rows(family)
    if max_k < 0:
        raise ValueError(f"max-k must be >= 0, not {max_k}")
    first = {pos: letters[letter][2] for pos, (_, letter) in rows.items()}
    element = partial(ons, family)
    coeff = {
        (pos, n): lie_to_uea(_coefficient(rows, letters, element, pos, n))
        for pos in rows
        for n in range(first[pos], max_k + 1)
    }
    out = {}
    for k in range(max_k + 1):
        terms = {}
        for i, j in rows:
            for n in range(first[i, j], k - first[j, i] + 1):
                pair = uea_mul(coeff[(i, j), n], coeff[(j, i), k - n])
                for w, c in pair.terms.items():
                    accumulate(terms, w, c)
        out[k] = UeaElt.from_dict(terms)
    return out


def _linear_charges(family, max_k):
    """The linear charges I_0..I_max_k, the coefficients of tr(M(x)B(x))
    with M(x) the family's M matrix (its row's m in currents.REALIZATIONS)
    and its weights symbolic.

    M's entries are split into monomials w x^e once; I_k is the sum over
    positions (i, j) and monomials w x^e of M_ji(x) of w B_ij[k - e], each
    B_ij[n] read off the rows, so each I_k is a finite sum."""
    rows, letters = _rows(family)
    if max_k < 0:
        raise ValueError(f"max-k must be >= 0, not {max_k}")
    x = spectral("x")
    m = build_boundary(REALIZATIONS[family].m, x=x).mat.cleared(())
    weights = [
        ((i, j), e // 2, w)
        for i, j in rows
        for (e,), w in m[j][i].split((x,)).items()
    ]
    element = partial(ons, family)
    charges = []
    for k in range(max_k + 1):
        terms = {}
        for pos, e, w in weights:
            c = _coefficient(rows, letters, element, pos, k - e)
            if c is not None:
                _addlin(terms, c.terms, w)
        charges.append(OnsElt.from_dict(terms))
    return charges


def build_linear_charge(family, k):
    """The k-th linear charge as an abstract element with symbolic weights,
    read off the rows (see _linear_charges)."""
    _rows(family)
    if k < 0:
        raise ValueError(f"charge index must be >= 0, got {k}")
    return _linear_charges(family, k)[k]


def _diagonal_generator(family):
    """The generator of B's (0, 0) current: G, K or H.  The mutations of
    both charge checks perturb it."""
    return _CURRENTS[family][_B_CURRENTS[family][0, 0][1]][0]


def _check_pairs(max_k):
    """A charge check compares the pairs j < k <= max_k, so it needs one:
    max-k 0 would pass with nothing compared, and its mutation perturbs
    charge 1."""
    if max_k < 1:
        raise ValueError(f"a charge check compares pairs j < k <= max-k, "
                         f"so max-k must be >= 1, not {max_k}")


def check_linear_charges(family, max_k, mutate=False):
    """All pairs of linear charges commute, with fully symbolic weights.

    j < k suffices: abstract_bracket is antisymmetric by construction (see
    onsager._BRACKETS; the one same-letter entry, [A_n, A_m] = 4 G_{n-m},
    is odd because G is), and check_jacobi confirms it on its window.

    mutate=True flips the sign of the diagonal-letter part of the second
    charge, which must break commutativity."""
    _check_pairs(max_k)
    charges = _linear_charges(family, max_k)
    if mutate:
        flip = _diagonal_generator(family)
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
    """All pairs of quadratic charges commute in U(family).

    j < k suffices: uea_commutator equals ab - ba, which is antisymmetric
    (tests/test_envelope.py compares the two).

    mutate=True adds to t_1 the generator of B's (0, 0) current at mode 1,
    a stray degree-one term, which must fail."""
    _check_pairs(max_k)
    ts = build_quadratic_charge(family, max_k)
    if mutate:
        ts[1] = ts[1] + lie_to_uea(ons(family, _diagonal_generator(family), 1))
    res = Residuals()
    for j in range(max_k + 1):
        for k in range(j + 1, max_k + 1):
            res.add(uea_commutator(ts[j], ts[k]), "[t_{}, t_{}]", j, k)
    return res.report(
        f"quadratic_charges[{family}]" + ("[mutated]" if mutate else ""),
        f"in U({family}), normal-ordered, 0 <= j < k <= {max_k}",
    )


def note_mixed_commutator(family, j, k):
    """[t_j, I_k] in U(family) is generically nonzero; report its size as a
    note."""
    ts = build_quadratic_charge(family, j)
    res = uea_commutator(ts[j], lie_to_uea(build_linear_charge(family, k)))
    size = "0" if res.is_zero() else f"{len(res.terms)} normal-ordered terms"
    return f"[t_{j}, I_{k}] for {family}: {size}"
