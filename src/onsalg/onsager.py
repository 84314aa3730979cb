"""The three mode-symmetric subalgebra families and their presentations.

Each family is an abstract Lie algebra with countably many generators
subject to index symmetries; `morphism_image` realizes its generators
inside the mode algebra, and the checks confirm the defining relations
and their finite consequences.  Each family's currents, _CURRENTS, and its
abstract B(x), _B_CURRENTS, are table rows in the format of T+(x) and
T-(1/x) in currents, built by the one series builder currents._series;
check_current_relations proves the whole bracket table as the FRT
exchange relation of B(x), the premise from which currents.check_exchange
derives the realized B's by transport.

The realizations are the rows of currents.REALIZATIONS (the three
families and kappa_minus): each holds the family it realizes, its affine
map in the format of the automorphisms kacmoody._MAPS, with the generator
letters as letters, and the involution that fixes it.  Like the brackets,
every entry is affine in n, so the mode checks (morphism, jacobi,
fixed_point, kappa_isomorphism) are decided for every mode at symbolic
modes (see modes), where _raw is the bracket of raw generators; jacobi
decides the loop axioms and cites morphism, which carries them over.

Generators are interned ints, one instance per (family, letter, mode),
ordered as those tuples are (see OnsSymbol).  The bracket of two
generators is not memoised here: it reads the table _BRACKETS on every
call, so a change to the table takes effect at once in every check of
this module.  envelope._bracket memoises it for the enveloping algebras,
as it memoises their normal forms.

The finite presentations are the table _DOLAN_GRADY: each relation is
stated once, as the string it is reported at, and read by one parser.
"""

import random
from functools import cache, partial

from . import modes
from .exactalg import LinComb, Symbol, _addbilin
from .kacmoody import (
    _MAPS, _affine_image, _basis_bracket, _homomorphism, _loop, _memo_image, loop_axioms
)
from .currents import REALIZATIONS, _rbar, _reflection, _row, _series, _unknown_family
from .report import Residuals

__all__ = [
    "OnsSymbol",
    "OnsElt",
    "FAMILIES",
    "canonicalize",
    "ons",
    "abstract_bracket",
    "canonical_symbols",
    "morphism_image",
    "build_abstract_B",
    "check_morphism",
    "check_dolan_grady",
    "check_fixed_point",
    "check_jacobi",
    "check_jacobi_sampled",
    "check_kappa_isomorphism",
    "check_current_relations",
]

FAMILIES = ("onsager", "augmented", "invariant")

# Each family's generator letters in order, with the index symmetry of
# each: (r, sign) means X[m] = sign X[r - m]; None means no symmetry.
_LETTERS = {
    "onsager": {"A": None, "G": (0, -1)},
    "augmented": {"K": (0, 1), "Z+": (1, 1), "Z-": (-1, 1)},
    "invariant": {"H": (0, 1), "E": (0, 1), "F": (0, 1)},
}


class OnsSymbol(
    Symbol,
    fields=("family", "letter"),
    heads=[(f, l) for f, letters in _LETTERS.items() for l in letters],
):
    """One generator letter[mode] of a family.

    Symbols are interned ints (see exactalg.Symbol): OnsSymbol("onsager",
    "A", 3) is always the same object, and values sort as the (family,
    letter, mode) tuples do, by family name, then letter name, then mode.
    No OnsSymbol equals a kacmoody.BasisSymbol.
    """

    def __new__(cls, family, letter, mode):
        sym = cls._interned.get((family, letter, mode))
        if sym is not None:
            return sym
        if letter not in _LETTERS.get(family, ()):
            raise ValueError(
                f"{letter!r} is not a generator letter of family {family!r}"
            )
        return cls._intern((family, letter), mode)

    def __str__(self):
        return f"{self.letter}[{self.mode}]"

    __repr__ = __str__


def canonicalize(family, letter, mode):
    """Reduce a generator to its canonical index; returns (sign, symbol),
    or (0, None) for a generator that is zero.

    Under X[m] = sign X[r - m] (see _LETTERS) the canonical index is the
    larger of m and r - m; a letter odd about its fixed point is zero there.
    So G is odd under negation (G_0 = 0), K, H, E and F are even, Z+ is
    symmetric about 1/2 and Z- about -1/2.
    """
    letters = _LETTERS.get(family)
    if letters is None:
        raise ValueError(_unknown_family(family, FAMILIES))
    rule = letters.get(letter)
    if rule is not None:
        r, sign = rule
        if r - mode > mode:
            return sign, OnsSymbol(family, letter, r - mode)
        if r - mode == mode and sign == -1:
            return 0, None
    return 1, OnsSymbol(family, letter, mode)


# Elements of a family: linear combinations of canonical generators.
OnsElt = LinComb


def ons(family, letter, mode, coeff=1):
    """The generator letter[mode] of family, scaled by coeff, with its index
    reduced by the family's symmetries (so G[0] is zero)."""
    sign, sym = canonicalize(family, letter, mode)
    if sign == 0:
        return OnsElt.zero()
    return OnsElt.single(sym, coeff).scale(sign)


# [X[n], Y[m]] for each non-commuting letter pair (X, Y), as terms
# (coeff, Z, p, q, r) meaning coeff Z[p n + q m + r].  [Y[m], X[n]] follows
# by antisymmetry; every pair not listed either way commutes.
_BRACKETS = {
    ("A", "A"): ((4, "G", 1, -1, 0),),
    ("G", "A"): ((2, "A", 1, 1, 0), (-2, "A", -1, 1, 0)),
    ("K", "Z+"): ((2, "Z+", 1, 1, 0), (2, "Z+", -1, 1, 0)),
    ("K", "Z-"): ((-2, "Z-", 1, 1, 0), (-2, "Z-", -1, 1, 0)),
    ("Z+", "Z-"): ((4, "K", 1, 1, 0), (4, "K", -1, 1, 1)),
    ("H", "E"): ((2, "E", 1, 1, 0), (2, "E", -1, 1, 0)),
    ("H", "F"): ((-2, "F", 1, 1, 0), (-2, "F", -1, 1, 0)),
    ("E", "F"): ((1, "H", 1, 1, 0), (1, "H", -1, 1, 0)),
}


def _pair_bracket(a, b):
    """[a, b] for two canonical generators, as (symbol, coefficient) pairs."""
    family = a.family
    if family != b.family:
        raise ValueError(
            f"cannot bracket generators of families {family!r} and {b.family!r}"
        )
    n, m, sign = a.mode, b.mode, 1
    terms = _BRACKETS.get((a.letter, b.letter))
    if terms is None:
        terms = _BRACKETS.get((b.letter, a.letter), ())
        n, m, sign = m, n, -1
    out = []
    for k, letter, p, q, r in terms:
        s, sym = canonicalize(family, letter, p * n + q * m + r)
        if s:
            out.append((sym, s * sign * k))
    return out


def _raw(a, b):
    """[X[F], Y[G]] for generators at symbolic modes (modes.Gen): the terms
    _pair_bracket reads off _BRACKETS, with no canonical index."""
    f, g, sign = a.form, b.form, 1
    terms = _BRACKETS.get((a.name, b.name))
    if terms is None:
        terms, f, g, sign = _BRACKETS.get((b.name, a.name), ()), g, f, -1
    return [(modes.Gen(z, modes.lin(p, f, q, g, r)), sign * k) for k, z, p, q, r in terms]


def abstract_bracket(a, b):
    """Bilinear bracket of OnsElts via the family's defining relations."""
    return a.bilinear(b, _pair_bracket)


def canonical_symbols(family, window):
    """All canonical generators with |mode| <= window: letter by letter in
    the family's order, modes ascending."""
    letters = _row(_LETTERS, family)
    if window < 0:
        raise ValueError(f"window must be >= 0, not {window}")
    syms = []
    for letter in letters:
        for n in range(-window, window + 1):
            _, sym = canonicalize(family, letter, n)
            if sym is not None and sym.mode == n:
                syms.append(sym)
    return syms


# -- realization inside the mode algebra ------------------------------------------


def morphism_image(family, sym):
    """Image of a canonical generator in the mode algebra (see
    currents.REALIZATIONS)."""
    row = _row(REALIZATIONS, family)
    if sym.family != row.family:
        raise ValueError(
            f"the {family!r} realization takes generators of family "
            f"{row.family!r}, not of family {sym.family!r}"
        )
    return _affine_image(row.image, sym.letter, sym.mode)


def check_morphism(family, window, override=None):
    """The realization phi is, at every mode (modes.Proof), a homomorphism
    on raw generators (_raw), well defined, phi(X[r - n]) = sign phi(X[n])
    for each _LETTERS rule, so that canonical indices are invisible after
    phi, and injective on canonical generators.  override(sym), replacing
    single images (None falls through), is how the tests and the
    benchmark's mutation sweep check a perturbed realization: it runs the
    windowed sweep of canonical pairs with |mode| <= window, pending
    ROADMAP item 5 (a table patch)."""
    row = _row(REALIZATIONS, family)  # an unknown family fails before any work
    if not override:
        res, letters = modes.Proof(window), _LETTERS[row.family]
        image = partial(modes.image, row.image)
        at_n = {x: modes.Gen(x, modes.N) for x in letters}
        _homomorphism(res, at_n.values(), [modes.Gen(x, modes.M) for x in letters],
                      image, _raw, _loop, -1)
        for x, (r, sign) in ((x, rule) for x, rule in letters.items() if rule):
            mirror = modes.Gen(x, (-1, 0, r))
            res.add(image(mirror) - image(at_n[x]).scale(sign), "{} = {}{}", mirror,
                    "-" * (sign < 0), at_n[x])
        modes.injective(res, {x: image(at_n[x]) for x in letters}, letters)
        return res.report(f"morphism[{family}]", "every integer mode: homomorphism on "
                          "letter pairs, well defined, injective")
    img = _memo_image(lambda sym: morphism_image(family, sym), override)
    syms = canonical_symbols(row.family, window)
    res = Residuals()
    # [img(a), img(b)] - img([a, b])
    _homomorphism(res, syms, syms, img, _pair_bracket, _basis_bracket, -1)
    return res.report(
        f"morphism[{family}][override]", f"generator pairs with |mode| <= {window}"
    )


def _jacobi(a, b, c):
    """[[a, b], c] + [[b, c], a] + [[c, a], b], accumulated in one dict."""
    out = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        _addbilin(out, abstract_bracket(x, y).terms, z.terms, _pair_bracket)
    return OnsElt.from_dict(out)


def check_jacobi(family, window):
    """The family's bracket is a Lie bracket at every mode, by pullback: the
    loop bracket is one (kacmoody.loop_axioms, decided here), and the
    family's realization is a well-defined injective homomorphism into the
    loop algebra, the premise morphism[family] that carries the axioms to
    the family; cli.family_block decides it in the same suite."""
    _row(_LETTERS, family)  # an unknown family fails before any work
    res = modes.Proof(window)
    loop_axioms(res)
    return res.report(f"jacobi[{family}]", "pullback from the loop axioms (sl2 Jacobi, _FORM "
                      f"symmetric and invariant) through morphism[{family}] (homomorphism, "
                      "well defined, injective), at every integer mode")


# how many random triples check_jacobi_sampled draws
_JACOBI_SAMPLES = 40


def check_jacobi_sampled(family, max_mode, seed):
    """Jacobi identity on randomized generator triples with modes up to
    max_mode — a spot check beyond the exhaustive window."""
    rng = random.Random(seed)
    syms = canonical_symbols(family, max_mode)
    res = Residuals()
    for _ in range(_JACOBI_SAMPLES):
        sa, sb, sc = (rng.choice(syms) for _ in range(3))
        jac = _jacobi(OnsElt.single(sa), OnsElt.single(sb), OnsElt.single(sc))
        res.add(jac, "({}, {}, {})", sa, sb, sc)
    return res.report(
        f"jacobi_sampled[{family}]",
        f"{_JACOBI_SAMPLES} random triples with |mode| <= {max_mode}, seed {seed}",
    )


# Each family's finite presentation, each relation stated as it is reported.
_DOLAN_GRADY = {
    "onsager": ("[A0,[A0,[A0,A1]]] = 16 [A0,A1]", "[A1,[A1,[A1,A0]]] = 16 [A1,A0]"),
    "augmented": ("[K0,Z+0] = 4 Z+0", "[K0,Z-0] = -4 Z-0",
                  "[Z+0,[Z+0,[Z+0,Z-0]]] = 0", "[Z-0,[Z-0,[Z-0,Z+0]]] = 0"),
    "invariant": ("[H0,E0] = 4 E0", "[H0,F0] = -4 F0", "[E0,F0] = 2 H0", "[H0,E1] = 4 E1",
                  "[H1,E0] = 4 E1", "[H0,F1] = -4 F1", "[H1,F0] = -4 F1", "[E0,F1] = 2 H1",
                  "[E1,F0] = 2 H1", "[H1,[E1,F1]] = 0"),
}


def check_dolan_grady(family):
    """The finite presentations _DOLAN_GRADY: each relation "lhs = 0" or
    "lhs = k rhs" is compared where it is stated."""
    @cache  # the tables hold still during one call, so each string is read once
    def nested(text):
        """The right-nested bracket [X1,[X2,...,Xk]] of generators such as Z+0, or Xk."""
        if text.startswith("["):
            head, rest = text[1:-1].split(",", 1)
            return abstract_bracket(nested(head), nested(rest))
        letter = text.rstrip("0123456789")
        return ons(family, letter, int(text[len(letter):]))

    res = Residuals()
    for text in _row(_DOLAN_GRADY, family):
        lhs, rhs = text.split(" = ")
        k, _, rest = rhs.partition(" ")
        want = OnsElt() if k == "0" else nested(rest).scale(int(k))
        res.add(nested(lhs) - want, text)
    return res.report(f"dolan_grady[{family}]", "lowest-mode relations")


def _intertwines(window, outer, source, target, shift=0):
    """A modes.Proof that the kacmoody._MAPS map outer carries the source
    realization onto the target one letter by letter, at every mode:
    outer(phi_source(X[n])) = phi_target(X[n + shift])."""
    res, moved = modes.Proof(window), partial(modes.image, _MAPS[outer])
    for x in _LETTERS[REALIZATIONS[source].family]:
        at = modes.Gen(x, modes.N)
        res.add(modes.image(REALIZATIONS[source].image, at).linear(moved)
                - modes.image(REALIZATIONS[target].image, modes.Gen(x, (1, 0, shift))), "{}", at)
    return res


def check_fixed_point(family, max_mode):
    """The family's distinguished involution fixes its realization
    pointwise, at every mode."""
    fixing = _row(REALIZATIONS, family).fixing
    return _intertwines(max_mode, fixing, family, family).report(
        f"fixed_point[{family}, {fixing}]", "every integer mode")


def check_kappa_isomorphism(window, correspondence_shift=0):
    """The translation automorphism carries the invariant realization onto
    the kappa_minus one generator by generator, at every mode: shift
    phi_inv(X[n]) = phi_kappa(X[n + correspondence_shift]), at any index
    by kappa_minus's well-definedness (morphism[kappa_minus]).  A nonzero
    correspondence_shift misaligns the modes and must fail."""
    tag = f"[shift {correspondence_shift:+d}]" if correspondence_shift else ""
    return _intertwines(window, "shift", "invariant", "kappa_minus", correspondence_shift).report(
        f"kappa_isomorphism{tag}", "every integer mode")


# -- generating series -------------------------------------------------------------


# Each family's current letters in order, in the table format of
# currents._T_CURRENTS: letter -> (generator, index sign, first n, zero mode
# halved).
_CURRENTS = {
    "onsager": {"G": ("G", 1, 1, False), "A+": ("A", 1, 1, False),
                "A-": ("A", -1, 0, False)},
    "augmented": {"K": ("K", 1, 0, True), "Z+": ("Z+", 1, 1, False),
                  "Z-": ("Z-", 1, 0, False)},
    "invariant": {"H": ("H", 1, 0, True), "E": ("E", 1, 0, True),
                  "F": ("F", 1, 0, True)},
}


# Each family's abstract B(x), rows in the format of currents._T_ROWS:
# position -> (coefficient, current letter).  Its morphism image is the
# family's realized B (currents.build_B), which carries the invariant E and
# F with the coefficient 2.
_B_CURRENTS = {
    "onsager": {(0, 0): (1, "G"), (1, 1): (-1, "G"), (1, 0): (1, "A+"), (0, 1): (1, "A-")},
    "augmented": {(0, 0): (1, "K"), (1, 1): (-1, "K"), (1, 0): (1, "Z+"), (0, 1): (1, "Z-")},
    "invariant": {(0, 0): (1, "H"), (1, 1): (-1, "H"), (1, 0): (2, "E"), (0, 1): (2, "F")},
}


def build_abstract_B(family, window, x=None):
    """The family's abstract B(x) (see _B_CURRENTS), each current truncated
    at degree window."""
    return _series(_row(_B_CURRENTS, family), _CURRENTS[family], partial(ons, family), window, x)


def check_current_relations(family, window):
    """The whole bracket table in FRT form: the abstract B(x) satisfies
    [B1(x), B2(y)] = [rbar21(y,x), B1(x)] + [B2(y), rbar12(x,y)] under
    _pair_bracket, with the rbar of the realized B (currents.REALIZATIONS).
    Each entry of the relation pairs two of the family's currents."""
    res, b = Residuals(), build_abstract_B(family, window)  # an unknown family fails here
    region = _reflection(res, window, b, _rbar(family), _pair_bracket)
    return res.report(f"current_relations[{family}]", region)
