"""The affine sl2 Lie algebra in its mode basis, with exact brackets.

Basis symbols are e[n], f[n], h[n] for integer n plus the central c.
The loop bracket is

    [x_n, y_m] = [x, y]_{n+m} + n (x, y) delta_{n+m,0} c

for x, y in sl2, read off two tables: the sl2 bracket _SL2 ([h, e] = 2e,
[h, f] = -2f, [e, f] = h) and the invariant form _FORM ((h, h) = 2,
(e, f) = 1, every other pair 0).  c is central: serre_chevalley decides it.

The named automorphisms and the realizations of the Onsager families
(currents.REALIZATIONS) are affine maps in one table format: per letter, a
list of terms (k, type, s, b) meaning k type[s n + b] and a coefficient z
meaning z delta_{n,0} c.  _affine_image reads both at a mode and
modes.image at a symbolic mode, as _bracket_terms and _loop read the loop
bracket; tests/test_modes.py holds each pair to agree.  _homomorphism is
the one sweep that checks a map preserves brackets, at symbolic modes or
over a window.

Elements carry exact coefficients: plain integers or rationals, and
polynomials in parameter variables only where a coefficient involves one,
so symbolic linear combinations stay exact.

Basis symbols are interned ints, one instance per (type, mode), whose
values order them by type (c, e, f, h) and then by mode; so LinComb keys
hash and compare at C speed and print in the (type, mode) order.  The
bracket of two basis symbols is memoised per pair (see _basis_bracket).
"""

from functools import cache, partial

from . import modes
from .exactalg import LinComb, Symbol, _addbilin, _addlin, accumulate
from .report import Residuals

__all__ = [
    "BasisSymbol",
    "LieElt",
    "E",
    "F",
    "H",
    "C",
    "bracket",
    "MAP_NAMES",
    "apply_map",
    "check_automorphism",
    "check_serre_chevalley",
]


_TYPES = ("E", "F", "H", "C")


class BasisSymbol(Symbol, fields=("type",), heads=[(t,) for t in _TYPES]):
    """One basis vector: type in 'E','F','H','C'; C has mode 0.

    Symbols are interned ints (see exactalg.Symbol): BasisSymbol("E", 3)
    is E(3), and their values sort as the (type, mode) tuples do, types in
    the order C, E, F, H.  No LinComb mixes symbol keys with plain int
    keys, so a symbol equal to the plain int of its value never meets it.
    """

    def __new__(cls, type, mode=0):
        sym = cls._interned.get((type, mode))
        if sym is not None:
            return sym
        if type not in _TYPES:
            raise ValueError(f"basis symbol type must be E, F, H or C, not {type!r}")
        if type == "C" and mode != 0:
            raise ValueError(f"the central element C has mode 0, not {mode!r}")
        return cls._intern((type,), mode)

    def __str__(self):
        if self.type == "C":
            return "c"
        return f"{self.type.lower()}[{self.mode}]"

    def __repr__(self):
        return f"BasisSymbol(type={self.type!r}, mode={self.mode!r})"


def E(n):
    return BasisSymbol("E", n)


def F(n):
    return BasisSymbol("F", n)


def H(n):
    return BasisSymbol("H", n)


C = BasisSymbol("C", 0)

# Elements of the mode algebra: linear combinations of basis symbols.
LieElt = LinComb


# [x, y] in sl2 for each ordered pair of basis types that do not commute, as
# (coefficient, type) terms; the reversed pair takes the opposite sign.
_SL2 = {
    ("H", "E"): ((2, "E"),),
    ("H", "F"): ((-2, "F"),),
    ("E", "F"): ((1, "H"),),
}

# the invariant form (x, y), once per unordered pair; every other pair is 0
_FORM = {("H", "H"): 2, ("E", "F"): 1}

_BRACKET_MEMO = {}


def _basis_bracket(a, b):
    """[a, b] for basis symbols, as a tuple of (symbol, int) pairs,
    memoised per pair (the tuples are never changed, so they are shared)."""
    out = _BRACKET_MEMO.get((a, b))
    if out is None:
        out = _BRACKET_MEMO[a, b] = _bracket_terms(a, b)
    return out


def _bracket_terms(a, b):
    """[x_n, y_m] = [x, y]_{n+m} + n (x, y) delta_{n+m,0} c, read off _SL2
    and _FORM; c is in neither, so it brackets to zero."""
    ta, tb, n, m = a.type, b.type, a.mode, b.mode
    terms, sign = _SL2.get((ta, tb)), 1
    if terms is None:
        terms, sign = _SL2.get((tb, ta), ()), -1
    out = [(BasisSymbol(t, n + m), sign * k) for k, t in terms]
    if n + m == 0 and n:
        form = _FORM.get((ta, tb)) or _FORM.get((tb, ta))
        if form:
            out.append((C, n * form))
    return tuple(out)


def _loop(a, b):
    """_bracket_terms at symbolic modes (modes.Loop keys), read off the same
    tables: [x[F], y[G]] = [x, y][F + G] + (x, y) F [F + G = 0] c; a
    central key brackets to zero by construction: serre_chevalley decides,
    off these tables with c as one more type, that c is central."""
    if type(a) is not modes.Loop or type(b) is not modes.Loop:
        return ()
    ta, tb = a.name, b.name
    terms, sign = _SL2.get((ta, tb)), 1
    if terms is None:
        terms, sign = _SL2.get((tb, ta), ()), -1
    total = modes.lin(1, a.form, 1, b.form)
    out = [(modes.Loop(t, total), sign * k) for k, t in terms]
    form = _FORM.get((ta, tb)) or _FORM.get((tb, ta))
    return out + modes.central(total, a.form, form) if form else out


def bracket(a, b):
    """Exact Lie bracket of two LieElts (bilinear over coefficient polys)."""
    return a.bilinear(b, _basis_bracket)


# -- affine maps ------------------------------------------------------------------


def _affine_image(row, letter, n):
    """The image of letter[n] under an affine map, as a LieElt: row[letter]
    is (terms, z), sending letter[n] to the sum of k type[s n + b] over the
    terms (k, type, s, b), plus z delta_{n,0} c."""
    terms, z = row[letter]
    out = {}
    for k, t, s, b in terms:
        accumulate(out, BasisSymbol(t, s * n + b), k)
    if z and n == 0:
        accumulate(out, C, z)
    return LieElt.from_dict(out)


# The named automorphisms, with the basis types as letters, so C (mode 0)
# goes to z c.  A map whose every term has s = -1 sends mode n to b - n, so
# it is its own inverse; check_automorphism then also checks that it
# squares to the identity.  shift, the one-step loop rotation, conjugates
# the plus/minus fixed subalgebras.
_MAPS = {
    "theta1": {"E": (((1, "F", -1, 0),), 0), "F": (((1, "E", -1, 0),), 0),
               "H": (((-1, "H", -1, 0),), 0), "C": ((), -1)},
    "theta2": {"E": (((1, "E", -1, 1),), 0), "F": (((1, "F", -1, -1),), 0),
               "H": (((1, "H", -1, 0),), 1), "C": ((), -1)},
    "lusztig_plus": {"E": (((1, "E", -1, 0),), 0), "F": (((1, "F", -1, 0),), 0),
                     "H": (((1, "H", -1, 0),), 0), "C": ((), -1)},
    "lusztig_minus": {"E": (((1, "E", -1, 2),), 0), "F": (((1, "F", -1, -2),), 0),
                      "H": (((1, "H", -1, 0),), 2), "C": ((), -1)},
    "shift": {"E": (((1, "E", 1, 1),), 0), "F": (((1, "F", 1, -1),), 0),
              "H": (((1, "H", 1, 0),), 1), "C": ((), 1)},
}

MAP_NAMES = tuple(_MAPS)


def _memo_image(base, override):
    """base, a map from a symbol to a LieElt, with override(sym) tried
    first (None falls through), memoised for the life of the result."""
    return cache(lambda sym: base(sym) if (img := override(sym)) is None else img)


def _map_fn(name):
    """The named map on basis symbols, sym -> LieElt."""
    row = _MAPS.get(name)
    if row is None:
        raise ValueError(f"unknown map {name!r} (choose from {', '.join(MAP_NAMES)})")
    return lambda sym: _affine_image(row, sym.type, sym.mode)


def apply_map(name, a):
    """Apply a named linear map to a LieElt."""
    return a.linear(_map_fn(name))


def _basis_range(window):
    if window < 0:
        raise ValueError(f"window must be >= 0, not {window}")
    syms = [C]
    for n in range(-window, window + 1):
        syms.extend((E(n), F(n), H(n)))
    return syms


def _homomorphism(res, firsts, seconds, image, product, bracket, sign):
    """Add to res, for every pair (a, b) of firsts and seconds, sign
    (image([a, b]) - [image(a), image(b)]) at position [a, b]: product and
    bracket are those of the domain and of the images, as (key,
    coefficient) pairs, and image maps a key to a LieElt.  Symbolic keys
    (modes) and concrete ones alike."""
    for a in firsts:
        ia = image(a).terms
        for b in seconds:
            out = {}
            for k, ck in product(a, b):
                _addlin(out, image(k).terms, sign * ck)
            _addbilin(out, ia, image(b).terms, bracket, -sign)
            res.add(LieElt.from_dict(out), "[{}, {}]", a, b)


def check_automorphism(name, window, override=None):
    """The named map preserves brackets, and squares to the identity when
    each term of its row reverses the mode (s = -1), at every mode: decided
    on the pairs (x[n], y[m]) of basis types and c.  override(sym), tried
    before the row (None falls through), is how the tests and the
    benchmark's mutation sweep check a perturbed map: it runs the windowed
    sweep of |mode| <= window, pending ROADMAP item 5 (a table patch)."""
    fn, row = _map_fn(name), _MAPS[name]
    if override:
        res, image, bracket = Residuals(), _memo_image(fn, override), _basis_bracket
        firsts = seconds = _basis_range(window)
        region = f"basis pairs with |mode| <= {window}"
    else:
        res, image, bracket = modes.Proof(window), partial(modes.image, row), _loop
        firsts, seconds = ([modes.Loop(t, f) for t in "EFH"] + [modes.C]
                           for f in (modes.N, modes.M))
        region = "every integer mode"
    _homomorphism(res, firsts, seconds, image, bracket, bracket, 1)
    if all(s == -1 for terms, _ in row.values() for _, _, s, _ in terms):
        for a in firsts:
            out = {a: -1}
            for k, ck in image(a).terms.items():
                _addlin(out, image(k).terms, ck)
            res.add(LieElt.from_dict(out), "involution at {}", a)
    return res.report(f"automorphism[{name}]", region)


def loop_axioms(res):
    """Decide that the loop bracket is a Lie bracket at every mode: on the
    type pairs (x[n], y[m]), antisymmetry holds _SL2's and _FORM's symmetry;
    on the triples (x[n], y[m], z[0]), Jacobi holds sl2's and, on n + m = 0,
    _FORM's invariance, the cocycle condition of the central term (Kac,
    Infinite-dimensional Lie algebras, ch. 7).  Each witness starts "loop
    axioms: ", the premise onsager.check_jacobi pulls back."""
    for x in "EFH":
        a = LieElt.single(modes.Loop(x, modes.N))
        for y in "EFH":
            b = LieElt.single(modes.Loop(y, modes.M))
            res.add(a.bilinear(b, _loop) + b.bilinear(a, _loop),
                    "loop axioms: [{0}, {1}] + [{1}, {0}]", *a.terms, *b.terms)
            for z in "EFH":
                c, out = LieElt.single(modes.Loop(z, (0, 0, 0))), {}
                for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
                    _addbilin(out, p.bilinear(q, _loop).terms, r.terms, _loop)
                res.add(LieElt.from_dict(out), "loop axioms: ({}, {}, {})",
                        *a.terms, *b.terms, *c.terms)


def check_serre_chevalley():
    """Verify the Chevalley-generator presentation inside the mode basis.

    Uses the standard images k1 -> h0, x1+ -> e0, x1- -> f0,
    k0 -> -c - h0, x0+ -> f[-1], x0- -> e[1]; the Cartan matrix is
    [[2,-2],[-2,2]] and [xi+, xj-] = kj exactly when i = j.  The central
    element k0 + k1 commutes with x[n] for x in e, f and h at every mode,
    decided at symbolic n (modes.Proof) off _SL2 and _FORM with c one more
    type, "C", so a table entry that names c fails it.
    """
    k = {1: LieElt.single(H(0)), 0: LieElt.single(C, -1) + LieElt.single(H(0), -1)}
    xp = {1: LieElt.single(E(0)), 0: LieElt.single(F(-1))}
    xm = {1: LieElt.single(F(0)), 0: LieElt.single(E(1))}
    cart = {(0, 0): 2, (1, 1): 2, (0, 1): -2, (1, 0): -2}
    res = modes.Proof()
    res.add(bracket(k[0], k[1]), "[k0, k1]")
    for i in (0, 1):
        for j in (0, 1):
            a = cart[i, j]
            res.add(bracket(k[i], xp[j]) - xp[j].scale(a), f"[k{i}, x{j}+]")
            res.add(bracket(k[i], xm[j]) - xm[j].scale(-a), f"[k{i}, x{j}-]")
            want = k[j] if i == j else LieElt.zero()
            res.add(bracket(xp[i], xm[j]) - want, f"[x{i}+, x{j}-]")
    for i, j in ((0, 1), (1, 0)):
        for sgn, x in (("+", xp), ("-", xm)):
            cubic = bracket(x[i], bracket(x[i], bracket(x[i], x[j])))
            res.add(cubic, f"serre [x{i}{sgn},[x{i}{sgn},[x{i}{sgn},x{j}{sgn}]]]")
    central = (k[0] + k[1]).linear(lambda s: LieElt.single(modes.Loop(s.type, (0, 0, s.mode))))
    for t in "EFH":
        b = LieElt.single(modes.Loop(t, modes.N))
        res.add(central.bilinear(b, _loop), "[k0+k1, {}]", *b.terms)
    return res.report("serre_chevalley",
                      "generator relations; k0 + k1 central at every integer mode")
