"""Windowed oracles of the checks that the library proves for every mode.

The library decides automorphism, morphism, fixed_point, kappa_isomorphism
and jacobi at symbolic modes (onsalg.modes).  The sweeps they replaced
stay here, as test oracles over concrete modes: jacobi over the canonical
generators up to a window, and the fixed-point and kappa loops over the
generators given.  The windowed homomorphism sweep itself stays in the
library for the override path of check_morphism and check_automorphism.
`at` reads a symbolic element at concrete modes, so a symbolic residual
can be compared with the concrete one.
"""

from onsalg import modes
from onsalg.exactalg import _addbilin
from onsalg.kacmoody import C, BasisSymbol, LieElt, apply_map
from onsalg.onsager import (
    OnsElt, OnsSymbol, _jacobi, _pair_bracket, canonical_symbols, canonicalize, morphism_image
)
from onsalg.report import Residuals


def jacobi(family, window=None, syms=None):
    """Antisymmetry on unordered pairs and the Jacobi identity on sorted
    triples of the canonical generators with |mode| <= window, or of syms
    in the order given; a transposition only changes the Jacobi sum's sign
    once antisymmetry holds, so sorted triples cover every triple."""
    syms = canonical_symbols(family, window) if syms is None else syms
    elts = [OnsElt.single(s) for s in syms]
    res = Residuals()
    n = len(syms)
    for i in range(n):
        for j in range(i, n):
            a, b = elts[i].terms, elts[j].terms
            out = {}
            _addbilin(out, a, b, _pair_bracket)
            _addbilin(out, b, a, _pair_bracket)
            res.add(OnsElt.from_dict(out), "[{0}, {1}] + [{1}, {0}]", syms[i], syms[j])
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                res.add(_jacobi(elts[i], elts[j], elts[k]),
                        "({}, {}, {})", syms[i], syms[j], syms[k])
    return res.report(f"jacobi[{family}]", f"generators with |mode| <= {window}")


def fixed_point(family, syms, fixing):
    """fixing(phi(sym)) - phi(sym) for each canonical generator of syms."""
    res = Residuals()
    for sym in syms:
        img = morphism_image(family, sym)
        res.add(apply_map(fixing, img) - img, "{}", sym)
    return res.report(f"fixed_point[{family}, {fixing}]", "the generators given")


def kappa_isomorphism(syms, correspondence_shift=0):
    """shift(phi_inv(sym)) against the kappa_minus image of the canonical
    generator sym's index moved by correspondence_shift, for each of syms."""
    res = Residuals()
    for sym in syms:
        sign, target = canonicalize("invariant", sym.letter, sym.mode + correspondence_shift)
        moved = apply_map("shift", morphism_image("invariant", sym))
        want = morphism_image("kappa_minus", target).scale(sign) if target else LieElt.zero()
        res.add(moved - want, "{}", sym)
    return res.report("kappa_isomorphism", "the generators given")


def at(elt, n, m=0, family=None):
    """The symbolic element elt (see modes) at the modes n and m: a concrete
    LieElt, or an OnsElt of raw family generators when family is given."""
    out = {}
    for key, c in elt.terms.items():
        if type(key) is modes.Central:
            a, b, k = key.guard
            if a * n + b * m + k == 0:
                out[C] = out.get(C, 0) + c * (n, m, 1)[key.power]
            continue
        mode = key.form[0] * n + key.form[1] * m + key.form[2]
        sym = OnsSymbol(family, key.name, mode) if family else BasisSymbol(key.name, mode)
        out[sym] = out.get(sym, 0) + c
    return LieElt({k: c for k, c in out.items() if c})
