"""Truncated operator-valued currents and their exchange relations.

A CurrentMat is a matrix of formal series whose coefficients live in the
mode Lie algebra.  Each spectral variable carries a SupportMeta recording
where the truncated data is exact, so every comparison happens only on a
provably safe window; degrees are doubled like LaurentPoly exponents.  A
meta is shifted by a scalar factor and merged by a sum; no series is the
product of two truncated series, so no meta is multiplied.

Every series identity (the FRT relations, the exchange relation of each
onsager family's abstract B) is checked by one routine, _exchange: it
adds the cleared bracket [a1(x), b2(y)], minus each cleared commutator and
any central term, into one residual current, which _compare reads on its
safe window; check_exchange derives the realized B's by transport.  The
denominators are cleared one way: exactalg.complement and TensorMat.cleared.

Every generating series is built from table rows by one builder,
_series: T+(x) and T-(1/x) are the rows _T_ROWS, and each onsager
family's currents and abstract B(x) are rows in the same format.  One
rule, _coefficient, reads a coefficient off the rows; _series calls it
for each degree, and envelope's charges call it for the finitely many
coefficients each charge sums.

Each realization of an Onsager-type family is one row of REALIZATIONS,
kept here, in the lowest module that reads it; onsager, envelope and the
cli suites read their fields from it, and _row refuses an unknown family.

A product (_mixed_mul, series_bracket) builds each coefficient as one term
dict through exactalg's LinComb kernels (_addlin, _addbilin), with no
intermediate element, and wraps it as a LieElt once, at the end; a sum
merges each coefficient both operands hold with one kernel call.
"""

from dataclasses import dataclass
from functools import partial, reduce
from operator import add
from typing import NamedTuple

from .exactalg import LaurentPoly, Variable, _addbilin, _addlin, complement, rat, spectral
from .kacmoody import C, BasisSymbol, LieElt, _basis_bracket
from .report import Residuals
from .tensormat import (
    TensorMat,
    build_boundary,
    build_r,
    build_rbar,
    embed_indices,
    leg_embed,
    u_derivative,
)

__all__ = [
    "SupportMeta",
    "CurrentMat",
    "build_T",
    "build_B",
    "series_bracket",
    "check_frt_relations",
    "check_exchange",
    "REALIZATIONS",
]

# the smallest window check_frt_relations and check_exchange accept
MIN_WINDOW = 4


def _names(variables):
    return "(" + ", ".join(v.name for v in variables) + ")"


def _tightest(pick, *bounds):
    """pick (max at a low end, min at a high end) of the bounds not None."""
    return pick((v for v in bounds if v is not None), default=None)


def _loosest(pick, a, b):
    """pick (min at a low end, max at a high end); None is unbounded."""
    return None if a is None or b is None else pick(a, b)


def _moved(bound, shift, sign=1):
    """sign * bound + shift; an unbounded end (None) stays unbounded."""
    return None if bound is None else sign * bound + shift


@dataclass(frozen=True)
class SupportMeta:
    """Exactness bookkeeping for one spectral variable (doubled degrees).

    natural_lo/hi bound the true series support (None = unbounded);
    trunc_lo/hi bound the region where stored coefficients are exact
    (None = exact arbitrarily far in that direction).  Each bound is
    stated by one rule: the tightest given (_tightest), the loosest support
    (_loosest), or a bounded end moved (_moved).
    """

    natural_lo: int = None
    natural_hi: int = None
    trunc_lo: int = None
    trunc_hi: int = None

    def exact_window(self):
        """(lo, hi) of the informative comparison region; None = unbounded."""
        return (_tightest(max, self.natural_lo, self.trunc_lo),
                _tightest(min, self.natural_hi, self.trunc_hi))

    def require_nonvacuous(self, what):
        lo, hi = self.exact_window()
        if lo is not None and hi is not None and hi < lo:
            raise ValueError(
                f"{what}: safe comparison window is empty "
                f"(degrees [{lo/2:g}, {hi/2:g}]); increase the window"
            )

    def shifted(self, lo_shift, hi_shift):
        """Meta after multiplying by a scalar whose degrees span
        [lo_shift, hi_shift] in this variable."""
        return SupportMeta(
            _moved(self.natural_lo, lo_shift), _moved(self.natural_hi, hi_shift),
            _moved(self.trunc_lo, hi_shift), _moved(self.trunc_hi, lo_shift),
        )

    def added(self, other):
        return SupportMeta(
            _loosest(min, self.natural_lo, other.natural_lo),
            _loosest(max, self.natural_hi, other.natural_hi),
            _tightest(max, self.trunc_lo, other.trunc_lo),
            _tightest(min, self.trunc_hi, other.trunc_hi),
        )

    def inverted(self):
        ends = (self.natural_hi, self.natural_lo, self.trunc_hi, self.trunc_lo)
        return SupportMeta(*(_moved(v, 0, -1) for v in ends))


_FULL = SupportMeta()


class CurrentMat:
    """Matrix of truncated Lie-algebra-valued series.

    entries[(i, j)] maps doubled degree tuples (aligned with spectral_vars)
    to LieElt coefficients; metas holds one SupportMeta per spectral var.
    """

    __slots__ = ("legs", "spectral_vars", "entries", "metas")

    def __init__(self, legs, spectral_vars, entries=None, metas=None):
        if type(legs) is not int or legs < 0:
            raise ValueError(f"legs must be a non-negative int, not {legs!r}")
        dim = 2 ** legs
        self.legs = legs
        self.spectral_vars = tuple(spectral_vars)
        self.entries = {}
        if entries:
            for pos, coeffs in entries.items():
                if not (
                    type(pos) is tuple
                    and len(pos) == 2
                    and all(type(i) is int and 0 <= i < dim for i in pos)
                ):
                    raise ValueError(
                        f"a {legs}-leg matrix has no entry at {pos!r} "
                        f"(positions are (row, column) in range({dim}))"
                    )
                cleaned = {deg: lie for deg, lie in coeffs.items() if lie}
                if cleaned:
                    self.entries[pos] = cleaned
        self.metas = tuple(metas) if metas is not None else (_FULL,) * len(self.spectral_vars)
        if len(self.metas) != len(self.spectral_vars):
            raise ValueError(
                f"{len(self.metas)} support metas for "
                f"{len(self.spectral_vars)} spectral variables"
            )

    @property
    def dim(self):
        return 2 ** self.legs

    def entry(self, i, j):
        return self.entries.get((i, j), {})

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        """self + other: each coefficient both operands hold is merged by
        one kernel call."""
        if not isinstance(other, CurrentMat):
            return NotImplemented
        if other.legs != self.legs or other.spectral_vars != self.spectral_vars:
            raise ValueError(
                f"shape mismatch: {self.legs} legs over {_names(self.spectral_vars)} "
                f"and {other.legs} legs over {_names(other.spectral_vars)}"
            )
        out = {pos: dict(coeffs) for pos, coeffs in self.entries.items()}
        for pos, coeffs in other.entries.items():
            tgt = out.setdefault(pos, {})
            for deg, lie in coeffs.items():
                prev = tgt.get(deg)
                if prev is None:
                    tgt[deg] = lie
                else:
                    terms = dict(prev.terms)
                    _addlin(terms, lie.terms)
                    tgt[deg] = LieElt.from_dict(terms)
        metas = tuple(a.added(b) for a, b in zip(self.metas, other.metas))
        return CurrentMat(self.legs, self.spectral_vars, out, metas)

    def transpose(self):
        out = {(j, i): coeffs for (i, j), coeffs in self.entries.items()}
        return CurrentMat(self.legs, self.spectral_vars, out, self.metas)

    def invert_variable(self, v):
        i = self.spectral_vars.index(v)
        out = {}
        for pos, coeffs in self.entries.items():
            out[pos] = {
                deg[:i] + (-deg[i],) + deg[i + 1 :]: lie for deg, lie in coeffs.items()
            }
        metas = tuple(
            m.inverted() if k == i else m for k, m in enumerate(self.metas)
        )
        return CurrentMat(self.legs, self.spectral_vars, out, metas)

    # -- scalar polynomial action ------------------------------------------------

    def _split_poly(self, p):
        """Split p into (degree shift over spectral_vars, leftover parameter
        polynomial or, when constant, its scalar) pairs."""
        for v in p.variables:
            if v.kind == "spectral" and v not in self.spectral_vars:
                raise ValueError(f"scalar uses foreign spectral variable {v.name}")
        return list(p.split(self.spectral_vars).items())

    def _times(self, rows, current_on_left):
        """The product with a scalar matrix (see _mixed_mul), as a current."""
        out = {}
        metas = self._mixed_mul(rows, current_on_left, out)
        return CurrentMat(self.legs, self.spectral_vars, _wrap(out), metas)

    def _mixed_mul(self, rows, current_on_left, out, sign=1):
        """Add sign times the product with a dense scalar matrix (list of
        lists of LaurentPoly, None for zero) into out, a {pos: {deg: term
        dict}} the caller owns, and return the product's metas: self's,
        shifted by the exact degree span of the nonzero entries."""
        dim = self.dim
        if len(rows) != dim:
            raise ValueError(f"a {self.legs}-leg current needs {dim} rows, not {len(rows)}")
        split = [[None] * dim for _ in range(dim)]
        spans = []
        for i in range(dim):
            for j in range(dim):
                p = rows[i][j]
                if p is None or p.is_zero():
                    continue
                split[i][j] = [(shift, mono * sign) for shift, mono in self._split_poly(p)]
                spans.append([p.degree_range(v) or (0, 0) for v in self.spectral_vars])
        for (i, j), coeffs in self.entries.items():
            for k in range(dim):
                parts = split[j][k] if current_on_left else split[k][i]
                if parts is None:
                    continue
                pos = (i, k) if current_on_left else (k, j)
                tgt = out.setdefault(pos, {})
                for deg, lie in coeffs.items():
                    for shift, mono in parts:
                        nd = tuple(map(add, deg, shift))
                        terms = tgt.get(nd)
                        if terms is None:
                            terms = tgt[nd] = {}
                        _addlin(terms, lie.terms, mono)
        span = [
            (min(lo for lo, _ in col), max(hi for _, hi in col)) for col in zip(*spans)
        ] or [(0, 0)] * len(self.spectral_vars)
        return tuple(m.shifted(lo, hi) for m, (lo, hi) in zip(self.metas, span))

    # -- reshaping -------------------------------------------------------------

    def with_spectral_vars(self, new_vars):
        new_vars = tuple(new_vars)
        pos_map = []
        for v in self.spectral_vars:
            pos_map.append(new_vars.index(v))
        out = {}
        n = len(new_vars)
        for pos, coeffs in self.entries.items():
            tgt = {}
            for deg, lie in coeffs.items():
                nd = [0] * n
                for p, d in zip(pos_map, deg):
                    nd[p] = d
                tgt[tuple(nd)] = lie
            out[pos] = tgt
        metas = [_FULL] * n
        for v, m in zip(self.spectral_vars, self.metas):
            metas[new_vars.index(v)] = m
        # a variable absent from the data is a finite constant in it
        for k, v in enumerate(new_vars):
            if v not in self.spectral_vars:
                metas[k] = SupportMeta(0, 0, None, None)
        return CurrentMat(self.legs, new_vars, out, metas)

    def embed(self, legs, total_legs):
        """Tensor with identities, acting on the listed legs (1-based)."""
        table = embed_indices(legs, self.legs, total_legs)
        out = {}
        for (a, b), coeffs in self.entries.items():
            for pos in zip(table[a], table[b]):
                out[pos] = dict(coeffs)
        return CurrentMat(total_legs, self.spectral_vars, out, self.metas)


def _wrap(out):
    """{pos: {deg: term dict}} as CurrentMat entries: each nonzero term
    dict becomes a LieElt, and a position left with none is dropped."""
    wrapped = {}
    for pos, coeffs in out.items():
        lies = {deg: LieElt.from_dict(terms) for deg, terms in coeffs.items() if terms}
        if lies:
            wrapped[pos] = lies
    return wrapped


def series_bracket(a, b, product=_basis_bracket):
    """Entrywise bracket [a_1, b_2] of currents on independent legs.

    The result acts on a.legs + b.legs legs and its degree tuples
    concatenate the operands' (the spectral variables must be disjoint).
    product is the bracket of two basis keys, as (key, coefficient) pairs,
    which every pair of coefficients extends bilinearly into one term dict
    per entry and degree: the mode-algebra one by default, and the
    abstract families pass onsager._pair_bracket.
    """
    if set(a.spectral_vars) & set(b.spectral_vars):
        raise ValueError("series_bracket needs disjoint spectral variables")
    table = embed_indices(range(1, a.legs + 1), a.legs, a.legs + b.legs)
    out = {}
    for (ia, ja), ca in a.entries.items():
        for (ib, jb), cb in b.entries.items():
            tgt = out.setdefault((table[ia][ib], table[ja][jb]), {})
            for da, la in ca.items():
                for db, lb in cb.items():
                    d = da + db
                    terms = tgt.get(d)
                    if terms is None:
                        terms = tgt[d] = {}
                    _addbilin(terms, la.terms, lb.terms, product)
    return CurrentMat(
        a.legs + b.legs,
        a.spectral_vars + b.spectral_vars,
        _wrap(out),
        a.metas + b.metas,
    )


# -- concrete currents ----------------------------------------------------------


# A matrix of generating series as table rows: position -> (coefficient,
# letter), and letter -> (generator, index sign, first n, zero mode
# halved).  A letter's series is the sum over first <= n of
# generator[index sign * n] x^n, its n = 0 coefficient halved if so
# marked; onsager._CURRENTS and _B_CURRENTS give each family's currents and
# abstract B(x) in this format.  Here are T+(x) and T-(1/x).
_T_CURRENTS = {
    "+": {"H": ("H", 1, 0, True), "E": ("E", 1, 1, False), "F": ("F", 1, 0, False)},
    "-": {"H": ("H", -1, 0, True), "E": ("E", -1, 0, False), "F": ("F", -1, 1, False)},
}
_T_ROWS = {
    "+": {(0, 0): (1, "H"), (0, 1): (2, "F"), (1, 0): (2, "E"), (1, 1): (-1, "H")},
    "-": {(0, 0): (-1, "H"), (0, 1): (-2, "F"), (1, 0): (-2, "E"), (1, 1): (1, "H")},
}


def _coefficient(rows, letters, element, pos, n):
    """The degree-n coefficient of the series at pos that rows and letters
    describe (see _T_ROWS), built by element(gen, mode, coeff); None where
    the series is zero, below its letter's first n.  The index is sign * n,
    and the coefficient is halved at n = 0 where the letter says so."""
    k, letter = rows[pos]
    gen, sign, first, halved = letters[letter]
    if n < first:
        return None
    return element(gen, sign * n, k * rat(1, 2) if halved and n == 0 else k)


def _series(rows, letters, element, window, x):
    """The 1-leg matrix of generating series that rows and letters describe
    (see _T_ROWS), each series truncated at degree window in x, its
    coefficients read by _coefficient; element(gen, mode, coeff) builds
    one coefficient."""
    if window < 0:
        raise ValueError(f"window must be >= 0, not {window}")
    if x is None:
        x = spectral("x")
    elif not (isinstance(x, Variable) and x.kind == "spectral"):
        raise ValueError(f"a series needs x to be a spectral Variable, not {x!r}")
    entries, metas = {}, []
    for pos, (_, letter) in rows.items():
        first = letters[letter][2]
        entries[pos] = {
            (2 * n,): _coefficient(rows, letters, element, pos, n)
            for n in range(first, window + 1)
        }
        metas.append(SupportMeta(2 * first, None, None, 2 * window))
    return CurrentMat(1, (x,), entries, (reduce(SupportMeta.added, metas),))


def _mode_element(gen, mode, coeff):
    return LieElt.single(BasisSymbol(gen, mode), coeff)


def build_T(sign, window, x=None):
    """The generating current T^+(x) or T^-(x), truncated at |degree| <= window."""
    if sign not in _T_ROWS:
        raise ValueError(f"sign must be '+' or '-', not {sign!r}")
    t = _series(_T_ROWS[sign], _T_CURRENTS[sign], _mode_element, window, x)
    return t if sign == "+" else t.invert_variable(t.spectral_vars[0])


def _c_unit(scale, legs, spectral_vars):
    """The current scale * c times the identity: constant in every
    spectral variable."""
    zero = (0,) * len(spectral_vars)
    return CurrentMat(
        legs,
        spectral_vars,
        {(i, i): {zero: LieElt.single(C, scale)} for i in range(2 ** legs)},
        (SupportMeta(0, 0),) * len(spectral_vars),
    )


class Realization(NamedTuple):
    """One realization of an Onsager-type family in the mode algebra: the
    family whose generators it realizes; its image, an affine map on their
    letters (kacmoody._affine_image); fixing, the kacmoody._MAPS involution
    that fixes it pointwise; boundary, K(x)'s tensormat family and the
    parameters pinned there; lowest, the doubled degree B(x) starts at (see
    build_B); gauge, the doubled degrees of D's diagonal, where build_B is
    D phi(B_abs) D^-1 (see _realizes); and m, the tensormat M family
    weighting the linear charges (envelope), None for a row without charges
    of its own."""

    family: str
    image: dict
    fixing: str
    boundary: tuple
    lowest: int
    gauge: tuple
    m: str


# Every realization, one row each; kappa_minus is a second embedding of the
# invariant family, shifted by the translation automorphism, and its B(x)
# is the image of the invariant abstract B(x) gauged by D = diag(1, x).
REALIZATIONS = {
    "onsager": Realization(
        "onsager", {"A": (((2, "E", 1, 0), (2, "F", -1, 0)), 0),
                    "G": (((1, "H", 1, 0), (-1, "H", -1, 0)), 0)},
        "theta1", ("U_diag", {"k": 1, "kstar": 1}), 0, (0, 0), "M_ons"),
    "augmented": Realization(
        "augmented", {"K": (((1, "H", 1, 0), (1, "H", -1, 0)), 1),
                      "Z+": (((2, "E", 1, 0), (2, "E", -1, 1)), 0),
                      "Z-": (((2, "F", 1, 0), (2, "F", -1, -1)), 0)},
        "theta2", ("U_offdiag", {"sign": -1}), 0, (0, 0), "M_aug"),
    "invariant": Realization(
        "invariant", {"H": (((1, "H", 1, 0), (1, "H", -1, 0)), 0),
                      "E": (((1, "E", 1, 0), (1, "E", -1, 0)), 0),
                      "F": (((1, "F", 1, 0), (1, "F", -1, 0)), 0)},
        "lusztig_plus", ("kappa_plus", None), 0, (0, 0), "M_inv"),
    "kappa_minus": Realization(
        "invariant", {"H": (((1, "H", 1, 0), (1, "H", -1, 0)), 2),
                      "E": (((1, "E", 1, 1), (1, "E", -1, 1)), 0),
                      "F": (((1, "F", 1, -1), (1, "F", -1, -1)), 0)},
        "lusztig_minus", ("kappa_minus", None), -2, (0, 2), None),
}


def _unknown_family(family, choices):
    return f"unknown family {family!r} (choose from {', '.join(choices)})"


def _row(table, family):
    """table[family]; an unknown family raises, naming the table's families."""
    if family not in table:
        raise ValueError(_unknown_family(family, table))
    return table[family]


def boundary_for(family, x):
    """K(x) of the realization family (REALIZATIONS)."""
    k, params = _row(REALIZATIONS, family).boundary
    return build_boundary(k, params, x=x)


def build_B(family, window, x=None):
    """B(x) = T+(x) + k(x) T-(1/x)^t k(x)^-1 - c x k'(x) k(x)^-1, truncated.

    Keeps window+1 exact coefficients starting at the family's lowest degree.
    T+ and T- are built one degree past the window, the margin the first
    post-condition below needs: built at the window itself, they fall
    short for augmented and kappa_minus.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, not {window}")
    if x is None:
        x = spectral("x")
    b = boundary_for(family, x)
    margin = window + 1
    tp = build_T("+", margin, x)
    # T-(1/x)^t
    tm = _series(_T_ROWS["-"], _T_CURRENTS["-"], _mode_element, margin, x).transpose()
    # the boundary families and their inverses are polynomial
    kinv = b.mat.inverse_2x2()
    conj = tm._times(b.mat.cleared(()), False)._times(kinv.cleared(()), True)
    # central term: -c x k'(x) k(x)^-1
    xk_rows = (b.derivative() @ kinv).scale(LaurentPoly.var(x)).cleared(())
    total = tp + conj + _c_unit(-1, 1, (x,))._times(xk_rows, True)
    nat_lo = REALIZATIONS[family].lowest
    hi = nat_lo + 2 * window
    trunc_hi = total.metas[0].trunc_hi
    # Post-conditions of the construction above, which hold for every valid
    # input, so a failure is a bug here and not bad input: the margin keeps
    # the exact region past the window, and B(x) starts at the family's
    # lowest degree: some entry has a term there, and everything below it
    # cancels (checked before the degrees past hi are dropped).
    call = f"build_B({family!r}, window={window})"
    if trunc_hi is not None and trunc_hi < hi:
        raise ValueError(f"{call} is exact only up to degree {trunc_hi}, not {hi}")
    if not any((nat_lo,) in coeffs for coeffs in total.entries.values()):
        raise ValueError(f"{call} has no term at the family's lowest degree {nat_lo}")
    entries = {}
    for pos, coeffs in total.entries.items():
        low = min((d[0] for d in coeffs), default=nat_lo)
        if low < nat_lo:
            raise ValueError(f"{call} has degree {low} at entry {pos}, "
                             f"below the family's lowest degree {nat_lo}")
        entries[pos] = {d: lie for d, lie in coeffs.items() if d[0] <= hi}
    return CurrentMat(1, (x,), entries, (SupportMeta(nat_lo, None, None, hi),))


# -- clearing and comparison -------------------------------------------------------


def _fmt_window(v, w):
    lo, hi = w
    lo = "-inf" if lo is None else f"{lo // 2}" if lo % 2 == 0 else f"{lo}/2"
    hi = "+inf" if hi is None else f"{hi // 2}" if hi % 2 == 0 else f"{hi}/2"
    return f"{v.name} in [{lo}, {hi}]"


def _compare(res, tag, diff):
    """Add every coefficient of the residual current diff on its safe
    window to res, at positions prefixed by tag, and return the window as
    a string.

    The window is the exact window of diff's metas per spectral variable;
    raises ValueError if it is empty.
    """
    windows = []
    for v, m in zip(diff.spectral_vars, diff.metas):
        m.require_nonvacuous(f"variable {v.name}")
        windows.append(m.exact_window())
    prefix = f"{tag} " if tag else ""
    for pos in sorted(diff.entries):
        coeffs = diff.entries[pos]
        for deg in sorted(coeffs):
            if all(
                (lo is None or d >= lo) and (hi is None or d <= hi)
                for d, (lo, hi) in zip(deg, windows)
            ):
                nd = tuple(d / 2 if d % 2 else d // 2 for d in deg)
                res.add(coeffs[deg], "{}entry {}, degree {}", prefix, pos, nd)
    return ", ".join(_fmt_window(v, w) for v, w in zip(diff.spectral_vars, windows))


def _exchange(res, tag, a, b, product, clearing, commutators, central=None, premise=None):
    """Add the residual of one exchange relation to res (see _compare) and
    return the compared region.  For 1-leg currents a(x) and b(y) and
    commutators ((s1, rows1), (s2, rows2)), the residual

        prod(clearing) * [a1, b2] - s1 [a1, rows1] - s2 [b2, rows2] - central

    is built in one {pos: {deg: term dict}} through _mixed_mul.  [a1, b2]
    is series_bracket(a, b, product), the rows are scalar matrices cleared
    by clearing, and central, if given, is a pair (current, rows) meaning
    their product.  With premise, the metas of a residual a premise proves
    zero on their window, in place of product, that residual stands for the bracket.
    """
    vars2 = a.spectral_vars + b.spectral_vars
    out = {}
    clear = complement((), clearing)
    scalar = [[clear if i == j else None for j in range(4)] for i in range(4)]
    metas = [premise or series_bracket(a, b, product)._mixed_mul(scalar, True, out)]
    a1 = a.embed((1,), 2).with_spectral_vars(vars2)
    b2 = b.embed((2,), 2).with_spectral_vars(vars2)
    for cur, (sign, rows) in zip((a1, b2), commutators):
        metas.append(cur._mixed_mul(rows, True, out, -sign))
        metas.append(cur._mixed_mul(rows, False, out, sign))
    if central is not None:
        cur, rows = central
        metas.append(cur._mixed_mul(rows, True, out, -1))
    metas = tuple(reduce(SupportMeta.added, col) for col in zip(*metas))
    return _compare(res, tag, CurrentMat(2, vars2, _wrap(out), metas))


# -- the defining relations ----------------------------------------------------------


def check_frt_relations(window, omit_central=False):
    """The three defining exchange relations of the double current algebra,
    including the central extension term (set omit_central to confirm the
    check catches its absence).  That c is central is
    kacmoody.check_serre_chevalley's, decided at every mode."""
    if window < MIN_WINDOW:
        raise ValueError(
            f"window must be >= {MIN_WINDOW}: the mixed relation compares degrees "
            f"of y in [-window+2, 0], which is too thin at window {window}"
        )
    x, y = spectral("x"), spectral("y")
    tp_x, tm_x = build_T("+", window, x), build_T("-", window, x)
    tp_y, tm_y = build_T("+", window, y), build_T("-", window, y)
    vars2 = (x, y)
    u = spectral("u")
    r = build_r(u)
    at = {u: LaurentPoly.monomial((x, y), (2, -2), 1)}
    r_xy = r.substitute(at)
    xy = LaurentPoly.var(x) - LaurentPoly.var(y)
    res = Residuals()
    regions = []

    def one_relation(tag, ta, tb, clearing, central):
        # [ta1, tb2] = [ta1 + tb2, r12(x/y)] + central
        rows = r_xy.cleared(clearing)
        commutators = ((1, rows), (1, rows))
        region = _exchange(res, tag, ta, tb, _basis_bracket, clearing, commutators, central)
        regions.append(f"{tag}: {region}")

    # the mixed relation's central correction -2c (x/y) r'(x/y) has a
    # double pole at x = y
    mixed = [xy, xy]
    central = (_c_unit(-2, 2, vars2), u_derivative(r).substitute(at).cleared(mixed))
    one_relation("[T+,T+]", tp_x, tp_y, [xy], None)
    one_relation("[T-,T-]", tm_x, tm_y, [xy], None)
    one_relation("[T+,T-]", tp_x, tm_y, mixed, None if omit_central else central)
    return res.report(
        "frt_relations" + ("[no central term]" if omit_central else ""),
        "; ".join(regions),
    )


def _rbar(family):
    """rbar(x, y) of family's boundary (REALIZATIONS), x and y spectral."""
    x = spectral("x")
    return build_rbar(boundary_for(family, x), x, spectral("y"))


def _reflection(res, window, b, rbar, product, premise=None):
    """Check [B1(x), B2(y)] = [rbar21(y,x), B1(x)] + [B2(y), rbar12(x,y)]
    for B(x) given as b, B(y) its copy in y, and a reflected r-matrix rbar(x,
    y) (see _rbar), after clearing (x - y)(xy - 1); add the residual to res
    and return the compared region.  product brackets the coefficients of
    B, or premise stands for the bracket (see _exchange)."""
    if window < MIN_WINDOW:
        raise ValueError(f"window must be >= {MIN_WINDOW} for a meaningful comparison")
    x, y = spectral("x"), spectral("y")
    xx, yy = LaurentPoly.var(x), LaurentPoly.var(y)
    clearing = [xx - yy, xx * yy - 1]
    rbar21 = leg_embed(rbar.substitute({x: yy, y: xx}), (2, 1), 2)
    commutators = ((-1, rbar21.cleared(clearing)), (1, rbar.cleared(clearing)))
    by = CurrentMat(1, (y,), b.entries, b.metas)
    return _exchange(res, "", b, by, product, clearing, commutators, premise=premise)


def _gauged(g):
    """D1(x) D2(y) for D = diag(x^(g0/2), x^(g1/2)), g doubled degrees."""
    d = [TensorMat(1, [[LaurentPoly.monomial((v,), (e,), 1) if i == j else 0 for j, e in
                        enumerate(g)] for i in range(2)], (v,)) for v in map(spectral, "xy")]
    return leg_embed(d[0], (1,), 2) @ leg_embed(d[1], (2,), 2)


def _realizes(res, family, b):
    """Add to res build_B(family), given as b, minus D phi(B_abs) D^-1 on
    b's exact window (see _compare), and return the region: phi is the
    row's image, B_abs its family's abstract B(x), and D = diag(x^(g0/2),
    x^(g1/2)) for its gauge (g0, g1) moves entry (i, j) by gi - gj."""
    from .onsager import build_abstract_B, morphism_image  # onsager imports this module

    row, x = REALIZATIONS[family], b.spectral_vars[0]
    g, phi = row.gauge, partial(morphism_image, family)
    want = build_abstract_B(row.family, (b.metas[0].trunc_hi + max(g) - min(g) + 1) // 2, x)
    neg = {(i, j): {(d + g[i] - g[j],): -elt.linear(phi) for (d,), elt in coeffs.items()}
           for (i, j), coeffs in want.entries.items()}
    region = _compare(res, "realized B", b + CurrentMat(1, (x,), neg, b.metas))
    d = ", ".join("1" if e == 0 else "x" if e == 2 else f"x^({e}/2)" for e in g)
    return f"B = {f'D phi(B_abs) D^-1, D = diag({d}),' if any(g) else 'phi(B_abs)'} on {region}"


def check_exchange(family, window, rbar_family=None):
    """The exchange relation [B1(x), B2(y)] = [rbar21(y,x), B1(x)] + [B2(y),
    rbar12(x,y)] of the realized B of build_B, cleared by (x - y)(xy - 1),
    derived by transport from the premises its region names:
    current_relations[F] (F the row's family) at this window, carried by
    morphism[family] and conjugated by the gauge D1(x) D2(y).  Given them,
    the realized residual is -[dR21, B1(x)] - [B2(y), dR12] for dR = rbar -
    D1 D2 rbar[F] (D1 D2)^-1, rbar that of rbar_family (by default family),
    and only that is built, on the premise's window moved by the gauge: dR
    is 0 on the four rows (for kappa_minus, the gauge identity).  B = D
    phi(B_abs) D^-1 (see _realizes) ties B to its family (x K(x) fails)."""
    row, used = _row(REALIZATIONS, family), rbar_family or family
    g, spread = row.gauge, max(row.gauge) - min(row.gauge)
    premise_rbar = _rbar(row.family)
    moved = _gauged(g) @ premise_rbar @ _gauged([-e for e in g])
    delta = (premise_rbar if used == row.family else _rbar(used)) - moved
    # current_relations[F] compares [0, window]; its residual has no term below 0
    premise = (SupportMeta(0, None, None, 2 * window).shifted(-spread, spread),) * 2
    res, b = Residuals(), build_B(family, window)
    region = _reflection(res, window, b, delta, None, premise)
    premises = f"current_relations[{row.family}] at window {window}" + (
        f", morphism[{family}] and the gauge D" if spread else f" and morphism[{family}]")
    region += f" by transport from {premises}; " + _realizes(res, family, b)
    tag = f"exchange[{family}]"
    if rbar_family and rbar_family != family:
        tag += f"[rbar from {rbar_family}]"
    return res.report(tag, region)
