"""Matrices over exact rational functions on tensor products of C^2 legs.

A TensorMat keeps one shared denominator as a multiset of canonical
polynomial factors and a dense numerator array; sums take the least
common multiple of the factor multisets, products concatenate them, and
only check_nscybe takes a gcd (exactalg.content_in).  TensorMat is the
only rational-function value: a trace is a numerator over its factors.
Every clearing, here and in currents, goes through exactalg.complement.

Matrix arithmetic runs on exactalg._addmul, the one product kernel: each
entry of a product (the sum over k of a_ik b_kj) and of a sum or
difference (a pa +- b pb) accumulates in one term dict, with no
intermediate polynomial, and becomes a LaurentPoly through exactalg._poly,
which normalises it as it does every polynomial term dict.  Traces add
entries with +.  commutator_sum adds several commutators over one
denominator; the identity checks call it once each.  All identity checks
in this module are exact symbolic computations.

The numerators of r(u), _R_ROWS, and the boundary families, _BOUNDARY, are
table rows of monomials, read by the one reader _rows.
"""

from .exactalg import (
    _SCALAR_TYPES,
    LaurentPoly,
    _addmul,
    _check_bound,
    _poly,
    Variable,
    accumulate,
    complement,
    content_in,
    factor_canonical,
    factor_lcm,
    parameter,
    rat,
    spectral,
)
from .report import CheckReport, Residuals

__all__ = [
    "TensorMat",
    "BoundaryMat",
    "commutator_sum",
    "CheckReport",
    "build_r",
    "embed_indices",
    "leg_embed",
    "partial_transpose",
    "trace_leg",
    "check_cybe",
    "check_r_symmetries",
    "u_derivative",
    "build_boundary",
    "check_U_conditions",
    "check_reflection",
    "build_rbar",
    "check_nscybe",
    "check_M_condition",
    "BOUNDARY_FAMILIES",
]


def _merge_vars(a, b):
    return tuple(a) + tuple(v for v in b if v not in a)


def _sort_factors(factors):
    # str ranks variables by name, so the order never depends on slots
    return tuple(sorted(factors, key=str))


# -- the fused kernel: every entry accumulates in one term dict ------------------


def _grid(dim):
    return [[{} for _ in range(dim)] for _ in range(dim)]


def _terms(m):
    return [[n.terms for n in row] for row in m.nums]


def _max_bound(m):
    """The largest exponent bound over m's nonzero numerators."""
    return max((n._bound for row in m.nums for n in row if n.terms), default=0)


def _add_product(acc, a, b, sign=1):
    """Add sign * (a.nums @ b.nums) into acc, a grid of term dicts."""
    bnums = b.nums
    for arow, out_row in zip(a.nums, acc):
        for x, brow in zip(arow, bnums):
            xt = x.terms
            if xt:
                for out, y in zip(out_row, brow):
                    if y.terms:
                        _addmul(out, xt, y.terms, sign)


def _add_scaled(acc, rows, p, sign=1):
    """Add sign * n * p into acc for every term dict n of rows."""
    for out_row, row in zip(acc, rows):
        for out, n in zip(out_row, row):
            if n:
                _addmul(out, n, p, sign)


def _finish(acc, bound):
    """LaurentPoly rows over a grid of accumulated term dicts."""
    return [[_poly(out, bound) for out in row] for row in acc]


class TensorMat:
    """Square matrix on (C^2)^{legs} with rational-function entries.

    Stored as numerator polynomials (nums) over one shared denominator, a
    sorted multiset of canonical factors (den_factors).  The constructor
    takes scalar or LaurentPoly entries and no denominator; rational
    matrices come from arithmetic and from _raw.  cleared() turns a matrix
    into polynomial rows, and trace() is a numerator over den_factors.
    variables is the matrix's ordered argument tuple (build_rbar puts its
    (x, y) first); the polynomials themselves carry no context.
    """

    __slots__ = ("legs", "variables", "nums", "den_factors")

    def __init__(self, legs, entries=None, variables=()):
        if type(legs) is not int or legs < 0:
            raise ValueError(f"legs must be a non-negative int, not {legs!r}")
        dim = 2 ** legs
        self.legs = legs
        self.variables = tuple(variables)
        self.den_factors = ()
        if entries is None:
            self.nums = [[LaurentPoly.zero() for _ in range(dim)] for _ in range(dim)]
            return
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise ValueError(f"a {legs}-leg matrix needs {dim} rows of {dim} entries")
        self.nums = [
            [e if isinstance(e, LaurentPoly) else LaurentPoly.const(e) for e in row]
            for row in entries
        ]

    @classmethod
    def _raw(cls, legs, variables, nums, den_factors):
        m = cls.__new__(cls)
        m.legs = legs
        m.variables = tuple(variables)
        m.nums = nums
        m.den_factors = _sort_factors(den_factors)
        return m

    @property
    def dim(self):
        return 2 ** self.legs

    def denominator(self):
        """The product of the denominator factors."""
        return complement((), self.den_factors)

    def cleared(self, clearing):
        """The numerator rows times prod(clearing) / denominator.

        clearing is a multiset of canonical factors; raises ValueError if
        it lacks one of den_factors, so cleared(()) is the check that the
        matrix is polynomial.
        """
        comp = complement(self.den_factors, clearing)
        return [[n * comp for n in row] for row in self.nums]

    def is_zero(self):
        return all(n.is_zero() for row in self.nums for n in row)

    def term_count(self):
        return sum(len(n.terms) for row in self.nums for n in row)

    # -- ring operations --------------------------------------------------------

    def _match_legs(self, other):
        if other.legs != self.legs:
            raise ValueError(f"leg mismatch: {self.legs} and {other.legs} legs")

    def _combine(self, other, sign):
        """self + sign * other: each entry a * pa + sign * b * pb in one
        dict, where pa and pb complete each denominator to their lcm."""
        if not isinstance(other, TensorMat):
            return NotImplemented
        self._match_legs(other)
        den = factor_lcm(self.den_factors, other.den_factors)
        pa = complement(self.den_factors, den)
        pb = complement(other.den_factors, den)
        bound = max(_max_bound(self) + pa._bound, _max_bound(other) + pb._bound)
        _check_bound(bound)
        acc = _grid(self.dim)
        _add_scaled(acc, _terms(self), pa.terms)
        _add_scaled(acc, _terms(other), pb.terms, sign)
        return TensorMat._raw(
            self.legs,
            _merge_vars(self.variables, other.variables),
            _finish(acc, bound),
            den,
        )

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __matmul__(self, other):
        """Each entry's sum over k of a_ik * b_kj accumulates in one dict."""
        if not isinstance(other, TensorMat):
            return NotImplemented
        self._match_legs(other)
        bound = _max_bound(self) + _max_bound(other)
        _check_bound(bound)
        acc = _grid(self.dim)
        _add_product(acc, self, other)
        return TensorMat._raw(
            self.legs,
            _merge_vars(self.variables, other.variables),
            _finish(acc, bound),
            self.den_factors + other.den_factors,
        )

    def scale(self, s):
        """Multiply by a scalar or a LaurentPoly."""
        if not isinstance(s, (LaurentPoly,) + _SCALAR_TYPES):
            raise TypeError(f"scale takes a scalar or a LaurentPoly, not {s!r}")
        nums = [[n * s for n in row] for row in self.nums]
        variables = self.variables
        if isinstance(s, LaurentPoly):
            variables = _merge_vars(variables, s.variables)
        return TensorMat._raw(self.legs, variables, nums, self.den_factors)

    def commutator(self, other):
        """[self, other]; see commutator_sum."""
        return commutator_sum([(self, other)])

    # -- index gymnastics ---------------------------------------------------------

    def transpose(self):
        dim = self.dim
        nums = [[self.nums[j][i] for j in range(dim)] for i in range(dim)]
        return TensorMat._raw(self.legs, self.variables, nums, self.den_factors)

    def substitute(self, assign):
        """Monomial substitution applied to numerators and denominator factors."""
        nums = [[n.substitute(assign) for n in row] for row in self.nums]
        den = []
        for f in self.den_factors:
            inv_unit, factors = factor_canonical(f.substitute(assign))
            nums = [[n * inv_unit for n in row] for row in nums]
            den.extend(factors)
        # each argument gives way to the variables of its image
        variables = ()
        for v in self.variables:
            img = assign.get(v)
            variables = _merge_vars(variables, (v,) if img is None else img.variables)
        return TensorMat._raw(self.legs, variables, nums, den)

    def inverse_2x2(self):
        """Inverse of a one-leg matrix via the adjugate."""
        if self.legs != 1:
            raise ValueError("inverse_2x2 needs a one-leg matrix")
        (a, b), (c, d) = self.nums
        det = a * d - b * c
        if det.is_zero():
            raise ValueError("singular matrix")
        inv_unit, factors = factor_canonical(det)
        dpoly = self.denominator()
        adj = [[d, -b], [-c, a]]
        nums = [[e * dpoly * inv_unit for e in row] for row in adj]
        return TensorMat._raw(1, self.variables, nums, tuple(factors))

    def trace(self):
        """The numerator of the trace; it lies over den_factors."""
        return sum((row[i] for i, row in enumerate(self.nums)), LaurentPoly.zero())


def commutator_sum(pairs):
    """The sum of [a, b] = a @ b - b @ a over the (a, b) in pairs.

    The denominator is the lcm of every pair's a.den_factors +
    b.den_factors, the multiset that the chain of pairwise commutators and
    sums gives, so the numerators are the chain's too.  Pairs with one
    multiset form a group: both products of each pair accumulate, and
    cancel, in one dict per entry, and the group sum is multiplied by its
    complement in the final denominator once.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("commutator_sum needs at least one pair")
    first = pairs[0][0]
    variables = ()
    groups = {}
    for a, b in pairs:
        if not (isinstance(a, TensorMat) and isinstance(b, TensorMat)):
            raise TypeError(f"commutator_sum takes pairs of TensorMat, not {a!r}, {b!r}")
        first._match_legs(a)
        first._match_legs(b)
        variables = _merge_vars(variables, _merge_vars(a.variables, b.variables))
        key = _sort_factors(a.den_factors + b.den_factors)
        groups.setdefault(key, []).append((a, b))
    den = factor_lcm(*groups)
    comps = {key: complement(key, den) for key in groups}
    bound = max(
        max(_max_bound(a) + _max_bound(b) for a, b in members) + comps[key]._bound
        for key, members in groups.items()
    )
    _check_bound(bound)
    acc = _grid(first.dim) if len(groups) > 1 else None
    for key, members in groups.items():
        group = _grid(first.dim)
        for a, b in members:
            _add_product(group, a, b)
            _add_product(group, b, a, -1)
        if acc is None:
            acc = group  # the only group: its complement is 1
        else:
            _add_scaled(acc, group, comps[key].terms)
    return TensorMat._raw(first.legs, variables, _finish(acc, bound), den)


def embed_indices(legs, sub_legs, total_legs):
    """Where a sub_legs-leg basis index lands among total_legs legs.

    legs lists the 1-based positions the sub_legs legs occupy, in order.
    Returns table with table[a][o] the index in (C^2)^{total_legs} of basis
    vector a on those legs tensored with basis vector o on the remaining
    legs, in increasing order.  Every index reads its legs leg-1-first: the
    first leg listed owns a's top bit, the first remaining leg o's, and leg
    1 the result's (the first Kronecker factor).  No other code splits an
    index into legs.
    """
    legs = tuple(legs)
    if len(legs) != sub_legs or len(set(legs)) != len(legs):
        raise ValueError(f"legs must list {sub_legs} distinct positions, not {legs}")
    if not all(1 <= p <= total_legs for p in legs):
        raise ValueError(f"leg positions must lie in 1..{total_legs}, not {legs}")
    rest = [p for p in range(1, total_legs + 1) if p not in legs]

    def spread(positions):  # bit t from the top goes to positions[t]
        top = len(positions) - 1
        return [
            sum(1 << (total_legs - p) for t, p in enumerate(positions) if (a >> (top - t)) & 1)
            for a in range(2 ** len(positions))
        ]

    return [[i | o for o in spread(rest)] for i in spread(legs)]


def leg_embed(m, legs, total_legs):
    """Embed m, acting on the listed legs (1-based), into total_legs spaces.

    legs may be any ordered tuple of distinct positions; a reversed pair
    realizes the swapped embedding, e.g. legs=(2, 1) turns r_12 into r_21.
    """
    table = embed_indices(legs, m.legs, total_legs)
    dim = 2 ** total_legs
    nums = [[LaurentPoly.zero() for _ in range(dim)] for _ in range(dim)]
    for a, row in enumerate(m.nums):
        for b, n in enumerate(row):
            if n.is_zero():
                continue
            for i, j in zip(table[a], table[b]):
                nums[i][j] = n
    return TensorMat._raw(total_legs, m.variables, nums, m.den_factors)


def _check_leg(m, leg):
    if not 1 <= leg <= m.legs:
        raise ValueError(f"leg {leg} is not in 1..{m.legs}")


def partial_transpose(m, leg):
    """Transpose the indices of one leg (1-based): entry (a o, b p) moves to
    (b o, a p), where a and b index the leg and o and p the other legs."""
    _check_leg(m, leg)
    table = embed_indices((leg,), 1, m.legs)
    nums = [[None] * m.dim for _ in range(m.dim)]
    for ra in table:
        for rb in table:
            for i, ib in zip(ra, rb):
                for j, ja in zip(rb, ra):
                    nums[ib][ja] = m.nums[i][j]
    return TensorMat._raw(m.legs, m.variables, nums, m.den_factors)


def trace_leg(m, leg):
    """Partial trace over one leg (1-based): entry (o, p) of the result, a
    matrix on the remaining legs, is the sum over a of entry (a o, a p)."""
    _check_leg(m, leg)
    zero, one = embed_indices((leg,), 1, m.legs)
    nums = [
        [m.nums[i0][j0] + m.nums[i1][j1] for j0, j1 in zip(zero, one)]
        for i0, i1 in zip(zero, one)
    ]
    return TensorMat._raw(m.legs - 1, m.variables, nums, m.den_factors)


# -- the r-matrix ------------------------------------------------------------------


# A matrix as table rows: position -> monomials (coefficient, parameter or
# None, doubled power of the spectral variable); a position not listed is 0.
_R_ROWS = {
    (0, 0): ((rat(-1, 2), None, 2), (rat(-1, 2), None, 0)),
    (1, 1): ((rat(1, 2), None, 2), (rat(1, 2), None, 0)),
    (1, 2): ((-2, None, 0),),
    (2, 1): ((-2, None, 2),),
    (2, 2): ((rat(1, 2), None, 2), (rat(1, 2), None, 0)),
    (3, 3): ((rat(-1, 2), None, 2), (rat(-1, 2), None, 0)),
}


def _rows(table, dim, x, value=None):
    """The dim x dim LaurentPoly rows that table describes in x (see
    _R_ROWS); value(name) is the polynomial of a parameter it names."""
    rows = [[LaurentPoly.zero()] * dim for _ in range(dim)]
    for (i, j), monomials in table.items():
        groups = {}  # the monomials of one parameter make one polynomial
        for c, name, e in monomials:
            accumulate(groups.setdefault(name, {}), (e,), c)
        for name, g in groups.items():
            p = LaurentPoly((x,), g) * (1 if name is None else value(name))
            rows[i][j] = rows[i][j] + p if rows[i][j] else p
    return rows


def build_r(u):
    """The 4x4 classical r-matrix r(u), _R_ROWS over u - 1: a simple pole at u=1."""
    if not (isinstance(u, Variable) and u.kind == "spectral"):
        raise ValueError(f"build_r needs a spectral Variable, not {u!r}")
    return TensorMat._raw(2, (u,), _rows(_R_ROWS, 4, u), (LaurentPoly.var(u) - 1,))


def _spectral_var(m):
    for v in m.variables:
        if v.kind == "spectral":
            return v
    raise ValueError("matrix has no spectral variable")


def _add_entries(res, mat, tag):
    """Record every nonzero numerator of mat as a residual."""
    for i, row in enumerate(mat.nums):
        for j, n in enumerate(row):
            res.add(n, "{}entry ({},{})", tag, i, j)


def _residual_report(name, mat, region):
    res = Residuals()
    _add_entries(res, mat, "")
    return res.report(name, region)


def _embed_at(m, assign, legs, total=3):
    """m with the substitution assign, embedded on the given legs of total."""
    return leg_embed(m.substitute(assign), legs, total)


def _quotients_at(m, u, pairs=((1, 3), (2, 3), (1, 2))):
    """m(xi/xj) embedded on legs (i, j) of three, for each (i, j) in pairs:
    by default r13, r23 and r12 of the CYBE."""
    return [
        _embed_at(m, {u: LaurentPoly.monomial((_leg_var(i), _leg_var(j)), (2, -2), 1)},
                  (i, j))
        for i, j in pairs
    ]


def _leg_var(i):
    return spectral(f"x{i}")


def check_cybe(r):
    """Verify [r13, r23] = [r13 + r23, r12] with arguments x1/x3, x2/x3, x1/x2."""
    r13, r23, r12 = _quotients_at(r, _spectral_var(r))
    delta = commutator_sum([(r13, r23), (r12, r13 + r23)])
    return _residual_report("cybe", delta, "symbolic in x1,x2,x3 (exact)")


def u_derivative(r):
    """f(u) = u r'(u) by the quotient rule, over r's denominator squared."""
    u = _spectral_var(r)
    den = r.denominator()
    dden = den.derivative(u)
    uu = LaurentPoly.var(u)
    nums = [[(n.derivative(u) * den - n * dden) * uu for n in row] for row in r.nums]
    return TensorMat._raw(r.legs, r.variables, nums, r.den_factors + r.den_factors)


def check_r_symmetries(r):
    """Skew symmetry, transpose symmetry, tracelessness and the derivative
    identity [f13 + f23, r12] = [f13, r23] + [r13, f23] with f(u) = u r'(u)."""
    u = _spectral_var(r)
    inv_u = LaurentPoly.monomial((u,), (-2,), 1)
    res = Residuals()

    r_inv = r.substitute({u: inv_u})
    # r12(u) + r21(1/u) = 0
    sk = r + leg_embed(r_inv, (2, 1), 2)
    # r12(u) + r12(1/u)^{t1 t2} = 0
    tr2 = r + partial_transpose(partial_transpose(r_inv, 1), 2)
    _add_entries(res, sk, "skew r21(1/u) ")
    _add_entries(res, tr2, "transpose t1t2 ")
    tr = r.trace()
    shown = f"({tr})/({r.denominator()})" if r.den_factors else tr
    res.add(shown, "trace", terms=len(tr.terms))

    # derivative identity; f = u r'(u) shares the CYBE argument pattern
    f13, f23 = _quotients_at(u_derivative(r), u, ((1, 3), (2, 3)))
    r13, r23, r12 = _quotients_at(r, u)
    delta = commutator_sum([(f13 + f23, r12), (r23, f13), (f23, r13)])
    _add_entries(res, delta, "derivative identity ")
    return res.report("r_symmetries", "symbolic (exact)")


# -- boundary matrices ---------------------------------------------------------------

# Each boundary family as a table row: its parameters, each with its
# default (None makes it symbolic), and its entries in the format of _R_ROWS.
_BOUNDARY = {
    "U_diag": ({"k": None, "kstar": None}, {(0, 0): ((1, "k", 0),), (1, 1): ((-1, "kstar", 0),)}),
    "U_offdiag": ({"sign": -1}, {(0, 1): ((1, None, -1),), (1, 0): ((1, "sign", 1),)}),
    "k_general": ({"alpha": None, "beta": None, "gamma": None, "delta": None},
                  {(0, 0): ((1, "alpha", 2), (-1, "alpha", -2)),
                   (0, 1): ((1, "beta", 0), (1, "gamma", -2)),
                   (1, 0): ((-1, "beta", 0), (-1, "gamma", 2)),
                   (1, 1): ((1, "delta", 2), (-1, "delta", -2))}),
    "kappa_plus": ({}, {(0, 1): ((1, None, 0),), (1, 0): ((-1, None, 0),)}),
    "kappa_minus": ({}, {(0, 1): ((1, None, -2),), (1, 0): ((-1, None, 2),)}),
    "M_ons": ({"kappa": None, "kappastar": None, "mu": None},
              {(0, 0): ((1, "mu", -2),), (0, 1): ((1, "kappa", 0), (1, "kappastar", -2)),
               (1, 0): ((1, "kappa", 0), (1, "kappastar", 2)), (1, 1): ((1, "mu", 2),)}),
    "M_aug": ({"tau": None, "nu": None, "nustar": None},
              {(0, 0): ((1, "tau", 0),), (0, 1): ((1, "nu", 0), (1, "nu", -2)),
               (1, 0): ((1, "nustar", 2), (1, "nustar", 0))}),
    "M_inv": ({"mu0": None, "mu1": None, "mu2": None},
              {(0, 0): ((1, "mu0", 0),), (0, 1): ((1, "mu1", 0),), (1, 0): ((1, "mu2", 0),)}),
}
BOUNDARY_FAMILIES = tuple(_BOUNDARY)


class BoundaryMat:
    """A 2x2 boundary matrix from one of the named families.

    Parameters default to symbolic; pass numbers in `params` to pin them.
    U_offdiag takes params={'sign': +1 or -1}; the minus sign is the default
    and is the variant whose transpose condition carries epsilon = -1.
    """

    __slots__ = ("family", "params", "mat", "x")

    def __init__(self, family, mat, x, params):
        self.family = family
        self.mat = mat
        self.x = x
        self.params = params

    def derivative(self):
        """Entrywise d/dx; raises ValueError if the matrix has a denominator
        (no boundary family has one)."""
        nums = [[n.derivative(self.x) for n in row] for row in self.mat.cleared(())]
        return TensorMat._raw(1, self.mat.variables, nums, ())


def build_boundary(family, params=None, x=None):
    """Construct a named boundary matrix; params may pin only the family's parameters."""
    row = _BOUNDARY.get(family)
    if row is None:
        raise ValueError(f"unknown family {family!r} (choose from {', '.join(_BOUNDARY)})")
    defaults, table = row
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameter(s) {', '.join(unknown)} for {family} "
                         f"(its parameters: {', '.join(defaults) or 'none'})")
    if x is None:
        x = spectral("x")
    elif not (isinstance(x, Variable) and x.kind == "spectral"):
        raise ValueError(f"build_boundary needs x to be a spectral Variable, not {x!r}")
    if params.get("sign", -1) not in (1, -1):  # U_offdiag's sign
        raise ValueError(f"{family} sign must be +1 or -1, not {params['sign']!r}")
    for name, default in defaults.items():
        if params.setdefault(name, default) is None:
            params[name] = parameter(name)

    def value(name):
        val = params[name]
        if isinstance(val, Variable):
            return LaurentPoly.var(val)
        return val if isinstance(val, LaurentPoly) else LaurentPoly.const(val)

    rows = _rows(table, 2, x, value)
    variables = dict.fromkeys([x, *(v for row in rows for p in row for v in p.variables)])
    return BoundaryMat(family, TensorMat._raw(1, variables, rows, ()), x, params)


def check_U_conditions(b, epsilon):
    """U(x)^t = epsilon U(1/x) and [U1(x) U2(y), r12(x/y)] = 0."""
    x = b.x
    y = spectral("y")
    res = Residuals()

    inv_x = LaurentPoly.monomial((x,), (-2,), 1)
    t_cond = b.mat.transpose() - b.mat.substitute({x: inv_x}).scale(rat(epsilon))
    _add_entries(res, t_cond, "transpose condition ")

    u = spectral("u")
    r = build_r(u).substitute({u: LaurentPoly.monomial((x, y), (2, -2), 1)})
    u1 = leg_embed(b.mat, (1,), 2)
    u2 = leg_embed(b.mat.substitute({x: LaurentPoly.var(y)}), (2,), 2)
    delta = (u1 @ u2).commutator(r)
    _add_entries(res, delta, "r-commutation ")
    return res.report(
        f"U_conditions[{b.family}, eps={epsilon:+d}]",
        "symbolic in x,y (exact)",
    )


def check_reflection(b):
    """r12(x/y) k1 k2 - k1 k2 r12(x/y) = k1 r12^{t2}(xy) k2 - k2 r12^{t2}(xy) k1."""
    x = b.x
    y = spectral("y")
    u = spectral("u")
    r = build_r(u)
    r_quot = r.substitute({u: LaurentPoly.monomial((x, y), (2, -2), 1)})
    r_prod = partial_transpose(
        r.substitute({u: LaurentPoly.monomial((x, y), (2, 2), 1)}), 2
    )
    k1 = leg_embed(b.mat, (1,), 2)
    k2 = leg_embed(b.mat.substitute({x: LaurentPoly.var(y)}), (2,), 2)
    lhs = r_quot.commutator(k1 @ k2)
    rhs = k1 @ r_prod @ k2 - k2 @ r_prod @ k1
    return _residual_report(
        f"reflection[{b.family}]",
        lhs - rhs,
        "symbolic in x,y; parameters symbolic (exact)",
    )


def build_rbar(b, x, y):
    """rbar_12(x,y) = r12(x/y) + k1(x) r12^{t1}(1/(xy)) k1(x)^{-1}.

    Returns a two-leg TensorMat whose first two variables are (x, y).
    """
    if b.x != x:
        raise ValueError("boundary matrix must be built in the first variable")
    if not (isinstance(y, Variable) and y.kind == "spectral") or y == x:
        raise ValueError(f"build_rbar needs y to be a spectral Variable other than x, not {y!r}")
    u = spectral("u")
    r = build_r(u)
    first = r.substitute({u: LaurentPoly.monomial((x, y), (2, -2), 1)})
    r_t1 = partial_transpose(
        r.substitute({u: LaurentPoly.monomial((x, y), (-2, -2), 1)}), 1
    )
    k1 = leg_embed(b.mat, (1,), 2)
    k1_inv = leg_embed(b.mat.inverse_2x2(), (1,), 2)
    second = k1 @ r_t1 @ k1_inv
    out = first + second
    out.variables = _merge_vars((x, y), out.variables)
    return out


def _rbar_args(rbar):
    """rbar's (x, y): its first two spectral variables."""
    spect = [v for v in rbar.variables if v.kind == "spectral"]
    if len(spect) < 2:
        raise ValueError("rbar must depend on two spectral variables")
    return spect[0], spect[1]


def check_nscybe(rbar, label=None):
    """[rb13, rb23] = [rb21, rb13] + [rb23, rb12], arguments (x1,x3) etc.,
    on rbar divided by its content g(x) in x: each pair's first arguments
    are x1 and x2, so the residual is g(x1) g(x2) times the reduced one."""
    x, y = _rbar_args(rbar)
    g, nums = content_in((n for row in rbar.nums for n in row), x)
    rows = [nums[i : i + rbar.dim] for i in range(0, len(nums), rbar.dim)]
    reduced = TensorMat._raw(rbar.legs, rbar.variables, rows, rbar.den_factors)
    rb13, rb23, rb21, rb12 = (
        _embed_at(reduced, {x: LaurentPoly.var(_leg_var(i)), y: LaurentPoly.var(_leg_var(j))},
                  (i, j))
        for i, j in ((1, 3), (2, 3), (2, 1), (1, 2))
    )
    g1, g2 = (g.substitute({x: LaurentPoly.var(_leg_var(i))}) for i in (1, 2))
    delta = commutator_sum([(rb13, rb23), (rb13, rb21), (rb12, rb23)]).scale(g1 * g2)
    name = "nscybe" if label is None else f"nscybe[{label}]"
    return _residual_report(name, delta, "symbolic in x1,x2,x3 (exact)")


def check_M_condition(m, rbar):
    """[tr_1(rbar_12(x,y) M_1(x)), M_2(y)] = 0."""
    x, y = _rbar_args(rbar)
    if m.x != x:
        raise ValueError("M must be built in rbar's first spectral variable")
    m1 = leg_embed(m.mat, (1,), 2)
    m_y = m.mat.substitute({x: LaurentPoly.var(y)})
    traced = trace_leg(rbar @ m1, 1)
    delta = traced.commutator(m_y)
    return _residual_report(
        f"M_condition[{m.family}]",
        delta,
        "symbolic in x,y; parameters symbolic (exact)",
    )
