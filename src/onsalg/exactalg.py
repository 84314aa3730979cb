"""Exact arithmetic: sparse Laurent polynomials, canonical denominator
factors with the one clearing rule (complement), and LinComb, the sparse
linear combination that holds every Lie, family and enveloping-algebra
element.  There is no rational-function type: a quotient is a numerator
over a multiset of canonical factors (see tensormat.TensorMat).

A scalar is a Python int when it is integral, and an exact Rational
(gmpy2.mpq when available, else fractions.Fraction) only when it is not:
never an integral Rational, never a float (a float input raises
TypeError).  int and Rational values that are equal compare, hash and
print alike, so the split shows nowhere but in speed.  Every coefficient
division goes through _quotient.

A LinComb coefficient is such a scalar unless it involves a variable; only
then is it a LaurentPoly.  A constant LaurentPoly equals, hashes and
prints as its scalar, so this split too shows only in speed: the mode
algebras' structure constants are integers, and int arithmetic needs no
polynomial around it.

Every term dict, polynomial and LinComb alike, has one rule: it
accumulates (_addmul, _addlin, _addbilin, accumulate), which only adds and
deletes what cancels, and is normalised once by _normalise where it
becomes a value: in _poly or LinComb.from_dict, which every operation
goes through, and in the two __init__s.  _normalise passes an all-int
dict at C speed.

A polynomial carries no variable context: its terms map one packed
monomial key, a Python int, to a nonzero coefficient.  Each Variable owns
a slot of one process-wide registry, assigned on first use, and a key
holds the variable's exponent as a signed digit in that slot's field of
_WIDTH bits (Kronecker packing), so a monomial product is one integer
addition, an inverse monomial is a negation and the constant monomial
is 0.  Exponents are stored *doubled*, so a stored exponent of 1
means x**(1/2); this keeps half-integer powers of spectral variables on an
integer grid.  Parameter variables are restricted to genuine non-negative
integer powers (even doubled exponents).

Slots are process-local: polynomials pickle by variable name, and nothing
visible depends on slot numbers.  Display, the leading term of a canonical
factor and the order of factor multisets rank variables by name.

_addmul is the one polynomial product loop: it adds sign * a * b into a
term dict the caller owns (multiply-accumulate over packed keys, after
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  LaurentPoly's product, sum and
difference are one call of it each (a sum adds b times _UNIT, the constant
1); tensormat accumulates whole matrix entries with it.  _addlin and
_addbilin are LinComb's counterparts: they add a scaled element, or a
scaled bilinear extension, into a key -> coefficient dict the caller owns.
LinComb's sums, linear and bilinear are calls of them, and so are the
series products of currents and the residuals of the mode-algebra checks.
content_in, the content in one variable, is the one gcd; its one caller,
tensormat.check_nscybe, divides rbar by its content in x.
"""

import operator
from collections import Counter
from dataclasses import dataclass

try:
    from gmpy2 import mpq as Rational

    RATIONAL_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

    RATIONAL_BACKEND = "fractions"

_RATIONAL = type(Rational(1))
_SCALAR_TYPES = (int, _RATIONAL)


def rat(p, q=1):
    """Build an exact rational number, as a stored coefficient."""
    return _rational(Rational(p, q))


def _rational(c):
    """The stored form of a scalar: an int when it is integral, else a
    Rational (never an integral Rational).  A float raises TypeError: its
    binary value is rarely the number meant.  Strings such as "1/2" parse
    exactly.  A basis symbol, though an int (see Symbol), raises TypeError
    too: it is a key, never a coefficient."""
    if type(c) is int:
        return c
    if not isinstance(c, _RATIONAL):
        if isinstance(c, float):
            raise TypeError(f"a coefficient must be exact, not the float {c!r}")
        if isinstance(c, Symbol):
            raise TypeError(f"a basis symbol is a key, not a coefficient: {c!r}")
        c = Rational(c)
    return int(c) if c.denominator == 1 else c


def _quotient(a, b):
    """a / b exactly, as a stored coefficient: the one coefficient division
    (with int operands a bare / would give a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Rational(a, b) if r else q
    return _rational(a / b)


def _normalise(terms):
    """Bring every value of terms, a dict of nonzero coefficients, to its
    stored form in place, and return terms: an integral Rational becomes
    its int and a constant LaurentPoly its scalar.  The one stored-form
    rule, applied once where a term dict becomes a value; an all-int dict,
    the common case, passes at C speed."""
    if not {int}.issuperset(map(type, terms.values())):
        for key, c in terms.items():
            t = type(c)
            if t is _RATIONAL:
                if c.denominator == 1:
                    terms[key] = int(c)
            elif t is LaurentPoly and len(c.terms) == 1 and 0 in c.terms:
                terms[key] = c.terms[0]
    return terms


_UNIT = {0: 1}  # the terms of the constant 1; _addmul(out, t, _UNIT) adds t


def _addmul(out, a_terms, b_terms, sign=1):
    """Add sign * a * b into out: the one polynomial product loop.

    a_terms and b_terms map packed monomial keys to nonzero stored
    coefficients, and out is a term dict the caller owns; a key whose sum
    cancels is deleted, so out never holds a zero.  A product, a sum of
    products (a matrix entry) or a sum (b_terms _UNIT) accumulates in one
    dict, with no intermediate polynomial.  The caller checks the bound of
    the monomials it adds (_check_bound) before the first call, and wraps
    out as a value (_poly) after the last, which normalises it: a sum of
    non-integral Rationals may be integral.
    """
    if len(a_terms) > len(b_terms):
        a_terms, b_terms = b_terms, a_terms
    get = out.get
    b_items = b_terms.items()
    for ka, ca in a_terms.items():
        if sign != 1:
            ca = sign * ca
        for kb, cb in b_items:
            k = ka + kb
            prev = get(k)
            if prev is None:
                out[k] = ca * cb
            else:
                s = prev + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]


def _addlin(out, terms, s=1):
    """Add s * terms into out: the linear accumulate kernel of LinComb.

    terms maps keys to nonzero stored coefficients, s is a nonzero
    coefficient and out is a dict the caller owns; every term goes through
    accumulate, so a key whose sum cancels is deleted.  The caller wraps
    out as a value (LinComb.from_dict), which brings it to stored form.
    When s is 1 no product is formed: with a parametric s every product is
    a polynomial one.
    """
    if s == 1:
        for key, c in terms.items():
            accumulate(out, key, c)
    else:
        for key, c in terms.items():
            accumulate(out, key, c * s)


def _addbilin(out, a_terms, b_terms, product, s=1):
    """Add s * (the bilinear extension of product over a_terms and b_terms)
    into out, a dict the caller owns, as _addlin does.

    product maps a pair of keys to (key, coefficient) pairs.
    """
    b_items = b_terms.items()
    for ka, ca in a_terms.items():
        if s != 1:
            ca = ca * s
        for kb, cb in b_items:
            pairs = product(ka, kb)
            if pairs:
                c = ca * cb
                for k, ck in pairs:
                    accumulate(out, k, c * ck)


@dataclass(frozen=True)
class Variable:
    """A named indeterminate; kind is 'spectral' or 'parameter'.

    Spectral variables admit negative and half-integer powers.
    Parameter variables only ever appear polynomially.
    """

    name: str
    kind: str = "spectral"

    def __post_init__(self):
        if self.kind not in ("spectral", "parameter"):
            raise ValueError("variable kind must be 'spectral' or 'parameter'")


def spectral(name):
    return Variable(name, "spectral")


def parameter(name):
    return Variable(name, "parameter")


# -- packed monomial keys ---------------------------------------------------------

_WIDTH = 16
_HALF = 1 << (_WIDTH - 1)  # every field holds a doubled exponent e, |e| < _HALF
_MASK = (1 << _WIDTH) - 1
_SLOT = {}  # Variable -> slot, assigned on first use
_VARS = []  # slot -> Variable
_LOW = []  # slot -> _HALF in every field below it


def _slot(v):
    s = _SLOT.get(v)
    if s is None:
        s = _SLOT[v] = len(_VARS)
        _VARS.append(v)
        _LOW.append(_HALF * ((1 << (_WIDTH * s)) - 1) // _MASK)
    return s


def _check_bound(bound):
    if bound >= _HALF:
        raise OverflowError(
            f"doubled exponents may reach {bound}; a monomial field holds "
            f"less than {_HALF} in absolute value"
        )


def _exponent(key, v):
    """The doubled exponent of v in a packed monomial key."""
    s = _SLOT.get(v)
    if s is None:
        return 0
    # lifting the fields below v's to non-negative digits makes the shift
    # exact, then v's field reads as a signed digit
    return ((((key + _LOW[s]) >> (_WIDTH * s)) + _HALF) & _MASK) - _HALF


def _unpack(key):
    """(variable, doubled exponent) for each nonzero field of key."""
    out = []
    s = 0
    while key:
        e = ((key + _HALF) & _MASK) - _HALF
        if e:
            out.append((_VARS[s], e))
        key = (key - e) >> _WIDTH
        s += 1
    return out


def _pack(variables, exps):
    """The key of the monomial prod(v ** (e/2)), and its largest |e|."""
    if len(exps) != len(variables):
        raise ValueError("exponent tuple length mismatch")
    key = bound = 0
    for v, e in zip(variables, exps):
        if e:
            key += e << (_WIDTH * _slot(v))
            bound = max(bound, abs(e))
    _check_bound(bound)
    return key, bound


def _poly(terms, bound):
    """A LaurentPoly that takes over terms, a dict of nonzero coefficients
    whose keys have no field beyond bound in absolute value, and normalises
    it (_normalise)."""
    p = LaurentPoly.__new__(LaurentPoly)
    p.terms = _normalise(terms)
    p._bound = bound
    return p


class LaurentPoly:
    """Sparse Laurent polynomial, with no variable context.

    terms maps packed monomial keys (see _exponent) to nonzero
    coefficients, each an int or, when it is not integral, a Rational.
    Exponents are doubled, and the slots behind the keys are
    process-local, so == compares terms while str, variables and pickles
    go by variable name.  The constructor and monomial() read dense
    doubled exponent tuples against the variable tuple they are given; var,
    const and zero accept a context argument and ignore it.  _bound caps
    |doubled exponent| over all fields: products add the operands' bounds
    and raise OverflowError before a field could spill.
    """

    __slots__ = ("terms", "_bound")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        clean = {}
        bound = 0
        if terms:
            for exps, c in terms.items():
                c = _rational(c)
                if not c:
                    continue
                key, b = _pack(variables, tuple(exps))
                accumulate(clean, key, c)
                bound = max(bound, b)
        self.terms = _normalise(clean)
        self._bound = bound

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, variables=()):
        return _poly({}, 0)

    @classmethod
    def const(cls, value, variables=()):
        value = _rational(value)
        return _poly({0: value} if value else {}, 0)

    @classmethod
    def var(cls, v, variables=None, half_steps=2):
        """The monomial v**(half_steps/2)."""
        return cls.monomial((v,), (half_steps,))

    @classmethod
    def monomial(cls, variables, exps, coeff=1):
        return cls(variables, {tuple(exps): coeff})

    # -- basic queries --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_term(self):
        return len(self.terms) == 1

    @property
    def variables(self):
        """The variables the polynomial uses, in name order."""
        used = {v for key in self.terms for v, _ in _unpack(key)}
        return tuple(sorted(used, key=lambda v: (v.name, v.kind)))

    def degree_range(self, v):
        """(min, max) doubled exponent of v over all terms, or None if zero."""
        if not self.terms:
            return None
        exps = [_exponent(key, v) for key in self.terms]
        return (min(exps), max(exps))

    def split(self, variables):
        """{doubled exponents of variables: rest}, where self is the sum of
        monomial(variables, exps) * rest and no rest uses variables; a
        constant rest is its scalar."""
        groups = {}
        for key, c in self.terms.items():
            exps = tuple(_exponent(key, v) for v in variables)
            groups.setdefault(exps, {})[key - _pack(variables, exps)[0]] = c
        return _normalise({exps: _poly(rest, self._bound) for exps, rest in groups.items()})

    # -- arithmetic -------------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other, accumulated in a copy of self's terms."""
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            other = LaurentPoly.const(other)
        out = dict(self.terms)
        _addmul(out, other.terms, _UNIT, sign)
        return _poly(out, max(self._bound, other._bound))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly({key: -c for key, c in self.terms.items()}, self._bound)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, c):
        """self times c, a nonzero stored coefficient."""
        if c == 1:
            return self
        return _poly({key: c * v for key, v in self.terms.items()}, self._bound)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            other = _rational(other)
            return self._scaled(other) if other else _poly({}, 0)
        a, b = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        if not a.terms:
            return a
        if len(a.terms) == 1 and 0 in a.terms:
            return b._scaled(a.terms[0])
        bound = a._bound + b._bound
        _check_bound(bound)
        out = {}
        _addmul(out, a.terms, b.terms)
        return _poly(out, bound)

    __rmul__ = __mul__

    # -- comparison / hashing ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, _SCALAR_TYPES):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self.terms.keys() <= {0}:
            # a constant compares equal to its value, so it hashes as one
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __reduce__(self):
        # keys are process-local, so a pickle names the variables
        variables = self.variables
        return (LaurentPoly, (variables, _dense(self, variables)))

    # -- calculus / substitution ---------------------------------------------------

    def derivative(self, v):
        """d/dv.  Spectral variables only; half powers differentiate exactly."""
        if v.kind != "spectral":
            raise ValueError("derivative only defined for spectral variables")
        bound = self._bound + 2
        _check_bound(bound)
        step = 2 << (_WIDTH * _slot(v))
        out = {}
        for key, c in self.terms.items():
            e = _exponent(key, v)
            if e:
                out[key - step] = _quotient(c * e, 2)
        return _poly(out, bound)

    def substitute(self, assign):
        """Monomial substitution, e.g. u -> x/y or x -> 1/x.

        assign maps Variables to single-term LaurentPolys with integer
        powers (even doubled exponents), so half powers of the substituted
        variable stay on the grid; a coefficient other than 1 needs an
        integer power of the variable it replaces.  Every exponent is read
        before any is replaced, so x -> y, y -> x swaps.  Unassigned
        variables pass through.
        """
        table = []
        bound = self._bound
        for v, val in assign.items():
            if not (isinstance(val, LaurentPoly) and val.is_term()):
                raise ValueError("substitution values must be monomials")
            ((key, coeff),) = val.terms.items()
            if any(e % 2 for _, e in _unpack(key)):
                raise ValueError("substitution monomial must have integer powers")
            # v**e becomes coeff**(e/2) * key**(e/2): the key moves by e * delta
            table.append((v, key // 2 - (1 << (_WIDTH * _slot(v))), coeff))
            bound += self._bound * val._bound // 2
        _check_bound(bound)
        out = {}
        for key, c in self.terms.items():
            new = key
            for v, delta, mc in table:
                e = _exponent(key, v)
                if not e:
                    continue
                new += e * delta
                if mc != 1:
                    if e % 2:
                        raise ValueError("fractional power of a non-monic monomial")
                    k = e // 2
                    c = c * mc**k if k > 0 else _quotient(c, mc**-k)
            accumulate(out, new, c)
        return _poly(out, bound)

    # -- display ---------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        variables = self.variables
        bits = []
        for exps, c in sorted(_dense(self, variables).items()):
            factors = []
            for v, e in zip(variables, exps):
                if e == 0:
                    continue
                if e == 2:
                    factors.append(v.name)
                elif e % 2 == 0:
                    factors.append(f"{v.name}^{e // 2}")
                else:
                    factors.append(f"{v.name}^({e}/2)")
            if not factors:
                bits.append(str(c))
            elif c == 1:
                bits.append("*".join(factors))
            elif c == -1:
                bits.append("-" + "*".join(factors))
            else:
                bits.append(f"{c}*" + "*".join(factors))
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({self})"


def _dense(p, variables):
    """p's terms keyed by doubled exponent tuples over variables, which
    must hold every variable p uses, read straight off the packed keys."""
    return {tuple(_exponent(key, v) for v in variables): c for key, c in p.terms.items()}


def accumulate(out, key, value):
    """Add a nonzero value into out[key], deleting the key when the sum
    cancels.

    out is a dict the caller owns.  The values already in it are replaced,
    never changed in place, so they may be shared with other elements.
    Nothing is normalised here: the caller wraps out as a value (_poly or
    LinComb.from_dict), which does that once.
    """
    prev = out.get(key)
    if prev is not None:
        value = prev + value
        if not value:
            del out[key]
            return
    out[key] = value


def _as_coeff(c):
    return c if isinstance(c, LaurentPoly) else _rational(c)


# A symbol's mode lies strictly between -MODE_BOUND and MODE_BOUND.
MODE_BOUND = 2**31


class Symbol(int):
    """An interned basis symbol (hash-consing): a head and an integer mode,
    with one instance per (head, mode), so that hashing and equality are
    int's own and a word of symbols hashes at C speed.

    A subclass declares the names of its head fields and its heads, tuples
    of their values (`class S(Symbol, fields=..., heads=...)`).  Its
    __new__ returns the interned symbol from cls._interned, keyed by its
    constructor arguments, and on a miss validates them and calls _intern.
    The value is (2 rank(head) + 1) MODE_BOUND + mode, where heads rank in
    sorted order and each subclass takes the ranks after those of the
    subclasses declared before it.  So symbols of one class sort as their
    (head fields, mode) tuples do, symbols of different classes never
    compare equal, and every value is positive, so a symbol is never
    falsy.  Symbols are immutable, pickle by their constructor arguments
    and unpickle to the interned instance; _rational refuses them as
    coefficients.
    """

    _ranks_taken = 0

    def __init_subclass__(cls, fields, heads, **kwargs):
        super().__init_subclass__(**kwargs)
        first = Symbol._ranks_taken
        cls._fields = fields
        cls._rank = {h: first + i for i, h in enumerate(sorted(heads))}
        cls._interned = {}
        Symbol._ranks_taken = first + len(cls._rank)

    @classmethod
    def _intern(cls, head, mode):
        """A new symbol of head, a tuple of head field values, and mode."""
        mode = operator.index(mode)
        if not -MODE_BOUND < mode < MODE_BOUND:
            raise ValueError(f"a mode must lie strictly between -2**31 and 2**31, not {mode}")
        sym = int.__new__(cls, (2 * cls._rank[head] + 1) * MODE_BOUND + mode)
        sym.__dict__.update(zip(cls._fields, head), mode=mode)
        cls._interned[head + (mode,)] = sym
        return sym

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields) + (self.mode,)


class LinComb:
    """A finite linear combination of hashable basis keys.

    terms maps each key to a nonzero coefficient: a scalar (an int, or a
    Rational when not integral) unless it involves a variable, and only
    then a LaurentPoly.  Coefficients given to the constructor, to single
    and to scale are brought to that form.  Elements are immutable values:
    no operation changes terms in place, so memo entries and series
    coefficients can be shared.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                c = _as_coeff(c)
                if c:
                    clean[key] = c
        self.terms = _normalise(clean)

    @classmethod
    def from_dict(cls, terms):
        """Take over terms, a dict of nonzero coefficients, without a copy,
        and normalise it (_normalise)."""
        e = cls.__new__(cls)
        e.terms = _normalise(terms)
        return e

    @classmethod
    def single(cls, key, coeff=1):
        c = _as_coeff(coeff)
        return cls.from_dict({key: c} if c else {})

    @classmethod
    def zero(cls):
        return cls.from_dict({})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        out = dict(self.terms)
        _addlin(out, other.terms)
        return self.from_dict(out)

    def __neg__(self):
        return self.from_dict({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        out = dict(self.terms)
        _addlin(out, other.terms, -1)
        return self.from_dict(out)

    def scale(self, s):
        if isinstance(s, LinComb):
            raise TypeError("scale takes a coefficient, not an element")
        s = _as_coeff(s)
        if not s:
            return self.zero()
        if s == 1:
            return self
        return self.from_dict({key: c * s for key, c in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def linear(self, image):
        """The linear extension of image, a map from a key to a LinComb."""
        out = {}
        for key, c in self.terms.items():
            _addlin(out, image(key).terms, c)
        return self.from_dict(out)

    def bilinear(self, other, product):
        """The bilinear extension of product, a map from a pair of keys to
        (key, coefficient) pairs."""
        out = {}
        _addbilin(out, self.terms, other.terms, product)
        return self.from_dict(out)

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            cs = str(c)
            if cs == "1":
                bits.append(str(key))
            elif cs == "-1":
                bits.append(f"-{key}")
            elif (isinstance(c, LaurentPoly) and len(c.terms) > 1) or "*" in cs or "/" in cs:
                bits.append(f"({cs})*{key}")
            else:
                bits.append(f"{cs}*{key}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def factor_canonical(p):
    """Normalize a denominator factor.

    Returns (inv_unit, factors): p equals unit * prod(factors) where the
    unit is a scalar times a spectral monomial, inv_unit is its inverse as
    a one-term LaurentPoly, and each factor is canonical (content-free,
    leading coefficient 1, the leading term ranked in name order; a pure
    parameter monomial is split into one factor per variable).
    1/p == inv_unit / prod(factors).
    """
    if p.is_zero():
        raise ValueError("zero denominator factor")
    variables = p.variables
    dense = _dense(p, variables)
    # strip spectral monomial content
    content = [
        min(e[i] for e in dense) if v.kind == "spectral" else 0
        for i, v in enumerate(variables)
    ]
    stripped = {tuple(a - m for a, m in zip(e, content)): c for e, c in dense.items()}
    # scalar normalization by the lexicographically leading coefficient
    scale = stripped[max(stripped)]
    inv_unit = LaurentPoly.monomial(
        variables, tuple(-m for m in content), _quotient(1, scale)
    )
    if len(stripped) == 1:
        ((exps, _),) = stripped.items()
        factors = []
        for v, e in zip(variables, exps):
            if e:
                if v.kind != "parameter" or e < 0 or e % 2:
                    raise ValueError("a parameter factor must be a positive integer power")
                factors.extend([LaurentPoly.var(v)] * (e // 2))
        return inv_unit, factors
    if scale != 1:
        stripped = {e: _quotient(c, scale) for e, c in stripped.items()}
    return inv_unit, [LaurentPoly(variables, stripped)]


def complement(den_factors, clearing):
    """prod(clearing) / prod(den_factors) as a LaurentPoly.

    Both arguments are multisets of canonical factors (see
    factor_canonical), matched by equality with multiplicity.  Raises
    ValueError naming a denominator factor that clearing does not hold.
    This is the one place that works out what a clearing set lacks.
    """
    remaining = list(clearing)
    for f in den_factors:
        try:
            remaining.remove(f)
        except ValueError:
            raise ValueError(
                f"denominator factor not covered by the clearing set: {f}"
            ) from None
    out = LaurentPoly.const(1)
    for f in remaining:
        out = out * f
    return out


def factor_lcm(*multisets):
    """Least common multiple of factor multisets: every canonical factor at
    its highest multiplicity, represented by its first occurrence."""
    need = Counter()
    for factors in multisets:
        need |= Counter(factors)
    return list(need.elements())


def _lists_in(p, v):
    """p as polynomials in v over the rest of each key: rest -> (the lowest
    doubled exponent of v, a coefficient per half step, the highest first)."""
    shift, groups = _WIDTH * _slot(v), {}
    for key, c in p.terms.items():
        e = _exponent(key, v)
        groups.setdefault(key - (e << shift), {})[e] = c
    return {r: (min(es), [es.get(e, 0) for e in range(max(es), min(es) - 1, -1)])
            for r, es in groups.items()}


def _divmod_list(a, g):
    """(quotient, remainder) of coefficient lists, the highest first, by a monic g."""
    a, k = list(a), max(len(a) - len(g) + 1, 0)
    for i in range(k):
        for j in range(1, len(g)):
            a[i + j] -= a[i] * g[j]
    return a[:k], a[k:]


def _divide_in(p, g, v):
    """p / g exactly, g a monic coefficient list in v; ValueError on a remainder."""
    out, shift = {}, _WIDTH * _slot(v)
    for rest, (low, coeffs) in _lists_in(p, v).items():
        q, r = _divmod_list(coeffs, g)
        if any(r):
            raise ValueError(f"{g} (half steps of {v.name}, highest first) does not divide {p}")
        out.update((rest + ((low + i) << shift), c) for i, c in enumerate(q[::-1]) if c)
    return _poly(out, p._bound)


def content_in(polys, v):
    """(g, quotients): g is the monic gcd over Q of polys as polynomials in v
    alone (powers of v are units: g(0) != 0), and each quotient a poly / g.
    A coefficient list runs Euclid only if the running g leaves a remainder."""
    polys, g = list(polys), []
    for p in polys:
        for _, coeffs in _lists_in(p, v).values():
            r = _divmod_list(coeffs, g)[1] if g else coeffs
            while any(r):  # Euclid: the monic remainder divides the old g next
                r = r[next(i for i, c in enumerate(r) if c):]
                g, r = [_quotient(c, r[0]) for c in r], g
                r = _divmod_list(r, g)[1]
    g = g or [1]  # no nonzero coefficient list: the content is 1
    content = LaurentPoly((v,), {(i,): c for i, c in enumerate(g[::-1])})
    return content, [_divide_in(p, g, v) for p in polys]
