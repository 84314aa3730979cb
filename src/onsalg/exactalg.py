"""Exact arithmetic: sparse Laurent polynomials, canonical denominator
factors with the one clearing rule (complement), rational functions for
display, and LinComb, the sparse linear combination with polynomial
coefficients that holds every Lie, family and enveloping-algebra element.

Coefficients are exact rationals (gmpy2.mpq when available, else
fractions.Fraction).  Polynomials are sparse dicts keyed by exponent
tuples.  Exponents are stored *doubled*, so a stored exponent of 1
means x**(1/2); this keeps half-integer powers of spectral variables
on an integer grid.  Parameter variables are restricted to genuine
non-negative integer powers (even doubled exponents).
"""

from dataclasses import dataclass

try:
    from gmpy2 import mpq as Rational

    RATIONAL_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

    RATIONAL_BACKEND = "fractions"

_R_ZERO = Rational(0)
_R_ONE = Rational(1)
_SCALAR_TYPES = (int, type(_R_ONE))


def rat(p, q=1):
    """Build an exact rational number."""
    return Rational(p, q)


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


class LaurentPoly:
    """Sparse Laurent polynomial over an ordered variable tuple.

    terms maps doubled-exponent tuples to nonzero Rational coefficients.
    """

    __slots__ = ("variables", "terms", "_key")

    def __init__(self, variables=(), terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            n = len(self.variables)
            for exps, c in terms.items():
                if not c:
                    continue
                exps = tuple(exps)
                assert len(exps) == n, "exponent tuple length mismatch"
                c = c if isinstance(c, _SCALAR_TYPES) else Rational(c)
                prev = clean.get(exps)
                if prev is None:
                    clean[exps] = Rational(c)
                else:
                    s = prev + c
                    if s:
                        clean[exps] = s
                    else:
                        del clean[exps]
        self.terms = clean
        self._key = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, variables=()):
        return cls(variables, {})

    @classmethod
    def const(cls, value, variables=()):
        value = Rational(value)
        if not value:
            return cls(variables, {})
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def var(cls, v, variables=None, half_steps=2):
        """The monomial v**(half_steps/2) in the given context."""
        if variables is None:
            variables = (v,)
        variables = tuple(variables)
        i = variables.index(v)
        exps = [0] * len(variables)
        exps[i] = half_steps
        return cls(variables, {tuple(exps): _R_ONE})

    @classmethod
    def monomial(cls, variables, exps, coeff=1):
        return cls(variables, {tuple(exps): Rational(coeff)})

    # -- basic queries --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_term(self):
        return len(self.terms) == 1

    def constant_value(self):
        """The constant coefficient (the poly need not be constant)."""
        return self.terms.get((0,) * len(self.variables), _R_ZERO)

    def degree_range(self, v):
        """(min, max) doubled exponent of v over all terms, or None if zero."""
        if not self.terms:
            return None
        i = self.variables.index(v)
        exps = [e[i] for e in self.terms]
        return (min(exps), max(exps))

    def uses(self, v):
        if v not in self.variables:
            return False
        i = self.variables.index(v)
        return any(e[i] for e in self.terms)

    # -- context handling ------------------------------------------------------

    def in_context(self, variables):
        """Re-express over a (super)set of variables, permuting as needed."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        pos = []
        for j, v in enumerate(self.variables):
            try:
                pos.append(variables.index(v))
            except ValueError:
                # Dropping a variable is fine only if it is unused.
                if any(e[j] for e in self.terms):
                    raise ValueError(f"cannot drop used variable {v.name}")
                pos.append(None)
        n = len(variables)
        out = {}
        for exps, c in self.terms.items():
            ne = [0] * n
            for j, p in enumerate(pos):
                if p is not None:
                    ne[p] = exps[j]
            k = tuple(ne)
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return LaurentPoly(variables, out)

    @staticmethod
    def _common(a, b):
        if a.variables == b.variables:
            return a, b
        merged = a.variables + tuple(v for v in b.variables if v not in a.variables)
        return a.in_context(merged), b.in_context(merged)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            other = LaurentPoly.const(other, self.variables)
        a, b = LaurentPoly._common(self, other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                s = prev + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.variables = a.variables
        r.terms = out
        r._key = None
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.variables = self.variables
        r.terms = {e: -c for e, c in self.terms.items()}
        r._key = None
        return r

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            other = LaurentPoly.const(other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            c = Rational(other)
            if not c:
                return LaurentPoly(self.variables, {})
            r = LaurentPoly.__new__(LaurentPoly)
            r.variables = self.variables
            r.terms = {e: c * v for e, v in self.terms.items()}
            r._key = None
            return r
        a, b = LaurentPoly._common(self, other)
        if len(a.terms) > len(b.terms):
            a, b = b, a
        out = {}
        bt = b.terms
        for ea, ca in a.terms.items():
            for eb, cb in bt.items():
                k = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(k)
                if prev is None:
                    out[k] = ca * cb
                else:
                    s = prev + ca * cb
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        r = LaurentPoly.__new__(LaurentPoly)
        r.variables = a.variables
        r.terms = out
        r._key = None
        return r

    __rmul__ = __mul__

    # -- comparison / hashing ----------------------------------------------------

    def canonical_key(self):
        """Context-independent identity: unused variables are pruned and the
        rest sorted by name."""
        if self._key is None:
            used = []
            for j, v in enumerate(self.variables):
                if any(e[j] for e in self.terms):
                    used.append((v.name, v.kind, j))
            used.sort()
            idx = [j for _, _, j in used]
            names = tuple((n, k) for n, k, _ in used)
            terms = tuple(
                sorted((tuple(e[j] for j in idx), c) for e, c in self.terms.items())
            )
            self._key = (names, terms)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if isinstance(other, _SCALAR_TYPES):
                return self.canonical_key() == LaurentPoly.const(other).canonical_key()
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        names, terms = self.canonical_key()
        if not names:
            # a constant compares equal to its value, so it hashes as one
            return hash(terms[0][1] if terms else _R_ZERO)
        return hash((names, tuple((e, str(c)) for e, c in terms)))

    # -- calculus / substitution ---------------------------------------------------

    def derivative(self, v):
        """d/dv.  Spectral variables only; half powers differentiate exactly."""
        if v.kind != "spectral":
            raise ValueError("derivative only defined for spectral variables")
        if v not in self.variables:
            return LaurentPoly(self.variables, {})
        i = self.variables.index(v)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            ne = list(exps)
            ne[i] = e - 2
            k = tuple(ne)
            add = c * e / 2
            prev = out.get(k)
            out[k] = add if prev is None else prev + add
        return LaurentPoly(self.variables, out)

    def substitute(self, assign):
        """Monomial substitution, e.g. u -> x/y or x -> 1/x.

        assign maps Variables to single-term LaurentPolys with coefficient
        +-1 and even doubled exponents (so half powers of the substituted
        variable stay on the grid).  Unassigned variables pass through.
        Returns a LaurentPoly over the union context.
        """
        table = {}
        target_vars = []
        for v in self.variables:
            val = assign.get(v)
            if val is None:
                table[v] = (None, _R_ONE)
                if v not in target_vars:
                    target_vars.append(v)
            else:
                assert isinstance(val, LaurentPoly) and val.is_term(), (
                    "substitution values must be monomials"
                )
                ((exps, coeff),) = val.terms.items()
                mono = []
                for w, a in zip(val.variables, exps):
                    if a:
                        assert a % 2 == 0, "substitution monomial must have integer powers"
                        mono.append((w, a))
                        if w not in target_vars:
                            target_vars.append(w)
                table[v] = (mono, coeff)
        target_vars = tuple(target_vars)
        pos = {v: i for i, v in enumerate(target_vars)}
        out = {}
        for exps, c in self.terms.items():
            ne = [0] * len(target_vars)
            coeff = c
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                mono, mc = table[v]
                if mono is None:
                    ne[pos[v]] += e
                else:
                    if mc != 1:
                        assert e % 2 == 0, "fractional power of a non-monic monomial"
                        coeff = coeff * mc ** (e // 2)
                    for w, a in mono:
                        ne[pos[w]] += (a * e) // 2
            k = tuple(ne)
            prev = out.get(k)
            if prev is None:
                out[k] = coeff
            else:
                s = prev + coeff
                if s:
                    out[k] = s
                else:
                    del out[k]
        return LaurentPoly(target_vars, out)

    # -- display ---------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in sorted(self.terms.items()):
            factors = []
            for v, e in zip(self.variables, exps):
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


def accumulate(out, key, value):
    """Add a nonzero value into out[key], deleting the key when the sum
    cancels.

    out is a dict the caller owns.  The values already in it are replaced,
    never changed in place, so they may be shared with other elements.
    """
    prev = out.get(key)
    if prev is None:
        out[key] = value
    else:
        s = prev + value
        if s:
            out[key] = s
        else:
            del out[key]


def _as_coeff(c):
    return c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)


class LinComb:
    """A finite linear combination of hashable basis keys.

    terms maps each key to a nonzero LaurentPoly coefficient; scalar
    coefficients given to the constructor are converted.  Elements are
    immutable values: no operation changes terms in place, so memo entries
    and series coefficients can be shared.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = _as_coeff(c)
                if c:
                    self.terms[key] = c

    @classmethod
    def from_dict(cls, terms):
        """Take over terms, a dict of nonzero LaurentPolys, without a copy."""
        e = cls.__new__(cls)
        e.terms = terms
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
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return self.from_dict(out)

    def __neg__(self):
        return self.from_dict({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def scale(self, s):
        if isinstance(s, LinComb):
            raise TypeError("scale takes a coefficient, not an element")
        s = _as_coeff(s)
        if not s:
            return self.zero()
        return self.from_dict({key: c * s for key, c in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[key] == c for key, c in self.terms.items())

    def __hash__(self):
        return hash(frozenset((k, c.canonical_key()) for k, c in self.terms.items()))

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
            elif len(c.terms) > 1 or "*" in cs or "/" in cs:
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
    leading coefficient 1; a pure parameter monomial is split into one
    factor per variable).  1/p == inv_unit / prod(factors).
    """
    assert not p.is_zero(), "zero denominator factor"
    terms = p.terms
    n = len(p.variables)
    # strip spectral monomial content
    content = [0] * n
    for i, v in enumerate(p.variables):
        if v.kind == "spectral":
            content[i] = min(e[i] for e in terms)
    stripped = {
        tuple(e - m for e, m in zip(exps, content)): c for exps, c in terms.items()
    }
    # scalar normalization by the lexicographically leading coefficient,
    # ranked in name order so the result is independent of context order
    order = sorted(range(n), key=lambda i: p.variables[i].name)
    lead = max(stripped, key=lambda e: tuple(e[i] for i in order))
    scale = stripped[lead]
    inv_exps = tuple(-m for m in content)
    inv_unit = LaurentPoly.monomial(p.variables, inv_exps, 1 / scale)
    if scale != 1:
        stripped = {e: c / scale for e, c in stripped.items()}
    canon = LaurentPoly(p.variables, stripped)
    if len(stripped) == 1:
        ((exps, c),) = stripped.items()
        assert c == 1
        factors = []
        for v, e in zip(p.variables, exps):
            if e:
                assert v.kind == "parameter" and e > 0 and e % 2 == 0
                factors.extend([LaurentPoly.var(v, p.variables)] * (e // 2))
        return inv_unit, factors
    return inv_unit, [canon]


def complement(den_factors, clearing, variables=()):
    """prod(clearing) / prod(den_factors) as a LaurentPoly over variables.

    Both arguments are multisets of canonical factors (see
    factor_canonical), matched by canonical_key with multiplicity.  Raises
    ValueError naming a denominator factor that clearing does not hold.
    This is the one place that works out what a clearing set lacks.
    """
    remaining = list(clearing)
    keys = [f.canonical_key() for f in remaining]
    for f in den_factors:
        try:
            i = keys.index(f.canonical_key())
        except ValueError:
            raise ValueError(
                f"denominator factor not covered by the clearing set: {f}"
            ) from None
        del keys[i], remaining[i]
    out = LaurentPoly.const(1, variables)
    for f in remaining:
        out = out * f
    return out


def factor_lcm(*multisets):
    """Least common multiple of factor multisets: every canonical factor at
    its highest multiplicity, represented by its first occurrence."""
    reps, need = {}, {}
    for factors in multisets:
        counts = {}
        for f in factors:
            key = f.canonical_key()
            reps.setdefault(key, f)
            counts[key] = counts.get(key, 0) + 1
        for key, c in counts.items():
            need[key] = max(need.get(key, 0), c)
    return [f for key, f in reps.items() for _ in range(need[key])]


class RatFun:
    """Quotient of LaurentPolys.  Equality is by cross multiplication.

    The display and test value of a TensorMat entry or trace; the checks
    themselves clear denominators through factor multisets instead."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num)
        if den is None:
            den = LaurentPoly.const(1, num.variables)
        elif not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den, num.variables)
        assert not den.is_zero(), "zero denominator"
        # absorb invertible denominators (scalars, spectral monomials)
        if den.is_term():
            ((exps, c),) = den.terms.items()
            if all(
                e == 0 or v.kind == "spectral" for v, e in zip(den.variables, exps)
            ):
                inv = LaurentPoly.monomial(den.variables, tuple(-e for e in exps), 1 / c)
                num = num * inv
                den = LaurentPoly.const(1, num.variables)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = _as_rfun(other)
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_rfun(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_rfun(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rfun(other)
        assert not other.num.is_zero(), "division by zero"
        return RatFun(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if isinstance(other, (RatFun, LaurentPoly) + _SCALAR_TYPES):
            other = _as_rfun(other)
            return (self.num * other.den - other.num * self.den).is_zero()
        return NotImplemented

    # equal RatFuns need not share a reduced form, so no hash can agree
    # with the cross-multiplied equality
    __hash__ = None

    def derivative(self, v):
        return RatFun(
            self.num.derivative(v) * self.den - self.num * self.den.derivative(v),
            self.den * self.den,
        )

    def __str__(self):
        if self.den == LaurentPoly.const(1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def _as_rfun(x):
    if isinstance(x, RatFun):
        return x
    return RatFun(x if isinstance(x, LaurentPoly) else LaurentPoly.const(x))
