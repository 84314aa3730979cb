"""Identities of the affine mode tables, decided for every integer mode.

Every table behind the mode algebra and its families is affine in the
mode, so their identities are decided once, at symbolic modes.  Checks
hand this module their live rows, never copies, and each symbolic bracket
sits next to the concrete rule reading the same table (kacmoody._loop,
onsager._raw).  A form (a, b, k) is a n + b m + k in the modes n and m.  A
symbolic element is a LinComb keyed by Gen(letter, form), Loop(type, form)
and Central(guard, power), c times [guard = 0] times n, m or 1 (power 0,
1, 2): the central terms on one guard line sum to [g = 0] p c, p affine.
"""

from math import gcd
from typing import NamedTuple

from .exactalg import LinComb, accumulate
from .report import Residuals

N, M = (1, 0, 0), (0, 1, 0)


def lin(p, f, q=0, g=N, r=0):
    """The form p f + q g + r."""
    a, b, k = (p * x + q * y for x, y in zip(f, g))
    return a, b, k + r


def show(f):
    """A form, or an affine p, as it reads: n + m + 1, -n, 2*m or 0."""
    out = ""
    for c, v in zip(f, ("n", "m", "")):
        if c:
            word = v if abs(c) == 1 and v else f"{abs(c)}*{v}" if v else f"{abs(c)}"
            out += ((" - " if c < 0 else " + ") if out else "-" * (c < 0)) + word
    return out or "0"


class Gen(NamedTuple):
    name: str
    form: tuple

    def __str__(self):
        return f"{self.name}[{show(self.form)}]"


class Loop(Gen):
    __slots__ = ()

    def __str__(self):
        return f"{self.name.lower()}[{show(self.form)}]"


class Central(NamedTuple):
    guard: tuple
    power: int

    def __str__(self):
        return "c" if self == C else f"[{show(self.guard)} = 0]*{'nm1'[self.power]}*c"


C = Central((0, 0, 0), 2)


def central(guard, p, coeff=1):
    """The terms of coeff [guard = 0] p c, the guard in the one form of its
    line: content divided out, first nonzero coefficient positive."""
    d = gcd(*guard)
    if d:
        d = d if next(c for c in guard if c) > 0 else -d
        guard = tuple(c // d for c in guard)
    return [(Central(guard, i), coeff * c) for i, c in enumerate(p) if c]


def image(row, key):
    """key under an affine map row (see kacmoody._affine_image): X[f] goes to
    the sum of k type[s f + b] plus z [f = 0] c, and a central key to z_c
    times itself, z_c that of row["C"]."""
    if type(key) is Central:
        terms, z = row["C"]
        if terms:
            raise ValueError("an affine map must send c into the centre")
        return LinComb.single(key, z)
    terms, z = row[key.name]
    out = {}
    for k, t, s, b in terms:
        accumulate(out, Loop(t, lin(s, key.form, r=b)), k)
    for k, c in central(key.form, (0, 0, 1), z) if z else ():
        accumulate(out, k, c)
    return LinComb.from_dict(out)


class Proof(Residuals):
    """The residuals of identities decided for every integer mode, and how
    many were decided: a proof that decided none fails.  It refuses a
    negative window, as every check taking one does, though it reads none."""

    def __init__(self, window=0):
        if window < 0:
            raise ValueError(f"window must be >= 0, not {window}")
        super().__init__()
        self.decided = 0

    def settle(self, count, text, position, *args):
        """Count one identity, refuted by count > 0 residual terms."""
        self.decided += 1
        if count:
            Residuals.add(self, text, position, *args, terms=count)

    def add(self, residual, position, *args):
        """Decide residual = 0 at every mode.  Distinct forms differ at all
        but finitely many modes, so a non-central term refutes it; so does
        [g = 0] p c on a line with integer points unless p is a multiple of
        g, as the line holds infinitely many and meets another in one."""
        loose, lines, bad = {}, {}, []
        for key, c in residual.terms.items():
            if type(key) is Central:
                lines.setdefault(key.guard, [0, 0, 0])[key.power] += c
            else:
                loose[key] = c
        for g, p in sorted(lines.items()):
            if g == (0, 0, 1) or (g[0] or g[1]) and g[2] % gcd(g[0], g[1]):
                continue  # no integer point
            if any(p) if g == (0, 0, 0) else any(
                    p[i] * g[j] != p[j] * g[i] for i, j in ((0, 1), (0, 2), (1, 2))):
                ps = show(p)
                term = f"({ps})*c" if " " in ps else "c" if ps == "1" else f"{ps}*c"
                bad.append(term if g == (0, 0, 0) else f"{term} on {show(g)} = 0")
        text = [str(LinComb.from_dict(loose))] if loose else []
        self.settle(len(loose) + len(bad), "; ".join(text + bad), position, *args)

    def report(self, name, region):
        if not self.decided:
            Residuals.add(self, "no identity was decided", "vacuous proof", terms=1)
        return super().report(name, f"{region} ({self.decided} identities)")


def injective(res, images, rules):
    """Decide that canonical generators have independent images: images maps
    each letter X to the image of X[n], rules to its _LETTERS rule (r, sign),
    canonical from n = r // 2 + (r odd or sign < 0), or None.  X[n]'s lead,
    its first term growing with n, must keep a nonzero coefficient and be in
    no other canonical image, so it reads X[n] off a vanishing sum as 0."""
    low = {x: r and r[0] // 2 + (r[0] % 2 or r[1] < 0) for x, r in rules.items()}
    for x, img in images.items():
        lead = min((k for k in img.terms if type(k) is Loop and k.form[0] == 1), default=None)
        clash = [] if lead else ["no term grows with n"]
        for y, other in images.items():
            for key in other.terms if lead else ():
                if type(key) is not Loop or key.name != lead.name or key == lead and y == x:
                    continue
                a, k = key.form[0], key.form[2] - lead.form[2]  # x[a m + k]'s lead is in y[m]
                if a >= 0 or low[x] is None or low[y] is None:
                    clash.append(f"{lead} is in {y}[m] for infinitely many n")
                    continue
                for m in range(low[y], (k - low[x]) // -a + 1):
                    n = a * m + k
                    if y != x or m != n:
                        clash.append(f"{lead} is in {y}[{m}] at n = {n}")
                    elif not sum(c for t, c in img.terms.items() if type(t) is Loop and t.name
                                 == lead.name and t.form[0] * n + t.form[2] == n + lead.form[2]):
                        clash.append(f"{lead} cancels at n = {n}")
        res.settle(len(clash), "; ".join(clash), "injective at {}[n], {}", x,
                   "every n" if low[x] is None else f"n >= {low[x]}")
