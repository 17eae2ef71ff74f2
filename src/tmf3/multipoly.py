"""Weight-graded polynomials with exact rational coefficients.

Every variable set has a first variable of weight 1 (a1), so a monomial
is fixed by its weight and its other exponents. A polynomial is
stored as integer numerators over one common denominator ``den``, grouped
by weight: ``groups`` maps the key (weight, e_1, ..., e_{n-2}) to a dense
list of ints indexed by the exponent e_{n-1} of the last variable, and the
exponent of the first variable is the weight minus the weight of the rest.
For (a1, a3) the key is (w,) and the list holds the coefficients of
a1^(w-3j) a3^j; for the function field's (a1, a3, x) the key is (w, j) and
the list runs over the power of x. Lists have no trailing zeros, zero lists
are dropped, gcd(den, numerators) = 1 and ``den == 1`` for zero, so equal
polynomials have equal fields (``tmf3.ring``'s rule, with the gcd taken over
all lists at once). Products are list convolutions, one per pair of groups;
``terms`` is a read-only view {exponent tuple: int}.

A polynomial's variable set is its type: ``MultiPoly`` is the level-3 ring
in (a1, a3) of modular-form weights (1, 3), and a subclass fixes another set
in the class attributes ``vars`` and ``weights``, as the function field's
``FieldPoly`` does for (a1, a3, x). Mixing two sets is a TypeError.

Also provides:

* ``divide_exact`` -- exact division by a1^3 - 27*a3 only, weight by
  weight: the quotient's list is q_j = c_j + 27 q_(j-1) from the low end,
  accepted only if the product gives back p;
* ``GF2Poly`` -- polynomials over F2 in ``vars``, (a1, a3) or a subclass's,
  in the same layout with one int per group: ``groups`` maps the key to a
  bitmask whose bit k is the coefficient of the last variable's exponent k.
  A sum is an XOR per group, a product a carry-less product per pair of
  groups, and a power the product of the Frobenius images x^(2^i) for the
  bits i of n, each made by shifting the keys and spreading the bits;
  ``monos`` is a read-only view, the frozenset of exponent tuples. ``mod2``,
  the reduction of a MultiPoly, takes the low bit of each numerator;
* ``LocElem`` -- canonical elements of the localization inverting
  Delta = a3^3 * (a1^3 - 27*a3); denominators are tracked as the pair
  (power of a3, power of a1^3 - 27*a3) since Delta is reducible. A power
  of a3 is removed by one shift of the lists' leading zeros. ``loc_sum``
  adds fractions over their common denominator and reduces the sum once;
  ``LocElem.__add__`` is its case of two. Its powers of a1^3 - 27*a3 come
  from ``_cached_pow``, a table of powers keyed by the polynomial itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul

from .ring import DomainError, Ring, integral_model, monomial_text, terms_text

# -- int lists ---------------------------------------------------------------

def _add_lists(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [*map(add, a, b), *a[len(b):]]


def _convolve(a, b):
    """The product of two coefficient lists: one slice update per entry of
    the shorter list."""
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + n] = map(add, out[j:j + n], map(mul, a, repeat(y)))
    return out


def _power_list(a, k):
    """a^k for a list with a[0] != 0, by J. C. P. Miller's recurrence
    m a_0 c_m = sum_i ((k + 1) i - m) a_i c_(m-i), which is exact on ints:
    O(len(a)) steps per coefficient instead of a squaring's O(len(c))."""
    a0, top = a[0], len(a) - 1
    c = [a0 ** k]
    for m in range(1, k * top + 1):
        s = 0
        for i in range(1, min(m, top) + 1):
            s += ((k + 1) * i - m) * a[i] * c[m - i]
        c.append(s // (m * a0))
    return c


def _scale(groups, f):
    return {key: [c * f for c in cs] for key, cs in groups.items()}


def _leading_zeros(cs):
    return next(i for i, c in enumerate(cs) if c)


def _group(terms, weights):
    """(exponent tuple, int) pairs -> {key: list}, not yet canonical."""
    groups = {}
    for e, c in terms:
        if min(e) < 0:
            raise ValueError(f"negative exponent in {e}")
        cs = groups.setdefault((sum(map(mul, e, weights)), *e[1:-1]), [])
        k = e[-1]
        if len(cs) <= k:
            cs.extend([0] * (k + 1 - len(cs)))
        cs[k] += c
    return groups


def _canonical(groups, den):
    """(groups, den) with trailing zeros stripped, zero lists dropped and
    gcd(den, numerators) = 1; ``den`` must be positive."""
    clean = {}
    for key, cs in groups.items():
        if cs and not cs[-1]:
            n = len(cs) - 1
            while n and not cs[n - 1]:
                n -= 1
            cs = cs[:n]
        if cs:
            clean[key] = cs
    if den != 1:
        g = gcd(den, *chain.from_iterable(clean.values()))
        if g != 1:
            clean = {key: [c // g for c in cs] for key, cs in clean.items()}
            den //= g
    return clean, den


class MultiPoly(Ring):
    """Weight-graded polynomial in ``vars``: {key: list of ints} over ``den``."""

    __slots__ = ("groups", "den")
    vars = ("a1", "a3")
    weights = (1, 3)

    def __init__(self, terms=None):
        clean = {tuple(e): Fraction(c) for e, c in (terms or {}).items() if c}
        den, nums = integral_model(clean.values(), repeat(1))
        self.groups, self.den = _canonical(_group(zip(clean, nums), self.weights), den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _new(cls, groups, den):
        """Internal: build from {key: list of ints} over a positive den."""
        self = cls.__new__(cls)
        self.groups, self.den = _canonical(groups, den)
        return self

    @classmethod
    def const(cls, c):
        return cls({(0,) * len(cls.vars): c})

    def one(self):
        return self.const(1)

    @classmethod
    def gen(cls, name):
        e = [0] * len(cls.vars)
        e[cls.vars.index(name)] = 1
        return cls({tuple(e): 1})

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self):
        """Read-only view {exponent tuple: nonzero int numerator}."""
        w = self.weights
        out = {}
        for key, cs in self.groups.items():
            mid = key[1:]
            top = key[0] - sum(map(mul, mid, w[1:-1]))
            for k, c in enumerate(cs):
                if c:
                    out[(top - w[-1] * k, *mid, k)] = c
        return out

    def is_zero(self):
        return not self.groups

    def _key(self):
        return self.den, frozenset((key, tuple(cs)) for key, cs in self.groups.items())

    def _shift(self, exps):
        """self times the monomial with exponents ``exps``, whose negative
        entries must leave every exponent >= 0."""
        dw = sum(map(mul, exps, self.weights))
        mid, k = exps[1:-1], exps[-1]
        groups = {(key[0] + dw, *map(add, key[1:], mid)):
                  [0] * k + cs if k >= 0 else cs[-k:] for key, cs in self.groups.items()}
        return self._new(groups, self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        f1, f2 = den // d1, den // d2
        g = dict(self.groups) if f1 == 1 else _scale(self.groups, f1)
        for key, cs in other.groups.items():
            if f2 != 1:
                cs = [c * f2 for c in cs]
            old = g.get(key)
            g[key] = cs if old is None else _add_lists(old, cs)
        return self._new(g, den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            return self._new(_scale(self.groups, n), self.den * d)
        if (other := self._lift(other)) is None:
            return NotImplemented
        out = {}
        for k1, c1 in self.groups.items():
            for k2, c2 in other.groups.items():
                key = tuple(map(add, k1, k2))
                prod = _convolve(c1, c2)
                old = out.get(key)
                out[key] = prod if old is None else _add_lists(old, prod)
        return self._new(out, self.den * other.den)

    def __pow__(self, n: int):
        if n >= 0 and len(self.groups) == 1:
            # every homogeneous polynomial in two variables
            (key, cs), = self.groups.items()
            z = _leading_zeros(cs)
            return self._new({tuple(n * x for x in key):
                              [0] * (z * n) + _power_list(cs[z:], n)}, self.den ** n)
        return super().__pow__(n)

    # -- queries -----------------------------------------------------------

    def weight_of(self) -> int:
        """Common weight of all terms; raises if inhomogeneous or zero."""
        if not self.groups:
            raise ValueError("weight of the zero polynomial is undefined")
        ws = {key[0] for key in self.groups}
        if len(ws) != 1:
            raise ValueError(f"inhomogeneous polynomial, weights {sorted(ws)}")
        return ws.pop()

    def content_val2(self):
        """2-adic valuation of the gcd of the (integer) coefficients."""
        if not self.groups:
            raise ValueError("content of zero polynomial")
        if self.den % 2 == 0:
            raise ValueError("coefficient with even denominator")
        g = gcd(*chain.from_iterable(self.groups.values()))
        return (g & -g).bit_length() - 1

    # -- printing ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms sorted by descending lex exponents."""
        return terms_text(self.vars, {e: Fraction(c, self.den)
                                      for e, c in self.terms.items()})


# -- fixed polynomials in (a1, a3) ----------------------------------------

# built once and shared: no operation changes a MultiPoly's fields, so a
# shared value cannot be altered by its users
_A1 = MultiPoly.gen("a1")
_A3 = MultiPoly.gen("a3")
# the two factors of Delta are a3 and _DISC
_DISC = _A1 ** 3 - 27 * _A3


def a1():
    return _A1


def a3():
    return _A3


def disc_factor():
    """a1^3 - 27*a3, the non-monomial factor of Delta."""
    return _DISC


# -- exact division ---------------------------------------------------------

def divide_exact(p: MultiPoly):
    """Exact quotient p / (a1^3 - 27*a3), or None if a1^3 - 27*a3 does not
    divide p; p is a polynomial in (a1, a3).

    Weight by weight the quotient's list is q_j = c_j + 27 q_(j-1). Then
    q * (a1^3 - 27*a3) equals p in every coefficient but the top one, so
    the product gives back p exactly when c_n = -27 q_(n-1).
    """
    if type(p) is not MultiPoly:
        raise TypeError(f"{p!r} is not a polynomial in (a1, a3)")
    out = {}
    for (w,), c in p.groups.items():
        q, prev = [], 0
        for x in c[:-1]:
            prev = x + 27 * prev
            q.append(prev)
        if c[-1] != -27 * prev:
            return None
        out[(w - 3,)] = q
    return MultiPoly._new(out, p.den)


# -- mod 2 -------------------------------------------------------------------

def _bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clmul(a, b, acc=0):
    """acc plus the carry-less product of two bitmasks: the shifts of the
    denser one over the set bits of the sparser one, all summed by XOR."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    while a:
        low = a & -a
        acc ^= b << low.bit_length() - 1
        a ^= low
    return acc


class GF2Poly(Ring):
    """Polynomial over F2 in ``vars``: {key: bitmask}, keyed as a MultiPoly
    in the same variables is, with bit k the coefficient of the last
    variable's exponent k; zero masks are dropped."""

    __slots__ = ("groups",)
    vars = MultiPoly.vars
    weights = MultiPoly.weights

    def __init__(self, monos=()):
        groups = {}
        w = self.weights
        for e in monos:
            if min(e) < 0:
                raise ValueError(f"negative exponent in {tuple(e)}")
            key = (sum(map(mul, e, w)), *e[1:-1])
            groups[key] = groups.get(key, 0) ^ 1 << e[-1]
        self.groups = {key: b for key, b in groups.items() if b}

    @classmethod
    def _new(cls, groups):
        """Internal: build from {key: bitmask}, zero masks allowed."""
        self = cls.__new__(cls)
        self.groups = {key: b for key, b in groups.items() if b}
        return self

    @property
    def monos(self):
        """Read-only view: the frozenset of exponent tuples with coefficient 1."""
        w = self.weights
        out = []
        for key, b in self.groups.items():
            mid = key[1:]
            top = key[0] - sum(map(mul, mid, w[1:-1]))
            out += [(top - w[-1] * k, *mid, k) for k in _bits(b)]
        return frozenset(out)

    def is_zero(self):
        return not self.groups

    def _key(self):
        return frozenset(self.groups.items())

    def _lift(self, x):
        # no scalar mixes (GF2Poly(...) == 0 is False), nor another class
        return x if type(x) is type(self) else None

    def one(self):
        return self._new({(0,) * (len(self.vars) - 1): 1})

    def __add__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        groups = dict(self.groups)
        for key, b in other.groups.items():
            groups[key] = groups.get(key, 0) ^ b
        return self._new(groups)

    def __mul__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        out = {}
        for k1, b1 in self.groups.items():
            for k2, b2 in other.groups.items():
                key = tuple(map(add, k1, k2))
                out[key] = _clmul(b1, b2, out.get(key, 0))
        return self._new(out)

    def __pow__(self, n: int):
        # over F2 a square is the Frobenius image: its cross terms cancel in
        # pairs, so x^(2^i) is x with every exponent times 2^i (each key
        # entry and each bit position shifted left by i), and x^n is the
        # product of those for the bits i of n
        if n < 0:
            return super().__pow__(n)
        factors = [self._new({tuple(x << i for x in key):
                              sum(1 << (k << i) for k in _bits(b))
                              for key, b in self.groups.items()})
                   for i in _bits(n)]
        return reduce(mul, factors) if factors else self.one()

    def to_text(self):
        return " + ".join(monomial_text(self.vars, e) or "1"
                          for e in sorted(self.monos, reverse=True)) or "0"


def mod2(p: MultiPoly) -> GF2Poly:
    """Reduce coefficients mod 2; denominators must be odd (3 maps to 1).
    Over an odd ``den`` a coefficient's parity is its numerator's, so each
    group's mask holds the low bits of its list."""
    if type(p) is not MultiPoly:
        raise TypeError(f"{p!r} is not a polynomial in (a1, a3)")
    if p.den % 2 == 0:
        nums = chain.from_iterable(p.groups.values())
        bad = next(c for c in (Fraction(n, p.den) for n in nums) if c.denominator % 2 == 0)
        raise ValueError(f"coefficient {bad} has even denominator")
    return GF2Poly._new({key: sum((c & 1) << k for k, c in enumerate(cs))
                         for key, cs in p.groups.items()})


# -- localization at Delta ---------------------------------------------------

class LocElem(Ring):
    """num / (a3^e3 * (a1^3 - 27*a3)^e9), stored in canonical form."""

    __slots__ = ("num", "e3", "e9")

    def __init__(self, num: MultiPoly, e3: int = 0, e9: int = 0):
        if e3 < 0 or e9 < 0:
            raise ValueError("denominator exponents must be >= 0")
        if type(num) is not MultiPoly:
            raise TypeError(f"{num!r} is not a polynomial in (a1, a3)")
        num, e3, e9 = _loc_reduce(num, e3, e9)
        self.num = num
        self.e3 = e3
        self.e9 = e9

    @classmethod
    def _from_canonical(cls, num: MultiPoly, e3: int, e9: int):
        """num / (a3^e3 (a1^3 - 27*a3)^e9) from a numerator that is already
        canonical (divisible by neither factor of a positive power), taken
        as it is; a zero numerator still gives e3 = e9 = 0."""
        g = cls.__new__(cls)
        g.num = num
        g.e3, g.e9 = (0, 0) if num.is_zero() else (e3, e9)
        return g

    def one(self):
        return LocElem(self.num.one())

    def _lift(self, x):
        """A MultiPoly p as p / 1, and a scalar as for every Ring."""
        return LocElem(x) if type(x) is MultiPoly else super()._lift(x)

    def _key(self):
        return self.num, self.e3, self.e9

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        return loc_sum((self.num, self.e3, self.e9), (other.num, other.e3, other.e9))

    # a scalar, -1 included, and a power keep a numerator canonical: a3 and
    # a1^3 - 27*a3 are prime, so neither divides num^n unless it divides num
    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LocElem._from_canonical(self.num * other, self.e3, self.e9)
        if (other := self._lift(other)) is None:
            return NotImplemented
        return LocElem(self.num * other.num, self.e3 + other.e3, self.e9 + other.e9)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        return LocElem._from_canonical(self.num ** n, self.e3 * n, self.e9 * n)

    def inverse(self):
        """Inverse, defined only when num is a unit of the localization,
        i.e. a scalar times a3^i * (a1^3-27*a3)^j."""
        if self.is_zero():
            raise DomainError("element is not invertible in the localization")
        # neither factor divides num to a power above num's top weight
        top = max(self.num.groups)[0]
        num, e3, e9 = _loc_reduce(self.num, top, top)
        if list(num.groups) != [(0,)]:
            raise DomainError("element is not invertible in the localization")
        c = Fraction(num.groups[(0,)][0], num.den)
        inv_num = (_A3 ** self.e3) * (_DISC ** self.e9) * (1 / c)
        return LocElem(inv_num, top - e3, top - e9)

    def weight_of(self) -> int:
        return self.num.weight_of() - 3 * self.e3 - 3 * self.e9

    def to_text(self):
        s = self.num.to_text()
        den = " * ".join(monomial_text((name,), (e,)) for name, e in
                         (("a3", self.e3), ("(a1^3 - 27*a3)", self.e9)) if e)
        return f"({s}) / ({den})" if den else s


@lru_cache(maxsize=None)
def _cached_pow(base: MultiPoly, n: int) -> MultiPoly:
    """base^n, cached by value: a generator or factor rebound to another
    polynomial is a new key."""
    return base ** n


def loc_sum(*parts):
    """The sum of the fractions num / (a3^e3 (a1^3 - 27*a3)^e9), each given
    as (num, e3, e9) and not necessarily reduced, as one LocElem: every
    numerator is lifted to the common denominator, by a power of
    a1^3 - 27*a3 from ``_cached_pow``, and the sum is reduced once."""
    e3 = max(p[1] for p in parts)
    e9 = max(p[2] for p in parts)
    total = None
    for num, f3, f9 in parts:
        if e3 > f3:
            num = num._shift((0, e3 - f3))
        if e9 > f9:
            num = num * _cached_pow(_DISC, e9 - f9)
        total = num if total is None else total + num
    return LocElem(total, e3, e9)


def _loc_reduce(num, e3, e9):
    if num.is_zero():
        return num, 0, 0
    if e3:
        k = min(e3, *map(_leading_zeros, num.groups.values()))
        if k:
            num, e3 = num._shift((0, -k)), e3 - k
    while e9 > 0:
        q = divide_exact(num)
        if q is None:
            break
        num, e9 = q, e9 - 1
    return num, e3, e9
