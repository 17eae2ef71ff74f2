"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as integer numerators over one common denominator,
the layout of FLINT's ``fmpq_poly``: ``terms`` maps exponent tuples to
nonzero ints and ``den`` is a positive int, with gcd(den, numerators) = 1
and ``den == 1`` for zero, so the coefficient of a term is
``Fraction(terms[e], den)`` and equal polynomials have equal fields.
Sums and products run on Python ints and reduce by one gcd at the end.

The default variable set is (a1, a3) carrying modular-form weights (1, 3);
an extended set a1, a2, a3, a4, a6 (weights 1, 2, 3, 4, 6) is used by the
Weierstrass invariant polynomials, and ad-hoc sets like (u, v) by the
binomial lemma checks.

Also provides:

* ``GF2Poly`` -- the mod-2 reduction, as a set of exponent vectors;
* ``LocElem`` -- canonical elements of the localization inverting
  Delta = a3^3 * (a1^3 - 27*a3); denominators are tracked as the pair
  (power of a3, power of a1^3 - 27*a3) since Delta is reducible.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import add, lshift, neg, sub

DEFAULT_VARS = ("a1", "a3")
STANDARD_WEIGHTS = {"a1": 1, "a2": 2, "a3": 3, "a4": 4, "a6": 6}


def _weights_for(vars):
    return tuple(STANDARD_WEIGHTS.get(v, 1) for v in vars)


def _canonical(terms, den):
    """(terms, den) with zero terms dropped and gcd(den, numerators) = 1;
    ``den`` must be positive."""
    terms = {e: c for e, c in terms.items() if c}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
            den //= g
    return terms, den


class MultiPoly:
    """Sparse polynomial: dict {exponent tuple: nonzero int} over ``den``."""

    __slots__ = ("vars", "weights", "terms", "den")

    def __init__(self, terms=None, vars=DEFAULT_VARS, weights=None):
        self.vars = tuple(vars)
        self.weights = tuple(weights) if weights is not None else _weights_for(self.vars)
        clean = {}
        if terms:
            for exps, c in terms.items():
                e = tuple(exps)
                clean[e] = clean.get(e, 0) + Fraction(c)
        den = lcm(*(c.denominator for c in clean.values()))
        self.terms, self.den = _canonical(
            {e: c.numerator * (den // c.denominator) for e, c in clean.items()}, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, terms, den, vars, weights):
        """Internal: build from {exponent tuple: int} over a positive den."""
        self = cls.__new__(cls)
        self.vars = vars
        self.weights = weights
        self.terms, self.den = _canonical(terms, den)
        return self

    @classmethod
    def zero(cls, vars=DEFAULT_VARS, weights=None):
        return cls({}, vars, weights)

    @classmethod
    def const(cls, c, vars=DEFAULT_VARS, weights=None):
        n = len(vars)
        return cls({(0,) * n: c}, vars, weights)

    @classmethod
    def gen(cls, name, vars=DEFAULT_VARS, weights=None):
        i = tuple(vars).index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls({tuple(e): 1}, vars, weights)

    # -- basic structure ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars, self.weights)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.vars == other.vars and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.terms.items())))

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _wrap(self, x):
        if isinstance(x, MultiPoly):
            return x
        return MultiPoly.const(x, self.vars, self.weights)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        self._check(other)
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        f1, f2 = den // d1, den // d2
        t = dict(self.terms) if f1 == 1 else {e: c * f1 for e, c in self.terms.items()}
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c * f2
        return MultiPoly._make(t, den, self.vars, self.weights)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make({e: -c for e, c in self.terms.items()},
                               self.den, self.vars, self.weights)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            return MultiPoly._make({e: c * n for e, c in self.terms.items()},
                                   self.den * d, self.vars, self.weights)
        self._check(other)
        if not (self.terms and other.terms):
            return MultiPoly.zero(self.vars, self.weights)
        # exponent tuples packed into ints, one field per variable, with
        # fields wide enough that adding two packed keys never carries
        width = (max(map(max, self.terms)) + max(map(max, other.terms))).bit_length() or 1
        shifts = range(0, width * len(self.vars), width)
        others = [(sum(map(lshift, e, shifts)), c) for e, c in other.terms.items()]
        t = {}
        get = t.get
        for e1, c1 in self.terms.items():
            k1 = sum(map(lshift, e1, shifts))
            for k2, c2 in others:
                k = k1 + k2
                t[k] = get(k, 0) + c1 * c2
        mask = (1 << width) - 1
        fields = [[(k >> s) & mask for k in t] for s in shifts]
        return MultiPoly._make(dict(zip(zip(*fields), t.values())),
                               self.den * other.den, self.vars, self.weights)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(1, self.vars, self.weights)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    # -- queries -----------------------------------------------------------

    def coeff(self, exps) -> Fraction:
        return Fraction(self.terms.get(tuple(exps), 0), self.den)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def weight_of(self) -> int:
        """Common weight of all terms; raises if inhomogeneous or zero."""
        if not self.terms:
            raise ValueError("weight of the zero polynomial is undefined")
        ws = {sum(x * w for x, w in zip(e, self.weights)) for e in self.terms}
        if len(ws) != 1:
            raise ValueError(f"inhomogeneous polynomial, weights {sorted(ws)}")
        return ws.pop()

    def content_val2(self):
        """2-adic valuation of the gcd of the (integer) coefficients."""
        if not self.terms:
            raise ValueError("content of zero polynomial")
        if self.den % 2 == 0:
            raise ValueError("coefficient with even denominator")
        g = gcd(*self.terms.values())
        return (g & -g).bit_length() - 1

    # -- printing ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms sorted by descending lex exponents."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            factors = [str(Fraction(self.terms[e], self.den))]
            for name, x in zip(self.vars, e):
                if x == 1:
                    factors.append(name)
                elif x > 1:
                    factors.append(f"{name}^{x}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


# -- fixed polynomials in (a1, a3) ----------------------------------------

def a1():
    return MultiPoly.gen("a1")


def a3():
    return MultiPoly.gen("a3")


def disc_factor():
    """a1^3 - 27*a3, the non-monomial factor of Delta."""
    return a1() ** 3 - 27 * a3()


def delta_poly():
    """Delta = a3^3 * (a1^3 - 27*a3) = a1^3*a3^3 - 27*a3^4."""
    return a3() ** 3 * disc_factor()


# the two factors of Delta, shared by every LocElem operation
_A3 = a3()
_DISC = disc_factor()


# -- exact division ---------------------------------------------------------

def divide_exact(p: MultiPoly, d: MultiPoly):
    """Exact quotient p / d, or None if d does not divide p.

    Division is performed univariately in the first variable of ``d`` whose
    degree is positive, by integer synthetic division on the numerators:
    terms of the remainder are taken in descending (pivot exponent,
    exponent) order from a heap. The package divides only by a3 and
    a1^3 - 27*a3, whose leading coefficients are 1; any other leading
    coefficient c must be a monomial, and the powers of c the division
    needs are folded into the quotient's denominator.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.vars, p.weights)
    p._check(d)
    pivot = next(i for i, name in enumerate(d.vars) if d.degree_in(name) > 0)
    ddeg = max(e[pivot] for e in d.terms)
    lead = {e: c for e, c in d.terms.items() if e[pivot] == ddeg}
    if len(lead) != 1:
        raise ValueError("divisor leading coefficient is not a monomial")
    (le, lc), = lead.items()
    # p / d = (P / p.den) / (D / d.den) for the numerator polynomials P, D;
    # the loops below find Q with Q * D = scale * P
    scale = 1
    q = {}
    if len(d.terms) == 1:
        # monomial divisor: exponent shift
        for e, c in p.terms.items():
            qe = tuple(map(sub, e, le))
            if min(qe) < 0:
                return None
            q[qe] = c
        scale = lc
    else:
        r = dict(p.terms)
        others = [(e, c) for e, c in d.terms.items() if e != le]
        heap = [(-e[pivot], tuple(map(neg, e)), e) for e in r]
        heapq.heapify(heap)
        while heap:
            e = heapq.heappop(heap)[2]
            c = r.pop(e, 0)
            if not c:
                continue
            qe = tuple(map(sub, e, le))
            if e[pivot] < ddeg or min(qe) < 0:
                return None
            if c % lc:
                f = lc // gcd(c, lc)
                scale *= f
                c *= f
                r = {k: v * f for k, v in r.items()}
                q = {k: v * f for k, v in q.items()}
            qc = c // lc
            q[qe] = qc
            for e2, c2 in others:
                ke = tuple(map(add, qe, e2))
                if ke not in r:
                    heapq.heappush(heap, (-ke[pivot], tuple(map(neg, ke)), ke))
                r[ke] = r.get(ke, 0) - qc * c2
    f = d.den if scale > 0 else -d.den
    return MultiPoly._make({e: c * f for e, c in q.items()}, abs(scale) * p.den,
                           p.vars, p.weights)


# -- mod 2 -------------------------------------------------------------------

class GF2Poly:
    """Polynomial over F2: frozenset of exponent tuples."""

    __slots__ = ("vars", "monos")

    def __init__(self, monos=(), vars=DEFAULT_VARS):
        acc = set()
        for e in monos:
            e = tuple(e)
            if e in acc:
                acc.discard(e)
            else:
                acc.add(e)
        self.vars = tuple(vars)
        self.monos = frozenset(acc)

    def is_zero(self):
        return not self.monos

    def __eq__(self, other):
        return (isinstance(other, GF2Poly) and self.vars == other.vars
                and self.monos == other.monos)

    def __hash__(self):
        return hash((self.vars, self.monos))

    def __add__(self, other):
        return GF2Poly(self.monos ^ other.monos, self.vars)

    def __mul__(self, other):
        acc = set()
        for e1 in self.monos:
            for e2 in other.monos:
                e = tuple(i + j for i, j in zip(e1, e2))
                if e in acc:
                    acc.discard(e)
                else:
                    acc.add(e)
        return GF2Poly(acc, self.vars)

    def __pow__(self, n: int):
        result = GF2Poly([(0,) * len(self.vars)], self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            # squaring over F2 is the Frobenius: double every exponent
            base = GF2Poly([tuple(2 * x for x in e) for e in base.monos], base.vars)
            n >>= 1
        return result

    def to_text(self):
        if not self.monos:
            return "0"
        parts = []
        for e in sorted(self.monos, reverse=True):
            factors = []
            for name, x in zip(self.vars, e):
                if x == 1:
                    factors.append(name)
                elif x > 1:
                    factors.append(f"{name}^{x}")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    def __repr__(self):
        return f"GF2Poly({self.to_text()})"


def mod2(p: MultiPoly) -> GF2Poly:
    """Reduce coefficients mod 2; denominators must be odd (3 maps to 1)."""
    if p.den % 2 == 0:
        bad = next(c for c in (Fraction(n, p.den) for n in p.terms.values())
                   if c.denominator % 2 == 0)
        raise ValueError(f"coefficient {bad} has even denominator")
    return GF2Poly([e for e, c in p.terms.items() if c % 2], p.vars)


def min_a1_term(p):
    """The unique term of minimal a1-exponent of a nonzero (GF2)poly.

    For a MultiPoly, returns (exponent tuple, coefficient); for a GF2Poly,
    returns the exponent tuple.  Ties broken by minimal full exponent tuple
    (impossible for homogeneous input).
    """
    if isinstance(p, GF2Poly):
        if not p.monos:
            raise ValueError("min_a1_term of zero polynomial")
        i = p.vars.index("a1")
        return min(p.monos, key=lambda e: (e[i], e))
    if not p.terms:
        raise ValueError("min_a1_term of zero polynomial")
    i = p.vars.index("a1")
    e = min(p.terms, key=lambda t: (t[i], t))
    return e, Fraction(p.terms[e], p.den)


# -- localization at Delta ---------------------------------------------------

class LocElem:
    """num / (a3^e3 * (a1^3 - 27*a3)^e9), stored in canonical form."""

    __slots__ = ("num", "e3", "e9")

    def __init__(self, num: MultiPoly, e3: int = 0, e9: int = 0):
        if e3 < 0 or e9 < 0:
            raise ValueError("denominator exponents must be >= 0")
        num, e3, e9 = _loc_reduce(num, e3, e9)
        self.num = num
        self.e3 = e3
        self.e9 = e9

    @classmethod
    def from_poly(cls, p):
        if isinstance(p, LocElem):
            return p
        if isinstance(p, (int, Fraction)):
            p = MultiPoly.const(p)
        return cls(p, 0, 0)

    @classmethod
    def delta_inverse(cls, k: int = 1):
        """Delta^-k as a LocElem; sugar for exponents (3k, k)."""
        return cls(MultiPoly.const(1), 3 * k, k)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        other = LocElem.from_poly(other)
        return (self.num, self.e3, self.e9) == (other.num, other.e3, other.e9)

    def __hash__(self):
        return hash((self.num, self.e3, self.e9))

    def __add__(self, other):
        other = LocElem.from_poly(other)
        e3 = max(self.e3, other.e3)
        e9 = max(self.e9, other.e9)
        return LocElem(_lift(self, e3, e9) + _lift(other, e3, e9), e3, e9)

    __radd__ = __add__

    def __neg__(self):
        return LocElem(-self.num, self.e3, self.e9)

    def __sub__(self, other):
        return self + (-LocElem.from_poly(other))

    def __rsub__(self, other):
        return LocElem.from_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LocElem(self.num * other, self.e3, self.e9)
        other = LocElem.from_poly(other)
        return LocElem(self.num * other.num, self.e3 + other.e3, self.e9 + other.e9)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            inv = self.inverse()
            return inv ** (-n)
        return LocElem(self.num ** n, self.e3 * n, self.e9 * n)

    def inverse(self):
        """Inverse, defined only when num is a unit of the localization,
        i.e. a scalar times a3^i * (a1^3-27*a3)^j."""
        if self.is_zero():
            raise ValueError("element is not invertible in the localization")
        num, i, j = self.num, 0, 0
        while True:
            q = divide_exact(num, _A3)
            if q is None:
                break
            num, i = q, i + 1
        while _disc_may_divide(num):
            q = divide_exact(num, _DISC)
            if q is None:
                break
            num, j = q, j + 1
        if len(num.terms) != 1 or any(x != 0 for x in next(iter(num.terms))):
            raise ValueError("element is not invertible in the localization")
        c = Fraction(next(iter(num.terms.values())), num.den)
        inv_num = (_A3 ** self.e3) * (_DISC ** self.e9) * (1 / c)
        return LocElem(inv_num, i, j)

    def as_poly(self) -> MultiPoly:
        if self.e3 or self.e9:
            raise ValueError("element has a nontrivial denominator")
        return self.num

    def weight_of(self) -> int:
        return self.num.weight_of() - 3 * self.e3 - 3 * self.e9

    def to_text(self):
        s = self.num.to_text()
        den = []
        if self.e3 == 1:
            den.append("a3")
        elif self.e3 > 1:
            den.append(f"a3^{self.e3}")
        if self.e9 == 1:
            den.append("(a1^3 - 27*a3)")
        elif self.e9 > 1:
            den.append(f"(a1^3 - 27*a3)^{self.e9}")
        if den:
            return f"({s}) / ({' * '.join(den)})"
        return s

    def __repr__(self):
        return f"LocElem({self.to_text()})"


def _lift(g, e3, e9):
    """The numerator of g over the denominator a3^e3 (a1^3 - 27*a3)^e9."""
    num = g.num
    if e3 > g.e3:
        num = num * _A3 ** (e3 - g.e3)
    if e9 > g.e9:
        num = num * _DISC ** (e9 - g.e9)
    return num


def _disc_may_divide(num):
    """Whether a1^3 - 27*a3 may divide num, a polynomial in (a1, a3): every
    multiple of it vanishes at (a1, a3) = (3, 1), so where num does not, the
    division need not be tried."""
    return not sum(c * 3 ** e[0] for e, c in num.terms.items())


def _loc_reduce(num, e3, e9):
    if num.is_zero():
        return num, 0, 0
    while e3 > 0:
        q = divide_exact(num, _A3)
        if q is None:
            break
        num, e3 = q, e3 - 1
    while e9 > 0 and _disc_may_divide(num):
        q = divide_exact(num, _DISC)
        if q is None:
            break
        num, e9 = q, e9 - 1
    return num, e3, e9
