"""Modular forms of level 1 and level 3, and the four ring maps between them.

Level-1 forms live in Z[1/3][c4, c6, Delta, Delta^-1]/(c4^3 - c6^2 - 1728 Delta)
with basis monomials c4^a * c6^eps * Delta^d (eps in {0, 1}, d in Z); level-3
forms are LocElems in the even subring of Z[1/3][a1, a3] localized at Delta.

The maps:

* fstar -- forget the subgroup: c_i evaluated on the universal curve E of
  ``weierstrass.gamma1_curves``;
* qstar -- quotient by the subgroup: c_i evaluated on its quotient E';
* hstar -- quotient by the full 3-torsion: multiplication by 3^weight;
* tstar -- residual-subgroup swap: the substitution a1 -> s a1,
  a3 -> (a1^3 - 27 a3) / (3 s) with s^2 = -3, which takes the generators
  a1^2, a1a3, a3^2 of the even subring to T_A, T_B, T_C and exchanges the
  two factors a3 and a1^3 - 27 a3 of Delta, so t*(f* Delta) = q* Delta.

Also houses the building cochain complex D0, D1 and the 2-adic valuation
analyses of delta = qstar - fstar.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, mul

from .multipoly import MultiPoly, LocElem, a1, a3, loc_sum, mod2
from .rationals import val_p_int
from .ring import DomainError, Ring, ladder, terms_text
from .weierstrass import gamma1_curves

# images of c4, c6, Delta under fstar and qstar, recomputed from the
# invariant polynomials of the two universal curves
_CURVE_F, _CURVE_Q = gamma1_curves(a1(), a3())

F4, F6, FDELTA = _CURVE_F.c4(), _CURVE_F.c6(), _CURVE_F.disc()
Q4, Q6, QDELTA = _CURVE_Q.c4(), _CURVE_Q.c6(), _CURVE_Q.disc()

# t* on the generators of the even subring
T_A = -3 * a1() ** 2                                        # t*(a1^2)
T_B = Fraction(1, 3) * a1() ** 4 - 9 * a1() * a3()          # t*(a1 a3)
T_C = (Fraction(-1, 27) * a1() ** 6 + 2 * a1() ** 3 * a3()  # t*(a3^2)
       - 27 * a3() ** 2)


def weight(a: int, eps: int, d: int) -> int:
    """The weight of c4^a c6^eps Delta^d."""
    return 4 * a + 6 * eps + 12 * d


class LevelOneForm(Ring):
    """Element of MF* in the basis c4^a c6^eps Delta^d, eps in {0,1}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: Fraction(c) for k, c in (terms or {}).items() if c}

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({(0, 0, 0): Fraction(c)})

    def one(self):
        return LevelOneForm.const(1)

    @classmethod
    def monomial(cls, ca, eps, d, coef=1):
        if eps not in (0, 1):
            raise ValueError("c6-exponent must be 0 or 1 in the basis")
        return cls({(ca, eps, d): Fraction(coef)})

    @classmethod
    def c4(cls):
        return cls.monomial(1, 0, 0)

    @classmethod
    def c6(cls):
        return cls.monomial(0, 1, 0)

    @classmethod
    def delta(cls, d=1):
        return cls.monomial(0, 0, d)

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def _key(self):
        return frozenset(self.terms.items())

    def weight_of(self):
        if not self.terms:
            raise ValueError("weight of zero form is undefined")
        ws = {weight(*k) for k in self.terms}
        if len(ws) != 1:
            raise ValueError(f"inhomogeneous form, weights {sorted(ws)}")
        return ws.pop()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, Fraction(0)) + c
        return LevelOneForm(t)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            return LevelOneForm({k: c * c0 for k, c in self.terms.items()})
        if (other := self._lift(other)) is None:
            return NotImplemented
        out = {}
        for (a1_, e1, d1), c1 in self.terms.items():
            for (a2_, e2, d2), c2 in other.terms.items():
                ca, eps, d, c = a1_ + a2_, e1 + e2, d1 + d2, c1 * c2
                if eps == 2:
                    # c6^2 = c4^3 - 1728 Delta
                    out[(ca + 3, 0, d)] = out.get((ca + 3, 0, d), 0) + c
                    eps, d, c = 0, d + 1, -1728 * c
                out[(ca, eps, d)] = out.get((ca, eps, d), 0) + c
        return LevelOneForm(out)

    def inverse(self):
        """The inverse of a unit c*Delta^d. These are the only units of
        MF*[Delta^-1]: c4^3 - c6^2 = 1728 Delta is irreducible, so the ring
        is Q[c4, c6] with that one prime inverted."""
        if len(self.terms) != 1 or next(iter(self.terms))[:2] != (0, 0):
            raise DomainError(f"{self.to_text()} is not a unit c*Delta^d "
                             "of MF*[Delta^-1]")
        ((_, _, d), c), = self.terms.items()
        return LevelOneForm.monomial(0, 0, -d, 1 / c)

    def evaluate(self, c4, c6, delta, images=None):
        """The image under the ring map sending c4, c6, Delta to elements of
        a Ring that mixes with Fraction scalars, as the sum of the
        ``monomial_images`` times their coefficients.  ``images`` may hold
        the images of more monomials than this form's, so that several
        forms share one table."""
        if images is None:
            images = monomial_images(self.terms, c4, c6, delta)
        total = 0 * c4
        for key, c in self.terms.items():
            total = total + c * images[key]
        return total

    def to_text(self):
        return terms_text(("c4", "c6", "Delta"), self.terms)


def monomial_images(keys, c4, c6, delta):
    """{(a, eps, d): c4^a c6^eps Delta^d} for the exponent triples ``keys``,
    under the ring map of ``LevelOneForm.evaluate``.  The powers of c4 and
    of Delta come from one ``ladder`` each per call, those of Delta^-1 for
    d < 0 from the inverse of ``delta``; a factor x^0 is left out, so the
    image of the monomial 1 is the int 1."""
    keys = set(keys)
    c4s = ladder(c4, [a for a, _, _ in keys])
    deltas = ladder(delta, [d for _, _, d in keys])
    images = {}
    for key in keys:
        factors = [table[n] for table, n in zip((c4s, {1: c6}, deltas), key) if n]
        images[key] = reduce(mul, factors) if factors else 1
    return images


# -- the four maps -----------------------------------------------------------

@lru_cache(maxsize=None)
def _cached_pow(base: MultiPoly, n: int) -> MultiPoly:
    """base^n, cached by value: a generator rebound to another polynomial is a new key."""
    return base ** n


def _image(m: LevelOneForm, k4, k6, kd, e3, e9):
    """The image of m = sum c c4^a c6^eps Delta^d as an unreduced fraction
    (num, e e3, e e9): the numerator sum c k4^a k6^eps kd^(d + e) over
    kd^e = a3^(e e3) (a1^3 - 27 a3)^(e e9), with -e <= 0 the least power of
    Delta in m. f* passes (F4, F6, FDELTA, 3, 1) and q* (Q4, Q6, QDELTA, 1, 3),
    read at each call."""
    e = -min([0, *(d for _, _, d in m.terms)])
    num = None
    for (ca, eps, d), c in m.terms.items():
        term = c
        # a factor with exponent 0 is 1 and is left out
        for base, n in ((k4, ca), (kd, d + e), (k6, eps)):
            if n:
                term = term * _cached_pow(base, n)
        num = term if num is None else num + term
    # the image of a constant form is a scalar, and the zero form has none
    return k4._lift(num or 0), e * e3, e * e9


def fstar(m: LevelOneForm) -> LocElem:
    """Pullback along forgetting the level structure."""
    return LocElem(*_image(m, F4, F6, FDELTA, 3, 1))


def qstar(m: LevelOneForm) -> LocElem:
    """Pullback along the degree-3 quotient."""
    return LocElem(*_image(m, Q4, Q6, QDELTA, 1, 3))


def hstar(m: LevelOneForm) -> LevelOneForm:
    """Quotient by the full 3-torsion: 3^weight on weight-w parts."""
    return LevelOneForm({k: c * Fraction(3) ** weight(*k) for k, c in m.terms.items()})


def is_gamma03(g: LocElem) -> bool:
    """Fixed by a1 -> -a1, a3 -> -a3: numerator parity matches denominator.
    A term a1^(w-3j) a3^j of weight w has i + j = w - 2j, so the parity of
    each term is that of its weight."""
    par = (g.e3 + g.e9) % 2
    return all(w % 2 == par for (w,) in g.num.groups)


@lru_cache(maxsize=None)
def _tpow_cached(j: int) -> tuple:
    """The coefficients of D^j = (a1^3 - 27 a3)^j, by the power of a3."""
    return tuple(math.comb(j, k) * (-27) ** k for k in range(j + 1))


def tstar(g: LocElem) -> LocElem:
    """The residual-subgroup swap, as a ring map on the localized even ring.

    t* substitutes a1 -> s a1 and a3 -> D / (3 s) with s^2 = -3 and
    D = a1^3 - 27 a3; it sends D to -81 s a3, so the two factors of the
    denominator swap places:

        t*(c a1^i a3^j / (a3^e3 D^e9))
            = c (-3)^((i-j+e3-e9)/2) 3^(e3-j) (-81)^(-e9) a1^i D^j / (a3^e9 D^e3),

    and on T_A, T_B, T_C = t*(a1^2), t*(a1 a3), t*(a3^2) this is the table
    of item 2. In a weight-w group, i = w - 3j and the scalar is
    K_w 27^(-j) with K_w = (-3)^((w+e3-e9)/2) 3^e3 (-81)^(-e9); each group
    is summed as sum_j c_j 27^(J-j) D^j over 27^J, J the group's top index.
    """
    if not is_gamma03(g):
        raise DomainError("tstar requires a sigma-invariant element")
    if g.is_zero():
        return g
    e3, e9 = g.e3, g.e9
    groups = {}
    for (w,), cs in g.num.groups.items():
        top = len(cs) - 1
        acc = [0] * len(cs)
        for j, c in enumerate(cs):
            if c:
                acc[:j + 1] = map(add, acc[:j + 1],
                                  map(mul, _tpow_cached(j), repeat(c * 27 ** (top - j))))
        # the scalar K_w / 27^top = sign * 3^power
        half = (w + e3 - e9) // 2
        sign = -1 if (half + e9) % 2 else 1
        groups[w] = (sign, half + e3 - 4 * e9 - 3 * top, acc)
    low = min(power for _, power, _ in groups.values())
    num = MultiPoly._new({(w,): [sign * 3 ** (power - low) * x for x in acc]
                          for w, (sign, power, acc) in groups.items()}, g.num.den)
    # t* swaps a3 and a1^3 - 27 a3 up to units, so the result is canonical
    return LocElem._from_canonical(num * Fraction(3) ** low, e9, e3)


def delta_map(m: LevelOneForm) -> LocElem:
    """delta = qstar - fstar, the degree-1 part of the building complex.

    q* m and f* m are summed as unreduced fractions over their common
    denominator (a3 (a1^3 - 27 a3))^(3e), Delta^-e the least power of Delta
    in m, and the difference is reduced once."""
    num, e3, e9 = _image(m, F4, F6, FDELTA, 3, 1)
    return loc_sum(_image(m, Q4, Q6, QDELTA, 1, 3), (-num, e3, e9))


# -- building cochain complex ------------------------------------------------

def cochain_D0(m: LevelOneForm):
    """D0(m) = (q* m - f* m, h* m - m), the alternating sum of cofaces
    TMF -> TMF(Gamma_0(3)) x TMF."""
    return (delta_map(m), hstar(m) - m)


def cochain_D1(u: LocElem, v: LevelOneForm) -> LocElem:
    """D1(u, v) = t* u + u - f* v into the top cosimplicial degree.

    The three terms are summed over their common denominator, with f* v an
    unreduced fraction, and the sum is reduced once."""
    t = tstar(u)
    num, e3, e9 = _image(v, F4, F6, FDELTA, 3, 1)
    return loc_sum((t.num, t.e3, t.e9), (u.num, u.e3, u.e9), (-num, e3, e9))


def basis_monomials(max_weight: int):
    """All basis monomials c4^a c6^eps Delta^d with 0 <= weight <= max_weight
    and -4 <= d <= 4, ordered by d, then eps, then a."""
    out = []
    for d in range(-4, 5):
        for eps in (0, 1):
            w0 = weight(0, eps, d)      # each power of c4 adds 4
            out += [LevelOneForm.monomial(ca, eps, d)
                    for ca in range(max(0, -(w0 // 4)), (max_weight - w0) // 4 + 1)]
    return out


# -- 2-adic valuation analyses (the building-complex theorems) ---------------

def _content_check(label: str, p: MultiPoly, expected: int) -> dict:
    """nu_2 of the content of p, checked against ``expected``, with
    p / 2^expected checked odd on a1^(w-3) a3, w the weight of p."""
    v = p.content_val2()
    i = p.weight_of() - 3
    lead = p.coeff((i, 1)) / Fraction(2) ** expected
    ok = (v == expected and lead.denominator == 1 and lead.numerator % 2 == 1)
    return {"input": label, "valuation": v, "expected": expected,
            "leading_term": f"{lead}*a1^{i}*a3", "pass": ok}


def val2_delta_c4pow(ks) -> list:
    """The content of delta(c4^k) has nu_2 = 4 + nu_2(k): one
    ``_content_check`` per k in ``ks``, in their order, with the powers of
    Q4 and F4 from one ``ladder`` each.

    Proof: Q4 - F4 = 240 a1a3 = 2^4 * 15 a1a3, so delta(c4^k) is
    (u + 2^4 v)^k - u^k at u = F4, v = 15 a1a3, and ``lemma_binomial_check``
    at d = 4 bounds its content below by 2^(4 + nu_2(k)).  Only the term
    k 2^4 u^(k-1) v reaches a1^(4k-3) a3, since the others carry a3^2, and
    its coefficient there is 2^4 * 15k, which has exactly that valuation."""
    ks = list(ks)
    if min(ks, default=1) < 1:
        raise DomainError("k >= 1 required")
    q4s, f4s = ladder(Q4, ks), ladder(F4, ks)
    return [_content_check(f"delta(c4^{k})", q4s[k] - f4s[k], 4 + val_p_int(k, 2))
            for k in ks]


def val_delta_c4c6(ks) -> list:
    """The content of delta(c4^k c6) has nu_2 = 3: one ``_content_check``
    per k in ``ks``, in their order, with the powers of Q4 and F4 from one
    ``ladder`` each (x^0 = 1 is not in a ladder).

    Proof: delta(c4^k c6) = (Q4^k - F4^k) Q6 + F4^k (Q6 - F6), with
    Q6 - F6 = 2^3 (63 a1^3 a3 + 756 a3^2).  The first summand is divisible
    by 2^4 (``val2_delta_c4pow``), so the content is 2^3, and the
    coefficient on a1^(4k+3) a3 is 2^3 times 63 plus a multiple of 2^4."""
    ks = list(ks)
    if min(ks, default=0) < 0:
        raise DomainError("k >= 0 required")
    q4s, f4s = ladder(Q4, ks), ladder(F4, ks)
    return [_content_check(f"delta(c4^{k}*c6)",
                           q4s.get(k, 1) * Q6 - f4s.get(k, 1) * F6, 3)
            for k in ks]


def delta_mod2_Delta_pow(N: int) -> dict:
    """The term of least a1-power of delta(Delta^N) mod 2, checked against
    a1^(3*2^(r+1)) a3^(2^(r+1)(4k+1)) for N = 2^r (2k+1).

    Proof: mod 2, FDELTA = a3^4 (1 + t) and QDELTA = a3^4 (1 + t)^3 with
    t = a1^3 / a3, so by Frobenius
    delta(Delta^N) = a3^(4N) (1 + t)^N ((1 + t^2)^N - 1).  The last factor
    is (1 + t^(2^(r+1)))^(2k+1) - 1, whose least term is t^(2^(r+1)), and
    (1 + t)^N starts with 1: the least a1-power is that t-power times
    a3^(4N)."""
    if N < 1:
        raise DomainError("N >= 1 required")
    # a1 is the first variable: the least exponent tuple has the least a1-power
    lead = min((mod2(QDELTA) ** N + mod2(FDELTA) ** N).monos)
    r = val_p_int(N, 2)
    kk = ((N >> r) - 1) // 2
    expected = (3 * 2 ** (r + 1), 2 ** (r + 1) * (4 * kk + 1))
    ok = lead == expected
    return {"input": f"delta(Delta^{N}) mod 2",
            "leading_term": f"a1^{lead[0]}*a3^{lead[1]}",
            "expected": f"a1^{expected[0]}*a3^{expected[1]}", "pass": ok}


def lemma_binomial_check(d: int, ks) -> list:
    """(u + 2^d v)^k - u^k has content 2^(d + nu_2(k)) and, divided by it,
    an odd coefficient on u^(k-1) v: one ``_content_check`` per k in
    ``ks``, in their order, at u = a1^3, v = a3, with the powers of u and of
    u + 2^d v from one ``ladder`` each.  These are algebraically
    independent, so the terms a1^(3(k-j)) a3^j of different j stay apart and
    carry the binomial coefficients.

    It holds for all k and d >= 2: C(k, j) = (k/j) C(k-1, j-1) gives
    nu_2(C(k, j) 2^(dj)) >= nu_2(k) + dj - nu_2(j), and dj - nu_2(j) > d
    for j >= 2, so only j = 1, the term k 2^d u^(k-1) v, reaches the bound."""
    if d <= 1:
        raise DomainError("d > 1 required")
    ks = list(ks)
    if min(ks, default=1) < 1:
        raise DomainError("k >= 1 required")
    u = a1() ** 3
    us, sums = ladder(u, ks), ladder(u + 2 ** d * a3(), ks)
    return [_content_check(f"(a1^3 + 2^{d}*a3)^{k} - a1^{3 * k}",
                           sums[k] - us[k], d + val_p_int(k, 2))
            for k in ks]
