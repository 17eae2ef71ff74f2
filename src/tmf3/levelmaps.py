"""Modular forms of level 1 and level 3, and the four ring maps between them.

Level-1 forms live in Z[1/3][c4, c6, Delta, Delta^-1]/(c4^3 - c6^2 - 1728 Delta)
with basis monomials c4^a * c6^eps * Delta^d (eps in {0, 1}, d in Z); level-3
forms are LocElems in the even subring of Z[1/3][a1, a3] localized at Delta.
A ``LevelOneForm`` stores int numerators by basis monomial over one common
denominator, as the other rings do, so its sums, products, h* and the images
under f* and q* are computed on ints; ``terms`` is a Fraction view.

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
analyses of delta = qstar - fstar: content checks read the numerators of a
MultiPoly, and the mod-2 sweep the bitmasks of a GF2Poly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import mul

from .multipoly import (MultiPoly, LocElem, a1, a3, _cached_pow, loc_sum,
                        mod2)
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
    """Element of MF* in the basis c4^a c6^eps Delta^d, eps in {0,1}: int
    numerators {(a, eps, d): n} over one positive ``den``, with zero
    numerators dropped, gcd(den, numerators) = 1 and ``den == 1`` for zero;
    ``terms`` is a read-only view {(a, eps, d): Fraction}. The numerators
    keep their insertion order."""

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        clean = {k: Fraction(c) for k, c in (terms or {}).items() if c}
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.nums, self.den = _reduced(
            {k: c.numerator * (den // c.denominator) for k, c in clean.items()}, den)

    # -- constructors -----------------------------------------------------

    @classmethod
    def _new(cls, nums, den):
        """Internal: build from {(a, eps, d): int} over a positive den."""
        self = cls.__new__(cls)
        self.nums, self.den = _reduced({k: n for k, n in nums.items() if n}, den)
        return self

    @classmethod
    def const(cls, c):
        return cls({(0, 0, 0): Fraction(c)})

    def one(self):
        return LevelOneForm.const(1)

    @classmethod
    def monomial(cls, ca, eps, d, coef=1):
        if eps not in (0, 1):
            raise ValueError("c6-exponent must be 0 or 1 in the basis")
        c = Fraction(coef)
        return cls._new({(ca, eps, d): c.numerator}, c.denominator)

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

    @property
    def terms(self):
        """Read-only view {(a, eps, d): Fraction coefficient}."""
        return {k: Fraction(n, self.den) for k, n in self.nums.items()}

    def is_zero(self):
        return not self.nums

    def _key(self):
        return self.den, frozenset(self.nums.items())

    def weight_of(self):
        if not self.nums:
            raise ValueError("weight of zero form is undefined")
        ws = {weight(*k) for k in self.nums}
        if len(ws) != 1:
            raise ValueError(f"inhomogeneous form, weights {sorted(ws)}")
        return ws.pop()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else math.lcm(d1, d2)
        f1, f2 = den // d1, den // d2
        t = dict(self.nums) if f1 == 1 else {k: n * f1 for k, n in self.nums.items()}
        for k, n in other.nums.items():
            t[k] = t.get(k, 0) + n * f2
        return LevelOneForm._new(t, den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return LevelOneForm._new({k: n * c for k, n in self.nums.items()},
                                     self.den * other.denominator)
        if (other := self._lift(other)) is None:
            return NotImplemented
        out = {}
        for (a1_, e1, d1), n1 in self.nums.items():
            for (a2_, e2, d2), n2 in other.nums.items():
                ca, eps, d, n = a1_ + a2_, e1 + e2, d1 + d2, n1 * n2
                if eps == 2:
                    # c6^2 = c4^3 - 1728 Delta
                    out[(ca + 3, 0, d)] = out.get((ca + 3, 0, d), 0) + n
                    eps, d, n = 0, d + 1, -1728 * n
                out[(ca, eps, d)] = out.get((ca, eps, d), 0) + n
        return LevelOneForm._new(out, self.den * other.den)

    def inverse(self):
        """The inverse of a unit c*Delta^d. These are the only units of
        MF*[Delta^-1]: c4^3 - c6^2 = 1728 Delta is irreducible, so the ring
        is Q[c4, c6] with that one prime inverted."""
        if len(self.nums) != 1 or next(iter(self.nums))[:2] != (0, 0):
            raise DomainError(f"{self.to_text()} is not a unit c*Delta^d "
                             "of MF*[Delta^-1]")
        ((_, _, d), n), = self.nums.items()
        # (n / den)^-1 = den / n, with the sign on the numerator
        return LevelOneForm._new({(0, 0, -d): self.den if n > 0 else -self.den}, abs(n))

    def evaluate(self, c4, c6, delta, images=None):
        """The image under the ring map sending c4, c6, Delta to elements of
        a Ring that mixes with Fraction scalars: the ``monomial_images``
        times their int numerators, summed and divided by ``den`` once.
        ``images`` may hold the images of more monomials than this form's,
        so that several forms share one table."""
        if images is None:
            images = monomial_images(self.nums, c4, c6, delta)
        total = 0 * c4
        for key, n in self.nums.items():
            total = total + n * images[key]
        return total / self.den

    def to_text(self):
        return terms_text(("c4", "c6", "Delta"), self.terms)


def _reduced(nums, den):
    """(nums, den) divided by gcd(den, nums), with den = 1 for no nums."""
    if not nums:
        return nums, 1
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
    return nums, den


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

def _image(m: LevelOneForm, k4, k6, kd, e3, e9):
    """The image of m = sum c c4^a c6^eps Delta^d as an unreduced fraction
    (num, e e3, e e9): the numerator sum c k4^a k6^eps kd^(d + e), summed on
    m's int numerators and put over m's den once, over
    kd^e = a3^(e e3) (a1^3 - 27 a3)^(e e9), with -e <= 0 the least power of
    Delta in m. f* passes (F4, F6, FDELTA, 3, 1) and q* (Q4, Q6, QDELTA, 1, 3),
    read at each call."""
    e = -min([0, *(d for _, _, d in m.nums)])
    num = None
    for (ca, eps, d), c in m.nums.items():
        # a factor with exponent 0 is 1 and is left out, and so is c = 1
        factors = [_cached_pow(base, n)
                   for base, n in ((k4, ca), (kd, d + e), (k6, eps)) if n]
        if c != 1 or not factors:
            factors.append(c)
        term = reduce(mul, factors)
        num = term if num is None else num + term
    # the image of a constant form is a scalar, and the zero form has none;
    # the sum of the numerators' images goes over the form's den once
    num = k4._lift(num or 0)
    return MultiPoly._new(num.groups, num.den * m.den), e * e3, e * e9


def fstar(m: LevelOneForm) -> LocElem:
    """Pullback along forgetting the level structure."""
    return LocElem(*_image(m, F4, F6, FDELTA, 3, 1))


def qstar(m: LevelOneForm) -> LocElem:
    """Pullback along the degree-3 quotient."""
    return LocElem(*_image(m, Q4, Q6, QDELTA, 1, 3))


def hstar(m: LevelOneForm) -> LevelOneForm:
    """Quotient by the full 3-torsion: 3^weight on weight-w parts. A
    negative weight's power of 3 goes into the denominator: every numerator
    is multiplied by 3^(w - low), and den by 3^-low, with low <= 0 the least
    weight."""
    low = min([0, *(weight(*k) for k in m.nums)])
    nums = {k: n * 3 ** (weight(*k) - low) for k, n in m.nums.items()}
    return LevelOneForm._new(nums, m.den * 3 ** -low)


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
    is summed as sum_j b_j D^j over 27^J, with b_j = c_j 27^(J-j) and J the
    group's top index.

    That sum is a Taylor shift: with D = u a1^3 + v a3 (u, v read from
    ``_tpow_cached(1)``), its coefficient on a1^(w-3k) a3^k is
    v^k sum_j C(j, k) u^(j-k) b_j. The inner sums of b_j u^j are taken by
    k + 1 rounds of suffix sums, additions only, and are divisible by u^k.
    The scalars' least power of 3, when negative, goes into the
    numerator's den.
    """
    if not is_gamma03(g):
        raise DomainError("tstar requires a sigma-invariant element")
    if g.is_zero():
        return g
    e3, e9 = g.e3, g.e9
    u, v = _tpow_cached(1)
    size = max(map(len, g.num.groups.values()))
    p27, pu, pv = (list(accumulate(repeat(x, size - 1), mul, initial=1))
                   for x in (27, u, v))
    groups = {}
    for (w,), cs in g.num.groups.items():
        top = len(cs) - 1
        # b_j u^j, top first; each round of suffix sums ends with the next
        # sum_j C(j, k) u^j b_j, and drops it
        s = [c * p27[top - j] * pu[j] for j, c in enumerate(cs)][::-1]
        acc = []
        for k in range(len(cs)):
            s = list(accumulate(s))
            acc.append(s.pop() // pu[k] * pv[k])
        # the scalar K_w / 27^top = sign * 3^power
        half = (w + e3 - e9) // 2
        sign = -1 if (half + e9) % 2 else 1
        groups[w] = (sign, half + e3 - 4 * e9 - 3 * top, acc)
    low = min(0, *(power for _, power, _ in groups.values()))
    num = MultiPoly._new({(w,): [x * (sign * 3 ** (power - low)) for x in acc]
                          for w, (sign, power, acc) in groups.items()},
                         g.num.den * 3 ** -low)
    # t* swaps a3 and a1^3 - 27 a3 up to units, so the result is canonical
    return LocElem._from_canonical(num, e9, e3)


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
    p / 2^expected checked odd on a1^(w-3) a3, w the weight of p; the
    ``expected`` of every caller is >= 0.  That coefficient is the entry 1
    of the weight-w list over p.den, and it is read on ints: a Fraction is
    built only when p / 2^expected is not an integer there."""
    v = p.content_val2()
    w = p.weight_of()
    cs = p.groups[(w,)]
    lead, rest = divmod(cs[1] if len(cs) > 1 else 0, p.den << expected)
    if rest:
        lead = Fraction(cs[1], p.den << expected)
    ok = v == expected and not rest and lead % 2 == 1
    return {"input": label, "valuation": v, "expected": expected,
            "leading_term": f"{lead}*a1^{w - 3}*a3", "pass": ok}


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
    # in a weight-w group the least a1-power, w - 3j, is at the top bit j;
    # the least (a1, a3) exponent pair over the groups is the answer
    lead = min((w - 3 * j, j) for (w,), b in
               (mod2(QDELTA) ** N + mod2(FDELTA) ** N).groups.items()
               for j in [b.bit_length() - 1])
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
