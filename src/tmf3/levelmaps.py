"""Modular forms of level 1 and level 3, and the four ring maps between them.

Level-1 forms live in Z[1/3][c4, c6, Delta, Delta^-1]/(c4^3 - c6^2 - 1728 Delta)
with basis monomials c4^a * c6^eps * Delta^d (eps in {0, 1}, d in Z); level-3
forms are LocElems in the even subring of Z[1/3][a1, a3] localized at Delta.

The maps:

* fstar -- forget the subgroup: c_i evaluated on the universal curve
  (a1, 0, a3, 0, 0);
* qstar -- quotient by the subgroup: c_i evaluated on the quotient curve
  (a1, 0, 3a3, -6a1a3, -(9a3^2 + a1^3 a3));
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
from functools import lru_cache
from itertools import repeat
from operator import add, mul

from .multipoly import MultiPoly, LocElem, a1, a3, mod2, min_a1_term
from .rationals import val_p_int
from .ring import Ring, terms_text
from .weierstrass import WCurve

# images of c4, c6, Delta under fstar and qstar, recomputed from the
# invariant polynomials of the two universal curves
_ZERO = MultiPoly.zero()
_CURVE_F = WCurve(a1(), _ZERO, a3(), _ZERO, _ZERO)
_CURVE_Q = WCurve(a1(), _ZERO, 3 * a3(), -6 * a1() * a3(),
                  -(9 * a3() ** 2 + a1() ** 3 * a3()))

F4, F6, FDELTA = _CURVE_F.c4(), _CURVE_F.c6(), _CURVE_F.disc()
Q4, Q6, QDELTA = _CURVE_Q.c4(), _CURVE_Q.c6(), _CURVE_Q.disc()

# t* on the generators of the even subring
T_A = -3 * a1() ** 2                                        # t*(a1^2)
T_B = Fraction(1, 3) * a1() ** 4 - 9 * a1() * a3()          # t*(a1 a3)
T_C = (Fraction(-1, 27) * a1() ** 6 + 2 * a1() ** 3 * a3()  # t*(a3^2)
       - 27 * a3() ** 2)


class LevelOneForm(Ring):
    """Element of MF* in the basis c4^a c6^eps Delta^d, eps in {0,1}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (ca, eps, d), c in terms.items():
                c = Fraction(c)
                if c != 0:
                    key = (ca, eps, d)
                    clean[key] = clean.get(key, Fraction(0)) + c
        self.terms = {k: c for k, c in clean.items() if c != 0}

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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LevelOneForm.const(other)
        return isinstance(other, LevelOneForm) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def weight_of(self):
        if not self.terms:
            raise ValueError("weight of zero form is undefined")
        ws = {4 * ca + 6 * eps + 12 * d for (ca, eps, d) in self.terms}
        if len(ws) != 1:
            raise ValueError(f"inhomogeneous form, weights {sorted(ws)}")
        return ws.pop()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LevelOneForm.const(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, Fraction(0)) + c
        return LevelOneForm(t)

    def __neg__(self):
        return LevelOneForm({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            return LevelOneForm({k: c * c0 for k, c in self.terms.items()})
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
            raise ValueError(f"{self.to_text()} is not a unit c*Delta^d "
                             "of MF*[Delta^-1]")
        ((_, _, d), c), = self.terms.items()
        return LevelOneForm.monomial(0, 0, -d, 1 / c)

    def to_text(self):
        return terms_text(("c4", "c6", "Delta"), self.terms)


# -- the four maps -----------------------------------------------------------

@lru_cache(maxsize=None)
def _cached_pow(which: str, n: int) -> MultiPoly:
    return {"F4": F4, "F6": F6, "FD": FDELTA,
            "Q4": Q4, "Q6": Q6, "QD": QDELTA}[which] ** n


def _image(m: LevelOneForm, k4, k6, kd, e3, e9) -> LocElem:
    """The image of m = sum c c4^a c6^eps Delta^d, as the numerator
    sum c k4^a k6^eps kd^(d - d0) over kd^(-d0) = a3^(-d0 e3)
    (a1^3 - 27 a3)^(-d0 e9), with d0 <= 0 the least power of Delta in m."""
    d0 = min([0, *(d for _, _, d in m.terms)])
    num = MultiPoly.zero()
    for (ca, eps, d), c in m.terms.items():
        term = _cached_pow(k4, ca) * _cached_pow(kd, d - d0)
        if eps:
            term = term * _cached_pow(k6, 1)
        num = num + c * term
    return LocElem(num, -d0 * e3, -d0 * e9)


def fstar(m: LevelOneForm) -> LocElem:
    """Pullback along forgetting the level structure."""
    return _image(m, "F4", "F6", "FD", 3, 1)


def qstar(m: LevelOneForm) -> LocElem:
    """Pullback along the degree-3 quotient."""
    return _image(m, "Q4", "Q6", "QD", 1, 3)


def hstar(m: LevelOneForm) -> LevelOneForm:
    """Quotient by the full 3-torsion: 3^weight on weight-w parts."""
    return LevelOneForm({(ca, eps, d): c * Fraction(3) ** (4 * ca + 6 * eps + 12 * d)
                         for (ca, eps, d), c in m.terms.items()})


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
        raise ValueError("tstar requires a sigma-invariant element")
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
                          for w, (sign, power, acc) in groups.items()},
                         g.num.den, g.num.vars, g.num.weights)
    # t* swaps a3 and a1^3 - 27 a3 up to units, so the result is canonical
    return LocElem._from_canonical(num * Fraction(3) ** low, e9, e3)


def delta_map(m: LevelOneForm) -> LocElem:
    """delta = qstar - fstar, the degree-1 part of the building complex."""
    return qstar(m) - fstar(m)


# -- building cochain complex ------------------------------------------------

def cochain_D0(m: LevelOneForm):
    """D0(m) = (q* m - f* m, h* m - m), the alternating sum of cofaces
    TMF -> TMF(Gamma_0(3)) x TMF."""
    return (delta_map(m), hstar(m) - m)


def cochain_D1(u: LocElem, v: LevelOneForm) -> LocElem:
    """D1(u, v) = t* u + u - f* v into the top cosimplicial degree."""
    return tstar(u) + u - fstar(v)


def basis_monomials(max_weight: int, d_range=(-4, 4)):
    """All basis monomials c4^a c6^eps Delta^d with 0 <= weight <= max_weight
    and d in the given window."""
    out = []
    for d in range(d_range[0], d_range[1] + 1):
        for eps in (0, 1):
            ca = 0
            while True:
                w = 4 * ca + 6 * eps + 12 * d
                if w > max_weight:
                    break
                if w >= 0:
                    out.append(LevelOneForm.monomial(ca, eps, d))
                ca += 1
    return out


# -- 2-adic valuation analyses (the building-complex theorems) ---------------

def val2_delta_c4pow(k: int) -> dict:
    """nu_2 of the content of delta(c4^k), checked against 4 + nu_2(k),
    with the reduced coefficient on a1^(4k-3) a3 checked odd."""
    if k < 1:
        raise ValueError("k >= 1 required")
    p = Q4 ** k - F4 ** k
    v = p.content_val2()
    expected = 4 + val_p_int(k, 2)
    lead = p.coeff((4 * k - 3, 1)) / Fraction(2) ** expected
    ok = (v == expected and lead.denominator == 1 and lead.numerator % 2 == 1)
    return {"input": f"delta(c4^{k})", "valuation": v, "expected": expected,
            "leading_term": f"{lead}*a1^{4 * k - 3}*a3", "pass": ok}


def val_delta_c4c6(k: int) -> dict:
    """Content valuation of delta(c4^k c6) is 3, odd coefficient on
    a1^(4k+3) a3."""
    if k < 0:
        raise ValueError("k >= 0 required")
    p = Q4 ** k * Q6 - F4 ** k * F6
    v = p.content_val2()
    lead = p.coeff((4 * k + 3, 1)) / 8
    ok = (v == 3 and lead.denominator == 1 and lead.numerator % 2 == 1)
    return {"input": f"delta(c4^{k}*c6)", "valuation": v, "expected": 3,
            "leading_term": f"{lead}*a1^{4 * k + 3}*a3", "pass": ok}


def delta_mod2_Delta_pow(N: int) -> dict:
    """min_a1_term of delta(Delta^N) mod 2, checked against
    a1^(3*2^(r+1)) a3^(2^(r+1)(4k+1)) for N = 2^r (2k+1)."""
    if N < 1:
        raise ValueError("N >= 1 required")
    d = mod2(QDELTA) ** N + mod2(FDELTA) ** N
    lead = min_a1_term(d)
    r = val_p_int(N, 2)
    kk = ((N >> r) - 1) // 2
    expected = (3 * 2 ** (r + 1), 2 ** (r + 1) * (4 * kk + 1))
    ok = lead == expected
    return {"input": f"delta(Delta^{N}) mod 2",
            "leading_term": f"a1^{lead[0]}*a3^{lead[1]}",
            "expected": f"a1^{expected[0]}*a3^{expected[1]}", "pass": ok}


def lemma_binomial_check(d: int, k: int) -> dict:
    """(u + 2^d v)^k = u^k + 2^(d + nu_2(k)) g(u, v) with g having an odd
    coefficient on u^(k-1) v and otherwise only higher powers of v."""
    if d <= 1:
        raise ValueError("d > 1 required")
    if k < 1:
        raise ValueError("k >= 1 required")
    uv = ("u", "v")
    u = MultiPoly.gen("u", uv)
    v = MultiPoly.gen("v", uv)
    p = (u + 2 ** d * v) ** k - u ** k
    e = d + val_p_int(k, 2)
    divisible = p.content_val2() >= e
    g = p * Fraction(1, 2 ** e)
    lead = g.coeff((k - 1, 1))
    lead_odd = lead.denominator == 1 and lead.numerator % 2 == 1
    higher_v = all(exps == (k - 1, 1) or exps[1] >= 2 for exps in g.terms)
    ok = divisible and lead_odd and higher_v
    return {"input": f"(u + 2^{d} v)^{k}", "valuation": p.content_val2(),
            "expected": e, "pass": ok}
