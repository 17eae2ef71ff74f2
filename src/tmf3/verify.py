"""The full verification suite: nine numbered items covering every
formula-level computation, runnable one at a time or all together.

Each item is a body registered with ``@_item``, which appends it to
``ITEMS`` as a timed item numbered by its position there. An item returns
{"index", "name", "pass", "detail", "seconds"}; run_all returns the list of
all nine in order.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import chain

from .multipoly import LocElem, MultiPoly, a1, a3, disc_factor
from .weierstrass import (WCurve, WPoint, WTransform, transform,
                          transform_point, gamma1_curves, gamma1_normalize,
                          is_flex, CurveError)


ITEMS = []


def _item(name, errors=()):
    """Append the decorated item body to ITEMS as a timed item, numbered by
    its position there; an exception of the types ``errors`` fails it, with
    the exception as its detail."""
    def register(run):
        index = len(ITEMS) + 1

        def item():
            t0 = time.perf_counter()
            try:
                ok, detail = run()
            except errors as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            return {"index": index, "name": name, "pass": bool(ok),
                    "detail": detail,
                    "seconds": round(time.perf_counter() - t0, 2)}
        ITEMS.append(item)
        return item
    return register


def _random_fraction(rng, span=12):
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def _random_smooth_curve(rng):
    while True:
        C = WCurve(*[_random_fraction(rng) for _ in range(5)])
        if C.is_smooth():
            return C


def _random_normal_form(rng):
    """A smooth curve y^2 + A1 xy + A3 y = x^3 with (0,0) of order 3."""
    while True:
        C = gamma1_curves(_random_fraction(rng), _random_fraction(rng))[0]
        if C.is_smooth():
            return C


# -- item 1: invariant identities -------------------------------------------

@_item("invariant identities c4^3 - c6^2 = 1728*Delta")
def item_invariants():
    rng = random.Random(1)
    for _ in range(100):
        C = _random_smooth_curve(rng)
        if C.c4() ** 3 - C.c6() ** 2 != 1728 * C.disc():
            return False, f"identity fails on {C}"
    # the two symbolic universal curves
    for C in gamma1_curves(a1(), a3()):
        if not (C.c4() ** 3 - C.c6() ** 2 - 1728 * C.disc()).is_zero():
            return False, "symbolic identity fails"
    return True, "100 random + 2 symbolic curves"


# -- item 2: the ten displayed map formulas ---------------------------------

@_item("level-map formula table")
def item_map_formulas():
    from . import levelmaps as lm
    A1, A3 = a1(), a3()
    # the paper's values against the invariants of gamma1_curves
    expected = {
        "fstar(c4)": (lm.F4, A1 ** 4 - 24 * A1 * A3),
        "fstar(c6)": (lm.F6, -A1 ** 6 + 36 * A1 ** 3 * A3 - 216 * A3 ** 2),
        "fstar(Delta)": (lm.FDELTA, A1 ** 3 * A3 ** 3 - 27 * A3 ** 4),
        "qstar(c4)": (lm.Q4, A1 ** 4 + 216 * A1 * A3),
        "qstar(c6)": (lm.Q6, -A1 ** 6 + 540 * A1 ** 3 * A3
                      + 5832 * A3 ** 2),
        "qstar(Delta)": (lm.QDELTA, A3 * disc_factor() ** 3),
    }
    for name, (got, want) in expected.items():
        if not (got - want).is_zero():
            return False, f"{name} = {got.to_text()}, expected {want.to_text()}"
    # tstar, a substitution that does not read T_A, T_B, T_C, agrees
    # with them on the generators
    for name, gen, want in (("a1^2", A1 ** 2, lm.T_A), ("a1*a3", A1 * A3, lm.T_B),
                            ("a3^2", A3 ** 2, lm.T_C)):
        got = lm.tstar(LocElem(gen))
        if got != LocElem(want):
            return False, f"tstar({name}) = {got.to_text()}, expected {want.to_text()}"
    # hstar on the generators: multiplication by 3^weight
    from .levelmaps import LevelOneForm, hstar
    for gen, w in ((LevelOneForm.c4(), 4), (LevelOneForm.c6(), 6),
                   (LevelOneForm.delta(), 12)):
        if hstar(gen) != 3 ** w * gen:
            return False, f"hstar wrong on weight {w}"
    return True, "10 displayed formulas + recomputed invariants"


# -- item 3: cosimplicial identities ----------------------------------------

@_item("cosimplicial identities and D1 o D0 = 0")
def item_cosimplicial():
    from .levelmaps import (LevelOneForm, fstar, qstar, hstar, tstar,
                            basis_monomials, cochain_D0, cochain_D1)
    gens = [LevelOneForm.c4(), LevelOneForm.c6(), LevelOneForm.delta()]
    for g in gens:
        if tstar(fstar(g)) != qstar(g):
            return False, f"tstar.fstar != qstar on {g.to_text()}"
        if tstar(qstar(g)) != fstar(hstar(g)):
            return False, f"tstar.qstar != fstar.hstar on {g.to_text()}"
    mons = basis_monomials(48)
    for m in mons:
        if not cochain_D1(*cochain_D0(m)).is_zero():
            return False, f"D1.D0 != 0 on {m.to_text()}"
    return True, f"generator identities + D1.D0 = 0 on {len(mons)} monomials"


# -- item 4: the degree-3 isogeny -------------------------------------------

@_item("degree-3 isogeny verification")
def item_isogeny():
    from .funfield import velu3, verify_isogeny
    report = verify_isogeny(*velu3())
    bad = [k for k, v in report.items() if not v]
    if bad:
        return False, f"failed checks: {bad}"
    return True, f"all checks pass: {sorted(report)}"


# -- item 5: flex <=> order 3 -----------------------------------------------

def _oracle_order3(C, P):
    return (not P.infinity) and C.smul(3, P).infinity


@_item("flex <=> order 3 against the group-law oracle", CurveError)
def item_flex():
    rng = random.Random(5)
    positives = negatives = 0
    while positives < 50:
        C0 = _random_normal_form(rng)
        T = WTransform(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                       _random_fraction(rng, 6), _random_fraction(rng, 6),
                       _random_fraction(rng, 6))
        C = transform(C0, T)
        P = transform_point(T, WPoint(Fraction(0), Fraction(0)))
        if not is_flex(C, P):
            return False, f"flex test misses an order-3 point on {C}"
        if not _oracle_order3(C, P):
            return False, f"positive disagreement on {C}, {P}"
        positives += 1
    # negative instances: 2-torsion points (vertical tangent) and
    # points of infinite order
    two_torsion = []
    while len(two_torsion) < 5:
        x0 = Fraction(rng.randint(-5, 5))
        # y^2 = (x - x0)(x^2 + ux + v): (x0, 0) is 2-torsion
        u = _random_fraction(rng, 4)
        v = _random_fraction(rng, 4)
        C = WCurve(0, u - x0, 0, v - x0 * u, -x0 * v)
        if C.is_smooth():
            two_torsion.append((C, WPoint(x0, Fraction(0))))
    non_torsion = [
        (WCurve(0, 0, 1, -1, 0), WPoint(Fraction(0), Fraction(0))),
        (WCurve(0, 0, 1, -1, 0), WPoint(Fraction(1), Fraction(0))),
        (WCurve(0, 0, 1, -1, 0), WPoint(Fraction(-1), Fraction(-1))),
        (WCurve(0, 0, 1, -1, 0), WPoint(Fraction(2), Fraction(2))),
        (WCurve(0, 1, 0, 0, -2), WPoint(Fraction(1), Fraction(0))),
    ]
    for C, P in two_torsion + non_torsion:
        flex = is_flex(C, P)
        if flex != _oracle_order3(C, P):
            return False, f"negative disagreement on {C}, {P}"
        if flex:
            return False, f"flex test accepts a non-order-3 point on {C}"
        negatives += 1
    return True, f"{positives} positive, {negatives} negative instances"


# -- item 6: normalization round-trip ---------------------------------------

@_item("normalization round-trip", CurveError)
def item_normalize():
    rng = random.Random(6)
    done = 0
    while done < 50:
        C0 = _random_normal_form(rng)
        T = WTransform(Fraction(1), _random_fraction(rng, 8),
                       _random_fraction(rng, 8), _random_fraction(rng, 8))
        C = transform(C0, T)
        P = transform_point(T, WPoint(Fraction(0), Fraction(0)))
        A1, A3, Tn = gamma1_normalize(C, P)
        if (A1, A3) != (C0.a1, C0.a3):
            return False, f"recovered ({A1}, {A3}), expected ({C0.a1}, {C0.a3})"
        Tinv = T.inverse()
        if Tn != Tinv:
            return False, f"transform {Tn} is not the inverse of {T}"
        if transform(C, Tn).coeffs() != C0.coeffs():
            return False, "normalized curve differs from the original"
        done += 1
    return True, f"{done} lambda = 1 round-trips"


# -- item 7: 2-adic valuations of delta -------------------------------------

@_item("2-adic valuation analysis of delta")
def item_valuations():
    from .levelmaps import (val2_delta_c4pow, val_delta_c4c6,
                            delta_mod2_Delta_pow, lemma_binomial_check)
    ks = range(1, 65)
    for k, r in zip(ks, val2_delta_c4pow(ks)):
        if not r["pass"]:
            return False, f"val2(delta(c4^{k})) check failed: {r}"
    c6_ks = range(0, 33)
    for k, r in zip(c6_ks, val_delta_c4c6(c6_ks)):
        if not r["pass"]:
            return False, f"delta(c4^{k} c6) content check failed: {r}"
    for N in range(1, 65):
        r = delta_mod2_Delta_pow(N)
        if not r["pass"]:
            return False, f"mod-2 minimal term of delta(Delta^{N}) failed: {r}"
    for d in range(2, 7):
        for k, r in zip(ks, lemma_binomial_check(d, ks)):
            if not r["pass"]:
                return False, f"binomial lemma failed at d={d}, k={k}: {r}"
    return True, "c4-powers k <= 64, c4^k c6 k <= 32, Delta-powers N <= 64, lemma d in [2,6]"


# -- item 8: Eisenstein series and the building cocycles --------------------

@_item("Eisenstein expressions and building cocycles")
def item_eisenstein():
    from .qexp import (eisenstein_G, eisenstein_in_c4c6, series_c4,
                       series_c6, series_delta, e_alpha)
    from .levelmaps import LevelOneForm, cochain_D1, monomial_images

    try:
        exprs = eisenstein_in_c4c6(range(4, 41, 2))
    except ValueError as exc:
        return False, str(exc)
    if exprs[4] != LevelOneForm.c4() / 240:
        return False, f"G_4 != c4/240: {exprs[4].to_text()}"
    # independent re-check of each G_k to precision (number of terms) + 30,
    # larger than the solver used; one table of monomial series serves every
    # weight, as a comparison is to the lower of the two precisions
    top = max(len(G.terms) for G in exprs.values()) + 30
    series = series_c4(top), series_c6(top), series_delta(top)
    images = monomial_images(chain.from_iterable(G.terms for G in exprs.values()),
                             *series)
    for k, G in exprs.items():
        if G.evaluate(*series, images) != eisenstein_G(k, len(G.terms) + 30):
            return False, f"q-expansion mismatch for G_{k}"
    # the cocycles are built from the expressions solved above
    u, v = e_alpha(exprs[4])
    a1a3 = LocElem(MultiPoly({(1, 1): Fraction(1)}))
    if u != a1a3:
        return False, f"e_alpha(4) first component is {u.to_text()}"
    if v != Fraction(1, 3) * LevelOneForm.c4():
        return False, f"e_alpha(4) second component is {v.to_text()}"
    for k, G in exprs.items():
        if not cochain_D1(*e_alpha(G)).is_zero():
            return False, f"e_alpha({k}) is not a cocycle"
    prec = 50
    lhs = series_c4(prec) ** 3 - series_c6(prec) ** 2
    if lhs != 1728 * series_delta(prec):
        return False, "c4^3 - c6^2 != 1728 Delta as q-series"
    return True, "weights <= 40 re-checked; e_alpha(4) = (a1*a3, 1/3*c4); q-series identity through q^50"


# -- item 9: the fixed-point spectral sequence ------------------------------

# compute_all raises AssertionError when a page check fails
@_item("fixed-point spectral sequence and homotopy table", AssertionError)
def item_sseq():
    from .sseq import (DEFAULT_WINDOW, compute_all, pi_table,
                       d3_presentation_checks, square_rule_check)
    pres = d3_presentation_checks()
    bad = [k for k, v in pres.items() if not v]
    if bad:
        return False, f"d3 presentation checks failed: {bad}"
    if not square_rule_check():
        return False, "square rule d3(c^2) = h1 (zeta c)^2 failed"
    pages = compute_all(DEFAULT_WINDOW)
    table = pi_table(pages["Einf"])
    mism = [row["stem"] for row in table if not row["ok"]]
    if mism:
        return False, f"pi table mismatches at stems {mism}"
    return True, f"pages E2/E4/E7/Einf verified; oracle agrees on stems 0-{table[-1]['stem']}"


def run_all():
    return [fn() for fn in ITEMS]


def get_item(index: int):
    """The function of item ``index`` (1-based)."""
    if not 1 <= index <= len(ITEMS):
        raise ValueError(f"no verification item {index}; valid range 1..{len(ITEMS)}")
    return ITEMS[index - 1]

