"""The homotopy fixed-point spectral sequence for the Z/2-action on the
Gamma_1(3) moduli, converging to pi_* TMF(Gamma_0(3)).

E_2^{s,t} is the even part of Z[1/3, a1, a3, zeta, Delta^-1]/(2 zeta) with
zeta in bidegree (1, 0): internally a basis of raw monomials
zeta^s a1^i a3^j with i + j + s even and t = 2i + 6j; a sum of them is a
``RawPoly``, keyed by (s, i, j).  The 0-line carries Z[1/3]-coefficients,
lines s >= 1 carry F_2.

Both differentials come from one exponent: zeta^s a1^i a3^j is
a_sigma^s abar1^i abar3^j u_{2sigma}^m with m = (i + 3j - s)/2 (u_exponent).
By the Leibniz rule the slice differentials d3(u_{2sigma}) = a_sigma^3 abar1
and d7(u_{2sigma}^2) = a_sigma^7 abar3 (Hill-Hopkins-Ravenel, Ann. of Math.
184 (2016); for Tmf_1(3) Hill-Meier, Algebr. Geom. Topol. 17 (2017)) give
the d3 coefficient m mod 2 (d3_coeff) and, on the i = 0 classes of E7, the
d7 coefficient bit 1 of m (d7).  d3_presentation_checks compares d3 with
the Leibniz presentation (A = a1^2 -> h1^3, C = a3^2 -> h1 h_{2,0}^2,
B = a1 a3 -> 0, x -> 0, h_{2,0} -> h1 h_{2,0} zeta^2).

After localizing at Delta the s >= 3 lines are F_2[Delta^{+-1}, x] with
x^s Delta^d represented by zeta^s a3^(3s+4d) (model_cell), where d7 is
checked against d7(x) = 0 and d7(Delta) = x^7 Delta^-4 = h20^4 nu.  Then
E_8 = E_infinity, which pi_table compares against a hand-encoded form of
the answer: bo- and bsp-patterns on lines s <= 2 plus the torsion block
F_2[Delta^{+-2}]{nu, nu^2, x, eta x, kbar, x^2, nu x^2}.  (bo_* = (Z, Z/2,
Z/2, 0, Z, 0, 0, 0) and bsp_* = (Z, 0, 0, 0, Z, Z/2, Z/2, 0), period 8, are
standard external facts used only inside the oracle.)

Every page is recomputed and checked by exact F_2 ranks on bitmask vectors,
all from one pivot loop: row_space_f2 builds the pivot table, kernel_f2 runs
it on rows augmented by the identity and in_span_f2 reduces against it.
apply_d3 evaluates d3_coeff once per monomial (again only for d3 o d3 on
targets beyond the page) and keys each cell's d3 matrix by its coefficients
and target offset: one kernel per key, one image per key into a cell.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from operator import not_

from .multipoly import GF2Poly
from .ring import DomainError

Window = namedtuple("Window", ["S", "W", "D"])
DEFAULT_WINDOW = Window(S=12, W=100, D=8)


# -- F2 linear algebra on bitmask vectors ------------------------------------
# One elimination serves all three routines. A pivot table maps a leading bit
# position, v.bit_length(), to the one basis vector that owns it; a vector is
# reduced by XOR-ing only the pivot its current leading bit hits, so reducing
# a vector costs one dict lookup per pivot hit, not one step per basis vector.

def row_space_f2(vectors):
    """Echelon basis of the span, as its pivot table {leading bit: vector}:
    len() is the rank, .values() the basis."""
    pivots = {}
    for v in vectors:
        while v:
            k = v.bit_length()
            b = pivots.get(k)
            if b is None:
                pivots[k] = v
                break
            v ^= b
    return pivots


def in_span_f2(v, pivots):
    """Whether v lies in the span whose pivot table row_space_f2 returned."""
    while v:
        b = pivots.get(v.bit_length())
        if b is None:
            return False
        v ^= b
    return True


def kernel_f2(rows):
    """Kernel basis of the matrix whose i-th row (bitmask over targets) is
    the image of source basis vector i; each kernel vector is a bitmask over
    the len(rows) sources."""
    # the same elimination on rows augmented by the identity, row_i << n |
    # 1 << i: the low n bits carry each vector's source combination, and a
    # vector whose image bits cancel is a kernel vector (its leading bit i
    # owns no pivot, since earlier combinations only have lower bits).  The
    # augmented rows are independent, so each one adds a pivot.
    n = len(rows)
    pivots = row_space_f2([rows[i] << n | 1 << i for i in range(n)])
    return [v for v in pivots.values() if not v >> n]


# -- the presentation generators --------------------------------------------

class RawPoly(GF2Poly):
    """A sum of raw monomials, keyed by the (s, i, j) that d3_coeff takes."""

    __slots__ = ()
    vars = ("zeta", "a1", "a3")


RAW_A = RawPoly([(0, 2, 0)])             # a1^2
RAW_B = RawPoly([(0, 1, 1)])             # a1 a3
RAW_C = RawPoly([(0, 0, 2)])             # a3^2
RAW_X = RawPoly([(1, 0, 3)])             # zeta a3^3
RAW_DELTA = RawPoly([(0, 3, 3), (0, 0, 4)])   # B^3 - 27 C^2 mod 2
RAW_H1 = RawPoly([(1, 1, 0)])            # zeta a1
RAW_H2 = RawPoly([(3, 0, 1)])            # zeta^3 a3
RAW_H20 = RawPoly([(1, 0, 1)])           # zeta a3
RAW_ZETA = RawPoly([(1, 0, 0)])


# -- the differentials from the u-exponent -----------------------------------

def u_exponent(s, i, j):
    """The m of zeta^s a1^i a3^j = a_sigma^s abar1^i abar3^j u_{2sigma}^m."""
    return (i + 3 * j - s) // 2


def d3_coeff(s, i, j):
    """d3 on zeta^s a1^i a3^j, to zeta^(s+3) a1^(i+1) a3^j: m mod 2."""
    return u_exponent(s, i, j) & 1


def d7(s, i, j):
    """d7 of the E7 class zeta^s a1^i a3^j as the target's (s, i, j), or None:
    zeta^(s+7) a3^(j+1) with coefficient bit 1 of m for i = 0; for i >= 1
    the target is a d3-boundary."""
    return (s + 7, 0, j + 1) if i == 0 and u_exponent(s, i, j) & 2 else None


def _raw_d3(p: RawPoly) -> RawPoly:
    """d3 of a polynomial in raw monomials, monomial by monomial."""
    return RawPoly((s + 3, i + 1, j) for (s, i, j) in p.monos if d3_coeff(s, i, j))


def d3_presentation_checks():
    """The displayed d3 values of the Leibniz presentation, re-derived from
    the raw-monomial formula, with Delta- and C-denominators cleared."""
    checks = {}
    A6_C2 = RAW_A ** 6 + RAW_C ** 2
    d4 = RAW_DELTA ** 4

    # d3(A) = x^3 B^3 (A^6 + C^2) Delta^-4, i.e. h1^3
    checks["d3(A) = h1^3"] = (
        _raw_d3(RAW_A) * d4 == RAW_X ** 3 * RAW_B ** 3 * A6_C2
        and _raw_d3(RAW_A) == RAW_H1 ** 3)

    # d3(C) = x^3 B C^2 (A^6 + C^2) Delta^-4, i.e. h1 h20^2
    checks["d3(C) = h1 h20^2"] = (
        _raw_d3(RAW_C) * d4 == RAW_X ** 3 * RAW_B * RAW_C ** 2 * A6_C2
        and _raw_d3(RAW_C) == RAW_H1 * RAW_H20 ** 2)

    checks["d3(B) = 0"] = _raw_d3(RAW_B).is_zero()
    checks["d3(x) = 0"] = _raw_d3(RAW_X).is_zero()
    checks["d3(h1) = 0"] = _raw_d3(RAW_H1).is_zero()

    # d3(h20) = h1 h20 zeta^2, via Leibniz on h20 = x C^-1:
    # d3(h20) C^2 = x d3(C), and directly on the raw monomial
    checks["d3(h20) = h1 h20 zeta^2"] = (
        _raw_d3(RAW_H20) * RAW_C ** 2 == RAW_X * _raw_d3(RAW_C)
        and _raw_d3(RAW_H20) == RAW_H1 * RAW_H20 * RAW_ZETA ** 2)

    # d3(Delta) = 0 by Leibniz on B^3 - 27 C^2 (both contributions even)
    checks["d3(Delta) = 0"] = _raw_d3(RAW_DELTA).is_zero()

    # translation identities locating h1, h2, h20 inside the presentation
    checks["h1 C^2 = x B"] = RAW_H1 * RAW_C ** 2 == RAW_X * RAW_B
    checks["h2 C^4 = x^3"] = RAW_H2 * RAW_C ** 4 == RAW_X ** 3
    checks["h20 C = x"] = RAW_H20 * RAW_C == RAW_X
    return checks


def square_rule_check():
    """d3(c^2) = h1 (zeta c)^2 for odd-weight monomials c = a1^p a3^q."""
    return all(_raw_d3(c ** 2) == RAW_H1 * (RAW_ZETA * c) ** 2
               for (p, q) in ((1, 0), (0, 1), (3, 2), (5, 0), (2, 3))
               for c in [RawPoly([(0, p, q)])])


# -- chart pages -------------------------------------------------------------

class ChartPage:
    def __init__(self, r: int, window: Window, cells: dict,
                 loc: dict = None, checks: dict = None):
        self.r = r
        self.window = window
        # (s, t) -> ordered list of raw monomials (i, j); F2 basis for
        # s >= 1, free Z[1/3] basis for s = 0
        self.cells = cells
        # localization data, set by localize_stabilize
        self.loc = {} if loc is None else loc
        self.checks = {} if checks is None else checks

    def dim(self, s, t):
        return len(self.cells.get((s, t), ()))

    def bidegrees(self):
        return sorted(self.cells)


def check_window(window: Window, pages: bool = True) -> None:
    """The window rule: a DomainError unless every bound is positive and,
    for the page checks (``pages``), S >= 7 and W >= 24.

    A window with positive bounds holds every bidegree the page checks read
    iff S >= 7 and W >= 24: the E7 checks read x^7 Delta^-4 at (7, 30),
    which apply_d3 keeps only when 30 - 2 <= W + 7 - 3."""
    if min(window) <= 0:
        raise DomainError("window bounds must be positive")
    if pages and (window.S < 7 or window.W < 24):
        raise DomainError(f"window {tuple(window)} is too small for the page "
                         f"checks: they need S >= 7 and W >= 24")


def build_E2(window: Window = DEFAULT_WINDOW) -> ChartPage:
    """The E2-term: zeta^s a1^i a3^j with i + j + s even, over the window
    0 <= s <= S, 0 <= t <= s + W."""
    check_window(window, pages=False)
    # t = 2i + 6j makes i + j + s = t/2 - 2j + s, whose parity does not
    # depend on j: a cell holds every a3-exponent 0..t//6 when t = 2s mod 4
    # and nothing otherwise.  The basis is in increasing a1-exponent.
    cells = {}
    for s in range(window.S + 1):
        for t in range(2 * s % 4, s + window.W + 1, 4):
            cells[(s, t)] = [(t // 2 - 3 * j, j) for j in range(t // 6, -1, -1)]
    return ChartPage(r=2, window=window, cells=cells)


def apply_d3(page: ChartPage) -> ChartPage:
    """E4 = ker d3 / im d3, bidegree by bidegree, with d3 o d3 = 0 checked
    on every monomial; 0-line sources reduced mod 2, and the integral
    kernel's index-2 count checked against the mod-2 kernel."""
    if page.r != 2:
        raise ValueError("apply_d3 expects the E2 page")
    win = page.window
    cells = page.cells

    # A cell's d3 matrix is fixed by its key: its monomials' d3 coefficients,
    # evaluated once (bytes, whose hash is cached), and the offset off where
    # the run of its targets starts in the target cell.  A target beyond the
    # window edge keeps its source's position (off = 0: kernels stay honest),
    # and a zero matrix has off = 0, so that equal matrices have equal keys.
    keys = {}
    for (s, t), basis in cells.items():
        cs = bytes([d3_coeff(s, i, j) for (i, j) in basis])
        tgt = cells.get((s + 3, t + 2))
        off = 0
        if tgt is not None:
            off = len(tgt) - len(basis)
            if off < 0 or tgt[off:] != [(i + 1, j) for (i, j) in basis]:
                raise ValueError(f"apply_d3 expects the E2 page: the d3 targets "
                                 f"of ({s},{t}) are not a run in ({s + 3},{t + 2})")
        keys[(s, t)] = (cs, off if 1 in cs else 0)

    # d3 o d3 = 0 on every monomial: the second coefficient is read from the
    # page where the target cell is on it, and evaluated beyond the edge
    for (s, t), basis in cells.items():
        cs, off = keys[(s, t)]
        if 1 not in cs:
            continue
        tgt = keys.get((s + 3, t + 2))
        if tgt is None:
            bad = [m for m, c in zip(basis, cs) if c and d3_coeff(s + 3, m[0] + 1, m[1])]
        else:
            bad = [m for m, c, c2 in zip(basis, cs, tgt[0][off:]) if c and c2]
        if bad:
            i, j = bad[0]
            raise AssertionError(f"d3^2 != 0 on zeta^{s} a1^{i} a3^{j}")

    def rows(key):
        cs, off = key
        return [1 << k + off if c else 0 for k, c in enumerate(cs)]

    # a cell's kernel depends only on its own key and its image only on the
    # one into it: each once, and image in kernel once per distinct pair
    kernels, images, contained = {}, {}, set()
    out = {}
    for (s, t), basis in cells.items():
        if s >= 3 and t - 2 > win.W + s - 3:
            continue        # incoming source beyond the window: untrusted
        own, below = keys[(s, t)], keys.get((s - 3, t - 2))
        if own not in kernels:
            # kernel_f2's vectors have distinct leading bits: a pivot table
            kernels[own] = {v.bit_length(): v for v in kernel_f2(rows(own))}
        if below not in images:
            images[below] = row_space_f2(() if below is None else rows(below))
        kernel, img = kernels[own], images[below]
        if (own, below) not in contained:
            if not all(in_span_f2(v, kernel) for v in img.values()):
                raise AssertionError(f"image not contained in kernel at ({s},{t})")
            contained.add((own, below))
        cs = own[0]
        # the honest dimension count against the monomial description: d3 is
        # monomial-to-monomial, so kernel and image are coordinate subspaces
        if s == 0:
            # integral kernel: c = 0 monomials plus 2 * (c = 1 monomials)
            survivors = list(basis)      # free rank is unchanged
            if len(kernel) != len(basis) - sum(cs):
                raise AssertionError(f"0-line mod-2 kernel mismatch at ({s},{t})")
        else:
            # the d3-cycles, c = 0, not hit from below: zeta^(s-3) a1^(i-1) a3^j
            # has u-exponent m + 1, so on lines s >= 3 only the i = 0 monomial,
            # first in the basis, can survive
            if s < 3:
                survivors = list(compress(basis, map(not_, cs)))
            else:
                survivors = basis[:1] if basis[0][0] == 0 and not cs[0] else []
            if len(survivors) != len(kernel) - len(img):
                raise AssertionError(f"basis/rank mismatch at ({s},{t})")
        if survivors:
            out[(s, t)] = survivors
    return ChartPage(r=4, window=win, cells=out)


# -- localization ------------------------------------------------------------

def _delta_mult_matrix(page, s, t):
    """Multiplication by RAW_DELTA, Delta mod 2 on s >= 1, from cell (s, t)
    to (s, t + 24), reduced to the page basis."""
    src = page.cells.get((s, t), [])
    tgt = page.cells.get((s, t + 24), [])
    pos = {m: k for k, m in enumerate(tgt)}
    rows = []
    for (i, j) in src:
        row = 0
        for m in ((i + di, j + dj) for (_, di, dj) in RAW_DELTA.monos):
            if m in pos:
                row ^= 1 << pos[m]
        rows.append(row)
    return rows


def localize_stabilize(page: ChartPage) -> ChartPage:
    """Invert Delta by the filtration colimit: on each line s >= 1 and
    t-residue mod 24, multiplication by Delta is checked injective and the
    cokernel dimensions of successive steps must stabilize within the
    window's D steps.
    Returns the localized page (= E7; no differentials intervene)."""
    if page.r != 4:
        raise ValueError("localize_stabilize expects the E4 page")
    loc = {}
    for s in range(1, page.window.S + 1):
        for t0 in range(0, 24, 2):
            # t + 24 stays below W + s: apply_d3 drops the cell at
            # t = W + s on lines s >= 3, so it cannot be a target here
            ts = [t for t in range(t0, page.window.W + s - 24, 24)
                  if (s, t) in page.cells or (s, t + 24) in page.cells]
            if not ts:
                continue
            cokers = []
            for t in ts:
                rows = _delta_mult_matrix(page, s, t)
                rk = len(row_space_f2(rows))
                if rk != page.dim(s, t):
                    raise AssertionError(
                        f"Delta-multiplication not injective at ({s},{t})")
                cokers.append(page.dim(s, t + 24) - rk)
            tail = cokers[-page.window.D:]
            stable = tail[-1]
            if any(c != stable for c in tail[-max(2, len(tail) // 2):]):
                raise AssertionError(
                    f"no stabilization within budget at line {s}, "
                    f"t = {t0} mod 24: cokernels {cokers}")
            first_stable = len(cokers) - 1
            while first_stable > 0 and cokers[first_stable - 1] == stable:
                first_stable -= 1
            loc[(s, t0)] = {"growth": stable,
                            "stable_from": ts[first_stable]}
    out = ChartPage(r=7, window=page.window, cells=dict(page.cells), loc=loc)
    out.checks["delta_periodic"] = delta_periodic(out)
    return out


def delta_periodic(page: ChartPage) -> bool:
    """The localized page is 24-periodic via Delta on s >= 1: from
    stable_from on, each Delta-step on line s grows the cell by the
    recorded growth."""
    return all(page.dim(s, t + 24) - page.dim(s, t) == v["growth"]
               for (s, _), v in page.loc.items()
               for t in range(v["stable_from"], page.window.W + s - 24, 24))


# -- the E7 model, d7, and E_infinity ----------------------------------------

def model_cell(s, t):
    """The model basis at (s, t): the raw monomial zeta^s a3^(3s+4d) of
    x^s Delta^d when t = 18s + 24d, none otherwise or when 3s + 4d < 0 (a
    Delta-denominator deeper than a3-exponents allow)."""
    d, r = divmod(t - 18 * s, 24)
    j = 3 * s + 4 * d
    return [(0, j)] if r == 0 and j >= 0 else []


def e7_model_and_d7(page: ChartPage) -> ChartPage:
    """Checks the s >= 3 window of E7 against F_2[Delta^{+-1}, x], locates
    h20^4 and d7(Delta) as model classes, applies d7 and returns
    E8 = E_infinity."""
    if page.r != 7:
        raise ValueError("e7_model_and_d7 expects the localized page")
    win = page.window
    checks = page.checks

    # lines s >= 3 are exactly the model: one class x^s Delta^d per
    # bidegree (s, 18s + 24d), nothing else
    checks["model_s_ge_3"] = all(
        page.cells.get((s, t), []) == model_cell(s, t)
        for s in range(3, win.S + 1) for t in range(0, win.W + s, 2))

    # x-multiplication realizes the model: x * (x^s Delta^d) = x^(s+1) Delta^d,
    # the raw monomial times zeta a3^3
    checks["x_multiplication"] = all(
        page.cells[(s + 1, t + 18)] == [(i, j + 3) for (i, j) in model_cell(s, t)]
        for s in range(3, win.S) for d in range(-win.D, win.D + 1)
        for t in [18 * s + 24 * d]
        if model_cell(s, t) and (s + 1, t + 18) in page.cells)

    # h20^4 = zeta^4 a3^4 at (4, 24) is the model class x^4 Delta^-2
    checks["h20_4_is_x4_delta_power"] = (
        page.cells.get((4, 24)) == model_cell(4, 24) == [(0, 4)])

    # d7 on named model classes; d7(Delta) is h20^4 nu = x^7 Delta^-4 at (7, 30)
    checks["d7_x_zero"] = d7(1, *model_cell(1, 18)[0]) is None
    checks["d7_delta_hits_h20_4_nu"] = (
        d7(0, *model_cell(0, 24)[0]) == (7, *model_cell(7, 30)[0])
        and page.cells.get((7, 30)) == model_cell(7, 30))
    checks["d7_delta_sq_zero"] = d7(0, *model_cell(0, 48)[0]) is None
    # kbar^6 = 0 forces d7(x^17 Delta^-7) = (h20^4)^6 = x^24 Delta^-12
    checks["d7_kbar6"] = d7(17, *model_cell(17, 138)[0]) == (24, *model_cell(24, 144)[0])

    # E8 on lines s >= 1: a class dies iff it is a d7 source or d7 of the
    # source zeta^(s-7) a1^i a3^(j-1), which exists after localization even
    # where it is no raw monomial.  The 0-line persists (nothing maps into
    # filtration 0; d7 on Delta-powers only adds index-2 bookkeeping).
    cells = {}
    for (s, t), basis in page.cells.items():
        keep = [(i, j) for (i, j) in basis if s == 0 or (
            d7(s, i, j) is None and (s < 7 or d7(s - 7, i, j - 1) != (s, i, j)))]
        if keep:
            cells[(s, t)] = keep
    out = ChartPage(r=8, window=win, cells=cells, loc=dict(page.loc),
                    checks=dict(checks))

    # x^7 = 0: every class on lines >= 7 has died
    out.checks["x7_zero"] = all(s < 7 for (s, t) in cells if s >= 1)
    # no differential d_r, r >= 8, fits inside the window
    out.checks["no_further_differentials"] = all(
        (s + r, t + r - 1) not in cells
        for (s, t) in cells for r in range(8, win.S + 8))
    # 48-periodicity on s >= 1 within the Delta^2-stable range, short of
    # the cell at t = W + s that apply_d3 drops on lines s >= 3
    out.checks["periodic_48"] = all(
        (s, t + 48) in cells for (s, t) in cells if s >= 3 and t + 48 < win.W + s)
    if not all(out.checks.values()):
        bad = [k for k, v in out.checks.items() if not v]
        raise AssertionError(f"E7/E-infinity model checks failed: {bad}")
    return out


# -- the answer --------------------------------------------------------------

BO_TORSION = {1: 1, 2: 2}      # bo_*: Z/2 at degrees 1, 2 mod 8, filt 1, 2
BSP_TORSION = {5: 1, 6: 2}     # bsp_*: Z/2 at degrees 5, 6 mod 8
BO_GENS = (0, 8)               # bo [Delta^+-1]{1, a1 a3}: stems 0, 8 mod 24
BSP_GENS = (12, 20)            # bsp[Delta^+-1]{2 a3^2, 2 a1 a3^3}
# the torsion block F_2[Delta^+-2]{nu, nu^2, x, eta x, kbar, x^2, nu x^2}:
# (stem, filt) -> (name, period).  The model classes recur with period 48
# (their Delta-odd translates are not d7-cycles); eta x is h1-divisible and
# not a model class, so its whole Delta-tower survives: period 24.
TORSION_BLOCK = {
    (3, 3): ("nu", 48), (6, 6): ("nu^2", 48), (17, 1): ("x", 48),
    (18, 2): ("eta*x", 24), (20, 4): ("kbar", 48), (34, 2): ("x^2", 48),
    (37, 5): ("nu*x^2", 48)}


def oracle_dims(n: int, smax: int) -> dict:
    """Hand-encoded E-infinity column for stem n >= 0 (Delta-exponents >= 0
    on the bo/bsp towers, matching the raw-monomial window): filtration ->
    F_2-dimension for s >= 1, plus the 0-line free rank at key 0."""
    dims = {s: 0 for s in range(smax + 1)}
    gens = [(g0 + 24 * k, BO_TORSION) for g0 in BO_GENS for k in range(n // 24 + 1)]
    gens += [(g0 + 24 * k, BSP_TORSION) for g0 in BSP_GENS for k in range(n // 24 + 1)]
    for g, torsion in gens:
        if g > n:
            continue
        rel = (n - g) % 8
        if rel in (0, 4):
            dims[0] += 1
        filt = torsion.get(rel)
        if filt is not None:
            dims[filt] += 1
    for (base, filt), (_name, period) in TORSION_BLOCK.items():
        if filt <= smax and n % period == base % period and n >= base:
            dims[filt] += 1
    return dims


def pi_table(einf: ChartPage):
    """Per-stem comparison of the computed E-infinity column (F_2 dims at
    filtration s >= 1, free rank at s = 0) with the hand-encoded answer,
    for stems 0 to 96."""
    if einf.r != 8:
        raise ValueError("pi_table expects the E-infinity page")
    smax = min(einf.window.S, 6)
    rows = []
    for n in range(97):
        computed = {0: einf.dim(0, n)}
        for s in range(1, smax + 1):
            computed[s] = einf.dim(s, n + s)
        expected = oracle_dims(n, smax)
        rows.append({"stem": n, "computed": computed, "expected": expected,
                     "ok": computed == expected})
    return rows


def compute_all(window: Window = DEFAULT_WINDOW):
    """E2 -> E4 -> localized E7 -> E-infinity, returned as a dict of pages.

    A window outside ``check_window`` is a DomainError; an AssertionError is
    a page check that failed."""
    check_window(window)
    e2 = build_E2(window)
    e4 = apply_d3(e2)
    e7 = localize_stabilize(e4)
    einf = e7_model_and_d7(e7)
    return {"E2": e2, "E4": e4, "E7": e7, "Einf": einf}


# -- output ------------------------------------------------------------------

def chart_json(page: ChartPage) -> dict:
    cells = []
    for (s, t) in page.bidegrees():
        basis = [f"zeta^{s}*a1^{i}*a3^{j}" for (i, j) in page.cells[(s, t)]]
        cell = {"s": s, "t": t, "dim": len(basis), "basis": basis}
        if page.r == 2:
            targets = [f"zeta^{s + 3}*a1^{i + 1}*a3^{j}"
                       for (i, j) in page.cells[(s, t)] if d3_coeff(s, i, j)]
            cell["differentials"] = targets
        cells.append(cell)
    return {"page": page.r, "cells": cells}


def chart_ascii(page: ChartPage, max_stem=48) -> str:
    """Stem horizontal, filtration vertical, a digit per nonzero dimension
    (dots would overlap for dims > 3)."""
    lines = []
    for s in range(page.window.S, -1, -1):
        row = [f"{s:2d} |"]
        for n in range(max_stem + 1):
            d = page.dim(s, n + s)
            row.append(" " if d == 0 else (str(d) if d < 10 else "*"))
        lines.append("".join(row))
    lines.append("   +" + "-" * (max_stem + 1))
    tick = ["    "]
    for n in range(max_stem + 1):
        tick.append(str(n // 10 % 10) if n % 10 == 0 else " ")
    lines.append("".join(tick))
    return "\n".join(lines)
