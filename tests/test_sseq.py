import ast

import pytest
from hypothesis import given, settings, strategies as st

from tmf3 import sseq, verify
from tmf3.sseq import (Window, DEFAULT_WINDOW, ChartPage, build_E2, apply_d3,
                       localize_stabilize, e7_model_and_d7, compute_all,
                       pi_table, d3_presentation_checks, square_rule_check,
                       d3_coeff, chart_json, chart_ascii, oracle_dims,
                       row_space_f2, in_span_f2, kernel_f2, delta_periodic)


@pytest.fixture(scope="module")
def pages():
    return compute_all(Window(*DEFAULT_WINDOW))


def test_e2_sample_cells(pages):
    e2 = pages["E2"]
    # x = zeta * a3^3 sits in (1, 18)
    assert (0, 3) in e2.cells[(1, 18)]
    # h2 = zeta^3 * a3 sits in (3, 6)
    assert (0, 1) in e2.cells[(3, 6)]
    # zero-line vanishes in odd internal degree
    assert all(t % 2 == 0 for (s, t) in e2.bidegrees() if s == 0)


def test_d3_presentation():
    checks = d3_presentation_checks()
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}


def test_square_rule():
    assert square_rule_check()


# -- negative controls: the presentation checks can fail -----------------------

def test_d3_presentation_fails_with_a_wrong_d3_on_a3_squared(monkeypatch):
    real = sseq.d3_coeff
    monkeypatch.setattr(sseq, "d3_coeff", lambda s, i, j: real(s, i, j) ^ (j == 2))
    checks = d3_presentation_checks()
    assert checks["d3(C) = h1 h20^2"] is False
    assert checks["d3(h20) = h1 h20 zeta^2"] is False
    r = verify.item_sseq()
    assert r["pass"] is False and r["detail"].startswith("d3 presentation checks failed")


def test_square_rule_fails_with_a_wrong_h1(monkeypatch):
    # h1 = zeta a1; zeta a3 is h20
    monkeypatch.setattr(sseq, "RAW_H1", sseq.RAW_H20)
    assert square_rule_check() is False


def test_d3_squared_zero():
    # apply_d3 raises if the composite of consecutive differentials is nonzero
    e4 = apply_d3(build_E2(Window(*DEFAULT_WINDOW)))
    assert e4.r == 4


def test_d3_coefficient_is_cellwise():
    # the coefficient is constant within one bidegree, where a1^3 replaces
    # a3, and along multiplication by a1^3 a3^3, the leading term of Delta
    for s in range(0, 8):
        for (i, j) in ((2, 0), (0, 2), (4, 4), (1, 3), (5, 1)):
            c1 = d3_coeff(s, i, j)
            if j:
                assert c1 == d3_coeff(s, i + 3, j - 1)
            c2 = d3_coeff(s, i + 3, j + 3)  # same t shift by Delta
            assert c1 == c2


def _floor_d3(s, i, j):
    """The d3 coefficient by the floor formula floor(s/2) + floor((i-j)/2)
    mod 2, the closed form that preceded the u-exponent rule."""
    return (s // 2 + (i - j) // 2) % 2


def test_d3_coeff_is_the_floor_formula():
    # m mod 2 against the floor formula on every parity-allowed monomial of
    # the box s < 40, i < 80, -40 <= j < 40: 128,000 of them
    box = [(s, i, j) for s in range(40) for i in range(80) for j in range(-40, 40)
           if (i + j + s) % 2 == 0]
    assert len(box) == 128000
    assert [d3_coeff(*m) for m in box] == [_floor_d3(*m) for m in box]


def test_localized_page_is_periodic(pages):
    # from stable_from on, each Delta-step on line s grows the cell by the
    # recorded growth, recomputed here from the cell dimensions
    e7 = pages["E7"]
    assert e7.loc
    for (s, t0), v in e7.loc.items():
        steps = range(v["stable_from"], e7.window.W + s - 24, 24)
        assert steps, (s, t0)
        for t in steps:
            assert e7.dim(s, t + 24) - e7.dim(s, t) == v["growth"], (s, t)


def test_delta_periodic_fails_on_a_wrong_growth(pages):
    e7 = pages["E7"]
    assert e7.checks["delta_periodic"] is True
    for key, v in e7.loc.items():
        loc = {**e7.loc, key: {**v, "growth": v["growth"] + 1}}
        assert not delta_periodic(ChartPage(7, e7.window, e7.cells, loc)), key


def test_einf_model_checks(pages):
    einf = pages["Einf"]
    assert all(v is True for v in einf.checks.values()), einf.checks


def test_x_power_relations(pages):
    einf = pages["Einf"]
    # x^7 = 0: no survivors in filtration >= 7 away from the zero line
    assert all(s < 7 for (s, t) in einf.cells if s >= 1 and einf.cells[(s, t)])


def test_einf_48_periodicity(pages):
    # periodicity holds for the localized columns; filtrations 1 and 2 also
    # carry the bo/bsp ladders, which are truncated below Delta^0 and so
    # grow with the stem, leaving lines 3..6 as the periodic part
    table = {row["stem"]: row["computed"] for row in pi_table(pages["Einf"])}
    for n in range(0, 49):
        a, b = table[n], table[n + 48]
        for s in range(3, 7):
            assert a[s] == b[s], (n, s)


def test_oracle_sample_stems():
    # stem 17 carries the order-2 class at filtration 1
    dims = oracle_dims(17, 6)
    assert dims[1] >= 1
    # stem 20 carries the filtration-4 class
    dims = oracle_dims(20, 6)
    assert dims[4] >= 1
    # stem 3 carries the filtration-3 class
    dims = oracle_dims(3, 6)
    assert dims[3] >= 1


def test_pi_table_matches_oracle(pages):
    table = pi_table(pages["Einf"])
    bad = [row for row in table if not row["ok"]]
    assert not bad, bad[:3]
    assert len(table) == 97


def test_chart_outputs(pages):
    payload = chart_json(pages["E2"])
    assert payload["page"] == 2
    assert all({"s", "t", "dim", "basis"} <= set(c) for c in payload["cells"])
    art = chart_ascii(pages["Einf"], max_stem=24)
    assert "0 |" in art


@pytest.mark.parametrize("S,W", [(12, 98), (12, 102), (12, 112), (8, 102), (8, 116)])
def test_window_edge_cells_are_not_read(S, W):
    # apply_d3 drops the cell at t = W + s on lines s >= 3; neither the
    # Delta-localization nor the 48-periodicity check may read it
    pages = compute_all(Window(S, W, DEFAULT_WINDOW.D))
    table = pi_table(pages["Einf"])
    assert all(row["ok"] for row in table), [r["stem"] for r in table if not r["ok"]]


def _page_checks_pass(window):
    """The verdict of the page checks themselves, without compute_all's
    window rule."""
    try:
        e7_model_and_d7(localize_stabilize(apply_d3(build_E2(window))))
    except AssertionError:
        return False
    return True


@pytest.mark.parametrize("S", [1, 5, 6, 7, 8, 14])
def test_window_rule_is_the_verdict_of_the_page_checks(S):
    # the rule S >= 7 and W >= 24 rejects exactly the windows on which a
    # page check would fail, across its edge W = 24 and for every D
    for W in [2, 18, *range(19, 28), 30, 62]:
        for D in (1, 2, 4, 8):
            window = Window(S, W, D)
            small = S < 7 or W < 24
            assert _page_checks_pass(window) is not small, window
            if small:
                with pytest.raises(ValueError, match="is too small for the page checks"):
                    compute_all(window)
            else:
                compute_all(window)


# -- F2 linear algebra against a dense reference -------------------------------

def _ref_rank(vectors, ncols):
    """Rank by Gaussian elimination on dense 0/1 rows."""
    rows = [[v >> k & 1 for k in range(ncols)] for v in vectors]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _ref_in_span(v, vectors, ncols):
    return _ref_rank(vectors + [v], ncols) == _ref_rank(vectors, ncols)


_NCOLS = 9
_VECTORS = st.lists(st.integers(0, (1 << _NCOLS) - 1), max_size=12)


@settings(max_examples=200, deadline=None)
@given(_VECTORS, st.integers(0, (1 << _NCOLS) - 1))
def test_row_space_and_in_span_match_dense_reference(vectors, v):
    pivots = row_space_f2(vectors)
    basis = list(pivots.values())
    rank = _ref_rank(vectors, _NCOLS)
    assert len(pivots) == rank == _ref_rank(basis, _NCOLS)
    assert all(k == b.bit_length() for k, b in pivots.items())
    # same span: the basis lies in the span of the input and has its rank
    assert all(_ref_in_span(b, vectors, _NCOLS) for b in basis)
    assert in_span_f2(v, pivots) == _ref_in_span(v, vectors, _NCOLS)
    assert all(in_span_f2(w, pivots) for w in vectors)


@settings(max_examples=200, deadline=None)
@given(_VECTORS)
def test_kernel_matches_dense_reference(rows):
    n = len(rows)
    kernel = kernel_f2(rows)
    assert len(kernel) == n - _ref_rank(rows, _NCOLS)
    assert _ref_rank(kernel, n) == len(kernel)      # independent
    for combo in kernel:
        assert 0 < combo < 1 << n
        image = 0
        for i in range(n):
            if combo >> i & 1:
                image ^= rows[i]
        assert image == 0


# -- negative controls: every apply_d3 / localize_stabilize check can fail ----

def _sub_page(keys):
    """The E2 page restricted to the given cells, in the given order."""
    e2 = build_E2(Window(*DEFAULT_WINDOW))
    return ChartPage(r=2, window=e2.window, cells={k: e2.cells[k] for k in keys})


def _d3_beyond_the_window(s, i, j):
    """d3 o d3 != 0 only from lines s >= S - 2, whose d3 targets leave the
    window, so no matrix of the page can see it."""
    S = DEFAULT_WINDOW.S
    return 1 if s > S - 3 else 0 if s > S - 6 else d3_coeff(s, i, j)


@pytest.mark.parametrize("broken_d3", [lambda s, i, j: 1, _d3_beyond_the_window],
                         ids=["all_ones", "beyond_the_window"])
def test_d3_squared_check_fails(monkeypatch, broken_d3):
    monkeypatch.setattr(sseq, "d3_coeff", broken_d3)
    with pytest.raises(AssertionError, match=r"d3\^2 != 0 on zeta\^"):
        apply_d3(build_E2(Window(*DEFAULT_WINDOW)))


def _drop_last_kernel_vector(monkeypatch):
    monkeypatch.setattr(sseq, "kernel_f2", lambda rows: kernel_f2(rows)[:-1])


def test_zero_line_kernel_check_fails_on_a_short_kernel(monkeypatch):
    _drop_last_kernel_vector(monkeypatch)
    with pytest.raises(AssertionError, match=r"0-line mod-2 kernel mismatch at \(0,0\)"):
        apply_d3(build_E2(Window(*DEFAULT_WINDOW)))


def test_image_check_fails_on_a_short_kernel(monkeypatch):
    # (3, 6) = {zeta^3 a3, zeta^3 a1^3}, both d3-cycles; zeta^3 a1^3 is
    # d3(a1^2) from (0, 4), and it is the kernel vector dropped
    _drop_last_kernel_vector(monkeypatch)
    with pytest.raises(AssertionError, match=r"image not contained in kernel at \(3,6\)"):
        apply_d3(_sub_page([(3, 6), (0, 4)]))


def test_rank_check_fails_on_a_short_kernel(monkeypatch):
    # (1, 2) = {zeta a1}, a d3-cycle hit by nothing
    _drop_last_kernel_vector(monkeypatch)
    with pytest.raises(AssertionError, match=r"basis/rank mismatch at \(1,2\)"):
        apply_d3(_sub_page([(1, 2)]))


def test_targets_that_are_no_run_are_an_internal_fault():
    # d3(a1^2) at (0, 4) is zeta^3 a1^3, the last monomial of (3, 6); with
    # (3, 6) reversed the targets no longer run from the offset: the page is
    # no E2 page, a ValueError and not a failed page check
    page = _sub_page([(3, 6), (0, 4)])
    page.cells[(3, 6)].reverse()
    with pytest.raises(ValueError, match=r"the d3 targets of \(0,4\) are not a run in \(3,6\)"):
        apply_d3(page)


@pytest.fixture
def e4():
    return apply_d3(build_E2(Window(*DEFAULT_WINDOW)))


def test_injectivity_check_fails_on_a_zeroed_delta_row(monkeypatch, e4):
    real = sseq._delta_mult_matrix
    monkeypatch.setattr(sseq, "_delta_mult_matrix",
                        lambda page, s, t: [0] + real(page, s, t)[1:])
    with pytest.raises(AssertionError, match="not injective"):
        localize_stabilize(e4)


def test_delta_matrix_rows_are_products_with_delta():
    # each row of the Delta-step matrix is RAW_DELTA times the source
    # monomial, multiplied as RawPolys and restricted to the target's basis;
    # the rank checks alone cannot tell Delta from another injective map
    for window in [Window(*DEFAULT_WINDOW)] + _BENCHMARK_WINDOWS:
        page = apply_d3(build_E2(window))
        for (s, t), basis in page.cells.items():
            if s == 0:
                continue
            pos = {m: k for k, m in enumerate(page.cells.get((s, t + 24), []))}
            expected = []
            for i, j in basis:
                product = sseq.RAW_DELTA * sseq.RawPoly([(s, i, j)])
                expected.append(sum(1 << pos[(i2, j2)] for (_, i2, j2) in product.monos
                                    if (i2, j2) in pos))
            assert sseq._delta_mult_matrix(page, s, t) == expected, (window, s, t)


def test_stabilization_check_fails_on_a_growing_cokernel(e4):
    # one class more in the target of the last Delta-step of the first
    # (line, residue) that localize_stabilize checks: the cokernel grows there
    s, t0 = next(iter(localize_stabilize(e4).loc))
    t = max(t for t in range(t0, e4.window.W + s - 24, 24)
            if (s, t) in e4.cells or (s, t + 24) in e4.cells)
    e4.cells[(s, t + 24)] = e4.cells.get((s, t + 24), []) + [(999, 999)]
    with pytest.raises(AssertionError, match="no stabilization within budget"):
        localize_stabilize(e4)


# -- E8 from the u-exponent's d7, against the parity rule and the closed form -

def _ref_e8_cells(e7):
    """E8 by the parity rule: on lines s >= 7 every class dies, on lines
    3..6 the class x^s Delta^d survives iff d is even, on lines 1 and 2 the
    model class x^s Delta^d is removed iff d is odd, and the 0-line stays."""
    cells = {}
    for (s, t), basis in e7.cells.items():
        if s == 0:
            cells[(s, t)] = list(basis)
            continue
        if s >= 7:
            continue
        if s >= 3:
            d = (t - 18 * s) // 24
            if d % 2 == 0:
                cells[(s, t)] = list(basis)
        else:
            keep = list(basis)
            if (t - 18 * s) % 24 == 0:
                d = (t - 18 * s) // 24
                m = (0, 3 * s + 4 * d) if 3 * s + 4 * d >= 0 else None
                if d % 2 == 1 and m in keep:
                    keep.remove(m)
            if keep:
                cells[(s, t)] = keep
    return cells


_E8_GRID = [Window(S, W, D) for S in (7, 8, 9, 12, 14)
            for W in (24, 26, 30, 46, 48, 50, 72, 98, 100, 138)
            for D in (1, 8)]
_BENCHMARK_WINDOWS = [Window(12, 200, 8), Window(12, 250, 8),
                      Window(8, 300, 12), Window(12, 300, 8)]
# the one window grid of the tests that compare pages with a reference
_WINDOWS = _E8_GRID + _BENCHMARK_WINDOWS + [
    Window(S, W, DEFAULT_WINDOW.D) for S in (7, 8, 12) for W in range(24, 331, 7)]


def _survives(s, i, j):
    m = (i + 3 * j - s) // 2
    return m % 2 == 0 and (s <= 2 if i >= 1 else s <= 6 and m % 4 == 0)


def _closed_form_e8_cells(e2):
    """E8 = Einf from E2 alone, by the u-exponent m = (i + 3j - s)/2: the
    0-line keeps every monomial, and on a line s >= 1 the class
    x^s a1^i a3^j survives iff m is even, and either i >= 1 and s <= 2, or
    i = 0, s <= 6 and m = 0 mod 4. The cells with s >= 3 and
    t - 2 > W + s - 3, which apply_d3 does not trust, are dropped."""
    cells = {}
    for (s, t), basis in e2.cells.items():
        if s >= 3 and t - 2 > e2.window.W + s - 3:
            continue
        keep = [(i, j) for (i, j) in basis if s == 0 or _survives(s, i, j)]
        if keep:
            cells[(s, t)] = keep
    return cells


def test_e8_cells_match_the_parity_rule():
    for window in _WINDOWS:
        e2 = build_E2(window)
        e7 = localize_stabilize(apply_d3(e2))
        e8 = e7_model_and_d7(e7).cells
        assert e8 == _ref_e8_cells(e7), window
        assert e8 == _closed_form_e8_cells(e2), window


# -- E2 and E4 against the filter-and-sort form they replaced -----------------

def _ref_e2_cells(window):
    """E2 by filtering: every a3-exponent j with t - 6j even and
    i + j + s even, sorted by monomial."""
    cells = {}
    for s in range(window.S + 1):
        for t in range(0, s + window.W + 1, 2):
            basis = sorted((i, j) for j in range(t // 6 + 1)
                           if (t - 6 * j) % 2 == 0
                           for i in [(t - 6 * j) // 2]
                           if (i + j + s) % 2 == 0)
            if basis:
                cells[(s, t)] = basis
    return cells


def _ref_e4_cells(e2_cells, window):
    """E4 by the monomial survivor rule, with the floor formula for d3
    evaluated afresh at every use: the 0-line keeps its free basis, the cell
    at t = W + s on lines s >= 3 is dropped, and elsewhere a monomial
    survives iff d3 is 0 on it and it is not d3 of a monomial in the cell
    below."""
    cells = {}
    for (s, t), basis in e2_cells.items():
        if s >= 3 and t - 2 > window.W + s - 3:
            continue
        hit = {(i + 1, j) for (i, j) in e2_cells.get((s - 3, t - 2), [])
               if _floor_d3(s - 3, i, j)}
        survivors = list(basis) if s == 0 else [
            (i, j) for (i, j) in basis
            if not _floor_d3(s, i, j) and (i, j) not in hit]
        if survivors:
            cells[(s, t)] = survivors
    return cells


def test_e2_and_e4_cells_match_the_reference():
    # the same cells, in the same order, each with the same basis order
    for window in _WINDOWS:
        ref = _ref_e2_cells(window)
        e2 = build_E2(window)
        assert list(e2.cells.items()) == list(ref.items()), window
        e4 = apply_d3(e2)
        assert list(e4.cells.items()) == list(_ref_e4_cells(ref, window).items()), window


def _d3_rows(cells, s, t):
    """The d3 matrix of cell (s, t), from a position dict: a target on the
    page at its position in the target cell, a target beyond the edge at its
    source's position."""
    tgt = cells.get((s + 3, t + 2))
    pos = {m: k for k, m in enumerate(tgt or ())}
    return tuple(1 << (pos[(i + 1, j)] if tgt else k) if d3_coeff(s, i, j) else 0
                 for k, (i, j) in enumerate(cells[(s, t)]))


def _kept_pairs(e2):
    """(cell, its d3 matrix, the d3 matrix into it) for every cell apply_d3
    keeps, in page order: all but the cell at t = W + s on lines s >= 3."""
    return [((s, t), _d3_rows(e2.cells, s, t),
             _d3_rows(e2.cells, s - 3, t - 2) if (s - 3, t - 2) in e2.cells else ())
            for (s, t) in e2.cells if s < 3 or t < e2.window.W + s]


def test_apply_d3_evaluates_each_coefficient_once(monkeypatch):
    # one d3_coeff call per monomial, one more for the d3^2 coefficient check
    # where the coefficient is 1 and the target cell lies beyond the page,
    # one kernel_f2 call per distinct own matrix and one row_space_f2 call
    # per distinct incoming matrix of the cells kept, besides the one inside
    # each kernel_f2 call
    window = _BENCHMARK_WINDOWS[-1]        # 12,300,8
    e2 = build_E2(window)
    coeffs = [d3_coeff(s, i, j) for (s, t), basis in e2.cells.items()
              for (i, j) in basis]
    off_page = [c for (s, t), basis in e2.cells.items() if (s + 3, t + 2) not in e2.cells
                for (i, j) in basis for c in [d3_coeff(s, i, j)]]
    kept = _kept_pairs(e2)
    own = {here for _, here, _ in kept}
    calls = {"d3_coeff": 0, "kernel_f2": 0, "row_space_f2": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sseq, "d3_coeff", counted(d3_coeff))
    monkeypatch.setattr(sseq, "kernel_f2", counted(kernel_f2))
    monkeypatch.setattr(sseq, "row_space_f2", counted(row_space_f2))
    apply_d3(e2)
    assert calls == {"d3_coeff": len(coeffs) + sum(off_page),
                     "kernel_f2": len(own),
                     "row_space_f2": len(own) + len({below for _, _, below in kept})}
    assert calls == {"d3_coeff": 29215, "kernel_f2": 155, "row_space_f2": 311}


def test_rank_check_fails_on_a_short_image_of_one_incoming_matrix(monkeypatch):
    # apply_d3 keeps each kernel per own matrix and each image per incoming
    # matrix, and tests image in kernel once per (own, incoming) pair.
    # Cut the image of one incoming matrix short at a cell whose own matrix
    # an earlier cell met with another incoming matrix: the last such cell
    # whose incoming matrix is new, of positive rank and has an even first
    # row (kernel_f2's rows, augmented by the identity, all have odd first
    # rows, so the cut hits only the image).  Results kept per own matrix
    # alone would reuse the earlier cell's rank there.
    e2 = build_E2(Window(*DEFAULT_WINDOW))
    met = set()             # the incoming matrices met so far
    seen = set()            # the own matrices met so far
    cells = []
    for (s, t), here, below in _kept_pairs(e2):
        if below not in met and here in seen and row_space_f2(below) and not below[0] & 1:
            cells.append(((s, t), below))
        seen.add(here)
        met.add(below)
    assert cells
    (s, t), below = cells[-1]

    def short_image(vectors):
        pivots = row_space_f2(vectors)
        if tuple(vectors) == below:
            del pivots[max(pivots)]
        return pivots

    monkeypatch.setattr(sseq, "row_space_f2", short_image)
    with pytest.raises(AssertionError, match=rf"basis/rank mismatch at \({s},{t}\)"):
        apply_d3(e2)


def test_model_cell_and_d7():
    assert sseq.model_cell(7, 30) == [(0, 5)]          # x^7 Delta^-4
    assert sseq.model_cell(4, 24) == [(0, 4)]          # h20^4 = x^4 Delta^-2
    assert sseq.model_cell(3, 32) == []                # not 18s + 24d
    assert sseq.model_cell(1, -6) == []                # x Delta^-1: a3^-1
    # d7 of the monomial zeta^s a1^i a3^j, zero unless i = 0 and m = 2 mod 4
    assert sseq.d7(0, 0, 4) == (7, 0, 5)               # d7(Delta) = x^7 Delta^-4
    assert sseq.d7(3, 0, 5) == (10, 0, 6)              # d7(x^3 Delta^-1)
    assert sseq.d7(5, 0, 31) is None                   # x^5 Delta^4
    assert sseq.d7(1, 2, 1) is None                    # i >= 1
    # the source of zeta^8 at (8, 0) is zeta a3^-1 = x Delta^-1, no raw monomial
    assert sseq.d7(1, 0, -1) == (8, 0, 0)


def _failed_e7_checks(monkeypatch, name, value):
    """The E7/E-infinity checks that fail with sseq.<name> set to value."""
    monkeypatch.setattr(sseq, name, value)
    with pytest.raises(AssertionError, match="E7/E-infinity model checks failed") as exc:
        compute_all(Window(*DEFAULT_WINDOW))
    return ast.literal_eval(str(exc.value).split(": ", 1)[1])


def test_e7_checks_fail_with_a_wrong_d7_of_delta(monkeypatch):
    # d7(u_{2sigma}^2) = a_sigma^7 abar1: d7 lands on zeta^(s+7) a1 a3^j, no
    # class of E7, so d7(Delta) misses h20^4 nu and nothing on lines s >= 7
    # is hit
    real = sseq.d7
    assert _failed_e7_checks(
        monkeypatch, "d7", lambda s, i, j: (s + 7, i + 1, j) if real(s, i, j) else None) == [
        "d7_delta_hits_h20_4_nu", "d7_kbar6", "x7_zero", "no_further_differentials"]


def test_e7_checks_fail_with_a_d7_that_ignores_parity(monkeypatch):
    # a d7 coefficient that is always 1, not bit 1 of m
    assert _failed_e7_checks(
        monkeypatch, "d7", lambda s, i, j: (s + 7, 0, j + 1) if i == 0 else None) == [
        "d7_x_zero", "d7_delta_sq_zero"]


def test_e7_checks_fail_with_a_zero_d7(monkeypatch):
    # d7(Delta) = 0 is a failed check, not a TypeError
    assert _failed_e7_checks(monkeypatch, "d7", lambda s, i, j: None) == [
        "d7_delta_hits_h20_4_nu", "d7_kbar6", "x7_zero",
        "no_further_differentials"]


def test_d3_checks_fail_with_a_wrong_u_exponent(monkeypatch):
    # m = (i + j - s)/2 makes d3(a1 a3) = zeta^3 a1^2 a3
    monkeypatch.setattr(sseq, "u_exponent", lambda s, i, j: (i + j - s) // 2)
    failed = [k for k, v in d3_presentation_checks().items() if not v]
    assert failed == ["d3(B) = 0", "d3(x) = 0", "d3(h20) = h1 h20 zeta^2", "d3(Delta) = 0"]
    r = verify.item_sseq()
    assert (r["pass"], r["detail"]) == (False, f"d3 presentation checks failed: {failed}")
