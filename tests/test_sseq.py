import pytest

from tmf3.sseq import (Window, DEFAULT_WINDOW, build_E2, apply_d3,
                       localize_stabilize, e7_model_and_d7, compute_all,
                       pi_table, d3_presentation_checks, square_rule_check,
                       d3_coeff, chart_json, chart_ascii, oracle_dims)


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


def test_d3_squared_zero():
    # apply_d3 raises if the composite of consecutive differentials is nonzero
    e4 = apply_d3(build_E2(Window(*DEFAULT_WINDOW)))
    assert e4.r == 4


def test_d3_coefficient_is_cellwise():
    # within one bidegree the coefficient is constant
    for s in range(0, 8):
        for (i, j) in ((2, 0), (0, 2), (4, 4)):
            c1 = d3_coeff(s, i, j)
            c2 = d3_coeff(s, i + 3, j + 3)  # same t shift by Delta
            assert c1 in (0, 1) and c2 in (0, 1)


def test_localized_page_is_periodic(pages):
    e7 = pages["E7"]
    assert e7.checks.get("delta_periodic") is True or all(
        v is True for v in e7.checks.values())


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
    import json
    payload = json.loads(chart_json(pages["E2"]))
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
