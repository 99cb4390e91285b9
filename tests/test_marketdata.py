import csv
import io
import math
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjmkit.errors import ValidationError
from hjmkit.marketdata import (
    LogReturnMatrix,
    QuotedSwap,
    RelativePanel,
    acf,
    build_relative_panel,
    classify_granularity,
    combine_log_returns,
    default_tenor_labels,
    filter_outliers,
    log_returns,
    normality_diagnostics,
    parse_quotes,
    parse_tenor,
    read_panel_csv,
    tenor_months,
    write_panel_csv,
)
from hjmkit.curve import StepwiseCurve
from hjmkit.dates import add_months, days_in_month, month_start, quarter_start

from conftest import QUOTE_BOARD_CSV
from oracles import acf_reference, moments_reference


def flat_curve(as_of, start, n_months, value=50.0, market="DE"):
    from hjmkit.dates import add_months, days_in_month

    months = [add_months(start, i) for i in range(n_months)]
    return StepwiseCurve(
        market,
        as_of,
        months,
        np.full(n_months, value),
        np.array([float(days_in_month(m)) for m in months]),
    )


# ---------------------------------------------------------------------------
# Quotes
# ---------------------------------------------------------------------------


def test_classify_granularity():
    assert classify_granularity(date(2020, 2, 1), date(2020, 2, 29)) == "month"
    assert classify_granularity(date(2020, 4, 1), date(2020, 6, 30)) == "quarter"
    assert classify_granularity(date(2021, 1, 1), date(2021, 12, 31)) == "year"


@pytest.mark.parametrize(
    "start,end",
    [
        (date(2020, 2, 2), date(2020, 2, 29)),  # not a month start
        (date(2020, 2, 1), date(2020, 2, 28)),  # leap year cut short
        (date(2020, 1, 1), date(2020, 2, 29)),  # two months
        (date(2020, 2, 1), date(2020, 4, 30)),  # quarter not calendar-aligned
        (date(2020, 7, 1), date(2021, 6, 30)),  # year not calendar-aligned
        (date(2020, 3, 1), date(2020, 2, 29)),  # end before start
    ],
)
def test_classify_granularity_rejects(start, end):
    with pytest.raises(ValidationError):
        classify_granularity(start, end)


def test_quoted_swap_infers_granularity():
    q = QuotedSwap("DE", date(2020, 1, 2), date(2020, 2, 1), date(2020, 2, 29), 39.76)
    assert q.granularity == "month"
    assert q.window_months == [date(2020, 2, 1)]
    q = QuotedSwap("DE", date(2020, 1, 2), date(2021, 1, 1), date(2021, 12, 31), 43.85)
    assert q.granularity == "year"
    assert len(q.window_months) == 12


def test_quoted_swap_validation():
    with pytest.raises(ValidationError):
        QuotedSwap("DE", date(2020, 1, 2), date(2020, 2, 1), date(2020, 2, 29), -1.0)
    with pytest.raises(ValidationError):
        QuotedSwap("DE", date(2020, 3, 2), date(2020, 2, 1), date(2020, 2, 29), 39.76)
    with pytest.raises(ValidationError):
        QuotedSwap(
            "DE", date(2020, 1, 2), date(2020, 2, 1), date(2020, 2, 29), 39.76,
            granularity="quarter",
        )
    # front month quotes during its own delivery
    q = QuotedSwap("DE", date(2020, 1, 2), date(2020, 1, 1), date(2020, 1, 31), 36.05)
    assert q.granularity == "month"


def test_parse_quotes_quote_board(quote_board):
    assert len(quote_board) == 8
    assert {q.price for q in quote_board} == {
        36.05, 39.76, 37.15, 35.50, 39.05, 45.30, 43.85, 46.55,
    }
    assert {q.granularity for q in quote_board} == {"month", "quarter", "year"}


def test_parse_quotes_reports_bad_rows():
    csv_text = (
        "trading_date,market,delivery_start,delivery_end,price\n"
        "2020-01-02,DE,2020-02-01,2020-02-29,39.76\n"
        "2020-01-02,DE,2020-03-01,2020-02-29,10.0\n"   # end before start
        "2020-01-02,DE,2020-04-01,2020-04-30,zebra\n"  # bad number
        "2020-01-XX,DE,2020-05-01,2020-05-31,10.0\n"   # bad date
        "2020-01-02,DE,2020-06-01,2020-06-30,-3\n"     # negative price
    )
    quotes, issues = parse_quotes(io.StringIO(csv_text))
    assert len(quotes) == 1
    assert len(issues) == 4
    assert [i.line for i in issues] == [3, 4, 5, 6]


def test_parse_quotes_reports_each_identical_bad_row():
    """Windows are classified once each; a rejected window is not, so every
    row holding it gets its own issue with the same message."""
    csv_text = (
        "trading_date,market,delivery_start,delivery_end,price\n"
        "2020-01-02,DE,2020-02-01,2020-03-15,10.0\n"  # end is not a month end
        "2020-01-02,DE,2020-02-01,2020-03-15,10.0\n"
        "2020-01-02,DE,2020-02-01,2020-02-29,39.76\n"
        "2020-01-03,DE,2020-02-01,2020-02-29,39.80\n"
    )
    quotes, issues = parse_quotes(io.StringIO(csv_text))
    assert [q.granularity for q in quotes] == ["month", "month"]
    assert [str(i) for i in issues] == [
        "line 2: delivery_end is not the last day of a month",
        "line 3: delivery_end is not the last day of a month",
    ]


def test_parse_quotes_header_and_empty():
    with pytest.raises(ValidationError):
        parse_quotes(io.StringIO("a,b,c\n1,2,3\n"))
    with pytest.raises(ValidationError):
        parse_quotes(io.StringIO(""))
    header_only = "trading_date,market,delivery_start,delivery_end,price\n"
    with pytest.raises(ValidationError):
        parse_quotes(io.StringIO(header_only))


# ---------------------------------------------------------------------------
# Tenors and the relative panel
# ---------------------------------------------------------------------------


def test_default_tenor_labels():
    labels = default_tenor_labels()
    assert labels[:2] == ["M0", "M1"]
    assert labels[-1] == "Y2"
    assert len(labels) == 24 + 7 + 2


def test_parse_tenor():
    assert parse_tenor("M0") == ("M", 0)
    assert parse_tenor("Q7") == ("Q", 7)
    assert parse_tenor("Y2") == ("Y", 2)
    for bad in ("M-1", "Q0", "Y0", "Z1", "M", "quarter"):
        with pytest.raises(ValidationError):
            parse_tenor(bad)


def test_tenor_months():
    d = date(2020, 1, 2)
    assert tenor_months(d, "M0") == [date(2020, 1, 1)]
    assert tenor_months(d, "M1") == [date(2020, 2, 1)]
    assert tenor_months(d, "Q1") == [date(2020, 4, 1), date(2020, 5, 1), date(2020, 6, 1)]
    assert tenor_months(d, "Y1")[0] == date(2021, 1, 1)
    assert len(tenor_months(d, "Y1")) == 12
    # the quarter clock advances relative to the trading date's quarter
    assert tenor_months(date(2020, 2, 15), "Q1")[0] == date(2020, 4, 1)
    assert tenor_months(date(2020, 4, 1), "Q1")[0] == date(2020, 7, 1)


def test_flat_curve_panel_is_flat():
    as_of = date(2020, 1, 2)
    curve = flat_curve(as_of, date(2020, 1, 1), 36)
    panel = build_relative_panel("DE", {as_of: curve})
    assert panel.prices.shape == (1, 33)
    assert np.allclose(panel.prices, 50.0)


def test_panel_rolls_m1_across_month_boundary():
    c1 = flat_curve(date(2020, 3, 31), date(2020, 3, 1), 6)
    c2 = flat_curve(date(2020, 4, 1), date(2020, 4, 1), 6)
    c1.values[:] = [30, 31, 32, 33, 34, 35]  # Mar..Aug
    c2.values[:] = [41, 42, 43, 44, 45, 46]  # Apr..Sep
    panel = build_relative_panel(
        "DE", {c1.as_of: c1, c2.as_of: c2}, tenor_labels=["M0", "M1"]
    )
    # M1 is April's value on 3/31 but May's value on 4/1
    assert panel.column("M1")[0] == 31.0
    assert panel.column("M1")[1] == 42.0


def test_panel_gaps_where_curve_missing_months():
    as_of = date(2020, 1, 2)
    curve = flat_curve(as_of, date(2020, 1, 1), 4)  # Jan..Apr only
    panel = build_relative_panel("DE", {as_of: curve}, tenor_labels=["M0", "M3", "M4", "Q1", "Y1"])
    row = panel.prices[0]
    assert row[0] == 50.0 and row[1] == 50.0
    assert np.isnan(row[2])  # M4 beyond horizon
    assert np.isnan(row[3])  # Q1 = Apr-Jun, May/Jun missing
    assert np.isnan(row[4])


def test_panel_quarter_is_day_weighted():
    as_of = date(2020, 1, 2)
    curve = flat_curve(as_of, date(2020, 1, 1), 6)
    curve.values[:] = [30.0, 30.0, 30.0, 10.0, 20.0, 40.0]  # Apr=10, May=20, Jun=40
    panel = build_relative_panel("DE", {as_of: curve}, tenor_labels=["Q1"])
    expected = (10.0 * 30 + 20.0 * 31 + 40.0 * 30) / 91
    assert panel.column("Q1")[0] == pytest.approx(expected, abs=1e-12)


def _panel_per_cell(curves, labels) -> np.ndarray:
    """build_relative_panel's prices as one weighted average per (date, tenor) cell."""
    dates = sorted(curves)
    prices = np.full((len(dates), len(labels)), np.nan)
    for i, d in enumerate(dates):
        curve = curves[d]
        for j, label in enumerate(labels):
            months = tenor_months(d, label)
            if all(m in curve.index for m in months):
                vals = np.array([curve.value_at(m) for m in months])
                wts = np.array([curve.weight_at(m) for m in months])
                prices[i, j] = float(np.dot(vals, wts) / wts.sum())
    return prices


# trading dates at month, quarter and year ends and the first days after them
_PERIOD_ENDS = [
    date(2019, 12, 31), date(2020, 1, 2), date(2020, 1, 31), date(2020, 3, 31),
    date(2020, 4, 1), date(2020, 6, 30), date(2020, 9, 30), date(2020, 12, 31), date(2021, 1, 4),
]


@st.composite
def panel_curves(draw):
    """Curves on trading dates from 2019-11 to 2021-03, period ends included,
    each covering its trading month onward with random missing months."""
    dates = draw(
        st.sets(st.dates(date(2019, 11, 1), date(2021, 3, 31)) | st.sampled_from(_PERIOD_ENDS), min_size=1, max_size=8)
    )
    day_weights = draw(st.booleans())
    curves = {}
    for d in dates:
        n = draw(st.integers(0, 40))
        missing = draw(st.sets(st.integers(0, 39), max_size=4))
        months = [add_months(month_start(d), k) for k in range(n) if k not in missing]
        values = draw(st.lists(st.floats(1e-3, 1e4), min_size=len(months), max_size=len(months)))
        if day_weights:
            weights = [float(days_in_month(m)) for m in months]
        else:
            weights = draw(st.lists(st.floats(0.5, 40.0), min_size=len(months), max_size=len(months)))
        curves[d] = StepwiseCurve("DE", d, months, np.array(values), np.array(weights))
    labels = draw(st.lists(st.sampled_from(default_tenor_labels(26, 9, 3)), min_size=1, max_size=20, unique=True))
    return curves, labels


def _fixed_panel_curves():
    """Period-end trading dates, a missing month and a window past the curve."""
    rng = np.random.default_rng(23)
    curves = {}
    for d, n, missing in [
        (date(2020, 3, 31), 30, {5}),
        (date(2020, 4, 1), 30, set()),
        (date(2020, 6, 30), 20, {0, 13}),
        (date(2020, 12, 31), 37, set()),
        (date(2021, 1, 4), 25, {2}),
    ]:
        months = [add_months(month_start(d), k) for k in range(n) if k not in missing]
        weights = [float(days_in_month(m)) for m in months]
        curves[d] = StepwiseCurve("DE", d, months, 40.0 * rng.lognormal(0, 0.3, len(months)), np.array(weights))
    return curves, default_tenor_labels(24, 7, 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(panel_curves())
@example(_fixed_panel_curves())
def test_relative_panel_matches_per_cell_loop(case):
    curves, labels = case
    panel = build_relative_panel("DE", curves, labels)
    assert panel.dates == sorted(curves) and panel.tenor_labels == labels
    np.testing.assert_array_equal(panel.prices, _panel_per_cell(curves, labels))


# ---------------------------------------------------------------------------
# Log returns and roll masking
# ---------------------------------------------------------------------------


def panel_of(dates, labels, rows, market="DE"):
    return RelativePanel(market, list(labels), list(dates), np.asarray(rows, dtype=float))


def test_log_return_of_front_month():
    panel = panel_of(
        [date(2020, 1, 2), date(2020, 1, 3)], ["M0"], [[36.05], [38.06]]
    )
    returns = log_returns(panel, dt=1 / 252)
    assert returns.values.shape == (1, 1)
    assert returns.values[0, 0] == pytest.approx(math.log(38.06 / 36.05), abs=1e-15)
    assert returns.values[0, 0] == pytest.approx(0.05423, abs=5e-4)


def test_log_returns_mask_rolls():
    dates = [date(2020, 3, 30), date(2020, 3, 31), date(2020, 4, 1), date(2020, 4, 2)]
    prices = [[30.0, 40.0], [31.0, 41.0], [32.0, 42.0], [33.0, 43.0]]
    returns = log_returns(panel_of(dates, ["M0", "Q1"], prices), dt=1 / 252)
    m0 = returns.column("DE", "M0")
    q1 = returns.column("DE", "Q1")
    assert np.isfinite(m0[0]) and np.isfinite(m0[2])
    assert np.isnan(m0[1])  # March -> April: new front month
    assert np.isnan(q1[1])  # Q1 2020 -> Q2 2020: new front quarter
    # a year column would roll only at the year boundary
    ry = log_returns(panel_of(dates, ["Y1"], [[50.0]] * 4), dt=1 / 252)
    assert np.isfinite(ry.values).all()


def test_log_returns_constant_column_is_zero():
    dates = [date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6)]
    returns = log_returns(panel_of(dates, ["M1"], [[40.0]] * 3), dt=1 / 252)
    assert np.all(returns.values == 0.0)


def test_log_returns_drop_dead_columns():
    dates = [date(2020, 1, 2), date(2020, 1, 3)]
    prices = [[36.05, np.nan], [38.06, 42.0]]
    with pytest.warns(UserWarning, match="M5"):
        returns = log_returns(panel_of(dates, ["M0", "M5"], prices), dt=1 / 252)
    assert returns.column_keys == [("DE", "M0")]
    with pytest.raises(ValidationError):
        log_returns(panel_of([date(2020, 1, 2)], ["M0"], [[36.05]]), dt=1 / 252)


def test_returns_round_trip_gap_free_column():
    rng = np.random.default_rng(5)
    prices = 40.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 15)))
    dates = [date(2020, 1, 1 + i) for i in range(15)]  # one calendar month: no rolls
    panel = panel_of(dates, ["M1"], prices[:, None])
    r = log_returns(panel, dt=1 / 252).values[:, 0]
    rebuilt = prices[0] * np.exp(np.cumsum(r))
    np.testing.assert_allclose(rebuilt, prices[1:], rtol=1e-12)


def test_combine_log_returns_intersects_dates():
    d1 = [date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6)]
    d2 = [date(2020, 1, 3), date(2020, 1, 6), date(2020, 1, 7)]
    a = LogReturnMatrix(np.array([[0.1], [0.2], [0.3]]), [("DE", "M1")], 1 / 252, dates=d1)
    b = LogReturnMatrix(np.array([[1.1], [1.2], [1.3]]), [("TTF", "M1")], 1 / 252, dates=d2)
    c = combine_log_returns([a, b])
    assert c.dates == [date(2020, 1, 3), date(2020, 1, 6)]
    np.testing.assert_allclose(c.values, [[0.2, 1.1], [0.3, 1.2]])
    assert c.column_keys == [("DE", "M1"), ("TTF", "M1")]
    with pytest.raises(ValidationError):
        combine_log_returns([a, LogReturnMatrix(b.values, b.column_keys, 1 / 260, dates=d2)])


_PERIOD_KEY = {"M": month_start, "Q": quarter_start, "Y": lambda d: d.year}


def _returns_per_row(panel: RelativePanel):
    """log_returns' values and keys with the roll mask tested row by row."""
    cols, keys = [], []
    for j, label in enumerate(panel.tenor_labels):
        key = _PERIOD_KEY[parse_tenor(label)[0]]
        p = panel.prices[:, j]
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.log(p[1:] / p[:-1])
        for i in range(len(panel.dates) - 1):
            if key(panel.dates[i]) != key(panel.dates[i + 1]):
                r[i] = np.nan
        if np.isfinite(r).any():
            cols.append(r)
            keys.append((panel.market, label))
    return cols, keys


@st.composite
def return_panels(draw):
    labels = draw(st.lists(st.sampled_from(default_tenor_labels(6, 3, 2)), min_size=1, max_size=8, unique=True))
    dates = sorted(
        draw(st.sets(st.dates(date(2019, 11, 1), date(2021, 3, 31)) | st.sampled_from(_PERIOD_ENDS), min_size=2, max_size=12))
    )
    cell = st.floats(1e-3, 1e4) | st.just(math.nan)
    rows = draw(st.lists(st.lists(cell, min_size=len(labels), max_size=len(labels)), min_size=len(dates), max_size=len(dates)))
    return panel_of(dates, labels, rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(return_panels())
@example(panel_of(_PERIOD_ENDS, ["M0", "M2", "Q1", "Y1"], 40.0 + np.arange(36.0).reshape(9, 4)))
def test_log_returns_match_per_row_roll_mask(panel):
    cols, keys = _returns_per_row(panel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not cols:
            with pytest.raises(ValidationError):
                log_returns(panel, dt=1 / 252)
            return
        returns = log_returns(panel, dt=1 / 252)
    assert returns.column_keys == keys and returns.dates == panel.dates[1:]
    np.testing.assert_array_equal(returns.values, np.column_stack(cols))


@st.composite
def return_matrices(draw):
    pool = [date(2020, 1, 1) + timedelta(days=k) for k in range(15)]
    matrices = []
    for m in range(draw(st.integers(1, 3))):
        dates = sorted(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=15)))
        width = draw(st.integers(1, 3))
        values = draw(st.lists(st.floats(-1.0, 1.0) | st.just(math.nan), min_size=len(dates) * width, max_size=len(dates) * width))
        keys = [(f"K{m}", f"M{j}") for j in range(width)]
        matrices.append(LogReturnMatrix(np.reshape(values, (len(dates), width)), keys, 1 / 252, dates=dates))
    return matrices


@settings(max_examples=150, deadline=None, derandomize=True)
@given(return_matrices())
def test_combine_log_returns_matches_per_row_lookup(matrices):
    dates = sorted(set.intersection(*(set(m.dates) for m in matrices)))
    if not dates:
        with pytest.raises(ValidationError, match="share no dates"):
            combine_log_returns(matrices)
        return
    c = combine_log_returns(matrices)
    want = np.hstack([m.values[[m.dates.index(d) for d in dates], :] for m in matrices])
    assert c.dates == dates and c.column_keys == [k for m in matrices for k in m.column_keys]
    np.testing.assert_array_equal(c.values, want)


# ---------------------------------------------------------------------------
# Outlier filter
# ---------------------------------------------------------------------------


def col_matrix(values):
    return LogReturnMatrix(
        np.asarray(values, dtype=float)[:, None], [("DE", "M1")], 1 / 252,
        dates=[date(2020, 1, 2) + timedelta(days=i) for i in range(len(values))],
    )


def test_filter_outliers_small_column():
    # In a 4-point sample no entry can sit more than 1.5 sample deviations
    # out, so k=3 must pass the column through untouched; a threshold below
    # the spike's z-score of ~1.49997 removes exactly the spike.
    x = col_matrix([0.01, -0.02, 0.015, 5.0])
    out, removed = filter_outliers(x, k=3.0)
    np.testing.assert_array_equal(out.values, x.values)
    assert removed[("DE", "M1")] == 0

    out, removed = filter_outliers(x, k=1.4)
    assert removed[("DE", "M1")] == 1
    assert np.isnan(out.values[3, 0])
    np.testing.assert_array_equal(out.values[:3, 0], x.values[:3, 0])


def test_filter_outliers_spike_in_long_column():
    vals = [0.01, -0.02, 0.015, -0.01, 0.02, -0.015, 0.005, -0.005] * 4 + [5.0]
    out, removed = filter_outliers(col_matrix(vals), k=3.0)
    assert removed[("DE", "M1")] == 1
    assert np.isnan(out.values[-1, 0])
    assert np.isfinite(out.values[:-1, 0]).all()


def test_filter_outliers_zero_variance_and_cascade():
    out, removed = filter_outliers(col_matrix([0.0, 0.0, 0.0, 0.0]), k=3.0)
    assert removed[("DE", "M1")] == 0
    np.testing.assert_array_equal(out.values[:, 0], np.zeros(4))

    # removing the large spike shrinks the std enough to expose the small one
    base = [0.001, -0.001, 0.0005, -0.0005] * 8
    vals = base + [0.5, 50.0]
    out, removed = filter_outliers(col_matrix(vals), k=3.0)
    assert removed[("DE", "M1")] == 2
    assert np.isnan(out.values[-1, 0]) and np.isnan(out.values[-2, 0])

    with pytest.raises(ValidationError):
        filter_outliers(col_matrix([0.1, 0.2]), k=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=40
    ),
    st.floats(min_value=1.0, max_value=5.0),
)
def test_filter_outliers_idempotent(values, k):
    once, n1 = filter_outliers(col_matrix(values), k=k)
    twice, n2 = filter_outliers(once, k=k)
    np.testing.assert_array_equal(
        np.isnan(once.values), np.isnan(twice.values)
    )
    assert n2[("DE", "M1")] == 0


# ---------------------------------------------------------------------------
# ACF and moment diagnostics
# ---------------------------------------------------------------------------


def test_acf_matches_brute_force():
    rng = np.random.default_rng(11)
    x = np.cumsum(rng.normal(size=60))  # autocorrelated on purpose
    got = acf(x, max_lag=10)
    expected = acf_reference(x, max_lag=10)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert got[0] == 1.0


def test_acf_alternating_series():
    x = np.tile([0.7, -0.7], 50)
    assert acf(x, 1)[1] == pytest.approx(-1.0, abs=1e-12)


def test_acf_iid_sample_is_small():
    x = np.random.default_rng(2020).standard_normal(10_000)
    assert np.abs(acf(x, 20)[1:]).max() < 0.05


def test_acf_spike_series_exact():
    x = np.zeros(25)
    x[7] = 3.0
    np.testing.assert_allclose(acf(x, 5), acf_reference(x, 5), atol=1e-12)


def test_acf_rejects_degenerate():
    with pytest.raises(ValidationError):
        acf([1.0, 1.0, 1.0], 1)
    with pytest.raises(ValidationError):
        acf([1.0, 2.0, 3.0], 3)
    with pytest.raises(ValidationError):
        acf([1.0, 2.0, 3.0], -1)
    assert acf([1.0, 2.0, 3.0], 0).tolist() == [1.0]


def test_normality_diagnostics_examples():
    m = normality_diagnostics([-0.4, 0.4, -0.4, 0.4])
    assert m.skewness == pytest.approx(0.0, abs=1e-12)
    assert m.mean == 0.0

    m = normality_diagnostics([0.0, 0.0, 1.0])
    assert m.mean == pytest.approx(1 / 3, abs=1e-15)

    x = np.random.default_rng(7).standard_normal(100_000)
    m = normality_diagnostics(x)
    assert abs(m.skewness) < 0.03
    assert abs(m.excess_kurtosis) < 0.06
    ref = moments_reference(x)
    assert m.mean == pytest.approx(ref[0], abs=1e-12)
    assert m.std == pytest.approx(ref[1], rel=1e-12)
    assert m.skewness == pytest.approx(ref[2], abs=1e-12)
    assert m.excess_kurtosis == pytest.approx(ref[3], abs=1e-12)


def test_normality_diagnostics_rejects_degenerate():
    with pytest.raises(ValidationError):
        normality_diagnostics([1.0])
    with pytest.raises(ValidationError):
        normality_diagnostics([2.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# Panel CSV round trip
# ---------------------------------------------------------------------------


def test_panel_csv_round_trip(tmp_path):
    dates = [date(2020, 1, 2), date(2020, 1, 3)]
    prices = np.array([[36.05, np.nan], [38.06, 35.5]])
    panel = panel_of(dates, ["M0", "Q1"], prices)
    path = tmp_path / "panel_DE.csv"
    write_panel_csv(panel, path)
    back = read_panel_csv(path, "DE")
    assert back.dates == panel.dates
    assert back.tenor_labels == panel.tenor_labels
    np.testing.assert_allclose(back.prices, panel.prices, equal_nan=True)


def _reference_panel_csv(panel, path):
    """The row-by-row csv.writer loop that write_panel_csv replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date"] + panel.tenor_labels)
        for i, d in enumerate(panel.dates):
            row = [d.isoformat()]
            for v in panel.prices[i]:
                row.append(format(v, ".10g") if math.isfinite(v) else "")
            writer.writerow(row)


def test_write_panel_csv_matches_csv_writer_reference(tmp_path):
    dates = [date(2020, 1, 2), date(2020, 1, 3), date(2020, 2, 3), date(2021, 1, 4)]
    prices = np.array(
        [
            [36.05, np.nan, 1 / 3],
            [np.nan, np.nan, np.nan],
            [1e-7, 123456789012.5, 2.0],
            [38.0, 38.0, np.nan],
        ]
    )
    panel = panel_of(dates, ["M0", "Q1", "Y1"], prices)
    write_panel_csv(panel, tmp_path / "fast.csv")
    _reference_panel_csv(panel, tmp_path / "slow.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


@st.composite
def panels(draw):
    labels = draw(st.lists(st.sampled_from(default_tenor_labels(6, 3, 2)), min_size=1, max_size=6, unique=True))
    dates = sorted(draw(st.sets(st.dates(date(1990, 1, 1), date(2060, 12, 31)), min_size=1, max_size=6)))
    cell = st.floats(1e-6, 1e9) | st.just(math.nan)
    prices = draw(
        st.lists(
            st.lists(cell, min_size=len(labels), max_size=len(labels)),
            min_size=len(dates),
            max_size=len(dates),
        )
    )
    market = draw(st.text(alphabet='AZaz09 _:;,"', min_size=1, max_size=8))
    return RelativePanel(market, labels, dates, np.array(prices))


@settings(max_examples=60, deadline=None)
@given(panels())
def test_panel_csv_round_trip_property(tmp_path_factory, panel):
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    write_panel_csv(panel, path)
    back = read_panel_csv(path, panel.market)
    assert back.market == panel.market
    assert back.tenor_labels == panel.tenor_labels
    assert back.dates == panel.dates
    want = np.array([[float(format(v, ".10g")) for v in row] for row in panel.prices.tolist()])
    np.testing.assert_array_equal(np.isnan(back.prices), np.isnan(panel.prices))
    np.testing.assert_array_equal(back.prices, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(panels())
@example(
    panel_of(
        [date(2020, 1, 2), date(2020, 1, 3)],
        ["M0", "Q1", "Y1"],
        [[0.99999999995, np.inf, 99999.9999951], [np.nan, 0.999999999951, 2 / 3]],
    )
)
def test_panel_as_written_is_the_panel_read_back(tmp_path_factory, panel):
    """write_panel_csv returns the panel exactly as read_panel_csv reads its file."""
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    handed = write_panel_csv(panel, path)
    back = read_panel_csv(path, panel.market)
    assert (handed.market, handed.tenor_labels, handed.dates) == (back.market, back.tenor_labels, back.dates)
    np.testing.assert_array_equal(handed.prices, back.prices)


@pytest.mark.parametrize(
    "row, message",
    [
        ("2020-01-03,36.1,abc\n", "line 3: bad price"),
        ("2020-01-xx,36.1,35.0\n", "line 3: bad date"),
        ("2020-01-03,36.1\n", "line 3: row has 2 fields"),
    ],
)
def test_read_panel_csv_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "panel_DE.csv"
    path.write_text("date,M0,Q1\n2020-01-02,36.05,\n" + row)
    with pytest.raises(ValidationError, match=message) as info:
        read_panel_csv(path, "DE")
    assert str(path) in str(info.value)
