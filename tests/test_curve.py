import csv
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjmkit.curve import (
    StepwiseCurve,
    bootstrap_monthly_curve,
    extract_fixed_delivery,
    read_curve_csv,
    verify_no_arbitrage,
    write_curve_csv,
)
from hjmkit.dates import add_months, days_in_month, month_end, month_start
from hjmkit.errors import InfeasibleCurveError, ValidationError
from hjmkit.marketdata import QuotedSwap

from conftest import QUOTE_BOARD_PRICES, random_quote_system

AS_OF = date(2020, 1, 2)


def swap(start, end, price, trading=AS_OF, market="DE"):
    return QuotedSwap(market, trading, date(*start), date(*end), price)


MONTH_Q = swap((2020, 4, 1), (2020, 4, 30), 33.0)
QUARTER_Q = swap((2020, 4, 1), (2020, 6, 30), 30.0)


# ---------------------------------------------------------------------------
# The worked example board (front months, quarters, two years)
# ---------------------------------------------------------------------------


def test_quote_board_curve_values(quote_board):
    curve, report = bootstrap_monthly_curve(quote_board)
    assert len(curve.months) == 36
    assert curve.months[0] == date(2020, 1, 1)
    assert curve.months[-1] == date(2022, 12, 1)

    assert curve.value_at(date(2020, 1, 1)) == QUOTE_BOARD_PRICES["M0"]
    assert curve.value_at(date(2020, 2, 1)) == QUOTE_BOARD_PRICES["M1"]
    assert curve.value_at(date(2020, 3, 1)) == QUOTE_BOARD_PRICES["M2"]
    # flat fills: a constant over the window satisfies the average exactly,
    # whatever the day weights
    for m in (4, 5, 6):
        assert curve.value_at(date(2020, m, 1)) == QUOTE_BOARD_PRICES["Q2"]
    for m in (7, 8, 9):
        assert curve.value_at(date(2020, m, 1)) == QUOTE_BOARD_PRICES["Q3"]
    for m in (10, 11, 12):
        assert curve.value_at(date(2020, m, 1)) == QUOTE_BOARD_PRICES["Q4"]
    assert all(curve.value_at(date(2021, m, 1)) == QUOTE_BOARD_PRICES["Y1"] for m in range(1, 13))
    assert all(curve.value_at(date(2022, m, 1)) == QUOTE_BOARD_PRICES["Y2"] for m in range(1, 13))

    assert not report.removed
    assert report.max_residual <= 1e-9
    assert len(report.fill_groups) == 5
    assert verify_no_arbitrage(curve, quote_board) <= 1e-9


def test_quote_board_relative_products(quote_board):
    curve, _ = bootstrap_monthly_curve(quote_board)
    assert extract_fixed_delivery(curve, 0) == 36.05
    assert extract_fixed_delivery(curve, 1) == 39.76
    assert extract_fixed_delivery(curve, 2) == 37.15
    assert extract_fixed_delivery(curve, 3) == 35.50  # April, from the Q2 fill
    with pytest.raises(ValidationError, match="extend the quote horizon"):
        extract_fixed_delivery(curve, 36)
    with pytest.raises(ValidationError):
        extract_fixed_delivery(curve, -1)


# ---------------------------------------------------------------------------
# Flat-fill arithmetic
# ---------------------------------------------------------------------------


def test_single_month_quote_identity():
    q = swap((2020, 2, 1), (2020, 2, 29), 39.76)
    curve, report = bootstrap_monthly_curve([q])
    assert curve.months == [date(2020, 2, 1)]
    assert curve.value_at(date(2020, 2, 1)) == 39.76
    assert report.max_residual == 0.0


def test_flat_fill_around_pinned_month():
    # April pinned at 33, quarter at 30: May and June share the value that
    # solves the day-weighted average, (30*91 - 33*30) / 61
    curve, report = bootstrap_monthly_curve([MONTH_Q, QUARTER_Q])
    expected = (30.0 * 91 - 33.0 * 30) / 61
    assert curve.value_at(date(2020, 4, 1)) == 33.0
    assert curve.value_at(date(2020, 5, 1)) == pytest.approx(expected, abs=1e-12)
    assert curve.value_at(date(2020, 6, 1)) == pytest.approx(expected, abs=1e-12)
    assert curve.average(QUARTER_Q.window_months) == pytest.approx(30.0, abs=1e-12)
    [group] = report.fill_groups
    assert group.months == (date(2020, 5, 1), date(2020, 6, 1))


def test_flat_fill_is_weight_free_without_pins():
    curve, _ = bootstrap_monthly_curve([QUARTER_Q])
    np.testing.assert_array_equal(curve.values, [30.0, 30.0, 30.0])


def test_fine_to_coarse_order():
    # year quote fills only what the quarter and month leave open
    year = swap((2020, 1, 1), (2020, 12, 31), 40.0)
    curve, report = bootstrap_monthly_curve([year, QUARTER_Q, MONTH_Q])
    # within Q2: April pinned, May/June from the quarter
    q2_flat = (30.0 * 91 - 33.0 * 30) / 61
    assert curve.value_at(date(2020, 5, 1)) == pytest.approx(q2_flat, abs=1e-12)
    open_months = [date(2020, m, 1) for m in (1, 2, 3, 7, 8, 9, 10, 11, 12)]
    vals = {curve.value_at(m) for m in open_months}
    assert len(vals) == 1  # one common fill value
    assert curve.average(year.window_months) == pytest.approx(40.0, abs=1e-12)
    assert verify_no_arbitrage(curve, [year, QUARTER_Q, MONTH_Q]) <= 1e-9


# ---------------------------------------------------------------------------
# Dominance, conflicts, infeasibility
# ---------------------------------------------------------------------------


def test_dominated_quarter_is_removed():
    months = [
        swap((2020, 4, 1), (2020, 4, 30), 33.0),
        swap((2020, 5, 1), (2020, 5, 31), 28.0),
        swap((2020, 6, 1), (2020, 6, 30), 29.0),
    ]
    w = np.array([30.0, 31.0, 30.0])
    implied = float(np.dot(w, [33.0, 28.0, 29.0]) / w.sum())
    quarter = swap((2020, 4, 1), (2020, 6, 30), implied)
    curve, report = bootstrap_monthly_curve(months + [quarter])
    assert report.removed == [quarter]
    assert curve.value_at(date(2020, 5, 1)) == 28.0  # finer quote wins verbatim
    assert report.max_residual <= 1e-12


def test_removed_quote_still_checked_for_consistency():
    months = [
        swap((2020, 4, 1), (2020, 4, 30), 33.0),
        swap((2020, 5, 1), (2020, 5, 31), 28.0),
        swap((2020, 6, 1), (2020, 6, 30), 29.0),
    ]
    quarter_off = swap((2020, 4, 1), (2020, 6, 30), 31.0)  # inconsistent with months
    with pytest.raises(InfeasibleCurveError) as err:
        bootstrap_monthly_curve(months + [quarter_off])
    assert quarter_off in err.value.conflicts


def test_mixed_cover_dominance():
    # a year exactly covered by one quarter quote plus nine month quotes
    months = [
        swap((2020, m, 1), (2020, m, days_in_month(date(2020, m, 1))), 40.0)
        for m in (1, 2, 3, 7, 8, 9, 10, 11, 12)
    ]
    quarter = swap((2020, 4, 1), (2020, 6, 30), 40.0)
    year = swap((2020, 1, 1), (2020, 12, 31), 40.0)
    _, report = bootstrap_monthly_curve(months + [quarter, year])
    assert report.removed == [year]


def test_duplicate_quotes():
    q = swap((2020, 4, 1), (2020, 6, 30), 30.0)
    dup = swap((2020, 4, 1), (2020, 6, 30), 30.0)
    curve, _ = bootstrap_monthly_curve([q, dup])
    assert curve.value_at(date(2020, 4, 1)) == 30.0
    clash = swap((2020, 4, 1), (2020, 6, 30), 31.0)
    with pytest.raises(InfeasibleCurveError):
        bootstrap_monthly_curve([q, clash])


def test_negative_implied_fill_rejected():
    cheap_quarter = swap((2020, 4, 1), (2020, 6, 30), 5.0)
    with pytest.raises(InfeasibleCurveError, match="non-positive"):
        bootstrap_monthly_curve([MONTH_Q, cheap_quarter])


def test_bootstrap_input_validation(quote_board):
    with pytest.raises(ValidationError):
        bootstrap_monthly_curve([])
    other_market = swap((2020, 4, 1), (2020, 6, 30), 30.0, market="TTF")
    with pytest.raises(ValidationError):
        bootstrap_monthly_curve([MONTH_Q, other_market])
    other_day = swap((2020, 4, 1), (2020, 6, 30), 30.0, trading=date(2020, 1, 3))
    with pytest.raises(ValidationError):
        bootstrap_monthly_curve([MONTH_Q, other_day])


# ---------------------------------------------------------------------------
# Horizon, holes, verification
# ---------------------------------------------------------------------------


def test_horizon_truncates_without_refitting(quote_board):
    full, _ = bootstrap_monthly_curve(quote_board)
    for horizon in (1, 3, 12, 24, 60):
        cut, _ = bootstrap_monthly_curve(quote_board, horizon_months=horizon)
        assert all(m < add_months(date(2020, 1, 1), horizon) for m in cut.months)
        for m in cut.months:
            assert cut.value_at(m) == full.value_at(m)
    with pytest.raises(ValidationError):
        bootstrap_monthly_curve(quote_board, horizon_months=0)


def test_curve_with_hole():
    far_year = swap((2021, 1, 1), (2021, 12, 31), 44.0)
    front = swap((2020, 1, 1), (2020, 1, 31), 36.0)
    curve, _ = bootstrap_monthly_curve([front, far_year])
    assert len(curve.months) == 13
    assert not curve.covers([date(2020, 6, 1)])
    # uncovered windows are skipped by verification, not failed
    probe = swap((2020, 4, 1), (2020, 6, 30), 99.0)
    assert verify_no_arbitrage(curve, [probe]) == 0.0


def test_verify_no_arbitrage_direct():
    months = [date(2020, 1, 1), date(2020, 2, 1)]
    flat50 = StepwiseCurve(
        "DE", AS_OF, months, np.array([50.0, 50.0]),
        np.array([float(days_in_month(m)) for m in months]),
    )
    probe = swap((2020, 1, 1), (2020, 1, 31), 49.0)
    assert verify_no_arbitrage(flat50, [probe]) == pytest.approx(1.0 / 49.0, abs=1e-15)
    assert verify_no_arbitrage(flat50, []) == 0.0
    foreign = swap((2020, 1, 1), (2020, 1, 31), 49.0, market="TTF")
    with pytest.raises(ValidationError):
        verify_no_arbitrage(flat50, [foreign])


def test_stepwise_curve_validation():
    w = np.array([31.0])
    with pytest.raises(ValidationError):
        StepwiseCurve("DE", AS_OF, [date(2020, 1, 15)], np.array([50.0]), w)
    with pytest.raises(ValidationError):
        StepwiseCurve("DE", AS_OF, [date(2020, 1, 1)], np.array([-1.0]), w)
    with pytest.raises(ValidationError):
        StepwiseCurve(
            "DE", AS_OF, [date(2020, 2, 1), date(2020, 1, 1)],
            np.array([50.0, 50.0]), np.array([29.0, 31.0]),
        )


# ---------------------------------------------------------------------------
# Randomized consistent systems
# ---------------------------------------------------------------------------


def test_random_quote_systems_bootstrap_exactly():
    rng = np.random.default_rng(77)
    for _ in range(25):
        quotes, latent = random_quote_system(rng)
        curve, report = bootstrap_monthly_curve(quotes)
        assert report.max_residual <= 1e-9
        assert verify_no_arbitrage(curve, quotes) <= 1e-9
        assert report.removed  # generator always includes a dominated quarter
        for q in quotes:
            if q.granularity == "month":
                assert curve.value_at(q.delivery_start) == q.price
                assert latent[q.delivery_start] == pytest.approx(q.price, rel=1e-12)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_curve_csv_round_trip(tmp_path, quote_board):
    curve, _ = bootstrap_monthly_curve(quote_board)
    other = StepwiseCurve(
        "TTF", AS_OF, [date(2020, 1, 1)], np.array([17.5]), np.array([31.0])
    )
    path = tmp_path / "curves.csv"
    write_curve_csv([curve, other], path)
    back = read_curve_csv(path)
    assert set(back) == {("DE", AS_OF), ("TTF", AS_OF)}
    rebuilt = back[("DE", AS_OF)]
    assert rebuilt.months == curve.months
    np.testing.assert_allclose(rebuilt.values, curve.values, rtol=1e-9)
    np.testing.assert_array_equal(rebuilt.weights, curve.weights)


def _reference_curve_csv(curves, path):
    """The row-by-row csv.writer loop that write_curve_csv replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["as_of", "market", "bucket_start", "bucket_end", "value", "weight"])
        for curve in curves:
            for i, m in enumerate(curve.months):
                writer.writerow(
                    [
                        curve.as_of.isoformat(),
                        curve.market,
                        m.isoformat(),
                        month_end(m).isoformat(),
                        format(curve.values[i], ".10g"),
                        format(curve.weights[i], ".10g"),
                    ]
                )


def test_write_curve_csv_matches_csv_writer_reference(tmp_path, quote_board):
    curve, _ = bootstrap_monthly_curve(quote_board)
    odd = StepwiseCurve(
        'Hub "A", peak',
        date(2024, 2, 29),
        [date(2024, 2, 1), date(2025, 1, 1), date(2031, 12, 1)],
        np.array([1 / 3, 1e-7, 123456789012.5]),
        np.array([29.0, 31.0, 0.25]),
    )
    plain = StepwiseCurve(" TTF", AS_OF, [date(2020, 1, 1)], np.array([17.5]), np.array([31.0]))
    curves = [curve, odd, plain, curve]
    write_curve_csv(curves, tmp_path / "fast.csv")
    _reference_curve_csv(curves, tmp_path / "slow.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


# market names: letters plus the characters the csv dialect must quote
MARKETS = st.text(alphabet="AZaz09 _:;,\"'", min_size=1, max_size=8)


@st.composite
def curve_sets(draw):
    markets = draw(st.lists(MARKETS, min_size=1, max_size=3, unique=True))
    curves = []
    for market in markets:
        as_of = draw(st.dates(date(1990, 1, 1), date(2060, 12, 31)))
        offsets = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=8)))
        months = [add_months(month_start(as_of), k) for k in offsets]
        positive = st.floats(1e-6, 1e9)
        values = draw(st.lists(positive, min_size=len(months), max_size=len(months)))
        weights = draw(st.lists(positive, min_size=len(months), max_size=len(months)))
        curves.append(StepwiseCurve(market, as_of, months, np.array(values), np.array(weights)))
    return curves


def _ten_digits(values) -> np.ndarray:
    return np.array([float(format(v, ".10g")) for v in values])


@settings(max_examples=60, deadline=None)
@given(curve_sets())
@example(
    [
        StepwiseCurve('a,"b"', AS_OF, [date(2020, 1, 1)], np.array([2 / 3]), np.array([31.0])),
        StepwiseCurve('"', AS_OF, [date(2020, 2, 1)], np.array([40.0]), np.array([29.0])),
    ]
)
def test_curve_csv_round_trip_property(tmp_path_factory, curves):
    path = tmp_path_factory.mktemp("curves") / "curves.csv"
    write_curve_csv(curves, path)
    back = read_curve_csv(path)
    assert set(back) == {(c.market, c.as_of) for c in curves}
    for curve in curves:
        rebuilt = back[(curve.market, curve.as_of)]
        assert rebuilt.months == curve.months
        np.testing.assert_array_equal(rebuilt.values, _ten_digits(curve.values))
        np.testing.assert_array_equal(rebuilt.weights, _ten_digits(curve.weights))


def _curve_file(tmp_path, body: str):
    path = tmp_path / "curves.csv"
    path.write_text(
        "as_of,market,bucket_start,bucket_end,value,weight\n"
        "2020-01-02,DE,2020-01-01,2020-01-31,36.05,31\n" + body
    )
    return path


@pytest.mark.parametrize(
    "body, message",
    [
        ("2020-01-02,DE,2020-02-01,2020-02-29,abc,29\n", "line 3"),
        ("2020-01-02,DE,2020-02-xx,2020-02-29,36.1,29\n", "line 3"),
        ("2020-01-02,DE,2020-02-01\n", "line 3"),
        ("\n2020-01-02,DE,2020-02-01,2020-02-29,36.1\n", "line 4"),
        ("2020-01-02,DE,2020-02-01,2020-02-29,-1,29\n", "curve DE 2020-01-02"),
        ("2020-01-02,DE,2020-01-01,2020-01-31,36.05,31\n", "curve DE 2020-01-02"),
    ],
)
def test_read_curve_csv_names_file_and_line(tmp_path, body, message):
    path = _curve_file(tmp_path, body)
    with pytest.raises(ValidationError, match=message) as info:
        read_curve_csv(path)
    assert str(path) in str(info.value)


def test_read_curve_csv_rejects_missing_columns_and_empty_file(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("as_of,market,bucket_start,bucket_end,weight\n2020-01-02,DE,2020-01-01,2020-01-31,31\n")
    with pytest.raises(ValidationError, match="value"):
        read_curve_csv(path)
    path.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        read_curve_csv(path)
    # columns are found by name, in any order
    path.write_text("weight,value,bucket_start,market,as_of\n31,36.05,2020-01-01,DE,2020-01-02\n")
    assert read_curve_csv(path)[("DE", AS_OF)].values.tolist() == [36.05]
