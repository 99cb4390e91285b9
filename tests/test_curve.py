import csv
import io
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjmkit.curve import (
    _bootstrap_table,
    _curve_as_written,
    BootstrapReport,
    FillGroup,
    StepwiseCurve,
    bootstrap_boards,
    bootstrap_monthly_curve,
    extract_fixed_delivery,
    read_curve_csv,
    verify_no_arbitrage,
    write_curve_csv,
)
from hjmkit.dates import add_months, days_in_month, month_end, month_start
from hjmkit.errors import InfeasibleCurveError, ValidationError
from hjmkit.marketdata import QuotedSwap, _read_quotes

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
# Holes, verification
# ---------------------------------------------------------------------------


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


JAN, FEB, MAR = date(2020, 1, 1), date(2020, 2, 1), date(2020, 3, 1)


@pytest.mark.parametrize(
    "months, values, weights, message",
    [
        ([JAN, FEB], [50.0], [31.0, 29.0], "must align"),
        ([JAN], [50.0], [31.0, 29.0], "must align"),
        ([JAN, date(2020, 2, 2)], [50.0, 50.0], [31.0, 29.0], "start on month starts"),
        ([date(2020, 1, 31)], [50.0], [31.0], "start on month starts"),
        ([JAN, MAR, FEB], [50.0] * 3, [31.0, 31.0, 29.0], "strictly increasing"),
        ([JAN, FEB, FEB], [50.0] * 3, [31.0, 29.0, 29.0], "strictly increasing"),
        ([date(2021, 1, 1), date(2020, 12, 1)], [50.0] * 2, [31.0] * 2, "strictly increasing"),
        ([JAN, FEB], [50.0, 0.0], [31.0, 29.0], "values must be positive and finite"),
        ([JAN, FEB], [50.0, math.nan], [31.0, 29.0], "values must be positive and finite"),
        ([JAN, FEB], [math.inf, 50.0], [31.0, 29.0], "values must be positive and finite"),
        ([JAN, FEB], [50.0, 50.0], [31.0, -1.0], "weights must be positive"),
        ([JAN, FEB], [50.0, 50.0], [0.0, 29.0], "weights must be positive"),
        ([JAN, FEB], [50.0, 50.0], [math.nan, 29.0], "weights must be positive"),
    ],
)
def test_stepwise_curve_validation_messages(months, values, weights, message):
    with pytest.raises(ValidationError, match=message):
        StepwiseCurve("DE", AS_OF, months, np.array(values), np.array(weights))


def test_stepwise_curve_accepts_empty_and_keeps_own_index():
    empty = StepwiseCurve("DE", AS_OF, [], np.array([]), np.array([]))
    assert empty.index == {}
    a = StepwiseCurve("DE", AS_OF, [JAN, FEB], np.array([1.0, 2.0]), np.array([31.0, 29.0]))
    b = StepwiseCurve("DE", AS_OF, [JAN, FEB], np.array([3.0, 4.0]), np.array([31.0, 29.0]))
    a.index[MAR] = 2  # the bucket index is validated once per bucket set, never shared
    assert b.index == {JAN: 0, FEB: 1}


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
# Batched bootstrap against the per-board fit it replaced
# ---------------------------------------------------------------------------

_GRAN_ORDER = {"month": 0, "quarter": 1, "year": 2}


def _reference_bootstrap(quotes):
    """The per-board bootstrap_monthly_curve that bootstrap_boards replaced:
    one dict lookup and one curve.average per quote."""
    if not quotes:
        raise ValidationError("no quotes to bootstrap")
    if len({q.market for q in quotes}) != 1 or len({q.trading_date for q in quotes}) != 1:
        raise ValidationError("bootstrap expects one market and one trading date")
    market, as_of = quotes[0].market, quotes[0].trading_date

    seen, deduped = {}, []
    for q in quotes:
        key = (q.delivery_start, q.delivery_end)
        prev = seen.get(key)
        if prev is None:
            seen[key] = q
            deduped.append(q)
        elif abs(prev.price - q.price) > 1e-9 * max(1.0, abs(prev.price)):
            raise InfeasibleCurveError(
                f"conflicting quotes for window {key[0]}..{key[1]}: {prev.price} vs {q.price}",
                conflicts=[prev, q],
            )
    removed, residuals, fill_groups = [], [], []

    finer_cover = {"quarter": set(), "year": set()}
    for q in deduped:
        if q.granularity == "month":
            finer_cover["quarter"].update(q.window_months)
            finer_cover["year"].update(q.window_months)
        elif q.granularity == "quarter":
            finer_cover["year"].update(q.window_months)
    retained = []
    for q in deduped:
        if q.granularity != "month" and all(m in finer_cover[q.granularity] for m in q.window_months):
            removed.append(q)
        else:
            retained.append(q)

    values = {q.delivery_start: q.price for q in retained if q.granularity == "month"}
    for q in sorted(
        (q for q in retained if q.granularity != "month"),
        key=lambda q: (_GRAN_ORDER[q.granularity], q.delivery_start),
    ):
        window = q.window_months
        w = {m: float(days_in_month(m)) for m in window}
        undetermined = [m for m in window if m not in values]
        if not undetermined:
            raise InfeasibleCurveError(
                f"window of {q.granularity} {q.delivery_start} already fully "
                "determined; conflicting quote hierarchy",
                conflicts=[q],
            )
        total_w = sum(w.values())
        pinned = sum(w[m] * values[m] for m in window if m in values)
        flat = (q.price * total_w - pinned) / sum(w[m] for m in undetermined)
        if not (math.isfinite(flat) and flat > 0):
            raise InfeasibleCurveError(
                f"quote {q.granularity} {q.delivery_start} at {q.price} implies "
                f"non-positive forward {flat:.6g} for its unquoted months",
                conflicts=[q],
            )
        for m in undetermined:
            values[m] = flat
        fill_groups.append(FillGroup(q, tuple(undetermined), flat))

    months = sorted(values)
    curve = StepwiseCurve(
        market,
        as_of,
        months,
        np.array([values[m] for m in months]),
        np.array([float(days_in_month(m)) for m in months]),
    )
    bad = []
    for q in deduped:
        resid = abs(curve.average(q.window_months) - q.price) / q.price
        residuals.append((q, resid))
        if resid > 1e-9:
            bad.append(q)
    if bad:
        raise InfeasibleCurveError(
            "quote system is inconsistent; residual exceeds tolerance for: "
            + ", ".join(f"{q.granularity} {q.delivery_start}" for q in bad),
            conflicts=bad,
        )
    return curve, BootstrapReport(removed, residuals, fill_groups)


# Every window starts on or after ANCHOR and every trading date falls before
# it, so any layout can go with any board.
ANCHOR = date(2020, 3, 1)
SPAN = 30  # months of windows after ANCHOR


def _window(start, n_months):
    return start, add_months(start, n_months) - timedelta(days=1)


@st.composite
def layouts(draw):
    """An ordered list of windows: months with gaps, quarters (some of them
    dominated by their months), years, and repeated windows."""
    months = [add_months(ANCHOR, k) for k in range(SPAN)]
    quarters = [m for m in months if m.month in (1, 4, 7, 10) and add_months(m, 2) in months]
    years = [m for m in months if m.month == 1 and add_months(m, 11) in months]
    picked_months = draw(st.sets(st.sampled_from(months), max_size=12))
    picked_quarters = draw(st.sets(st.sampled_from(quarters), max_size=len(quarters)))
    for q in draw(st.sets(st.sampled_from(quarters), max_size=2)):  # dominated quarters
        picked_quarters.add(q)
        picked_months.update(add_months(q, i) for i in range(3))
    picked_years = draw(st.sets(st.sampled_from(years), max_size=len(years)))
    windows = (
        [_window(m, 1) for m in picked_months]
        + [_window(q, 3) for q in picked_quarters]
        + [_window(y, 12) for y in picked_years]
    )
    if not windows:
        windows = [_window(ANCHOR, 1)]
    windows = draw(st.permutations(sorted(windows)))
    repeats = draw(st.lists(st.sampled_from(windows), max_size=3))
    return list(windows) + repeats


@st.composite
def board_sets(draw, faults=False):
    """Boards keyed by (market, trading date), the dates spanning month and
    year ends, with up to three shared layouts. Prices are day-weighted
    averages of each board's own latent curve, so a board fails only where a
    fault was injected: a price scaled far off (a conflicting repeat, an
    inconsistent dominated quarter, a non-positive flat fill), an empty
    board, or a quote of another market. A repeated window may sit 4e-10
    above its first quote: no conflict, yet on a sub-unit price level a
    residual far above 1e-9 that only the board's worst residual reports."""
    shapes = draw(st.lists(layouts(), min_size=1, max_size=3))
    keys = draw(
        st.sets(
            st.tuples(st.sampled_from(["DE", "TTF", "NBP"]), st.integers(0, 100)),
            min_size=1,
            max_size=10,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boards = {}
    for market, offset in sorted(keys):
        trading = date(2019, 11, 20) + timedelta(days=offset)
        latent = draw(st.sampled_from([40.0, 0.004])) * np.exp(rng.normal(0.0, 0.3, SPAN))
        quotes, seen = [], set()
        for start, end in draw(st.sampled_from(shapes)):
            k = (start.year - ANCHOR.year) * 12 + start.month - ANCHOR.month
            n = (end.year - start.year) * 12 + end.month - start.month + 1
            w = np.array([days_in_month(add_months(start, i)) for i in range(n)], dtype=float)
            price = float(np.dot(w, latent[k : k + n]) / w.sum())
            if (start, end) in seen and draw(st.booleans()):
                price += 4e-10
            seen.add((start, end))
            if faults and draw(st.integers(0, 9)) == 0:
                price *= draw(st.sampled_from([1 + 1e-6, 0.05, 1e-12]))
            quotes.append(QuotedSwap(market, trading, start, end, price))
        if faults:
            fault = draw(st.sampled_from(["none"] * 6 + ["empty", "foreign"]))
            if fault == "empty":
                quotes = []
            elif fault == "foreign":
                stranger = "XX" if market != "XX" else "YY"
                quotes.insert(draw(st.integers(0, len(quotes))), QuotedSwap(stranger, trading, *_window(ANCHOR, 1), 40.0))
        boards[(market, trading)] = quotes
    return boards


def _first_reference_failure(boards):
    """Per-board reference fits in key order, or the first error raised."""
    fits = {}
    for key in sorted(boards):
        try:
            fits[key] = _reference_bootstrap(boards[key])
        except (ValidationError, InfeasibleCurveError) as exc:
            return None, exc
    return fits, None


def _assert_same_fits(boards, fits):
    got = bootstrap_boards(boards)
    assert list(got) == sorted(boards)
    for key, (curve, report) in got.items():
        want_curve, want_report = fits[key]
        assert (curve.market, curve.as_of) == key
        assert curve.months == want_curve.months
        assert curve.values.tobytes() == want_curve.values.tobytes()
        assert curve.weights.tobytes() == want_curve.weights.tobytes()
        assert report.removed == want_report.removed
        assert report.fill_groups == want_report.fill_groups
        assert [q for q, _ in report.residuals] == [q for q, _ in want_report.residuals]
        for (_, r), (_, want) in zip(report.residuals, want_report.residuals):
            assert abs(r - want) <= 1e-15
        board_residual = verify_no_arbitrage(want_curve, boards[key])
        assert abs(report.max_quote_residual - board_residual) <= 1e-15
    # no two curves share a mutable months list or weight array
    curves = [c for c, _ in got.values()]
    assert len({id(c.months) for c in curves}) == len(curves)
    assert len({id(c.weights) for c in curves}) == len(curves)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(board_sets())
def test_bootstrap_boards_matches_per_board_reference(boards):
    fits, error = _first_reference_failure(boards)
    assert error is None
    _assert_same_fits(boards, fits)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(board_sets(faults=True))
def test_bootstrap_boards_raises_first_failing_board(boards):
    fits, error = _first_reference_failure(boards)
    if error is None:
        _assert_same_fits(boards, fits)
        return
    with pytest.raises(type(error)) as info:
        bootstrap_boards(boards)
    assert str(info.value) == str(error)
    assert getattr(info.value, "conflicts", None) == getattr(error, "conflicts", None)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(board_sets(faults=True), st.randoms(use_true_random=False))
def test_table_fit_matches_bootstrap_boards(boards, rng):
    """The pipeline's fit of a quote file, its board rows interleaved, gives
    bootstrap_boards' curves, report counts and worst residuals, or raises
    its error, on every board a file can hold (no empty or mixed board)."""
    boards = {k: qs for k, qs in boards.items() if qs and all(q.market == k[0] for q in qs)}
    if not boards:
        return
    queues = [list(qs) for qs in boards.values()]
    lines = ["trading_date,market,delivery_start,delivery_end,price"]
    while queues:  # boards interleaved at random, each keeping its quote order
        queue = rng.choice(queues)
        q = queue.pop(0)
        lines.append(f"{q.trading_date},{q.market},{q.delivery_start},{q.delivery_end},{q.price!r}")
        queues = [queue for queue in queues if queue]
    table, issues = _read_quotes(io.StringIO("\n".join(lines) + "\n"))
    assert issues == []
    try:
        want = bootstrap_boards(boards)
    except (ValidationError, InfeasibleCurveError) as error:
        with pytest.raises(type(error)) as info:
            _bootstrap_table(table)
        assert str(info.value) == str(error)
        assert getattr(info.value, "conflicts", None) == getattr(error, "conflicts", None)
        return
    rows = {}  # rank -> (layout, row)
    for layout in _bootstrap_table(table):
        for row, rank in enumerate(layout.curves.rank):
            rows[rank] = (layout, row)
    assert sorted(rows) == list(range(len(want)))
    for rank, (key, (curve, report)) in enumerate(want.items()):
        layout, row = rows[rank]
        table_curve = layout.curves
        assert (table_curve.keys[row], table_curve.months) == (key, curve.months)
        assert table_curve.values[row].tobytes() == curve.values.tobytes()
        assert table_curve.weights.tobytes() == curve.weights.tobytes()
        plan = layout.plan
        assert (len(plan.removed), len(plan.fills)) == (len(report.removed), len(report.fill_groups))
        assert layout.worst[row] == report.max_quote_residual


def test_bootstrap_boards_of_no_boards_is_empty():
    assert bootstrap_boards({}) == {}


def test_bootstrap_boards_shares_one_plan_across_dates():
    """Two boards of one layout on either side of a month end fit alone and
    together to the same curves."""
    a = [
        swap((2020, 4, 1), (2020, 4, 30), 33.0, trading=date(2020, 1, 31)),
        swap((2020, 4, 1), (2020, 6, 30), 30.0, trading=date(2020, 1, 31)),
    ]
    b = [
        swap((2020, 4, 1), (2020, 4, 30), 34.0, trading=date(2020, 2, 3)),
        swap((2020, 4, 1), (2020, 6, 30), 31.0, trading=date(2020, 2, 3)),
    ]
    both = bootstrap_boards({("DE", date(2020, 2, 3)): b, ("DE", date(2020, 1, 31)): a})
    assert list(both) == [("DE", date(2020, 1, 31)), ("DE", date(2020, 2, 3))]
    for board in (a, b):
        alone, _ = bootstrap_monthly_curve(board)
        together, _ = both[("DE", board[0].trading_date)]
        assert together.values.tobytes() == alone.values.tobytes()
        assert together.months == alone.months and together.months is not alone.months


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(curve_sets())
@example(
    [
        StepwiseCurve(
            "DE",
            AS_OF,
            [date(2020, 1, 1), date(2020, 2, 1), date(2020, 4, 1)],
            np.array([0.99999999995, 0.999999999951, 99999.9999951]),
            np.array([30.999999999951, 29.0, 2 / 3]),
        )
    ]
)
def test_curve_as_written_is_the_curve_read_back(tmp_path_factory, curves):
    path = tmp_path_factory.mktemp("curves") / "curves.csv"
    write_curve_csv(curves, path)
    back = read_curve_csv(path)
    for curve in curves:
        handed, read = _curve_as_written(curve), back[(curve.market, curve.as_of)]
        assert (handed.market, handed.as_of, handed.months) == (read.market, read.as_of, read.months)
        assert handed.index == read.index
        np.testing.assert_array_equal(handed.values, read.values)
        np.testing.assert_array_equal(handed.weights, read.weights)


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
