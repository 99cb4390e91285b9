"""End-to-end command tests against the bundled synthetic quote set."""

import builtins
import csv
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import hjmkit.cli
from hjmkit import simulation
from hjmkit.calibration import FactorModel
from hjmkit.cli import RunConfig, load_run_config, main
from hjmkit.curve import StepwiseCurve, read_curve_csv, write_curve_csv
from hjmkit.dates import add_months, month_start
from hjmkit.errors import ValidationError
from hjmkit.marketdata import parse_quotes, read_panel_csv
from hjmkit.pricing import (
    StorageContract,
    SwingContract,
    VppContract,
    price_storage,
    price_swing,
    price_vpp,
)
from hjmkit.simulation import (
    ContractDescriptor,
    SanityReport,
    sanity_check,
    SimConfig,
    simulate_fixed_delivery,
    simulate_short_horizon,
    simulate_spot,
    simulate_swap,
    write_paths_csv,
    write_summary_csv,
)

ROOT = Path(__file__).resolve().parent.parent
PIPELINE_CONF = ROOT / "fixtures" / "pipeline.conf"


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """One full pipeline run shared by the artifact tests."""
    out = tmp_path_factory.mktemp("pipeline")
    rc = main(["pipeline", "--config", str(PIPELINE_CONF), "--out", str(out), "--paths", "300"])
    assert rc == 0
    return out


def read_report(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        pairs.setdefault(key, value)  # repeated keys: keep the first
    return pairs


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "quotes = q.csv\nmarkets = DE, TTF\nn_paths = 500\n"
        "antithetic = yes\ndt = 0.004\nthreshold = 0.95\n"
    )
    cfg = load_run_config(conf)
    assert cfg.quotes == "q.csv"
    assert cfg.markets == ["DE", "TTF"]
    assert cfg.n_paths == 500 and cfg.antithetic is True
    assert cfg.dt == pytest.approx(0.004) and cfg.threshold == pytest.approx(0.95)
    # untouched keys keep their defaults
    assert cfg.sim_mode == "fixed_delivery" and cfg.seed is None


def test_config_overrides_win(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("seed = 1\nout = a\n")
    cfg = load_run_config(conf, seed=7, out=None)
    assert cfg.seed == 7 and cfg.out == "a"


def test_config_rejects_unknown_key(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("paths = 100\n")
    with pytest.raises(ValidationError, match="unknown config key"):
        load_run_config(conf)


def test_config_rejects_bad_value(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("n_paths = many\n")
    with pytest.raises(ValidationError, match="cannot parse"):
        load_run_config(conf)


@pytest.mark.parametrize(
    "field,value",
    [
        ("dt", 0.0),
        ("outlier_k", 0.0),
        ("threshold", 1.5),
        ("factors", 0),
        ("n_paths", 0),
        ("horizon", -1.0),
        ("rate", -0.01),
        ("sim_mode", "jump"),
        ("export_paths", -1),
        ("acf_max_lag", 0),
        ("dt", math.nan),
        ("outlier_k", math.inf),
        ("step", math.nan),
        ("horizon", math.inf),
        ("rate", math.nan),
        ("swap_tau", math.nan),
    ],
)
def test_config_validation(field, value):
    cfg = RunConfig(**{field: value})
    with pytest.raises(ValidationError):
        cfg.validate()


def test_seed_is_mandatory_for_sampling():
    with pytest.raises(ValidationError, match="seed"):
        RunConfig().need_seed()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_exit_code_validation_errors(tmp_path, capsys):
    assert main(["do-everything"]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["ingest", "--config", str(tmp_path / "absent.conf")]) == 1
    assert main(["simulate", "--config", str(PIPELINE_CONF), "--paths", "0"]) == 1
    assert main(["price", "--seed", "1", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_exit_code_non_finite_horizon(pipeline_out, tmp_path, capsys, horizon):
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"model_file = {pipeline_out / 'model.json'}\n"
        f"curve_file = {pipeline_out / 'curves.csv'}\n"
        f"out = {tmp_path / 'out'}\nseed = 1\nhorizon = {horizon}\n"
    )
    assert main(["simulate", "--config", str(conf)]) == 1
    assert "horizon must be finite" in capsys.readouterr().err


def test_exit_code_non_finite_swap_tau(pipeline_out, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"model_file = {pipeline_out / 'model.json'}\n"
        f"curve_file = {pipeline_out / 'curves.csv'}\n"
        f"out = {tmp_path / 'out'}\nseed = 1\nsim_mode = swap\nswap_tau = nan\n"
    )
    assert main(["simulate", "--config", str(conf)]) == 1
    assert "swap_tau must be finite" in capsys.readouterr().err


def _assert_clean_validation_exit(rc, capsys, *needles):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


def _corrupt_copy(src: Path, dst: Path, edit) -> Path:
    lines = src.read_text().splitlines(keepends=True)
    dst.write_text("".join(edit(lines)))
    return dst


def _simulate_on(tmp_path, pipeline_out, curve_file=None, model_file=None) -> Path:
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"model_file = {model_file or pipeline_out / 'model.json'}\n"
        f"curve_file = {curve_file or pipeline_out / 'curves.csv'}\n"
        f"out = {tmp_path / 'out'}\nseed = 1\nn_paths = 8\n"
    )
    return conf


def _replace_field(lines, line_no, column, text):
    fields = lines[line_no - 1].rstrip("\n").split(",")
    fields[column] = text
    lines[line_no - 1] = ",".join(fields) + "\n"
    return lines


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda ls: [ls[0].replace(",value,", ",price,")] + ls[1:], "value"),
        (lambda ls: ls[:2] + ["2020-01-02,DE,2020-03-01\n"] + ls[2:], "line 3"),
        (lambda ls: _replace_field(ls, 4, 4, "abc"), "line 4"),
        (lambda ls: _replace_field(ls, 4, 2, "2021-02-xx"), "line 4"),
        (lambda ls: [ls[0].replace(",bucket_end,", ",value,")] + ls[1:], "repeated column name(s) value"),
    ],
    ids=["missing-value-column", "short-row", "bad-value", "bad-date", "repeated-column"],
)
def test_exit_code_malformed_curve_file(pipeline_out, tmp_path, capsys, edit, needle):
    curves = _corrupt_copy(pipeline_out / "curves.csv", tmp_path / "curves.csv", edit)
    rc = main(["simulate", "--config", str(_simulate_on(tmp_path, pipeline_out, curve_file=curves))])
    _assert_clean_validation_exit(rc, capsys, str(curves), needle)


def test_exit_code_malformed_model_file(pipeline_out, tmp_path, capsys):
    model = _corrupt_copy(pipeline_out / "model.json", tmp_path / "model.json", lambda ls: ls[:-3])
    rc = main(["simulate", "--config", str(_simulate_on(tmp_path, pipeline_out, model_file=model))])
    _assert_clean_validation_exit(rc, capsys, str(model))


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_exit_code_non_finite_model_field(pipeline_out, tmp_path, capsys, value):
    model = _corrupt_copy(
        pipeline_out / "model.json",
        tmp_path / "model.json",
        lambda ls: [f'  "dt": {value},\n' if '"dt":' in line else line for line in ls],
    )
    rc = main(["simulate", "--config", str(_simulate_on(tmp_path, pipeline_out, model_file=model))])
    _assert_clean_validation_exit(rc, capsys, str(model), "dt must be positive and finite")


@pytest.mark.parametrize("key,value", [("n_factors", "2.9"), ("buckets_per_market", "3.5")])
def test_exit_code_non_integral_model_count(pipeline_out, tmp_path, capsys, key, value):
    model = _corrupt_copy(
        pipeline_out / "model.json",
        tmp_path / "model.json",
        lambda ls: [f'  "{key}": {value},\n' if f'"{key}":' in line else line for line in ls],
    )
    rc = main(["simulate", "--config", str(_simulate_on(tmp_path, pipeline_out, model_file=model))])
    _assert_clean_validation_exit(rc, capsys, str(model), f"{key} must be an integer, got {value}")


def test_exit_code_market_missing_from_model(pipeline_out, tmp_path, capsys):
    # the curve file covers TTF, but the model holds only DE
    full = FactorModel.load(pipeline_out / "model.json")
    model = tmp_path / "model.json"
    replace(full, markets=["DE"], sigma_star=full.market_block("DE")).save(model)
    swing = tmp_path / "swing.conf"
    entries = {**TINY_CONTRACTS["swing"], "market": "TTF"}
    swing.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"model_file = {model}\ncurve_file = {pipeline_out / 'curves.csv'}\n"
        f"seed = 3\nn_paths = 32\nswing = {swing}\n"
    )
    rc = main(["price", "--config", str(conf), "--out", str(tmp_path / "out")])
    _assert_clean_validation_exit(rc, capsys, "unknown market 'TTF'")


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda ls: _replace_field(ls, 5, 2, "n/a"), "line 5"),
        (lambda ls: [ls[0].replace(",M2,", ",M1,")] + ls[1:], "repeated column name(s) M1"),
        (lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:], "panel dates must be strictly increasing"),
        (lambda ls: _replace_field(ls, 5, 2, "0"), "panel prices must be positive where present"),
    ],
    ids=["bad-cell", "repeated-column", "swapped-dates", "zero-price"],
)
def test_exit_code_malformed_panel_file(pipeline_out, tmp_path, capsys, edit, needle):
    out = tmp_path / "out"
    out.mkdir()
    _corrupt_copy(pipeline_out / "panel_DE.csv", out / "panel_DE.csv", edit)
    conf = tmp_path / "run.conf"
    conf.write_text(f"out = {out}\nmarkets = DE\n")
    rc = main(["calibrate", "--config", str(conf)])
    _assert_clean_validation_exit(rc, capsys, str(out / "panel_DE.csv"), needle)


def test_exit_code_numerical_failure(tmp_path, capsys):
    # two different prices for the same delivery: no curve can price both
    quotes = tmp_path / "quotes.csv"
    quotes.write_text(
        "trading_date,market,delivery_start,delivery_end,price\n"
        "2020-01-02,DE,2020-02-01,2020-02-29,39.76\n"
        "2020-01-02,DE,2020-02-01,2020-02-29,41.00\n"
    )
    conf = tmp_path / "run.conf"
    conf.write_text(f"quotes = {quotes}\nout = {tmp_path / 'out'}\n")
    assert main(["curve", "--config", str(conf)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "curve", "pipeline"])
def test_exit_code_every_quote_row_rejected(tmp_path, capsys, command):
    """No market line and no valid quote: exit 1 naming the file, the
    skipped-row count and the first issue, not empty artifacts or a crash."""
    quotes = tmp_path / "quotes.csv"
    quotes.write_text(
        "trading_date,market,delivery_start,delivery_end,price\n"
        "2020-01-02,DE,2020-02-01,2020-02-29,-1\n"
        "2020-01-XX,DE,2020-03-01,2020-03-31,40.0\n"
    )
    conf = tmp_path / "run.conf"
    conf.write_text(f"quotes = {quotes}\nout = {tmp_path / 'out'}\nseed = 1\n")
    rc = main([command, "--config", str(conf)])
    _assert_clean_validation_exit(
        rc, capsys, str(quotes), "2 rows skipped", "line 2: price must be positive and finite"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ingest", "curve", "pipeline"])
def test_exit_code_repeated_market(tmp_path, capsys, command):
    """A market named twice in the config: exit 1 naming the key and the
    market before anything is written, not unequal bucket grids at calibrate."""
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"quotes = {ROOT / 'fixtures' / 'quotes_synthetic.csv'}\n"
        f"out = {tmp_path / 'out'}\nmarkets = DE,DE,TTF\nseed = 1\n"
    )
    rc = main([command, "--config", str(conf)])
    _assert_clean_validation_exit(rc, capsys, "markets lists market 'DE' more than once")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, edit, needle",
    [
        ("ingest", {"markets": "DE"}, "tenor Y1 as of 9999-01-01 delivers in year 10000, past 9999"),
        ("pipeline", {"n_month_tenors": "100000"}, "2021-01-01 shifted by 95748 months leaves the calendar"),
        ("pipeline", {"n_quarter_tenors": "40000"}, "2021-01-01 shifted by 95748 months leaves the calendar"),
        ("pipeline", {"n_year_tenors": "9000"}, "tenor Y7979 as of 2021-01-01 delivers in year 10000, past 9999"),
        ("pipeline", {"sim_mode": "swap", "swap_tau": "1e9"}, "shifted by 12000000000 months"),
    ],
    ids=["quotes-in-9999", "month-tenors", "quarter-tenors", "year-tenors", "swap-tau"],
)
def test_calendar_overflow_exits_1(tmp_path, capsys, command, edit, needle):
    """A delivery month past the year 9999 exits 1 naming the date and the
    offset, not with a traceback from the datetime module: quotes traded in
    9999, tenors reaching past it, or a swap delivering past it."""
    quotes = ROOT / "fixtures" / "quotes_synthetic.csv"
    if command == "ingest":  # boards of two month quotes on three trading dates
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            "trading_date,market,delivery_start,delivery_end,price\n"
            + "".join(
                f"9999-01-0{day},DE,9999-0{m}-01,9999-0{m}-{end},{price}\n"
                for day in (4, 5, 6)
                for m, end, price in ((2, 28, 50.0 + day / 10), (3, 31, 51.0 + day / 10))
            )
        )
    lines = PIPELINE_CONF.read_text().splitlines()
    pairs = dict(line.split(" = ", 1) for line in lines if " = " in line and not line.startswith("#"))
    pairs.update(quotes=quotes, out=tmp_path / "out", **edit)
    for key in ("swing", "vpp", "storage"):
        pairs[key] = ROOT / pairs[key]
    conf = tmp_path / "run.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))
    rc = main([command, "--config", str(conf)])
    _assert_clean_validation_exit(rc, capsys, needle)


@pytest.mark.parametrize(
    "run_edit,swing_edit,needle",
    [
        ({"seed": None}, {}, "seed is required"),
        ({"seed": "-1"}, {}, "seed must fit in 64 bits"),
        ({"antithetic": "true", "n_paths": "2001"}, {}, "antithetic pairing needs an even path count"),
        ({"horizon": "0.001"}, {}, "horizon must cover at least one step"),
        ({"sim_mode": "swap", "sim_market": "XX"}, {}, "sim_market 'XX' is not one of the markets"),
        ({"sim_mode": "swap", "swap_tau": "0"}, {}, "swap needs a finite tau_start > 0"),
        ({"sim_mode": "swap", "swap_tau": "5"}, {}, "does not cover bucket M60"),
        ({"sim_mode": "swap", "swap_tau": "1e9"}, {}, "leaves the calendar's years 1-9999"),
        ({}, {"K": "-5"}, "swing.conf: K must be positive"),
        ({}, {"market": "XX"}, "unknown market 'XX'"),
    ],
    ids=["no-seed", "negative-seed", "odd-antithetic", "horizon-below-step", "swap-unknown-market",
         "swap-zero-tau", "swap-delivery-past-the-curve", "swap-delivery-past-the-calendar",
         "swing-negative-strike", "swing-unknown-market"],
)
def test_pipeline_rejects_a_bad_run_before_the_first_write(tmp_path, capsys, run_edit, swing_edit, needle):
    """A run the simulate or price stage would reject exits 1 before ingest
    writes its first artifact, not after the panels, diagnostics, curves.csv
    and model.json are written."""

    def entries(path: Path, edit: dict) -> str:
        pairs = dict(line.split(" = ", 1) for line in path.read_text().splitlines() if " = " in line)
        pairs = {key: value for key, value in {**pairs, **edit}.items() if value is not None}
        return "".join(f"{key} = {value}\n" for key, value in pairs.items())

    swing = tmp_path / "swing.conf"
    swing.write_text(entries(ROOT / "fixtures" / "swing.conf", swing_edit))
    conf = tmp_path / "run.conf"
    conf.write_text(
        entries(PIPELINE_CONF, {
            "quotes": ROOT / "fixtures" / "quotes_synthetic.csv", "out": tmp_path / "out", "swing": swing,
            "vpp": ROOT / "fixtures" / "vpp.conf", "storage": ROOT / "fixtures" / "storage.conf", **run_edit,
        })
    )
    rc = main(["pipeline", "--config", str(conf)])
    _assert_clean_validation_exit(rc, capsys, needle)
    assert not (tmp_path / "out").exists()


def test_exit_code_path_arrays_too_large_to_allocate(tmp_path, capsys):
    """10^12 paths: numpy refuses the simulate stage's first path-sized array,
    917 TiB, at once, so the run allocates nothing of it and exits 1 naming it."""
    conf = tmp_path / "run.conf"
    conf.write_text(
        "".join(line + "\n" for line in PIPELINE_CONF.read_text().splitlines()
                if not line.startswith(("quotes", "out", "swing", "vpp", "storage")))
        + f"quotes = {ROOT / 'fixtures' / 'quotes_synthetic.csv'}\nout = {tmp_path / 'out'}\n"
    )
    rc = main(["pipeline", "--config", str(conf), "--paths", "1000000000000"])
    _assert_clean_validation_exit(rc, capsys, "Unable to allocate", "(1000000000000, ")


def test_exit_code_input_files_not_text(tmp_path, capsys):
    """Undecodable bytes in the quotes CSV or the config file: exit 1 naming the file."""
    quotes = tmp_path / "quotes.csv"
    quotes.write_bytes(
        b"trading_date,market,delivery_start,delivery_end,price\n"
        b"2020-01-02,D\xff,2020-02-01,2020-02-29,39.76\n"
    )
    conf = tmp_path / "run.conf"
    conf.write_text(f"quotes = {quotes}\nout = {tmp_path / 'out'}\n")
    _assert_clean_validation_exit(main(["ingest", "--config", str(conf)]), capsys, str(quotes))

    conf.write_bytes(b"out = \xff\n")
    _assert_clean_validation_exit(main(["ingest", "--config", str(conf)]), capsys, str(conf))


@pytest.mark.parametrize("kind", ["curve", "panel"])
def test_exit_code_curve_and_panel_files_not_text(pipeline_out, tmp_path, capsys, kind):
    """One trailing undecodable byte in curves.csv or a panel file: exit 1 naming the file."""
    if kind == "curve":
        bad = tmp_path / "curves.csv"
        conf = _simulate_on(tmp_path, pipeline_out, curve_file=bad)
        command = "simulate"
    else:
        (tmp_path / "panels").mkdir()
        bad = tmp_path / "panels" / "panel_DE.csv"
        conf = tmp_path / "calibrate.conf"
        conf.write_text(f"out = {bad.parent}\nmarkets = DE\n")
        command = "calibrate"
    bad.write_bytes((pipeline_out / bad.name).read_bytes() + b"\xff")
    rc = main([command, "--config", str(conf)])
    _assert_clean_validation_exit(rc, capsys, str(bad), f"cannot decode {kind} file")


def test_exit_code_success(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"quotes = {ROOT / 'fixtures' / 'quotes_synthetic.csv'}\n"
        f"out = {tmp_path / 'out'}\nmarkets = DE\n"
    )
    assert main(["curve", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "[curve] completed" in out


# ---------------------------------------------------------------------------
# Artifacts of each stage
# ---------------------------------------------------------------------------


def test_ingest_artifacts(pipeline_out):
    for market in ("DE", "TTF"):
        panel = read_panel_csv(pipeline_out / f"panel_{market}.csv", market)
        assert len(panel.dates) > 100
        assert panel.tenor_labels[:2] == ["M0", "M1"]
    for pair in ("DE_DE", "DE_TTF", "TTF_TTF"):
        assert (pipeline_out / f"corr_{pair}.csv").exists()
    acf_rows = read_rows(pipeline_out / "acf.csv")
    lag0 = [r for r in acf_rows if r["lag"] == "0"]
    assert lag0 and all(float(r["acf"]) == 1.0 for r in lag0)
    moments = read_rows(pipeline_out / "moments.csv")
    assert all(float(r["std"]) > 0 for r in moments)
    report = read_report(pipeline_out / "ingest_report.txt")
    assert int(report["n_quotes"]) > 1000
    assert report["markets"] == "DE,TTF"


def test_curve_artifacts(pipeline_out):
    curves = read_curve_csv(pipeline_out / "curves.csv")
    assert len(curves) > 200
    markets = {mk for mk, _ in curves}
    assert markets == {"DE", "TTF"}
    rows = read_rows(pipeline_out / "curve_report.csv")
    assert max(float(r["max_residual"]) for r in rows) <= 1e-9
    assert all(int(r["n_buckets"]) >= 12 for r in rows)


def test_calibrate_artifacts(pipeline_out):
    model = FactorModel.load(pipeline_out / "model.json")
    assert model.markets == ["DE", "TTF"]
    assert 1 <= model.n_factors <= model.n_rows
    scree = read_rows(pipeline_out / "scree.csv")
    assert float(scree[-1]["cumulative_share"]) == pytest.approx(1.0, abs=1e-9)
    shares = [float(r["cumulative_share"]) for r in scree]
    assert shares == sorted(shares)
    report = read_report(pipeline_out / "calibration_report.txt")
    assert int(report["n_factors"]) == model.n_factors
    assert float(report["explained_share"]) >= 0.99


def test_simulate_artifacts(pipeline_out):
    sanity = read_report(pipeline_out / "sanity.txt")
    assert sanity["status"] == "passed"
    assert sanity["mode"] == "fixed_delivery"
    with open(pipeline_out / "paths.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["path_id", "time", "product_key", "value"]
    summary = read_rows(pipeline_out / "summary.csv")
    assert all(float(r["q05"]) <= float(r["mean"]) <= float(r["q95"]) for r in summary)


def test_swing_artifacts(pipeline_out):
    report = read_report(pipeline_out / "price_swing.txt")
    value = float(report["value"])
    se = float(report["std_error"])
    lb, lb_se = float(report["lower_bound"]), float(report["lower_bound_std_error"])
    assert lb - 3 * math.hypot(se, lb_se) <= value <= float(report["upper_bound"]) + 1e-9
    sweep = read_rows(pipeline_out / "price_swing_sweep.csv")
    assert [int(r["rights"]) for r in sweep] == [1, 5, 10, 30]
    values = [float(r["value"]) for r in sweep]
    errs = [float(r["std_error"]) for r in sweep]
    for i in range(len(values) - 1):
        assert values[i] <= values[i + 1] + 3 * math.hypot(errs[i], errs[i + 1])
    # 30 rights in a 30-day window: saturated at the straddle strip
    assert values[-1] == pytest.approx(float(sweep[-1]["upper_bound"]), rel=1e-9)


def test_vpp_artifacts(pipeline_out):
    report = read_report(pipeline_out / "price_vpp.txt")
    assert float(report["value"]) <= float(report["naive"]) + 1e-9
    assert float(report["naive"]) <= float(report["upper_bound"]) + 1e-9
    sweep = read_rows(pipeline_out / "price_vpp_sweep.csv")
    assert [int(r["t_on"]) for r in sweep] == [1, 2, 8]
    values = [float(r["value"]) for r in sweep]
    errs = [float(r["std_error"]) for r in sweep]
    for i in range(len(values) - 1):
        assert values[i + 1] <= values[i] + 3 * math.hypot(errs[i], errs[i + 1])


def test_storage_artifacts(pipeline_out):
    report = read_report(pipeline_out / "price_storage.txt")
    sdp, sdp_se = float(report["sdp_value"]), float(report["sdp_std_error"])
    assert float(report["deterministic"]) >= sdp - 1e-9
    oos = float(report["out_of_sample"])
    oos_se = float(report["out_of_sample_std_error"])
    assert oos <= sdp + 3 * math.hypot(sdp_se, oos_se)
    assert int(report["volume_grid_points"]) == 4
    assert report["grid_truncated_low"] == "false"


# ---------------------------------------------------------------------------
# Determinism and reuse of artifacts
# ---------------------------------------------------------------------------


def simulate_conf(tmp_path, pipeline_out, seed=7):
    conf = tmp_path / "sim.conf"
    conf.write_text(
        f"model_file = {pipeline_out / 'model.json'}\n"
        f"curve_file = {pipeline_out / 'curves.csv'}\n"
        f"seed = {seed}\nn_paths = 64\nstep = 0.003968253968253968\n"
        "horizon = 0.02\nexport_paths = 64\n"
    )
    return conf


def test_simulate_is_deterministic(tmp_path, pipeline_out):
    conf = simulate_conf(tmp_path, pipeline_out)
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "paths.csv").read_bytes()
    assert a == (tmp_path / "b" / "paths.csv").read_bytes()

    assert main(
        ["simulate", "--config", str(conf), "--out", str(tmp_path / "c"), "--seed", "8"]
    ) == 0
    assert a != (tmp_path / "c" / "paths.csv").read_bytes()


def test_export_paths_zero_writes_every_path(tmp_path, pipeline_out):
    conf = simulate_conf(tmp_path, pipeline_out)
    conf.write_text(conf.read_text().replace("export_paths = 64", "export_paths = 0"))
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "out")]) == 0
    ids = [row["path_id"] for row in read_rows(tmp_path / "out" / "paths.csv")]
    assert sorted(set(ids), key=int) == [str(p) for p in range(64)]


# ---------------------------------------------------------------------------
# The streamed simulate stage
# ---------------------------------------------------------------------------

# each mode's lines of the run file; a horizon of 0.12 runs 31 steps past
# the first delivery, after 21 steps
_STREAM_MODES = {
    "fixed_delivery": "horizon = 0.12\n",
    "short_horizon": "sim_mode = short_horizon\nhorizon = 0.05\n",
    "swap": "sim_mode = swap\nhorizon = 0.12\n",
}


@pytest.mark.parametrize("antithetic", [False, True])
# blocks of 1, 2 and 10 grid times (10 splits the 21 correlation steps), and
# the whole grid in one block; export 45 asks for more than the 40 paths
@pytest.mark.parametrize("width, export", [(1, 1), (2, 25), (10, 45), (None, 25)])
@pytest.mark.parametrize("mode", sorted(_STREAM_MODES))
def test_streamed_simulate_stage_matches_path_set_functions(
    pipeline_out, tmp_path, monkeypatch, mode, width, export, antithetic
):
    n_paths = 40
    model = FactorModel.load(pipeline_out / "model.json")
    n_prod = {
        "fixed_delivery": len(model.markets) * model.buckets_per_market,
        "short_horizon": model.buckets_per_market,
        "swap": 1,
    }[mode]
    if width is not None:
        monkeypatch.setattr(simulation, "_BLOCK_VALUES", width * n_paths * n_prod)
    seen = {}
    lognormal_blocks, simulate_stage = hjmkit.cli._lognormal_blocks, hjmkit.cli._simulate_stage

    def blocks(rows, live, initial, cfg):
        seen["initial"], seen["cfg"] = initial, cfg
        return lognormal_blocks(rows, live, initial, cfg)

    def stage(*args):
        seen["stats"], seen["report"] = simulate_stage(*args)
        return seen["stats"], seen["report"]

    monkeypatch.setattr(hjmkit.cli, "_lognormal_blocks", blocks)
    monkeypatch.setattr(hjmkit.cli, "_simulate_stage", stage)
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"model_file = {pipeline_out / 'model.json'}\n"
        f"curve_file = {pipeline_out / 'curves.csv'}\n"
        f"out = {tmp_path / 'out'}\nseed = 11\nn_paths = {n_paths}\n"
        f"step = 0.003968253968253968\nantithetic = {antithetic}\n"
        f"export_paths = {export}\n" + _STREAM_MODES[mode]
    )
    rc = main(["simulate", "--config", str(conf)])
    if width == 10 and mode == "fixed_delivery":
        assert len(simulation._time_slices((n_paths, 32, n_prod))) == 4
        assert seen["stats"].returns.shape[1] == 21

    # the same paths, whole, through the PathSet functions
    cfg, initial, market = seen["cfg"], seen["initial"], model.markets[0]
    if mode == "fixed_delivery":
        ps = simulate_fixed_delivery(model, initial, cfg)
    elif mode == "short_horizon":
        ps = simulate_short_horizon(model, market, initial, cfg)
    else:
        ps = simulate_swap(model, ContractDescriptor("swap", market, tau_start=0.25), initial, cfg)
    report = sanity_check(ps, model)
    assert rc == (0 if report.passed else 2)
    for f in fields(SanityReport):
        np.testing.assert_array_equal(getattr(seen["report"], f.name), getattr(report, f.name))
    want = tmp_path / "want"
    want.mkdir()
    write_paths_csv(ps, want / "paths.csv", export)
    write_summary_csv(ps, want / "summary.csv")
    hjmkit.cli._write_sanity(want / "sanity.txt", mode, cfg, report)
    for name in ("paths.csv", "summary.csv", "sanity.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (want / name).read_bytes(), name


def test_streamed_simulate_stage_peaks_below_half_the_path_array(tmp_path):
    """Nightly size: 2,500 paths x 253 times x 18 products, in 34 blocks of the engine."""
    markets = ["DE", "TTF", "NBP"]
    model = FactorModel(
        markets=markets,
        buckets_per_market=6,
        n_factors=2,
        dt=1 / 252,
        eigenvalues=np.array([2.0, 1.0]),
        sigma_star=np.vstack([[0.3 * 0.9**b, 0.05 * (b - 3)] for b in range(18)]),
        bucket_width=1 / 12,
    )
    months = [add_months(date(2021, 1, 1), h) for h in range(8)]
    curves = {
        mk: StepwiseCurve(mk, date(2021, 1, 4), months, np.linspace(30.0, 40.0, 8) + i, np.full(8, 30.0))
        for i, mk in enumerate(markets)
    }
    cfg = RunConfig(out=str(tmp_path), seed=3001, n_paths=2500, step=1 / 252, horizon=1.0)
    path_bytes = 2500 * 253 * 18 * 8
    assert len(simulation._time_slices((2500, 253, 18))) >= 20
    tracemalloc.start()
    try:
        hjmkit.cli.cmd_simulate(cfg, (model, curves))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pooled correlation returns (0.083 of the path array), the kept
    # normals (0.055), and one block with a temporary beside it, 0.012 each
    # at blocks of 2^17 values and 0.045 each at 2^19
    assert peak < 0.22 * path_bytes
    assert read_report(tmp_path / "sanity.txt")["status"] == "passed"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "vol_scale, curve_top", [(1e4, None), (1.0, 1.5e308)], ids=["underflow-to-zero", "overflow-to-inf"]
)
def test_simulated_values_outside_the_float_range_exit_1_and_write_nothing(
    pipeline_out, tmp_path, capsys, vol_scale, curve_top
):
    full = FactorModel.load(pipeline_out / "model.json")
    model = tmp_path / "model.json"
    replace(full, sigma_star=full.sigma_star * vol_scale).save(model)
    # a flat curve at curve_top: a rise of a fifth overflows it
    read = list(read_curve_csv(pipeline_out / "curves.csv").values())
    if curve_top is not None:
        read = [replace(c, values=np.full_like(c.values, curve_top)) for c in read]
    curves = tmp_path / "curves.csv"
    write_curve_csv(read, curves)
    conf = _simulate_on(tmp_path, pipeline_out, curve_file=curves, model_file=model)
    rc = main(["simulate", "--config", str(conf)])
    _assert_clean_validation_exit(rc, capsys, "error: path values must be positive and finite")
    for name in ("paths.csv", "summary.csv", "sanity.txt"):
        assert not (tmp_path / "out" / name).exists()


def test_sanity_failure_writes_all_three_files_and_exits_2(pipeline_out, tmp_path, capsys, monkeypatch):
    # a model law with no variance at all: every simulated variance breaches it
    monkeypatch.setattr(simulation, "_log_variance", lambda model, contract, t, t0=0.0: np.zeros_like(t))
    rc = main(["simulate", "--config", str(_simulate_on(tmp_path, pipeline_out))])
    assert rc == 2
    assert "error: sanity check failed: variance breach" in capsys.readouterr().err
    out = tmp_path / "out"
    assert read_report(out / "sanity.txt")["status"] == "failed"
    assert len(read_rows(out / "summary.csv")) == 253 * 6
    assert len(read_rows(out / "paths.csv")) == 8 * 253 * 6


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_sanity_moments_write_all_three_files_and_exit_2(pipeline_out, tmp_path, capsys):
    # finite paths near 1e306: their squared deviations overflow, so every
    # mean standard error is infinite
    read = list(read_curve_csv(pipeline_out / "curves.csv").values())
    curves = tmp_path / "curves.csv"
    write_curve_csv([replace(c, values=np.full_like(c.values, 1e306)) for c in read], curves)
    rc = main(["simulate", "--config", str(_simulate_on(tmp_path, pipeline_out, curve_file=curves))])
    assert rc == 2
    assert "error: sanity check failed: non-finite moment" in capsys.readouterr().err
    out = tmp_path / "out"
    sanity = read_report(out / "sanity.txt")
    assert sanity["status"] == "failed" and sanity["failure"].startswith("non-finite moment")
    assert len(read_rows(out / "summary.csv")) == 253 * 6
    assert len(read_rows(out / "paths.csv")) == 8 * 253 * 6


def test_price_rejects_unknown_contract_key(tmp_path, pipeline_out):
    bad = tmp_path / "swing.conf"
    bad.write_text("K = 45\nwindow = 30\n")
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"model_file = {pipeline_out / 'model.json'}\n"
        f"curve_file = {pipeline_out / 'curves.csv'}\n"
        f"seed = 3\nn_paths = 32\nswing = {bad}\n"
    )
    assert main(["price", "--config", str(conf), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "kind,spec",
    [
        ("swing", "K = 45\nsweep_rights = 1,x\n"),
        ("swing", "K = 45\nsweep_rights = 2.5\n"),
        ("vpp", "q_max = 50\nsweep_lock_hours = 1,x\n"),
        ("vpp", "q_max = 50\nsweep_lock_hours = 2.5\n"),
    ],
    ids=["swing-1,x", "swing-2.5", "vpp-1,x", "vpp-2.5"],
)
def test_price_rejects_non_integer_sweep_entry(tmp_path, pipeline_out, capsys, kind, spec):
    bad = tmp_path / f"{kind}.conf"
    bad.write_text(spec)
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"model_file = {pipeline_out / 'model.json'}\n"
        f"curve_file = {pipeline_out / 'curves.csv'}\n"
        f"seed = 3\nn_paths = 64\n{kind} = {bad}\n"
    )
    assert main(["price", "--config", str(conf), "--out", str(tmp_path / "out")]) == 1
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,spec,needle",
    [
        ("swing", "K = nan\n", "K must be finite"),
        (
            "storage",
            "v_min = 0\nv_max = inf\nv_0 = 0\ni_min = -1\ni_max = 1\n",
            "v_max must be finite",
        ),
    ],
    ids=["swing-K-nan", "storage-v_max-inf"],
)
def test_price_rejects_non_finite_contract_field(
    tmp_path, pipeline_out, capsys, kind, spec, needle
):
    bad = tmp_path / f"{kind}.conf"
    bad.write_text(spec)
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"model_file = {pipeline_out / 'model.json'}\n"
        f"curve_file = {pipeline_out / 'curves.csv'}\n"
        f"seed = 3\nn_paths = 64\n{kind} = {bad}\n"
    )
    rc = main(["price", "--config", str(conf), "--out", str(tmp_path / "out")])
    _assert_clean_validation_exit(rc, capsys, needle)


# ---------------------------------------------------------------------------
# Contract and run-config keys, fuzzed from their declarations
# ---------------------------------------------------------------------------

CONTRACT_KEYS = {name: decl.keys for name, decl in hjmkit.cli._CONTRACTS.items()}

# tiny valid contract files; empty markets and the missing v_target take
# their defaults from the model and from v_0
TINY_CONTRACTS = {
    "swing": {
        "market": "", "n_days": "5", "u_max": "1", "d_max": "1", "K": "45", "Q": "1",
        "sweep_rights": "1,2",
    },
    "vpp": {
        "power_market": "", "fuel_market": "", "n_hours": "12", "t_on": "2", "t_off": "2",
        "q_min": "10", "q_max": "50", "S_u": "100", "S_d": "50", "H": "2",
        "sweep_lock_hours": "1,2",
    },
    "storage": {
        "market": "", "n_days": "5", "v_min": "0", "v_max": "30", "v_0": "10",
        "i_min": "-10", "i_max": "10", "penalty_scale": "2",
    },
}
BAD_VALUES = {  # per kind: values that no key of that kind accepts
    "str": ["no-such-market"],
    "int": ["x", "2.5"],
    "float": ["x", "nan", "inf"],
    "list[int]": ["x"],
}


def _price_contract(tmp_path, pipeline_out, kind, entries, n_paths=32) -> tuple[int, Path]:
    spec = tmp_path / f"{kind}.conf"
    spec.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"model_file = {pipeline_out / 'model.json'}\n"
        f"curve_file = {pipeline_out / 'curves.csv'}\n"
        f"seed = 3\nn_paths = {n_paths}\n{kind} = {spec}\n"
    )
    return main(["price", "--config", str(conf), "--out", str(tmp_path / "out")]), spec


@pytest.mark.parametrize("kind", sorted(CONTRACT_KEYS))
def test_price_tiny_contract_takes_dynamic_defaults(tmp_path, pipeline_out, kind):
    # storage's continuation regression needs more than 32 samples
    rc, _ = _price_contract(tmp_path, pipeline_out, kind, TINY_CONTRACTS[kind], n_paths=64)
    assert rc == 0
    report = read_report(tmp_path / "out" / f"price_{kind}.txt")
    markets = FactorModel.load(pipeline_out / "model.json").markets
    for key, field, _, _ in CONTRACT_KEYS[kind]:
        if field is None:
            assert report[key] == (markets[-1] if key == "fuel_market" else markets[0])
    if kind == "storage":
        assert report["v_target"] == report["v_0"] == "10"


def _fixture_price(
    pipeline_out, tmp_path, command, n_paths, monkeypatch, conf=PIPELINE_CONF
) -> tuple[int, Path, list]:
    """Run the fixture config's (or ``conf``'s) price (on the shared model)
    or pipeline command at n_paths, counting the spot path sets drawn."""
    out = tmp_path / "out"
    out.mkdir()
    for name in ("model.json", "curves.csv"):
        shutil.copy(pipeline_out / name, out / name)
    drawn = []
    simulate = hjmkit.cli.simulate_spot
    monkeypatch.setattr(
        hjmkit.cli, "simulate_spot", lambda *args: drawn.append(1) or simulate(*args)
    )
    argv = [command, "--config", str(conf), "--out", str(out), "--paths", str(n_paths)]
    return main(argv), out, drawn


@pytest.mark.parametrize("command", ["price", "pipeline"])
def test_too_few_paths_rejected_before_any_path_is_drawn(
    pipeline_out, tmp_path, capsys, monkeypatch, command
):
    rc, out, drawn = _fixture_price(pipeline_out, tmp_path, command, 39, monkeypatch)
    _assert_clean_validation_exit(
        rc, capsys, "n_paths = 39 is too few for the swing contract", "at least 40 paths"
    )
    assert drawn == [] and not (out / "paths.csv").exists()


def test_fixture_contracts_price_at_forty_paths(pipeline_out, tmp_path, monkeypatch):
    rc, out, drawn = _fixture_price(pipeline_out, tmp_path, "price", 40, monkeypatch)
    assert rc == 0 and len(drawn) == 4  # swing, VPP, storage and its fresh paths
    assert read_report(out / "price_storage.txt")["n_paths"] == "40"


def _fixture_with_contract(tmp_path, kind, edit) -> Path:
    """A copy of the fixture run config whose ``kind`` contract file is the
    fixture's with ``edit`` (key -> value) applied."""
    source = ROOT / "fixtures" / f"{kind}.conf"
    entries = dict(line.split(" = ", 1) for line in source.read_text().splitlines() if " = " in line)
    spec = tmp_path / f"{kind}.conf"
    spec.write_text("".join(f"{key} = {value}\n" for key, value in {**entries, **edit}.items()))
    conf = tmp_path / "run.conf"
    lines = PIPELINE_CONF.read_text().splitlines()
    conf.write_text("".join(f"{kind} = {spec}\n" if line.startswith(f"{kind} =") else line + "\n" for line in lines))
    return conf


@pytest.mark.parametrize("command", ["price", "pipeline"])
@pytest.mark.parametrize(
    "kind,edit,needle",
    [
        (
            "swing", {"sweep_rights": "1,31"},
            "sweep key 'sweep_rights' entry 31: u_max and d_max must lie in [0, n_days]",
        ),
        (
            "vpp", {"sweep_lock_hours": "0,2"},
            "sweep key 'sweep_lock_hours' entry 0: t_on and t_off must be at least 1",
        ),
        ("storage", {"v_target": "5000"}, "v_target is not on the volume grid"),
        ("storage", {"i_max": "15000"}, "i_max and i_min must be integer multiples"),
    ],
    ids=["swing-rights-past-window", "vpp-lock-zero", "storage-target-off-grid", "storage-rates"],
)
def test_bad_sweep_entry_or_storage_grid_rejected_before_any_path_is_drawn(
    pipeline_out, tmp_path, capsys, monkeypatch, command, kind, edit, needle
):
    conf = _fixture_with_contract(tmp_path, kind, edit)
    rc, out, drawn = _fixture_price(pipeline_out, tmp_path, command, 40, monkeypatch, conf)
    _assert_clean_validation_exit(rc, capsys, f"{tmp_path / f'{kind}.conf'}: {needle}")
    assert drawn == [] and not (out / "paths.csv").exists()
    assert not list(out.glob("price_*"))


@pytest.mark.parametrize(
    "kind,entries",
    [
        ("storage", {"n_days": "1"}),  # one regression, at step 0's constant price
        ("vpp", {"power_market": "DE", "fuel_market": "DE", "H": "1"}),  # a zero spread
    ],
    ids=["one-day-storage", "zero-spread-vpp"],
)
def test_contracts_regressing_on_constant_prices_need_ten_paths(
    pipeline_out, tmp_path, capsys, kind, entries
):
    entries = {**TINY_CONTRACTS[kind], **entries}
    rc, _ = _price_contract(tmp_path, pipeline_out, kind, entries, n_paths=12)
    assert rc == 0
    rc, _ = _price_contract(tmp_path, pipeline_out, kind, entries, n_paths=9)
    _assert_clean_validation_exit(rc, capsys, "n_paths = 9", "at least 10 paths")


@pytest.mark.parametrize(
    "kind,key",
    [
        (kind, key)
        for kind, keys in CONTRACT_KEYS.items()
        for key, _, _, default in keys
        if default is hjmkit.cli._REQUIRED
    ],
)
def test_price_rejects_missing_required_contract_key(tmp_path, pipeline_out, capsys, kind, key):
    entries = {k: v for k, v in TINY_CONTRACTS[kind].items() if k != key}
    rc, spec = _price_contract(tmp_path, pipeline_out, kind, entries)
    _assert_clean_validation_exit(rc, capsys, str(spec), repr(key))


@pytest.mark.parametrize(
    "kind,key,value",
    [
        (kind, key, value)
        for kind, keys in CONTRACT_KEYS.items()
        for key, _, key_kind, _ in keys
        for value in BAD_VALUES[key_kind]
    ],
)
def test_price_rejects_bad_contract_value(tmp_path, pipeline_out, capsys, kind, key, value):
    rc, spec = _price_contract(tmp_path, pipeline_out, kind, {**TINY_CONTRACTS[kind], key: value})
    # an unparseable value names the contract file and the key
    needles = [f"{spec}: contract key {key!r}: cannot parse"] if value in ("x", "2.5") else []
    _assert_clean_validation_exit(rc, capsys, *needles)


@pytest.mark.parametrize(
    "key,value",
    [
        (key, value)
        for key, kind in hjmkit.cli._RUN_KINDS.items()
        if kind in ("int", "float", "bool")
        for value in (["x", "nan", "inf"] if kind == "float" else ["x"])
    ],
)
def test_config_rejects_unparseable_or_non_finite_value(tmp_path, key, value):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {value}\n")
    with pytest.raises(ValidationError, match=key):
        load_run_config(conf)


def test_readme_lists_every_contract_key():
    """README's table of each contract lists exactly the declared keys, in
    declaration order, with their kinds, and marks the required ones."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Contract files") :]
    section = section[: section.index("\n## ", 1)]
    tables = section.split("\n### ")[1:]
    assert [t.split("\n", 1)[0] for t in tables] == [f"`{kind}`" for kind in CONTRACT_KEYS]
    for table, (kind, keys) in zip(tables, CONTRACT_KEYS.items()):
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()
            if line.startswith("| `")
        ]
        assert [(key, key_kind) for key, key_kind, _, _ in rows] == [
            (f"`{key}`", key_kind) for key, _, key_kind, _ in keys
        ], kind
        assert [default == "required" for _, _, default, _ in rows] == [
            default is hjmkit.cli._REQUIRED for _, _, _, default in keys
        ], kind


def test_import_loads_no_scipy():
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys, hjmkit, hjmkit.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_stages_one_by_one_match_pipeline(pipeline_out, tmp_path):
    out = tmp_path / "stages"
    for command in ("ingest", "curve", "calibrate", "simulate", "price"):
        argv = [command, "--config", str(PIPELINE_CONF), "--out", str(out), "--paths", "300"]
        assert main(argv) == 0
    names = sorted(p.name for p in pipeline_out.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (pipeline_out / name).read_bytes(), name


def test_pipeline_calibrates_only_the_markets_ingest_built(tmp_path, capsys):
    """With markets unset, a panel left in out/ by an earlier run is not calibrated."""
    out = tmp_path / "out"
    conf = tmp_path / "run.conf"
    dropped = ("markets", "swing", "vpp", "storage", "quotes", "out", "n_paths")
    lines = [
        line
        for line in PIPELINE_CONF.read_text().splitlines()
        if line.partition("=")[0].strip() not in dropped
    ]
    lines += [f"quotes = {ROOT / 'fixtures' / 'quotes_synthetic.csv'}", f"out = {out}", "n_paths = 40"]
    conf.write_text("\n".join(lines) + "\n")
    assert main(["pipeline", "--config", str(conf)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.copy(out / "panel_TTF.csv", out / "panel_NBP.csv")
    assert main(["pipeline", "--config", str(conf)]) == 0, capsys.readouterr().err
    assert FactorModel.load(out / "model.json").markets == ["DE", "TTF"]
    assert read_report(out / "calibration_report.txt")["markets"] == "DE,TTF"
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "panel_NBP.csv"} == first


def test_pipeline_reads_model_and_curves_once_and_reuses_headline_vpp(tmp_path, monkeypatch):
    calls = Counter()
    read_curves, read_panel, load_model, vpp = (
        hjmkit.cli.read_curve_csv,
        hjmkit.cli.read_panel_csv,
        FactorModel.load.__func__,
        hjmkit.cli._price_vpps,
    )

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(hjmkit.cli, "read_curve_csv", counting("curves", read_curves))
    monkeypatch.setattr(hjmkit.cli, "read_panel_csv", counting("panels", read_panel))
    monkeypatch.setattr(FactorModel, "load", classmethod(counting("model", load_model)))
    monkeypatch.setattr(hjmkit.cli, "_price_vpps", counting("vpp", vpp))
    opened, real_open = [], builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((Path(file).name if isinstance(file, (str, os.PathLike)) else file, mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    argv = ["pipeline", "--config", str(PIPELINE_CONF), "--out", str(tmp_path / "out"), "--paths", "300"]
    assert main(argv) == 0
    # curves and panels are handed on in memory; model.json is the one file read back.
    # The VPP and its lock sweep (whose lock-2 row is the headline contract) are one pricer call
    assert calls == Counter(curves=0, panels=0, model=1, vpp=1)
    written = {name for name, mode in opened if "w" in mode}
    assert {"curves.csv", "panel_DE.csv", "panel_TTF.csv"} <= written
    assert not [
        name for name, mode in opened
        if "r" in mode and (name == "curves.csv" or str(name).startswith("panel_"))
    ]


def test_pipeline_hands_on_panels_and_curves_as_their_files_read_back(tmp_path, monkeypatch):
    handed = {}
    calibrate, simulate = hjmkit.cli.cmd_calibrate, hjmkit.cli.cmd_simulate

    def keep_panels(cfg, panels):
        handed["panels"] = panels
        return calibrate(cfg, panels)

    def keep_curves(cfg, calibrated):
        handed["curves"] = calibrated[1]
        return simulate(cfg, calibrated)

    monkeypatch.setattr(hjmkit.cli, "cmd_calibrate", keep_panels)
    monkeypatch.setattr(hjmkit.cli, "cmd_simulate", keep_curves)
    out = tmp_path / "out"
    argv = ["pipeline", "--config", str(PIPELINE_CONF), "--out", str(out), "--paths", "40"]
    assert main(argv) == 0
    assert [p.market for p in handed["panels"]] == ["DE", "TTF"]
    for panel in handed["panels"]:
        read = read_panel_csv(out / f"panel_{panel.market}.csv", panel.market)
        assert (panel.tenor_labels, panel.dates) == (read.tenor_labels, read.dates)
        np.testing.assert_array_equal(panel.prices, read.prices)
    latest = {}
    for (market, as_of), curve in sorted(read_curve_csv(out / "curves.csv").items()):
        latest[market] = curve
    assert handed["curves"].keys() == latest.keys()
    for market, curve in handed["curves"].items():
        read = latest[market]
        assert (curve.as_of, curve.months) == (read.as_of, read.months)
        np.testing.assert_array_equal(curve.values, read.values)
        np.testing.assert_array_equal(curve.weights, read.weights)


def test_pipeline_reads_each_contract_file_once(tmp_path, monkeypatch):
    reads = Counter()
    read = hjmkit.cli._read_flat_config

    def counting(path):
        reads[Path(path).name] += 1
        return read(path)

    monkeypatch.setattr(hjmkit.cli, "_read_flat_config", counting)
    argv = ["pipeline", "--config", str(PIPELINE_CONF), "--out", str(tmp_path / "out"), "--paths", "40"]
    assert main(argv) == 0
    assert reads == {"pipeline.conf": 1, "swing.conf": 1, "vpp.conf": 1, "storage.conf": 1}


def _fixture_spot(pipeline_out, markets, points, per_year, seed):
    """Spot paths as the price stage draws them for a contract: points grid
    times 1/per_year apart, at the run's path count, each market's spot
    mean read off its latest curve by calendar month."""
    model = FactorModel.load(pipeline_out / "model.json")
    latest = {}
    for (market, as_of), curve in sorted(read_curve_csv(pipeline_out / "curves.csv").items()):
        latest[market] = curve

    def mean(curve):
        return lambda t: curve.value_at(
            month_start(curve.as_of + timedelta(days=round(t * 365.0)))
        )

    cfg = SimConfig(seed, 300, 1.0 / per_year, (points - 1) / per_year)
    paths = simulate_spot(model, {mk: mean(latest[mk]) for mk in markets}, cfg, markets)
    assert paths.time_grid.size == points
    return paths


def test_price_reports_match_direct_pricer_calls(pipeline_out):
    """The price stage hands each fixture contract, as fixtures/*.conf
    declare it, the paths a direct call draws: the same seed, grid and
    markets give the reported values to the last printed digit."""
    seed, fmt = 20210701, hjmkit.cli._fmt
    swing = SwingContract(30, 5, 5, 45.0, 1.0)
    res = price_swing(swing, _fixture_spot(pipeline_out, ["DE"], 30, 365.0, seed))
    assert read_report(pipeline_out / "price_swing.txt")["value"] == fmt(res.lsmc.value)

    vpp = VppContract(72, 2, 2, 10.0, 50.0, 100.0, 50.0, 2.0)
    paths = _fixture_spot(pipeline_out, ["DE", "TTF"], 72, 8760.0, seed)
    res = price_vpp(vpp, paths, paths, power_product=0, fuel_product=1)
    assert read_report(pipeline_out / "price_vpp.txt")["value"] == fmt(res.lsmc.value)

    storage = StorageContract(90, 0.0, 30000.0, 0.0, 0.0, -10000.0, 10000.0, 2.0)
    paths = _fixture_spot(pipeline_out, ["TTF"], 91, 365.0, seed)
    fresh = _fixture_spot(pipeline_out, ["TTF"], 91, 365.0, seed + 1)
    res = price_storage(storage, paths, fresh)
    report = read_report(pipeline_out / "price_storage.txt")
    assert report["sdp_value"] == fmt(res.sdp.value)
    assert report["out_of_sample"] == fmt(res.out_of_sample.value)


def test_pipeline_parses_once_and_bootstraps_each_board_once(tmp_path, monkeypatch):
    parses = []
    boards = Counter()
    parse, bootstrap = hjmkit.cli._read_quotes, hjmkit.cli._bootstrap_table

    def counting_parse(source):
        parses.append(source)
        return parse(source)

    def counting_bootstrap(table):
        layouts = bootstrap(table)
        boards.update(key for layout in layouts for key in layout.curves.keys)  # one count per board key
        return layouts

    monkeypatch.setattr(hjmkit.cli, "_read_quotes", counting_parse)
    monkeypatch.setattr(hjmkit.cli, "_bootstrap_table", counting_bootstrap)
    conf = tmp_path / "run.conf"
    contracts = ("swing", "vpp", "storage")
    conf.write_text(
        "".join(
            line + "\n"
            for line in PIPELINE_CONF.read_text().splitlines()
            if not line.startswith(contracts)
        )
    )
    argv = ["pipeline", "--config", str(conf), "--out", str(tmp_path / "out"), "--paths", "64"]
    assert main(argv) == 0
    assert len(parses) == 1
    quotes, _ = parse_quotes(ROOT / "fixtures" / "quotes_synthetic.csv")
    assert set(boards) == {(q.market, q.trading_date) for q in quotes}
    assert set(boards.values()) == {1}
