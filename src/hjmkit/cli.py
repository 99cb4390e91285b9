"""Command-line pipeline: ingest -> curve -> calibrate -> simulate -> price.

Run on its own, each command reads what the previous one wrote, so the
stages chain from a quotes CSV to valuation reports without manual edits.
A stage is handed its inputs: `main` loads them for a single command, and
`hjmkit pipeline --config run.conf` parses and bootstraps the quotes once
for ingest and curve, hands calibrate the panels ingest built and simulate
and price each market's latest curve, each exactly as its file reads back,
and reads back model.json only, so the pipeline writes the same files as
the stages run one by one. Outputs are plain CSV and key=value text
with fixed float formatting; everything a run writes is a deterministic
function of (config, seed). Wall-clock timings go to stdout only so
artifact files stay byte-identical across reruns.

Exit codes: 0 success, 1 input/validation problem, 2 numerical failure
(infeasible quote system, sanity breach, bound violation).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .calibration import (
    estimate_covariance,
    pca,
    select_factors,
    build_sigma_star,
    correlation_surface,
    FactorModel,
)
from .curve import (
    StepwiseCurve,
    _curve_as_written,
    bootstrap_boards,
    extract_fixed_delivery,
    read_curve_csv,
    write_curve_csv,
)
from .dates import month_start
from .errors import HjmkitError, ValidationError
from .marketdata import (
    LogReturnMatrix,
    RelativePanel,
    acf,
    build_relative_panel,
    combine_log_returns,
    default_tenor_labels,
    filter_outliers,
    log_returns,
    normality_diagnostics,
    parse_quotes,
    parse_tenor,
    read_panel_csv,
    write_panel_csv,
)
from .pricing import (
    LsmcSettings,
    StorageContract,
    SwingContract,
    VppContract,
    _RegressionPlan,
    price_storage,
    price_swing,
    price_vpp,
)
from .simulation import (
    ContractDescriptor,
    SanityReport,
    SimConfig,
    _fixed_delivery_law,
    _lognormal_blocks,
    _path_blocks,
    _short_horizon_law,
    _simulate_stage,
    _swap_law,
    simulate_spot,
)
from .errors import SimulationError

_COMMANDS = ("ingest", "curve", "calibrate", "simulate", "price", "pipeline")
_SIM_MODES = ("fixed_delivery", "short_horizon", "swap", "spot")

_DAYS_PER_YEAR = 365.0
_HOURS_PER_YEAR = 365.0 * 24.0


def _fmt(x) -> str:
    return format(float(x), ".10g")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """All tunables of a pipeline run; flat key=value config file.

    ``export_paths`` is how many paths paths.csv holds. 0 writes every path,
    and is the one value for which the streamed simulate stage keeps every
    path in memory.
    """

    quotes: str = ""
    out: str = "out"
    markets: list[str] = field(default_factory=list)
    n_month_tenors: int = 24
    n_quarter_tenors: int = 7
    n_year_tenors: int = 2
    dt: float = 1.0 / 252.0
    outlier_k: float = 3.0
    threshold: float = 0.99
    factors: int | None = None
    seed: int | None = None
    n_paths: int = 2000
    step: float | None = None
    horizon: float = 1.0
    antithetic: bool = False
    rate: float = 0.0
    sim_mode: str = "fixed_delivery"
    sim_market: str = ""
    swap_tau: float = 0.25
    export_paths: int = 25
    acf_max_lag: int = 20
    acf_tenor: str = "M1"
    model_file: str = ""
    curve_file: str = ""
    vpp: str = ""
    swing: str = ""
    storage: str = ""

    def validate(self) -> None:
        for key, kind in _RUN_KINDS.items():
            value = getattr(self, key)
            if kind == "float" and value is not None and not math.isfinite(value):
                raise ValidationError(f"{key} must be finite, got {value}")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.outlier_k <= 0:
            raise ValidationError("outlier_k must be positive")
        if not 0 < self.threshold <= 1:
            raise ValidationError("threshold must lie in (0, 1]")
        if self.factors is not None and self.factors < 1:
            raise ValidationError("factors must be at least 1")
        if self.n_paths < 1:
            raise ValidationError("n_paths must be positive")
        if self.step is not None and self.step <= 0:
            raise ValidationError("step must be positive")
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive")
        if self.rate < 0:
            raise ValidationError("rate must be non-negative")
        if self.sim_mode not in _SIM_MODES:
            raise ValidationError(f"sim_mode must be one of {_SIM_MODES}")
        if self.export_paths < 0:
            raise ValidationError("export_paths must be non-negative")
        if self.acf_max_lag < 1:
            raise ValidationError("acf_max_lag must be at least 1")
        for n in (self.n_month_tenors, self.n_quarter_tenors, self.n_year_tenors):
            if n < 0:
                raise ValidationError("tenor counts must be non-negative")

    # derived paths -------------------------------------------------------
    @property
    def out_dir(self) -> Path:
        return Path(self.out)

    def path_model(self) -> Path:
        return Path(self.model_file) if self.model_file else self.out_dir / "model.json"

    def path_curves(self) -> Path:
        return Path(self.curve_file) if self.curve_file else self.out_dir / "curves.csv"

    def path_panel(self, market: str) -> Path:
        return self.out_dir / f"panel_{market}.csv"

    def sim_step(self) -> float:
        return self.step if self.step is not None else self.dt

    def need_seed(self) -> int:
        if self.seed is None:
            raise ValidationError("seed is required (no wall-clock default)")
        return self.seed


# each key's kind is its field's annotation, optional or not
_RUN_KINDS = {f.name: f.type.removesuffix(" | None") for f in fields(RunConfig)}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(label: str, raw: str, kind: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _BOOLS[raw.lower()]
        if kind in ("list[str]", "list[int]"):
            items = [p.strip() for p in raw.split(",") if p.strip()]
            return [int(p) for p in items] if kind == "list[int]" else items
        return raw
    except (ValueError, KeyError) as exc:
        raise ValidationError(f"{label}: cannot parse {raw!r} as {kind}") from exc


def _read_flat_config(path) -> dict[str, str]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string("[run]\n" + Path(path).read_text())
    except (configparser.Error, OSError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return dict(parser["run"])


def load_run_config(path=None, **overrides) -> RunConfig:
    data = _read_flat_config(path) if path else {}
    cfg = RunConfig()
    for key, raw in data.items():
        if key not in _RUN_KINDS:
            raise ValidationError(f"unknown config key {key!r}")
        setattr(cfg, key, _parse_value(f"config key {key!r}", raw, _RUN_KINDS[key]))
    for key, value in overrides.items():
        if value is not None:
            cfg = replace(cfg, **{key: value})
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _load_boards(cfg: RunConfig):
    """Parse the quotes and bootstrap every (market, date) board in one call.

    Returns (quotes, issues, {(market, date): (board_quotes, curve, report)})
    with the boards in key order.
    """
    if not cfg.quotes:
        raise ValidationError("config key 'quotes' (input CSV) is required")
    quotes, issues = parse_quotes(cfg.quotes)
    if cfg.markets:
        wanted = set(cfg.markets)
        quotes = [q for q in quotes if q.market in wanted]
        if not quotes:
            raise ValidationError(f"no quotes for requested markets {sorted(wanted)}")
    grouped: dict[tuple[str, date], list] = {}
    for q in quotes:
        grouped.setdefault((q.market, q.trading_date), []).append(q)
    boards = {k: (grouped[k], *fit) for k, fit in bootstrap_boards(grouped).items()}
    return quotes, issues, boards


def _latest_curves(curves: dict[tuple[str, date], StepwiseCurve]) -> dict[str, StepwiseCurve]:
    latest: dict[str, StepwiseCurve] = {}
    for (market, as_of), curve in curves.items():
        if market not in latest or as_of > latest[market].as_of:
            latest[market] = curve
    return latest


def _curve_for(cfg: RunConfig, curves: dict[str, StepwiseCurve], market: str) -> StepwiseCurve:
    if market not in curves:
        raise ValidationError(f"no curve for market {market!r} in {cfg.path_curves()}")
    return curves[market]


def _curve_means(cfg: RunConfig, curves, markets, grid: np.ndarray) -> dict[str, np.ndarray]:
    """Initial expectation F(0, t) of each market's spot, sampled from its monthly curve."""
    means = {}
    for market in markets:
        curve = _curve_for(cfg, curves, market)
        out = np.empty(grid.size)
        for i, t in enumerate(grid):
            m = month_start(curve.as_of + timedelta(days=int(round(t * _DAYS_PER_YEAR))))
            if m not in curve.index:
                raise ValidationError(
                    f"curve for {curve.market} does not cover {m} needed at t={t:.4g}"
                )
            out[i] = curve.value_at(m)
        means[market] = out
    return means


def _write_report(path: Path, pairs) -> None:
    with open(path, "w") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {value}\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: RunConfig, loaded) -> list[RelativePanel]:
    """Write each market's panel and the return diagnostics; return the
    panels as their files read back."""
    quotes, issues, boards = loaded
    markets = cfg.markets or sorted({q.market for q in quotes})
    labels = default_tenor_labels(cfg.n_month_tenors, cfg.n_quarter_tenors, cfg.n_year_tenors)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    notes: list[str] = []

    panels, written = {}, []
    for market in markets:
        curves = {d: cv for (mk, d), (_, cv, _) in boards.items() if mk == market}
        if not curves:
            raise ValidationError(f"no usable quotes for market {market!r}")
        panel = build_relative_panel(market, curves, labels)
        panels[market] = panel
        written.append(write_panel_csv(panel, cfg.path_panel(market)))
        print(f"wrote {cfg.path_panel(market)} ({len(panel.dates)} dates)")

    # return-based diagnostics are best-effort: a one-date panel has none
    rets = {}
    for market in markets:
        if len(panels[market].dates) >= 3:
            rets[market] = log_returns(panels[market], cfg.dt)
        else:
            notes.append(f"{market}: too few dates for return diagnostics")

    acf_rows = []
    for market, ret in sorted(rets.items()):
        try:
            series = ret.column(market, cfg.acf_tenor)
        except ValueError:
            notes.append(f"{market}: tenor {cfg.acf_tenor} absent from returns")
            continue
        series = series[np.isfinite(series)]
        max_lag = min(cfg.acf_max_lag, series.size - 2)
        if max_lag < 1:
            notes.append(f"{market}: series too short for autocorrelation")
            continue
        values = acf(series, max_lag)
        acf_rows += [[market, cfg.acf_tenor, lag, _fmt(v)] for lag, v in enumerate(values)]
    _write_csv(cfg.out_dir / "acf.csv", ["market", "tenor", "lag", "acf"], acf_rows)

    moment_rows = []
    for market, ret in sorted(rets.items()):
        for mk, tenor in ret.column_keys:
            col = ret.column(mk, tenor)
            col = col[np.isfinite(col)]
            if col.size < 2 or np.all(col == col[0]):
                continue
            m = normality_diagnostics(col)
            moment_rows.append(
                [mk, tenor, _fmt(m.mean), _fmt(m.std), _fmt(m.skewness), _fmt(m.excess_kurtosis), m.n_obs]
            )
    _write_csv(
        cfg.out_dir / "moments.csv",
        ["market", "tenor", "mean", "std", "skewness", "excess_kurtosis", "n_obs"],
        moment_rows,
    )

    removed_total: dict[tuple[str, str], int] = {}
    if rets:
        combined = combine_log_returns([rets[m] for m in sorted(rets)]) if len(rets) > 1 else rets[sorted(rets)[0]]
        filtered, removed_total = filter_outliers(combined, cfg.outlier_k)
        # frozen products (e.g. an in-delivery M0) have zero return variance
        # and carry no correlation information
        live = []
        for j, key in enumerate(filtered.column_keys):
            col = filtered.values[:, j]
            col = col[np.isfinite(col)]
            if col.size >= 2 and col.var() > 0:
                live.append(j)
            else:
                notes.append(f"{key[0]}:{key[1]}: constant returns, excluded from correlations")
        filtered = LogReturnMatrix(
            filtered.values[:, live],
            [filtered.column_keys[j] for j in live],
            filtered.dt,
            filtered.dates,
        )
        try:
            cov = estimate_covariance(filtered)
            for a in sorted(rets):
                for b in sorted(rets):
                    if a > b:
                        continue
                    rows_a, cols_b, block = correlation_surface(cov, a, b)
                    out = cfg.out_dir / f"corr_{a}_{b}.csv"
                    _write_csv(
                        out,
                        ["tenor"] + cols_b,
                        [[rows_a[i]] + [_fmt(v) for v in block[i]] for i in range(len(rows_a))],
                    )
                    print(f"wrote {out}")
        except HjmkitError as exc:
            notes.append(f"correlation surfaces skipped: {exc}")

    report = [("quotes_file", cfg.quotes), ("markets", ",".join(markets))]
    report += [("n_quotes", len(quotes)), ("n_skipped_rows", len(issues))]
    for issue in issues:
        report.append(("skipped_row", str(issue)))
    for (market, tenor), count in sorted(removed_total.items()):
        if count:
            report.append(("outliers_removed", f"{market}:{tenor}={count}"))
    for note in notes:
        report.append(("note", note))
    _write_report(cfg.out_dir / "ingest_report.txt", report)
    print(f"wrote {cfg.out_dir / 'ingest_report.txt'}")
    return written


def cmd_curve(cfg: RunConfig, loaded) -> None:
    _, _, boards = loaded
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    curves = [cv for _, cv, _ in boards.values()]
    write_curve_csv(curves, cfg.path_curves())
    rows = []
    worst = 0.0
    for (market, as_of), (_, curve, report) in boards.items():
        residual = report.max_quote_residual
        worst = max(worst, residual)
        rows.append(
            [
                as_of.isoformat(),
                market,
                len(curve.months),
                len(report.removed),
                len(report.fill_groups),
                _fmt(residual),
            ]
        )
    _write_csv(
        cfg.out_dir / "curve_report.csv",
        ["as_of", "market", "n_buckets", "n_redundant", "n_fill_groups", "max_residual"],
        rows,
    )
    print(f"wrote {cfg.path_curves()} ({len(curves)} curves, worst residual {worst:.3g})")


def _load_panels(cfg: RunConfig) -> list[RelativePanel]:
    """The panels a standalone calibrate reads: the configured markets', else
    every panel in the output directory."""
    markets = cfg.markets or sorted(
        p.stem.removeprefix("panel_") for p in cfg.out_dir.glob("panel_*.csv")
    )
    if not markets:
        raise ValidationError("no panels found; run ingest first or set markets")
    return [read_panel_csv(cfg.path_panel(m), m) for m in markets]


def cmd_calibrate(cfg: RunConfig, panels: list[RelativePanel]) -> None:
    """Fit the factor model to the panels' pooled returns, one panel per market."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    markets = [p.market for p in panels]
    rets = [log_returns(p, cfg.dt) for p in panels]
    combined = combine_log_returns(rets) if len(rets) > 1 else rets[0]
    filtered, removed = filter_outliers(combined, cfg.outlier_k)

    # the factor grid uses monthly tenors M1..M contiguous and common to all
    # markets; M0 rolls mid-delivery and quarters/years are curve averages
    per_market: dict[str, set[int]] = {m: set() for m in markets}
    for mk, tenor in filtered.column_keys:
        kind, off = parse_tenor(tenor)
        if kind == "M" and off >= 1:
            per_market[mk].add(off)
    depth = 0
    while all(depth + 1 in per_market[m] for m in markets):
        depth += 1
    if depth == 0:
        raise ValidationError("no common M1.. monthly tenor columns across markets")
    ordered_keys = [(m, f"M{i}") for m in markets for i in range(1, depth + 1)]
    sel = [filtered.column_keys.index(k) for k in ordered_keys]
    matrix = LogReturnMatrix(
        filtered.values[:, sel], ordered_keys, filtered.dt, filtered.dates
    )
    cov = estimate_covariance(matrix)
    result = pca(cov)
    n_factors = cfg.factors if cfg.factors is not None else select_factors(
        result.eigenvalues, cfg.threshold
    )
    model = build_sigma_star(result, n_factors, cfg.dt, column_keys=ordered_keys)
    model.save(cfg.path_model())

    explained = result.explained
    _write_csv(
        cfg.out_dir / "scree.csv",
        ["factor", "eigenvalue", "cumulative_share"],
        [
            [i + 1, _fmt(result.eigenvalues[i]), _fmt(explained[i])]
            for i in range(result.eigenvalues.size)
        ],
    )
    dropped = [k for k in filtered.column_keys if k not in set(ordered_keys)]
    report = [
        ("markets", ",".join(markets)),
        ("bucket_depth_months", depth),
        ("n_observations", cov.n_obs),
        ("n_factors", n_factors),
        ("explained_share", _fmt(explained[n_factors - 1])),
        ("outliers_removed", sum(removed.values())),
    ]
    for k in dropped:
        report.append(("column_excluded_from_grid", f"{k[0]}:{k[1]}"))
    _write_report(cfg.out_dir / "calibration_report.txt", report)
    print(
        f"wrote {cfg.path_model()} "
        f"(N={n_factors}, explains {100 * explained[n_factors - 1]:.2f}% of variance)"
    )


def _load_model_and_curves(cfg: RunConfig):
    """The calibrated model and each market's latest curve, as earlier stages wrote them."""
    return FactorModel.load(cfg.path_model()), _latest_curves(read_curve_csv(cfg.path_curves()))


def cmd_simulate(cfg: RunConfig, calibrated) -> None:
    """Simulate, reduce and sanity-check the configured paths in one pass.

    The forward modes stream their paths in blocks of grid times and never
    hold the whole path array; spot draws its path set whole and is reduced
    the same way. Nothing is written until every block has passed the value
    check.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    model, curves = calibrated
    sim_cfg = SimConfig(
        cfg.need_seed(), cfg.n_paths, cfg.sim_step(), cfg.horizon, cfg.antithetic
    )

    mode = cfg.sim_mode
    expected = None  # spot means track the curve, not the t=0 value
    if mode == "spot":
        fns = _curve_means(cfg, curves, model.markets, sim_cfg.time_grid)
        paths = simulate_spot(model, fns, sim_cfg)
        expected = np.column_stack([fns[mk] for mk in model.markets])
        keys, blocks = paths.product_keys, _path_blocks(paths)
    else:
        if mode == "fixed_delivery":
            products = [
                (mk, b) for mk in model.markets for b in range(1, model.buckets_per_market + 1)
            ]
            initial = [extract_fixed_delivery(_curve_for(cfg, curves, mk), b) for mk, b in products]
            law = _fixed_delivery_law(model, products, initial, sim_cfg)
        elif mode == "short_horizon":
            market = cfg.sim_market or model.markets[0]
            initial = [
                extract_fixed_delivery(_curve_for(cfg, curves, market), b)
                for b in range(1, model.buckets_per_market + 1)
            ]
            law = _short_horizon_law(model, market, initial, sim_cfg)
        else:  # swap
            market = cfg.sim_market or model.markets[0]
            contract = ContractDescriptor("swap", market, tau_start=cfg.swap_tau)
            initial = extract_fixed_delivery(
                _curve_for(cfg, curves, market), max(1, round(cfg.swap_tau * 12))
            )
            law = _swap_law(model, contract, initial, sim_cfg)
        keys, blocks = law.keys, _lognormal_blocks(law.rows, law.live, law.initial, sim_cfg)

    # export_paths = 0 exports, and so keeps, every path
    export = cfg.export_paths or sim_cfg.n_paths
    stats, report = _simulate_stage(blocks, keys, sim_cfg, model, export, expected)
    stats.write_paths(cfg.out_dir / "paths.csv")
    stats.write_summary(cfg.out_dir / "summary.csv")
    _write_sanity(cfg.out_dir / "sanity.txt", mode, sim_cfg, report)
    print(f"wrote {cfg.out_dir / 'paths.csv'}, summary.csv, sanity.txt")
    if not report.passed:
        raise SimulationError(
            "sanity check failed: " + "; ".join(report.failures[:3])
        )


def _write_sanity(path: Path, mode: str, sim_cfg: SimConfig, report: SanityReport) -> None:
    """sanity.txt: the run's mode, seed and path count, then the report's verdicts."""
    lines = [("mode", mode), ("seed", sim_cfg.seed), ("n_paths", sim_cfg.n_paths)]
    lines.append(("status", "passed" if report.passed else "failed"))
    for f in report.failures:
        lines.append(("failure", f))
    worst = np.max(
        np.abs(report.empirical_variance - report.theoretical_variance)
        / np.maximum(report.theoretical_variance, 1e-300)
    )
    lines.append(("worst_variance_rel_error", _fmt(worst)))
    _write_report(path, lines)


# ---------------------------------------------------------------------------
# Contract files
# ---------------------------------------------------------------------------

_REQUIRED = object()

# One flat key = value file per contract, declared key by key as
# (file key, contract field, kind, default). The default is _REQUIRED, a
# value, or a function of (the values read so far, the model). A field of
# None marks a market key, which takes its default also when left empty; a
# tuple of fields marks a sweep key, which re-prices the contract with each
# listed value in all of those fields.
_CONTRACT_KEYS = {
    "swing": (
        ("market", None, "str", lambda values, model: model.markets[0]),
        ("n_days", "n_days", "int", 30),
        ("u_max", "u_max", "int", 1),
        ("d_max", "d_max", "int", 1),
        ("K", "strike", "float", _REQUIRED),
        ("Q", "quantity", "float", 1.0),
        ("sweep_rights", ("u_max", "d_max"), "list[int]", ()),
    ),
    "vpp": (
        ("power_market", None, "str", lambda values, model: model.markets[0]),
        ("fuel_market", None, "str", lambda values, model: model.markets[-1]),
        ("n_hours", "n_hours", "int", 168),
        ("t_on", "t_on", "int", 1),
        ("t_off", "t_off", "int", 1),
        ("q_min", "q_min", "float", 0.0),
        ("q_max", "q_max", "float", _REQUIRED),
        ("S_u", "start_cost", "float", 0.0),
        ("S_d", "stop_cost", "float", 0.0),
        ("H", "heat_rate", "float", 1.0),
        ("sweep_lock_hours", ("t_on", "t_off"), "list[int]", ()),
    ),
    "storage": (
        ("market", None, "str", lambda values, model: model.markets[0]),
        ("n_days", "n_days", "int", 30),
        ("v_min", "v_min", "float", _REQUIRED),
        ("v_max", "v_max", "float", _REQUIRED),
        ("v_0", "v_start", "float", _REQUIRED),
        ("v_target", "v_target", "float", lambda values, model: values["v_0"]),
        ("i_min", "withdraw_rate", "float", _REQUIRED),
        ("i_max", "inject_rate", "float", _REQUIRED),
        ("penalty_scale", "penalty_scale", "float", 2.0),
    ),
}


def _read_contract(cfg: RunConfig, name: str, model) -> dict:
    """Every declared key of the named contract file: its parsed value, else its default."""
    path, keys = getattr(cfg, name), _CONTRACT_KEYS[name]
    kinds = {key: kind for key, _, kind, _ in keys}
    values = {}
    for key, raw in _read_flat_config(path).items():
        if key not in kinds:
            raise ValidationError(f"{path}: unknown contract key {key!r}")
        values[key] = _parse_value(f"{path}: contract key {key!r}", raw, kinds[key])
    for key, _, _, default in keys:
        if values.get(key, "") != "":
            continue
        if default is _REQUIRED:
            raise ValidationError(f"{path}: missing required contract key {key!r}")
        values[key] = default(values, model) if callable(default) else default
    return values


def _contract(cls, name: str, values: dict):
    return cls(**{f: values[key] for key, f, _, _ in _CONTRACT_KEYS[name] if isinstance(f, str)})


def _sweep(name: str, values: dict, contract, headline, price):
    """(entry, result) for each entry of the contract's sweep keys.

    An entry that leaves the contract as it is reuses the headline result:
    the pricers are deterministic on the same paths.
    """
    for key, swept, _, _ in _CONTRACT_KEYS[name]:
        if isinstance(swept, tuple):
            for entry in values[key]:
                varied = replace(contract, **dict.fromkeys(swept, entry))
                yield entry, headline if varied == contract else price(varied)


def _contract_markets(name: str, values: dict) -> list[str]:
    """The contract's markets, in declaration order, each once."""
    return list(dict.fromkeys(values[key] for key, f, _, _ in _CONTRACT_KEYS[name] if f is None))


def _contract_paths(cfg: RunConfig, model, curves, name, spec, points, per_year, seed):
    """Spot paths of the contract's markets: ``points`` grid times 1/per_year
    apart, drawn at ``seed``; product i is market i of _contract_markets."""
    markets = _contract_markets(name, spec)
    sim_cfg = SimConfig(seed, cfg.n_paths, 1.0 / per_year, (points - 1) / per_year, cfg.antithetic)
    means = _curve_means(cfg, curves, markets, sim_cfg.time_grid)
    return simulate_spot(model, means, sim_cfg, markets)


def _write_price(cfg: RunConfig, name, spec, lines, sweep_header=(), sweep_rows=()) -> None:
    """price_<name>.txt: the contract's file keys in declaration order, sweeps
    left out, the run's sampling settings, then the result lines; and
    price_<name>_sweep.csv when the contract has sweep rows."""
    head = [("contract", name)]
    for key, f, kind, _ in _CONTRACT_KEYS[name]:
        if not isinstance(f, tuple):
            head.append((key, _fmt(spec[key]) if kind == "float" else spec[key]))
    head += [("seed", cfg.seed), ("n_paths", cfg.n_paths), ("rate", _fmt(cfg.rate))]
    _write_report(cfg.out_dir / f"price_{name}.txt", head + lines)
    if sweep_rows:
        _write_csv(cfg.out_dir / f"price_{name}_sweep.csv", sweep_header, sweep_rows)


def _price_swing(cfg: RunConfig, model, curves, spec: dict, contract: SwingContract) -> None:
    seed = cfg.need_seed()
    paths = _contract_paths(cfg, model, curves, "swing", spec, contract.n_days, _DAYS_PER_YEAR, seed)
    plan = _RegressionPlan()  # the sweep prices one spot window

    def price(c):
        return price_swing(c, paths, cfg.rate, plan=plan)

    res = price(contract)
    lines = [
        ("value", _fmt(res.lsmc.value)),
        ("std_error", _fmt(res.lsmc.std_error)),
        ("lower_bound", _fmt(res.lower_bound)),
        ("lower_bound_std_error", _fmt(res.lower_bound_std_error)),
        ("upper_bound", _fmt(res.upper_bound)),
        ("upper_bound_std_error", _fmt(res.upper_bound_std_error)),
    ]
    rows = [
        [rights, _fmt(r.lsmc.value), _fmt(r.lsmc.std_error), _fmt(r.lower_bound), _fmt(r.upper_bound)]
        for rights, r in _sweep("swing", spec, contract, res, price)
    ]
    header = ["rights", "value", "std_error", "lower_bound", "upper_bound"]
    _write_price(cfg, "swing", spec, lines, header, rows)
    print(f"swing value {res.lsmc.value:.6g} (se {res.lsmc.std_error:.3g})")


def _price_vpp(cfg: RunConfig, model, curves, spec: dict, contract: VppContract) -> None:
    seed = cfg.need_seed()
    paths = _contract_paths(cfg, model, curves, "vpp", spec, contract.n_hours, _HOURS_PER_YEAR, seed)
    fuel = len(paths.product_keys) - 1  # one market when fuel is the power market
    plan = _RegressionPlan()  # the sweep prices one spread

    def price(c):
        return price_vpp(c, paths, paths, cfg.rate, power_product=0, fuel_product=fuel, plan=plan)

    res = price(contract)
    lines = [
        ("value", _fmt(res.lsmc.value)),
        ("std_error", _fmt(res.lsmc.std_error)),
        ("naive", _fmt(res.naive)),
        ("naive_std_error", _fmt(res.naive_std_error)),
        ("upper_bound", _fmt(res.upper_bound)),
        ("upper_bound_std_error", _fmt(res.upper_bound_std_error)),
    ]
    rows = [
        [lock, lock, _fmt(r.lsmc.value), _fmt(r.lsmc.std_error), _fmt(r.naive), _fmt(r.upper_bound)]
        for lock, r in _sweep("vpp", spec, contract, res, price)
    ]
    header = ["t_on", "t_off", "value", "std_error", "naive", "upper_bound"]
    _write_price(cfg, "vpp", spec, lines, header, rows)
    print(f"vpp value {res.lsmc.value:.6g} (se {res.lsmc.std_error:.3g})")


def _price_storage(cfg: RunConfig, model, curves, spec: dict, contract: StorageContract) -> None:
    seed, points = cfg.need_seed(), contract.n_days + 1
    paths = _contract_paths(cfg, model, curves, "storage", spec, points, _DAYS_PER_YEAR, seed)
    fresh_seed = (seed + 1) % 2**64
    fresh = _contract_paths(cfg, model, curves, "storage", spec, points, _DAYS_PER_YEAR, fresh_seed)
    res = price_storage(contract, paths, fresh, cfg.rate)
    lines = [
        ("deterministic", _fmt(res.deterministic)),
        ("deterministic_std_error", _fmt(res.deterministic_std_error)),
        ("sdp_value", _fmt(res.sdp.value)),
        ("sdp_std_error", _fmt(res.sdp.std_error)),
        ("out_of_sample", _fmt(res.out_of_sample.value)),
        ("out_of_sample_std_error", _fmt(res.out_of_sample.std_error)),
        ("volume_grid_min", _fmt(res.volume_grid[0])),
        ("volume_grid_max", _fmt(res.volume_grid[-1])),
        ("volume_grid_points", res.volume_grid.size),
        ("grid_truncated_low", str(res.truncated_low).lower()),
        ("grid_truncated_high", str(res.truncated_high).lower()),
    ]
    _write_price(cfg, "storage", spec, lines)
    print(
        f"storage sdp {res.sdp.value:.6g}, deterministic {res.deterministic:.6g}, "
        f"out-of-sample {res.out_of_sample.value:.6g}"
    )


# each contract's class, the key of its window, the shortest window it
# prices, and its price stage
_CONTRACT_STAGES = {
    "swing": (SwingContract, "n_days", 2, _price_swing),
    "vpp": (VppContract, "n_hours", 2, _price_vpp),
    "storage": (StorageContract, "n_days", 1, _price_storage),
}


def _configured_contracts(cfg: RunConfig, model) -> list[tuple]:
    """(price stage, file values, contract) of each configured contract,
    checked before any path is drawn: its keys and fields, its markets
    against the model, and the path count against its regressions.

    The path rule is lsmc_continuation's: at least min_samples_per_dim
    samples per basis function. It assumes simulated prices are
    continuous, so distinct across paths at every step after step 0,
    where all paths start from one price: every regression past step 0
    then uses the full basis. A 1-day storage contract regresses only at
    step 0, and a VPP whose fuel is its power market at H = 1 only on a
    zero spread; both need one basis function only.
    """
    lsmc = LsmcSettings()
    contracts = []
    for name, (cls, window, shortest, price) in _CONTRACT_STAGES.items():
        if not getattr(cfg, name):
            continue
        spec = _read_contract(cfg, name, model)
        if spec[window] < shortest:
            raise ValidationError(f"{name} contract: {window} must be at least {shortest}")
        contract = _contract(cls, name, spec)
        for market in _contract_markets(name, spec):
            model.row_index(market, 1)  # an unknown market raises here
        constant = (name == "storage" and spec["n_days"] == 1) or (
            name == "vpp" and spec["power_market"] == spec["fuel_market"] and spec["H"] == 1.0
        )
        need = lsmc.min_samples_per_dim * (1 if constant else lsmc.degree + 1)
        if cfg.n_paths < need:
            raise ValidationError(
                f"n_paths = {cfg.n_paths} is too few for the {name} contract: "
                f"its continuation regressions need at least {need} paths"
            )
        contracts.append((price, spec, contract))
    return contracts


def _pricing_inputs(cfg: RunConfig):
    """The calibrated model and curves, and the checked configured contracts,
    once some contract file is configured."""
    if not (cfg.vpp or cfg.swing or cfg.storage):
        raise ValidationError("no contract files configured (vpp/swing/storage)")
    model, curves = _load_model_and_curves(cfg)
    return model, curves, _configured_contracts(cfg, model)


def cmd_price(cfg: RunConfig, inputs) -> None:
    """Price each contract of _configured_contracts on the calibrated model and curves."""
    model, curves, contracts = inputs
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for price, spec, contract in contracts:
        price(cfg, model, curves, spec, contract)


def cmd_pipeline(cfg: RunConfig) -> None:
    """Run every stage on one parse and bootstrap of the quotes.

    Each stage is handed what the stage before it wrote, exactly as the
    file reads back: the panels of this run (not older ones beside them) and
    each market's latest curve. model.json is the one file read back. The
    quotes and boards are dropped once ingest and curve have written theirs.
    """
    loaded = _load_boards(cfg)  # one parse and one bootstrap per board
    panels = cmd_ingest(cfg, loaded)
    cmd_curve(cfg, loaded)
    latest = _latest_curves({key: curve for key, (_, curve, _) in loaded[2].items()})
    curves = {market: _curve_as_written(curve) for market, curve in latest.items()}
    del loaded, latest
    cmd_calibrate(cfg, panels)
    calibrated = FactorModel.load(cfg.path_model()), curves
    contracts = _configured_contracts(cfg, calibrated[0])  # fail before any path is drawn
    cmd_simulate(cfg, calibrated)
    if contracts:
        cmd_price(cfg, (*calibrated, contracts))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are validation failures, exit 1
        raise ValidationError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="hjmkit",
        description="Forward curve bootstrap, factor calibration, Monte Carlo and pricing",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="flat key=value run configuration file")
    parser.add_argument("--seed", type=int, help="random seed (required to simulate/price)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--paths", type=int, dest="n_paths", help="Monte Carlo path count")
    parser.add_argument("--threshold", type=float, help="explained-variance threshold")
    parser.add_argument("--factors", type=int, help="override retained factor count")
    try:
        args = parser.parse_args(argv)
        cfg = load_run_config(
            args.config,
            seed=args.seed,
            out=args.out,
            n_paths=args.n_paths,
            threshold=args.threshold,
            factors=args.factors,
        )
        started = time.perf_counter()
        stage, load = {  # each command's stage and the loader of the inputs it is handed
            "ingest": (cmd_ingest, _load_boards),
            "curve": (cmd_curve, _load_boards),
            "calibrate": (cmd_calibrate, _load_panels),
            "simulate": (cmd_simulate, _load_model_and_curves),
            "price": (cmd_price, _pricing_inputs),
            "pipeline": (cmd_pipeline, None),
        }[args.command]
        if load is None:
            stage(cfg)
        else:
            stage(cfg, load(cfg))
        print(f"[{args.command}] completed in {time.perf_counter() - started:.2f}s")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HjmkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
