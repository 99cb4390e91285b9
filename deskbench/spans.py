"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions of the hjmkit modules are wrapped in every module that
binds them (``hjmkit.cli`` imports ``simulate_spot``, ``price_swing`` and
the rest at load, so patching only the defining module would miss
CLI-driven calls). Private helpers such as ``pricing._backward_induction``
stay unwrapped and count as the calling layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (layer, public name) pairs; "Class.method" wraps a method on the class.
TARGETS = [
    ("marketdata", "parse_quotes"),
    ("marketdata", "build_relative_panel"),
    ("marketdata", "log_returns"),
    ("marketdata", "combine_log_returns"),
    ("marketdata", "filter_outliers"),
    ("marketdata", "acf"),
    ("marketdata", "normality_diagnostics"),
    ("marketdata", "write_panel_csv"),
    ("marketdata", "read_panel_csv"),
    ("curve", "bootstrap_monthly_curve"),
    ("curve", "verify_no_arbitrage"),
    ("curve", "write_curve_csv"),
    ("curve", "read_curve_csv"),
    ("calibration", "estimate_covariance"),
    ("calibration", "pca"),
    ("calibration", "select_factors"),
    ("calibration", "build_sigma_star"),
    ("calibration", "correlation_surface"),
    ("calibration", "FactorModel.save"),
    ("calibration", "FactorModel.load"),
    ("simulation", "simulate_fixed_delivery"),
    ("simulation", "simulate_short_horizon"),
    ("simulation", "simulate_swap"),
    ("simulation", "simulate_spot"),
    ("simulation", "sanity_check"),
    ("simulation", "write_paths_csv"),
    ("simulation", "write_summary_csv"),
    ("pricing", "price_swing"),
    ("pricing", "price_vpp"),
    ("pricing", "price_storage"),
    ("pricing", "american_option"),
    ("pricing", "lsmc_continuation"),
    ("cli", "main"),
    ("cli", "cmd_pipeline"),
    ("cli", "cmd_ingest"),
    ("cli", "cmd_curve"),
    ("cli", "cmd_calibrate"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_price"),
]

WRITERS = {
    "marketdata.write_panel_csv",
    "curve.write_curve_csv",
    "calibration.FactorModel.save",
    "simulation.write_paths_csv",
    "simulation.write_summary_csv",
}
READERS = {"marketdata.read_panel_csv", "curve.read_curve_csv", "calibration.FactorModel.load"}
GENERATORS = {
    "simulation.simulate_fixed_delivery",
    "simulation.simulate_short_horizon",
    "simulation.simulate_swap",
    "simulation.simulate_spot",
}


def _sizes(name: str, args, result) -> dict:
    """Call sizes worth reading cost against: paths, steps, products, states, rights."""
    short = name.split(".", 1)[1]
    if name in GENERATORS:
        n_paths, n_points, n_products = result.values.shape
        return {
            "paths": n_paths,
            "points": n_points,
            "products": n_products,
            "values_computed": int(result.values.size),
            "bytes_computed": int(result.values.nbytes),
        }
    if short == "price_swing":
        c = args[0]
        return {
            "rights": c.u_max if c.u_max == c.d_max else None,
            "states": (c.u_max + 1) * (c.d_max + 1),
            "steps": c.n_days,
            "paths": args[1].n_paths,
        }
    if short == "price_vpp":
        c = args[0]
        return {
            "lock": c.t_on if c.t_on == c.t_off else None,
            "states": c.t_on + c.t_off,
            "steps": c.n_hours,
            "paths": args[1].n_paths,
            "passes": 2,  # fitted policy plus perfect foresight
        }
    if short == "price_storage":
        return {
            "states": int(result.volume_grid.size),
            "steps": args[0].n_days,
            "paths": args[1].n_paths,
            "passes": 2,
        }
    if short == "lsmc_continuation":
        return {"samples": int(len(args[0])), "ridge": bool(result.ridge_used)}
    if short == "parse_quotes":
        return {"quotes": len(result[0])}
    if short == "filter_outliers":
        return {"removed": int(sum(result[1].values()))}
    if short == "bootstrap_monthly_curve":
        curve = result[0]
        return {"key": f"{curve.market}:{curve.as_of.isoformat()}"}
    if short == "verify_no_arbitrage":
        return {"residual": float(result)}
    return {}


class SpanRecorder:
    """Keeps spans in memory; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.pass_id = None

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "pass": self.pass_id,
                "name": name,
                "parent": stack[-1] if stack else None,
                "start": time.perf_counter(),
                "end": None,
                "error": None,
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span["sizes"] = _sizes(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each target in the loaded hjmkit modules."""
        import hjmkit.calibration

        modules = [m for n, m in list(sys.modules.items()) if n == "hjmkit" or n.startswith("hjmkit.")]
        for layer, attr in TARGETS:
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(hjmkit.calibration, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            home = sys.modules.get(f"hjmkit.{layer}")
            if home is None:  # a layer the workload never imports
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


def pass_metrics(spans: list[dict], wall: float) -> dict:
    """Per-layer metrics of one traced pass (spans of that pass only)."""
    own = self_times(spans)
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    name_of = {s["id"]: s["name"] for s in spans}
    by_name = defaultdict(list)  # outermost calls only: parse_quotes recurses
    for s in spans:
        if name_of.get(s["parent"]) != s["name"]:
            by_name[s["name"]].append(s)

    def incl(*names):
        return sum(dur[s["id"]] for n in names for s in by_name[n])

    def self_of(*names):
        return sum(own[s["id"]] for n in names for s in by_name[n])

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    m = {}
    layers = ["marketdata", "curve", "calibration", "simulation", "pricing", "cli"]
    for layer in layers:
        m[f"{layer}.self_s"] = sum(own[s["id"]] for s in spans if s["name"].startswith(layer + "."))
    attributed = sum(m[f"{layer}.self_s"] for layer in layers)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - attributed

    # cli: inclusive command times and their self times, artifact I/O
    for cmd in ("ingest", "curve", "calibrate", "simulate", "price"):
        m[f"cli.{cmd}_s"] = incl(f"cli.cmd_{cmd}")
        m[f"cli.{cmd}_self_s"] = self_of(f"cli.cmd_{cmd}")
    m["cli.write_s"] = incl(*WRITERS)
    m["cli.read_s"] = incl(*READERS)

    # marketdata
    m["marketdata.parse_s"] = incl("marketdata.parse_quotes")
    m["marketdata.parse_calls"] = count("marketdata.parse_quotes")
    m["marketdata.quotes_parsed"] = sum(s["sizes"]["quotes"] for s in by_name["marketdata.parse_quotes"])
    m["marketdata.panel_s"] = incl("marketdata.build_relative_panel")
    m["marketdata.returns_s"] = incl("marketdata.log_returns", "marketdata.combine_log_returns")
    m["marketdata.outlier_s"] = incl("marketdata.filter_outliers")
    m["marketdata.outliers_removed"] = sum(s["sizes"]["removed"] for s in by_name["marketdata.filter_outliers"])

    # curve: useful work is one bootstrap per distinct (market, date)
    boots = by_name["curve.bootstrap_monthly_curve"]
    m["curve.bootstrap_s"] = incl("curve.bootstrap_monthly_curve")
    m["curve.bootstrap_calls"] = len(boots)
    m["curve.curves"] = len({s["sizes"]["key"] for s in boots})
    m["curve.bootstrap_per_curve"] = len(boots) / m["curve.curves"] if boots else 0.0
    m["curve.verify_s"] = incl("curve.verify_no_arbitrage")
    m["curve.max_residual"] = max(
        (s["sizes"]["residual"] for s in by_name["curve.verify_no_arbitrage"]), default=0.0
    )

    # calibration
    m["calibration.covariance_s"] = incl("calibration.estimate_covariance")
    m["calibration.pca_s"] = incl("calibration.pca", "calibration.select_factors", "calibration.build_sigma_star")
    m["calibration.correlation_s"] = incl("calibration.correlation_surface")

    # simulation; byte and value counts are computed from array shapes
    gens = [s for n in GENERATORS for s in by_name[n]]
    fd = by_name["simulation.simulate_fixed_delivery"]
    spot = by_name["simulation.simulate_spot"]
    m["simulation.fixed_delivery_s"] = incl("simulation.simulate_fixed_delivery")
    m["simulation.spot_s"] = incl("simulation.simulate_spot")
    m["simulation.sanity_s"] = incl("simulation.sanity_check")
    m["simulation.path_values_computed"] = sum(s["sizes"]["values_computed"] for s in gens)
    m["simulation.path_bytes_computed"] = sum(s["sizes"]["bytes_computed"] for s in gens)
    gen_s = incl(*GENERATORS)
    m["simulation.values_per_s"] = m["simulation.path_values_computed"] / gen_s if gen_s else 0.0
    for key, group in (("fixed_delivery", fd), ("spot", spot)):
        secs = sum(dur[s["id"]] for s in group)
        vals = sum(s["sizes"]["values_computed"] for s in group)
        m[f"simulation.{key}_values_per_s"] = vals / secs if secs else 0.0

    # pricing
    swings = by_name["pricing.price_swing"]
    vpps = by_name["pricing.price_vpp"]
    stores = by_name["pricing.price_storage"]
    m["pricing.swing_s"] = incl("pricing.price_swing")
    for rights in sorted({s["sizes"]["rights"] for s in swings if s["sizes"]["rights"] is not None}):
        calls = [dur[s["id"]] for s in swings if s["sizes"]["rights"] == rights]
        m[f"pricing.swing_s.r{rights}"] = sum(calls) / len(calls)
    m["pricing.american_s"] = incl("pricing.american_option")
    m["pricing.vpp_s"] = incl("pricing.price_vpp")
    for lock in sorted({s["sizes"]["lock"] for s in vpps if s["sizes"]["lock"] is not None}):
        calls = [dur[s["id"]] for s in vpps if s["sizes"]["lock"] == lock]
        m[f"pricing.vpp_s.lock{lock}"] = sum(calls) / len(calls)
    m["pricing.storage_s"] = incl("pricing.price_storage")
    m["pricing.state_steps"] = sum(
        s["sizes"]["states"] * s["sizes"]["steps"] * s["sizes"].get("passes", 1)
        for s in swings + vpps + stores
    )
    pricer_s = incl("pricing.price_swing", "pricing.price_vpp", "pricing.price_storage")
    m["pricing.state_steps_per_s"] = m["pricing.state_steps"] / pricer_s if pricer_s else 0.0
    regs = by_name["pricing.lsmc_continuation"]
    m["pricing.regressions"] = len(regs)
    m["pricing.regression_s"] = incl("pricing.lsmc_continuation")
    m["pricing.ridge_fallbacks"] = sum(1 for s in regs if s["sizes"]["ridge"])
    m["pricing.ridge_share"] = m["pricing.ridge_fallbacks"] / len(regs) if regs else 0.0
    return m


def scaling_rows(spans: list[dict]) -> list[dict]:
    """Cost against size for the sweeps the workloads already run."""
    rows = []
    for s in spans:
        if s["name"] in ("pricing.price_swing", "pricing.price_vpp", "pricing.price_storage", "simulation.simulate_spot"):
            rows.append({"name": s["name"], "seconds": s["end"] - s["start"], **s["sizes"]})
    return rows

