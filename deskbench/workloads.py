"""The three benchmark workloads: seeded inputs, one pass, output checks.

Each workload is a closed loop in one process: the next pass starts only
after the previous one has finished and been checked.

* ``desk_fixture``: ``hjmkit pipeline`` on the committed fixture config
  (2 markets, 2000 paths, swing/VPP/storage contracts with their sweeps).
  Pricing dominates: many resource states over few steps (the swing grid).
* ``nightly_risk``: ``hjmkit pipeline`` with no contracts on a seeded
  one-year, three-market quote history (M0-M6, 4 quarters, 2 years quoted
  every weekday) and a 2500-path one-year daily fixed-delivery run. Quote
  parsing, curve bootstrap, artifact I/O and the forward simulator do the
  work; pricing does none.
* ``hourly_dispatch`` (runnable by hand, not listed in BENCHMARK.json: its
  pass time spread between seeds exceeded the bound on a shared 2-core
  host): library calls, no CLI. A seeded two-factor model
  drives a joint hourly spot simulation over six weeks (1008 hours, 500
  paths), then a sanity check and one VPP valuation (few
  states over many steps). No market data or curve code runs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import inputs

# Relative tolerance for headline values against the values recorded at
# the reference seed (reference.json); loose enough for reordered
# floating-point sums, far tighter than any Monte Carlo error.
REFERENCE_RTOL = 1e-6
# Largest relative curve residual accepted from an exact bootstrap.
MAX_RESIDUAL = 1e-9
# Slack for "a <= b" relations between values computed on the same paths.
BOUND_RTOL = 1e-9


class Ledger:
    """Operations attempted and failed; an operation is a CLI command,
    generator or pricer call, or one output check."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}" if detail else name)
        return ok


def _read_report(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        pairs.setdefault(key, value)
    return pairs


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _attempt(ledger: Ledger, name: str, fn, *args, **kwargs):
    """Call fn, counting the call as one operation; None if it raised."""
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # a failed call is counted, the loop goes on
        ledger.check(name, False, repr(exc))
        return None
    ledger.check(name, True)
    return value


def _le(a: float, b: float) -> bool:
    return a <= b + BOUND_RTOL * max(1.0, abs(a), abs(b))


def artifact_digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Pipeline workloads
# ---------------------------------------------------------------------------


class PipelineWorkload:
    """``hjmkit pipeline`` on a config written with absolute paths."""

    pipeline = True

    def __init__(self, root: Path):
        self.root = root
        import hjmkit.cli  # noqa: F401 - loaded before a pass, as the CLI has it

    def run_pass(self, inp: dict, out: Path, ledger: Ledger) -> dict:
        from hjmkit import cli

        argv = ["pipeline", "--config", str(inp["conf"]), "--seed", str(inp["seed"]), "--out", str(out)]
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # a failed command is counted, the loop goes on
            err.write(repr(exc))
            rc = None
        ledger.check("exit code", rc == 0, f"pipeline exited {rc}: {err.getvalue().strip()}")
        return {"rc": rc}

    def check(self, inp: dict, result: dict, out: Path, ledger: Ledger) -> None:
        if result["rc"] != 0:
            return
        rows = _read_csv(out / "curve_report.csv")
        worst = max(float(r["max_residual"]) for r in rows)
        ledger.check("curve residual", worst <= MAX_RESIDUAL, f"max_residual {worst:.3g}")
        status = _read_report(out / "sanity.txt").get("status")
        ledger.check("sanity", status == "passed", f"sanity status {status}")

    def headline(self, result: dict, out: Path) -> dict[str, float]:
        """Numeric report values compared against the reference seed."""
        if result["rc"] != 0:
            return {}
        values = {}
        for report in sorted(out.glob("*.txt")):
            for key, raw in _read_report(report).items():
                try:
                    values[f"{report.stem}.{key}"] = float(raw)
                except ValueError:
                    continue
        return values


class DeskFixture(PipelineWorkload):
    name = "desk_fixture"
    reference_seed = 20210701  # the seed committed in fixtures/pipeline.conf

    def build(self, seed: int, work: Path) -> dict:
        """The committed fixture config, rewritten with absolute paths."""
        fixtures = self.root / "fixtures"
        lines = []
        for line in (fixtures / "pipeline.conf").read_text().splitlines():
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if sep and key in ("quotes", "swing", "vpp", "storage"):
                line = f"{key} = {(self.root / value).resolve()}"
            elif sep and key == "out":
                line = f"out = {work / 'out'}"
            lines.append(line)
        conf = work / "desk.conf"
        conf.write_text("\n".join(lines) + "\n")
        return {"conf": conf, "seed": seed}

    def check(self, inp: dict, result: dict, out: Path, ledger: Ledger) -> None:
        super().check(inp, result, out, ledger)
        if result["rc"] != 0:
            return
        sw = {k: float(v) for k, v in _read_report(out / "price_swing.txt").items() if k not in ("contract", "market")}
        slack = 3.0 * math.hypot(sw["std_error"], sw["lower_bound_std_error"])
        ledger.check(
            "swing bounds",
            sw["lower_bound"] - slack <= sw["value"] and _le(sw["value"], sw["upper_bound"]),
            f"lower {sw['lower_bound']} - 3se, value {sw['value']}, strip {sw['upper_bound']}",
        )
        for row in _read_csv(out / "price_swing_sweep.csv"):
            v, lb, ub = float(row["value"]), float(row["lower_bound"]), float(row["upper_bound"])
            ledger.check(
                f"swing sweep bounds r{row['rights']}",
                lb - 3.0 * float(row["std_error"]) <= v and _le(v, ub),
                f"lower {lb}, value {v}, strip {ub}",
            )
        vpp = _read_report(out / "price_vpp.txt")
        rows = [(vpp["value"], vpp["naive"], vpp["upper_bound"])]
        rows += [(r["value"], r["naive"], r["upper_bound"]) for r in _read_csv(out / "price_vpp_sweep.csv")]
        for i, (v, f, ub) in enumerate(rows):
            v, f, ub = float(v), float(f), float(ub)
            ledger.check(f"vpp bounds {i}", _le(v, f) and _le(f, ub), f"value {v}, foresight {f}, strip {ub}")
        st = _read_report(out / "price_storage.txt")
        ledger.check(
            "storage bounds",
            _le(float(st["sdp_value"]), float(st["deterministic"])),
            f"sdp {st['sdp_value']} vs deterministic {st['deterministic']}",
        )

    def estimate(self, result: dict, out: Path):
        if result["rc"] != 0:
            return None
        sw = _read_report(out / "price_swing.txt")
        return float(sw["value"]), float(sw["std_error"])


class NightlyRisk(PipelineWorkload):
    name = "nightly_risk"
    reference_seed = 1
    N_DAYS = 260
    N_PATHS = 2500

    def build(self, seed: int, work: Path) -> dict:
        quotes = work / "quotes.csv"
        inputs.write_quote_history(quotes, seed, n_days=self.N_DAYS)
        conf = work / "nightly.conf"
        conf.write_text(
            "\n".join(
                [
                    f"quotes = {quotes}",
                    f"out = {work / 'out'}",
                    "markets = DE,TTF,NBP",
                    "n_month_tenors = 7",
                    "n_quarter_tenors = 4",
                    "n_year_tenors = 2",
                    f"dt = {inputs.DT!r}",
                    f"n_paths = {self.N_PATHS}",
                    f"step = {inputs.DT!r}",
                    "horizon = 1.0",
                    "sim_mode = fixed_delivery",
                ]
            )
            + "\n"
        )
        return {"conf": conf, "seed": seed}

    def headline(self, result: dict, out: Path) -> dict[str, float]:
        """Report values plus each product's simulated mean at the horizon."""
        values = super().headline(result, out)
        if not values:
            return values
        rows = _read_csv(out / "summary.csv")
        horizon = rows[-1]["time"]
        for row in rows:
            if row["time"] == horizon:
                values[f"summary.{row['product_key']}.mean"] = float(row["mean"])
        return values

    def estimate(self, result: dict, out: Path):
        return None


# ---------------------------------------------------------------------------
# Library workload
# ---------------------------------------------------------------------------


class HourlyDispatch:
    name = "hourly_dispatch"
    pipeline = False
    reference_seed = 1
    N_HOURS = 1008
    N_PATHS = 500
    HEAT_RATE = 2.0

    def __init__(self, root: Path):
        self.root = root

    def build(self, seed: int, work: Path) -> dict:
        from hjmkit.calibration import FactorModel

        model = FactorModel(**inputs.hourly_model(seed))
        curves = inputs.hourly_curves(seed, self.N_HOURS, self.HEAT_RATE)
        return {"seed": seed, "model": model, "curves": curves}

    def run_pass(self, inp: dict, out: Path, ledger: Ledger) -> dict:
        from hjmkit import pricing, simulation

        model, curves = inp["model"], inp["curves"]
        hours = 1.0 / (365.0 * 24.0)
        # plain paths: sanity_check's variance tolerance assumes independent
        # paths, and antithetic pairs make it fail spuriously on some seeds
        cfg = simulation.SimConfig(inp["seed"], self.N_PATHS, hours, (self.N_HOURS - 1) * hours)
        contract = pricing.VppContract(self.N_HOURS, 8, 8, 10.0, 50.0, 100.0, 50.0, self.HEAT_RATE)
        result = {"report": None, "vpp": None}
        paths = _attempt(ledger, "simulate_spot", simulation.simulate_spot, model, curves, cfg)
        if paths is None:
            return result
        expected = np.column_stack([curves[mk] for mk in model.markets])
        result["report"] = _attempt(
            ledger, "sanity_check", simulation.sanity_check, paths, model, expected_mean=expected
        )
        result["vpp"] = _attempt(
            ledger, "price_vpp", pricing.price_vpp, contract, paths, paths, 0.0, power_product=0, fuel_product=1
        )
        return result

    def check(self, inp: dict, result: dict, out: Path, ledger: Ledger) -> None:
        report = result["report"]
        if report is not None:
            ledger.check("sanity", report.passed, "; ".join(report.failures[:3]))
        res = result["vpp"]
        if res is not None:
            v, f, ub = res.lsmc.value, res.naive, res.upper_bound
            ledger.check("vpp bounds", _le(v, f) and _le(f, ub), f"value {v}, foresight {f}, strip {ub}")

    def headline(self, result: dict, out: Path) -> dict[str, float]:
        res = result["vpp"]
        if res is None:
            return {}
        return {
            "vpp.value": res.lsmc.value,
            "vpp.std_error": res.lsmc.std_error,
            "vpp.naive": res.naive,
            "vpp.upper_bound": res.upper_bound,
        }

    def estimate(self, result: dict, out: Path):
        res = result["vpp"]
        return (res.lsmc.value, res.lsmc.std_error) if res is not None else None


WORKLOADS = {w.name: w for w in (DeskFixture, NightlyRisk, HourlyDispatch)}
