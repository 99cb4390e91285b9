"""hjmkit desk benchmark: one workload per invocation, run from the repo root.

    python3 deskbench/run.py --workload desk_fixture --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py): desk_fixture and nightly_risk are the ones
BENCHMARK.json lists; hourly_dispatch runs the same way by hand (its pass
time spread between seeds on a shared 2-core host exceeded the bound).
Each runs as a closed loop in its own fresh worker process, so peak RSS and
set-up time belong to that workload alone; four more fresh processes only
import hjmkit and build the inputs, two before the worker and two after it,
so the set-up median samples the whole run and not one moment of a shared
host whose speed drifts.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` (median of the fresh-process set-ups), ``wall_s`` (median warm
pass) and ``peak_rss_mb``. With ``--trace 1`` it carries the per-layer
metrics of BENCHMARK.json, taken from traced passes that alternate with
untraced ones in the same process. The line before it is a full report:
environment, pass samples, ``fail_ratio``, ``time_to_1pct_s``, every
per-layer metric and the scaling rows read from the spans. Traced runs
also dump their spans to ``deskbench/.work/spans_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk_fixture", "nightly_risk", "hourly_dispatch")
SETUP_PROCESSES = 4  # half before the worker, half after: five set-up samples
DEADLINE_S = 170.0  # every run must end within 180 s
REQUIRED = ("src/hjmkit/__init__.py", "src/hjmkit/cli.py", "fixtures/pipeline.conf")


def _child_env() -> dict[str, str]:
    """Worker environment with one BLAS thread.

    hjmkit's matrices are small (LSMC regressions of a few thousand rows):
    on a 2-vCPU host a second OpenBLAS thread spun on the other vCPU for
    about 70% of a desk_fixture pass without making the pass faster, and
    tied the pass time to both vCPUs' share of a shared host.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(argv: list[str], env: dict, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an hjmkit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = _child_env()
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup(i: int) -> dict:
        return _worker(["setup", *common, "--work", str(work / f"setup{i}")], env, deadline)

    try:
        setups = [setup(i) for i in range(SETUP_PROCESSES // 2)]
        run_argv = ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        run_argv += ["--work", str(work / "run")]
        if args.trace:
            run_argv += ["--span-file", str(HERE / ".work" / f"spans_{args.workload}.json")]
        run = _worker(run_argv, env, deadline)
        setups += [setup(i) for i in range(SETUP_PROCESSES // 2, SETUP_PROCESSES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append({"import_s": run["import_s"], "setup_s": run["setup_s"]})
    walls = run["walls"]
    wall_s = statistics.median(walls)
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": wall_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    failed = len(run["failed"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "env": run["env"],
        "samples": {"setup_s": len(setups), "wall_s": len(walls), "traced_wall_s": len(run["traced_walls"])},
        "setups": [s["setup_s"] for s in setups],
        "walls": walls,
        "traced_walls": run["traced_walls"],
        "cold_pass_s": run["cold_s"],
        "fail_ratio": failed / run["attempted"],
        "failures": run["failed"],
        "end_to_end": dict(end_to_end),
    }
    estimate = run["estimate"]
    if estimate is not None:
        value, se = estimate
        report["end_to_end"]["time_to_1pct_s"] = wall_s * (se / value / 0.01) ** 2
        report["headline"] = {"value": value, "std_error": se}

    if args.trace:
        layers = dict(run["layers"])
        layers["hjmkit.import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["first_pass_excess_s"] = run["cold_s"] - wall_s
        layers["trace.overhead_s"] = statistics.median(run["traced_walls"]) - wall_s
        report["per_layer"] = layers
        report["scaling"] = run["scaling"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    values = report["per_layer"] if args.trace else end_to_end
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run["attempted"],
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
