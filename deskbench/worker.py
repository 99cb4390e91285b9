"""One workload in one fresh process; ``run.py`` starts it and reads its JSON.

Modes:

* ``setup``: import hjmkit and build the workload's inputs from the seed,
  timing both (one set-up sample).
* ``run``: set up, run one untimed warm-up pass on the reference seed's
  inputs (its numbers must match ``reference.json``), then timed passes
  on the seed's inputs until ``--seconds`` have passed. With ``--trace 1``
  untraced and traced passes alternate, so tracing overhead is the
  difference of their medians.
* ``reference``: print the warm-up headline values, the content of
  ``reference.json`` for that workload.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2


def _import_hjmkit() -> float:
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import hjmkit

    elapsed = time.perf_counter() - started
    if Path(hjmkit.__file__).resolve().parent != (ROOT / "src" / "hjmkit").resolve():
        raise SystemExit(f"hjmkit imported from {hjmkit.__file__}, not from this checkout")
    return elapsed


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _compare_reference(workload: str, values: dict, ledger) -> None:
    from workloads import REFERENCE_RTOL

    expected = json.loads((HERE / "reference.json").read_text())[workload]
    bad = []
    for key, want in expected.items():
        got = values.get(key)
        if got is None or not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_RTOL):
            bad.append(f"{key}={got} (reference {want})")
    ledger.check("reference values", not bad, "; ".join(bad[:5]))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "reference"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--span-file", type=Path)
    args = parser.parse_args()

    setup_started = time.perf_counter()
    import_s = _import_hjmkit()
    import workloads
    import spans

    wl = workloads.WORKLOADS[args.workload](ROOT)
    inp = wl.build(args.seed, _fresh_dir(args.work / "inputs"))
    setup_s = time.perf_counter() - setup_started
    if args.mode == "setup":
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    ledger = workloads.Ledger()
    ref_inp = wl.build(wl.reference_seed, _fresh_dir(args.work / "reference"))
    out = _fresh_dir(args.work / "reference" / "out")
    started = time.perf_counter()
    result = wl.run_pass(ref_inp, out, ledger)
    cold_s = time.perf_counter() - started
    wl.check(ref_inp, result, out, ledger)
    headline = wl.headline(result, out)
    if args.mode == "reference":
        print(json.dumps({args.workload: headline}, indent=1, sort_keys=True))
        return 0
    _compare_reference(args.workload, headline, ledger)
    del result, ref_inp

    recorder = spans.SpanRecorder()
    walls = {False: [], True: []}
    layer_rows = []
    first_digests = None
    out = args.work / "out"
    loop_started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        _fresh_dir(out)
        if traced:
            recorder.pass_id = len(walls[True])
            recorder.install()
        started = time.perf_counter()
        try:
            result = wl.run_pass(inp, out, ledger)
        finally:
            wall = time.perf_counter() - started
            recorder.uninstall()
        walls[traced].append(wall)
        wl.check(inp, result, out, ledger)
        if wl.pipeline:
            digests = workloads.artifact_digests(out)
            if first_digests is None:
                first_digests = digests
            else:
                ledger.check("byte-identical artifacts", digests == first_digests, "artifacts differ between passes")
        bytes_written = workloads.artifact_bytes(out)
        estimate = wl.estimate(result, out)
        if traced:
            pass_spans = [s for s in recorder.spans if s["pass"] == recorder.pass_id]
            layer_rows.append(spans.pass_metrics(pass_spans, wall))
        del result
        enough = len(walls[False]) >= MIN_PASSES and (not args.trace or len(walls[True]) >= MIN_PASSES)
        if enough and time.perf_counter() - loop_started >= args.seconds:
            break

    doc = {
        "import_s": import_s,
        "setup_s": setup_s,
        "cold_s": cold_s,
        "walls": walls[False],
        "traced_walls": walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "estimate": estimate,
        "env": _environment(),
    }
    if args.trace:
        # one whole pass, the median one, so self times and the unattributed
        # remainder add up to its wall time
        layers = sorted(layer_rows, key=lambda m: m["trace.wall_s"])[(len(layer_rows) - 1) // 2]
        layers["cli.bytes_written"] = bytes_written
        doc["layers"] = layers
        last = [s for s in recorder.spans if s["pass"] == recorder.pass_id]
        doc["scaling"] = spans.scaling_rows(last)
        if args.span_file:
            args.span_file.parent.mkdir(parents=True, exist_ok=True)
            args.span_file.write_text(json.dumps(recorder.spans))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
