"""One fresh-process execution of a workload command.

    python3 perfbench/child.py --workload W --seed N --out DIR \
        --spawned-at EPOCH [--setup-only] [--trace]

Imports gfflab, numpy and scipy, writes the workload config into DIR and
reports `setup_s`, the time from `--spawned-at` (taken by the parent just
before it started this process) to that point. Unless `--setup-only`, it
then runs the command in-process through `gfflab.cli.main` and reports
its exit code, wall time, user+system CPU time and the peak RSS of this
process. With `--trace` the command runs under the span tracer and the
spans are written to DIR/trace.json and the report also gives the cost of
one traced call (`span_cost_s`). The report goes to DIR/child.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy  # noqa: F401  (part of the measured set-up)
import scipy  # noqa: F401
from gfflab import cli
from workloads import make_config


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(make_config(args.workload, args.seed)))
    report = {"setup_s": time.time() - args.spawned_at}
    if not args.setup_only:
        command = cli.main
        tracer = None
        if args.trace:
            from tracing import ROOT, Tracer, span_cost
            tracer = Tracer()
            tracer.install()
            command = tracer.wrap(ROOT, cli.main)
        argv = [args.workload, "--config", str(config_path),
                "--out", str(out / "result")]
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            code = command(argv)
        except Exception:  # an uncaught error is a failed command
            traceback.print_exc()
            code = 1
        report["wall_s"] = time.perf_counter() - t0
        report["cpu_s"] = _cpu_seconds() - cpu0
        report["exit_code"] = int(code)
        if tracer is not None:
            tracer.dump(out / "trace.json")
            report["span_cost_s"] = span_cost()
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "child.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
