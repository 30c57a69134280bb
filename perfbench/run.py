"""Benchmark of three gfflab CLI workloads, run from the repository root:

    python3 perfbench/run.py --workload {disconnect,homogenize,percolation} \
        --seed N --seconds S --trace {0,1}

Each execution of the workload command happens in a fresh Python process
(`child.py`) that imports gfflab from `src/`, writes the config derived
from the seed and calls `gfflab.cli.main` in-process, with BLAS threads
held at min(2, cores). Executions repeat, whole, while the next one still
fits in S seconds of command time; there is always at least one. Extra
set-up-only processes sample the set-up time.

The outputs of the first execution go through the independent checks in
`checks.py`; later executions must reproduce them exactly (timing columns
and the manifest aside). The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end medians `wall_s`, `setup_s`, `cpu_s` and
`peak_rss_mb`; with `--trace 1` one more, traced execution gives the
per-layer metrics of `tracing.py` plus `trace.overhead_s`, the span
count times the measured cost of one traced call. Units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
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
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("disconnect", "homogenize", "percolation")
SETUP_PROBES = 12
# Wall-clock budget for all workload processes of one run; the checks
# come after, and the whole run ends well within three minutes.
PROCESS_BUDGET = 150.0
TIMING_COLUMNS = {"solve_time"}
# Largest share of the traced wall time that may fall outside every layer
# span (`cli.self_s`); about 1e-4 today. Above it a layer went untraced.
MAX_UNTRACED = 0.05


def _threads() -> str:
    return str(min(2, len(os.sched_getaffinity(0))))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = _threads()
    return env


def spawn(workload: str, seed: int, out: Path, *, setup_only=False,
          trace=False, deadline: float) -> dict:
    """Run child.py once and return its report (plus `out`)."""
    out.mkdir(parents=True)
    timeout = max(1.0, deadline - time.monotonic())
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    args += ["--setup-only"] if setup_only else []
    args += ["--trace"] if trace else []
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--spawned-at"]
    proc = subprocess.run(cmd + [repr(time.time())], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    report = json.loads((out / "child.json").read_text())
    report["out"] = out
    return report


def digest(result: Path) -> str:
    """Hash of the command outputs, without the manifest and timing columns."""
    h = hashlib.sha256()
    for path in sorted(result.iterdir()):
        if path.name == "manifest.json":
            continue
        h.update(path.name.encode())
        if path.suffix == ".csv":
            with open(path, encoding="utf-8") as fh:
                rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
            keep = [i for i, c in enumerate(rows[0]) if c not in TIMING_COLUMNS]
            for row in rows:
                h.update(",".join(row[i] for i in keep).encode() + b"\n")
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "gfflab" / "cli.py").is_file():
        print(f"perfbench: no gfflab sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = _threads()
    sys.path.insert(0, str(SRC))
    from checks import run_checks
    from tracing import layer_metrics
    from workloads import make_config

    deadline = time.monotonic() + PROCESS_BUDGET
    out = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    run = dict(workload=args.workload, seed=args.seed, deadline=deadline)

    setups = [spawn(out=out / f"setup{k}", setup_only=True, **run)["setup_s"]
              for k in range(SETUP_PROBES)]
    reps = []
    while True:
        reps.append(spawn(out=out / f"rep{len(reps)}", **run))
        used = sum(r["wall_s"] for r in reps)
        if (used + reps[-1]["wall_s"] > args.seconds
                or time.monotonic() + 2 * reps[-1]["wall_s"] > deadline):
            break
    if args.trace:
        reps.append(spawn(out=out / "traced", trace=True, **run))

    config = make_config(args.workload, args.seed)
    first = reps[0]
    ops = run_checks(args.workload, first["out"] / "result", config,
                     first["exit_code"] == 0)
    reference = digest(first["out"] / "result") if first["exit_code"] == 0 else None
    per_rep = len(ops.results)
    failed = ops.failed
    for rep in reps[1:]:
        same = rep["exit_code"] == 0 and digest(rep["out"] / "result") == reference
        failed += ops.failed if same else per_rep
        if not same:
            ops.errors.append(f"{rep['out'].name}: outputs differ from rep0")
    for line in ops.errors:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    untraced = [r for r in reps if r["out"].name.startswith("rep")]
    if args.trace:
        data = json.loads((out / "traced" / "trace.json").read_text())
        values = layer_metrics(data["spans"], data["notes"])
        values["trace.overhead_s"] = reps[-1]["span_cost_s"] * values["trace.spans"]
        if values["cli.self_s"] > MAX_UNTRACED * values["trace.wall_s"]:
            raise RuntimeError(
                f"cli.self_s is {values['cli.self_s']:.3f} s of a"
                f" {values['trace.wall_s']:.3f} s traced wall: the spans"
                " no longer cover the command")
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in untraced]),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    print(f"perfbench: {args.workload} seed={args.seed} executions={len(untraced)}"
          f" operations={per_rep * len(reps)} failed={failed}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": per_rep * len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
