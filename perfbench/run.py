"""The ffwitness benchmark.

    python3 perfbench/run.py --workload survey --seed 0 --seconds 20 --trace 0

Runs passes of one workload, each in a fresh single-threaded worker process
(perfbench/worker.py), one after another, until ``--seconds`` have passed
(at least one pass). With ``--trace 0`` it prints the end-to-end metrics as
medians over the passes; with ``--trace 1`` it alternates traced and
untraced passes (at least two traced, whose exact counts must agree) and
prints the per-layer metrics. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``python3 perfbench/run.py --record`` rewrites perfbench/expected.json from
the program as it stands, at the default seed. Outputs are meant to stay
byte-identical, so only do this when a change of output is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# every worker is single-threaded: BLAS and OpenMP pools pinned to one
# thread; a fixed hash seed keeps set iteration, and so the counts, repeatable
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_SAMPLES = 11  # fresh starts per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, so that it exits within 180 s
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class HarnessError(Exception):
    """The benchmark itself could not produce a trustworthy result."""


class Launcher:
    def __init__(self, workload: str, seed: int):
        self.base = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
        self.env = {**os.environ, **WORKER_ENV}
        self.deadline = time.monotonic() + DEADLINE_S
        self.setups: list[float] = []
        self.numpy = None

    def __call__(self, *extra: str) -> dict:
        """Run one worker to completion; return its result with ``setup_s``,
        the time from launch until it was ready to issue the first
        operation."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("out of time before the run could finish")
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                self.base + list(extra), env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise HarnessError("a worker ran past the run's deadline") from None
        if proc.returncode != 0:
            raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["setup_s"] = res["ready"] - launched
        self.setups.append(res["setup_s"])
        self.numpy = res["numpy"]
        return res

    def sample_setup(self, n: int) -> float:
        """Launch set-up-only workers until there are ``n`` samples; return
        their median."""
        while len(self.setups) < n:
            self("--setup-only")
        return statistics.median(self.setups)


def end_to_end(launch, seconds: float) -> tuple[dict, list]:
    # set-up samples come from before and after the passes, so that they see
    # the machine over the whole run
    launch.sample_setup(SETUP_SAMPLES // 2)
    start = time.monotonic()
    passes = []
    while not passes or time.monotonic() - start < seconds:
        passes.append(launch("--trace", "0"))
    metrics = {
        name: statistics.median(p[name] for p in passes)
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = launch.sample_setup(SETUP_SAMPLES)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, passes


def per_layer(launch, workload: str, seconds: float) -> tuple[dict, list, list[str]]:
    # traced and untraced passes alternate, so that drift in the machine's
    # speed lands on both sides of the overhead; a run ends on a traced pass
    start = time.monotonic()
    plain, traced = [], []
    while len(traced) < 2 or time.monotonic() - start < seconds:
        if traced:
            plain.append(launch("--trace", "0"))
        traced.append(launch("--trace", "1"))
    runs = [p["trace"] for p in traced]
    units = spans.metric_units()
    metrics = {}
    unsteady = []
    for name in units:
        if name == "trace.overhead_s":
            continue
        values = [r[name] for r in runs]
        if spans.is_exact_count(name):
            if len(set(values)) != 1:
                unsteady.append(f"{name}: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = wall - statistics.median(p["wall_s"] for p in plain)

    # non-vacuous: every name fires on the workloads the table maps it to
    silent = [n for n, where in spans.TRACED.items() if workload in where and not metrics[f"{n}.calls"]]
    if silent:
        raise HarnessError("traced names recorded no call: " + ", ".join(silent))
    # root spans cover the traced wall time, up to the tracing overhead
    slack = max(metrics["trace.overhead_s"], 0.0) + 0.01 * wall
    if metrics["trace.uncovered_s"] > slack:
        raise HarnessError(
            f"root spans leave {metrics['trace.uncovered_s']:.3f} s of {wall:.3f} s uncovered"
            f" (allowed {slack:.3f} s)"
        )
    out = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return out, plain + traced, unsteady


def machine_record(numpy_version: str | None) -> dict:
    """What the numbers were measured on; numbers compare only when this
    record matches. Read-only reads of /proc and sysfs."""
    cpu = llc = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = []
        for d in caches.glob("index*"):
            if (d / "type").read_text().strip() != "Instruction":
                levels.append((int((d / "level").read_text()), (d / "size").read_text().strip()))
        llc = "L%d %s" % max(levels) if levels else None
    except (OSError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "llc": llc,
        "worker_env": WORKER_ENV,
    }


def record() -> int:
    table = {}
    for name in worker.WORKLOADS:
        res = Launcher(name, worker.DEFAULT_SEED)("--record")
        table[name] = res["record"]
        print(f"{name}: {len(res['record']['ops'])} operations", file=sys.stderr)
    worker.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, default=worker.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite expected.json at the default seed")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ffwitness" / "__init__.py").is_file():
        print(f"no ffwitness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")

    launch = Launcher(args.workload, args.seed)
    unsteady: list[str] = []
    try:
        if args.trace:
            metrics, passes, unsteady = per_layer(launch, args.workload, args.seconds)
        else:
            metrics, passes = end_to_end(launch, args.seconds)
    except HarnessError as exc:
        print(f"harness failure: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':44s} {failed / attempted:.6g} ratio  ({failed} failed of {attempted} operations checked)")
    for p in passes:
        for what in p["failures"]:
            print(f"  failed: {what}")
    for what in unsteady:
        print(f"  count differs between passes: {what}")
    print("machine " + json.dumps(machine_record(launch.numpy), sort_keys=True))
    result = {
        "correct": failed == 0 and not unsteady,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
