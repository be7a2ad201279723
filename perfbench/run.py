"""End-to-end and per-layer benchmark of the curtail CLI.

    python3 perfbench/run.py --workload solve_vmax --seed 123 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

One process drives ``curtail.cli.dispatch`` in a closed loop with one
client: the next op starts when the previous one has returned and its
output has been checked.  Each workload runs in its own process (``all``
starts one per workload), so peak memory is the workload's own.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it runs untraced for half the time, then traced for the other
half, and reports per-layer self time and call counts from the traced half
plus the tracing overhead; the spans are written to
``perfbench/_run/spans-<workload>.npz``.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
full result, with the environment it ran in, goes to
``perfbench/_run/result-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = BENCH_DIR / "_run"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

E2E_UNITS = {
    "latency_s.p50": "s",
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
RESULT_KEYS = {
    "workload", "seed", "seconds", "trace", "environment", "correct", "attempted",
    "failed", "error_rate", "op_seconds", "metrics", "errors",
}
ENVIRONMENT_KEYS = {"git_rev", "python", "numpy", "nproc", "cpu_model", "seed"}


class Runner:
    """Issues ops for one workload and checks every output."""

    def __init__(self, workload, cli, seed: int, workdir: Path, digests: dict | None):
        self.workload = workload
        self.cli = cli  # looked up per op, so a traced dispatch is seen
        self.seed = seed
        self.workdir = workdir
        self.digests = digests
        self.tracer: spans.Tracer | None = None
        self.context = {"workdir": workdir}
        self.first_output: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, index: int) -> tuple[float, int]:
        """One dispatch call; returns its wall time and the items it completed."""
        output = workloads.output_path(self.workdir)
        output.unlink(missing_ok=True)
        argv = self.workload.argv(self.seed, index, self.workdir)
        if self.tracer is not None:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            outcome = self.cli.dispatch(argv)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            outcome = exc
        elapsed = time.perf_counter() - start
        self.attempted += 1
        try:
            if outcome != 0:
                raise checks.CheckError(f"dispatch returned {outcome!r}")
            raw = output.read_bytes()
            items = self.workload.check(raw, self.seed, index, self.context)
            self._check_repeatable(index, raw)
        except (checks.CheckError, OSError) as exc:
            self.failed += 1
            self.errors.append(f"op {index}: {exc}")
            return elapsed, 0
        return elapsed, items

    def _check_repeatable(self, index: int, raw: bytes) -> None:
        """Same input, same bytes (elapsed_us aside); default seed: recorded digest."""
        key = self.workload.digest_key(index)
        stripped = checks.strip_elapsed(raw)
        first = self.first_output.setdefault(key, stripped)
        if stripped != first:
            raise checks.CheckError(f"output differs from the first op with input {key}")
        if self.digests is not None:
            want = self.digests.get(key)
            got = checks.digest(raw)
            if got != want:
                raise checks.CheckError(f"digest {got} of {key}, recorded {want}")

    def loop(self, seconds: float, first_index: int) -> tuple[list[float], list[float], int]:
        """Ops until ``seconds`` have passed: (op times, per-op item rates, next index)."""
        times: list[float] = []
        rates: list[float] = []
        index = first_index
        deadline = time.perf_counter() + seconds
        while True:
            elapsed, items = self.op(index)
            times.append(elapsed)
            rates.append(items / elapsed)
            index += 1
            if time.perf_counter() >= deadline:
                return times, rates, index


def setup_once(name: str, seed: int, workdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_inputs.py"), name, str(seed), str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup of {name} failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def validate_result(doc: dict) -> None:
    """Raise ValueError unless ``doc`` has the result file's schema."""
    if set(doc) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(doc)}")
    if set(doc["environment"]) != ENVIRONMENT_KEYS:
        raise ValueError(f"environment keys {sorted(doc['environment'])}")
    if doc["workload"] not in workloads.WORKLOADS or doc["trace"] not in (0, 1):
        raise ValueError(f"workload {doc['workload']!r}, trace {doc['trace']!r}")
    for key in ("seed", "attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise ValueError(f"{key} must be an integer")
    if doc["attempted"] < 1 or not 0 <= doc["failed"] <= doc["attempted"]:
        raise ValueError(f"attempted {doc['attempted']}, failed {doc['failed']}")
    if doc["correct"] is not (doc["failed"] == 0):
        raise ValueError("correct must say whether no op failed")
    if doc["error_rate"] != doc["failed"] / doc["attempted"]:
        raise ValueError("error_rate must be failed / attempted")
    expected = set(E2E_UNITS) if doc["trace"] == 0 else set(layer_metric_names())
    if set(doc["metrics"]) != expected:
        raise ValueError(f"metrics {sorted(set(doc['metrics']) ^ expected)} missing or extra")
    for name, metric in doc["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], float):
            raise ValueError(f"metric {name}: {metric}")


def layer_metric_names() -> list[str]:
    names = [f"{span}.{kind}" for span in spans.SPAN_NAMES for kind in ("self_ms", "calls")]
    return names + ["gsa.seed_feasible_ratio", "oracle.table_entries", "trace.overhead_ratio"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    workdir = RUN_DIR / name
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = [setup_once(name, seed, workdir) for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(SRC))
    from curtail import cli

    digests = None
    if seed == workloads.DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    runner = Runner(workload, cli, seed, workdir, digests)
    runner.op(0)  # warm-up: caches and lazy imports, checked but not timed

    if not trace:
        times, rates, _ = runner.loop(seconds, 1)
        metrics = {
            "latency_s.p50": statistics.median(times),
            "items_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    else:
        plain, _, index = runner.loop(seconds / 2, 1)
        tracer = spans.Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            times, _, _ = runner.loop(seconds / 2, index)
        finally:
            tracer.uninstall()
            runner.tracer = None
        recorded = tracer.spans()
        layer = spans.layer_metrics(recorded, len(times))
        layer["trace.overhead_ratio"] = (
            statistics.median(times) / statistics.median(plain), "ratio"
        )
        tracer.dump(RUN_DIR / f"spans-{name}.npz")
        metrics = {key: value for key, (value, _) in layer.items()}
        units = {key: unit for key, (_, unit) in layer.items()}

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "op_seconds": times,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "errors": runner.errors[:20],
    }


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, value in doc["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
            print(f"{name:<18} {metric:<40} {value['value']:>14.6g} {value['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "curtail" / "__init__.py").is_file():
        print(f"error: no curtail sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    validate_result(doc)
    path = RUN_DIR / f"result-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"environment": doc["environment"], "ops_timed": len(doc["op_seconds"])}))
    for error in doc["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    for metric, value in doc["metrics"].items():
        print(f"{metric:<40} {value['value']:>14.6g} {value['unit']}")
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
