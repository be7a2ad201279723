"""Self-tests of the benchmark's output checks and its result schema.

    python3 -m pytest perfbench/tests -q

They show that each check rejects a tampered output and that a real run's
result file matches the schema.  No test asserts a timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SWEEP = workloads.SWEEP_PLAN
REPORT_ARGS = dict(
    acronym=SWEEP["scenario"]["acronym"], n_values=SWEEP["n_values"],
    algorithms=SWEEP["algorithms"], epsilon=SWEEP["gsa_epsilon"],
    max_theta=workloads.MAX_THETA,
)


def _instance():
    # ids out of storage order, so the checks cannot confuse id with position
    return checks.InstanceArrays(
        ids=np.array([7, 3, 5, 1]),
        p=np.array([3.0, 4.0, 0.1, 2.0]),
        q=np.array([1.0, 2.0, 0.2, 0.5]),
        valuation=np.array([10.0, 0.1, 0.2, 5.0]),
        compensation=np.array([1.0, 2.0, 3.0, 4.0]),
        capacity=6.0,
    )


def _solution(retained, objective, p, q, algorithm="gda"):
    doc = {
        "aggregate": {"p": p, "q": q},
        "algorithm": algorithm,
        "elapsed_us": 12,
        "objective": objective,
        "retained": retained,
    }
    return json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"


def test_solution_accepts_storage_order_sums():
    # ids 7 and 1 sit at positions 0 and 3
    raw = _solution([1, 7], 10.0 + 5.0, 3.0 + 2.0, 1.0 + 0.5)
    checks.check_solution(_instance(), raw, "vmax")
    cmin = _solution([1, 7], 2.0 + 3.0, 3.0 + 2.0, 1.0 + 0.5, "cmin_gda")
    checks.check_solution(_instance(), cmin, "cmin")


@pytest.mark.parametrize(
    "raw, message",
    [
        # an extra retained id that breaks capacity: |(9, 3.5)| > 6
        (_solution([1, 3, 7], 15.1, 9.0, 3.5), "exceeds capacity"),
        # the objective moved by one ulp
        (_solution([1, 7], np.nextafter(15.0, 16.0), 5.0, 1.5), "objective"),
        (_solution([1, 9], 15.0, 5.0, 1.5), "unknown retained ids"),
        (_solution([7, 7], 20.0, 6.0, 2.0), "duplicate"),
        (_solution([1, 7], 15.0, 5.0, 1.5, "gva"), "algorithm"),
    ],
)
def test_solution_rejects_tampering(raw, message):
    with pytest.raises(checks.CheckError, match=message):
        checks.check_solution(_instance(), raw, "vmax")


def _report(worst=None, mean=None, extra=""):
    lines = [",".join(checks.REPORT_COLUMNS)]
    for n in SWEEP["n_values"]:
        for tag in sorted(SWEEP["algorithms"]):
            w = worst.get((n, tag), 0.95) if worst else 0.95
            m = mean.get((n, tag), 0.99) if mean else 0.99
            lines.append(f"FCR,{n},{tag},1000.0,{m!r},0.01,{w!r},,")
    return ("\r\n".join(lines) + "\r\n" + extra).encode()


def test_report_accepts_ratios_within_bounds():
    checks.check_report(_report(), **REPORT_ARGS)


@pytest.mark.parametrize(
    "raw, message",
    [
        (_report(worst={(16, "gda"): 0.47}), "below the bound"),
        (_report(worst={(18, "gsa"): 0.70}), "below the bound"),
        (_report(mean={(14, "gva"): 1.01}), "mean ratio"),
        (_report(extra="FCR,20,gda,1.0,0.9,0.1,0.9,,\r\n"), "report rows"),
        (_report().replace(b"FCR,14,gra", b"ACR,14,gra"), "scenario"),
        (_report().replace(b",0.01,0.95,,\r\n", b",0.01,0.95,0.1,\r\n", 1), "timing"),
    ],
)
def test_report_rejects_tampering(raw, message):
    with pytest.raises(checks.CheckError, match=message):
        checks.check_report(raw, **REPORT_ARGS)


def _trace(seed, mutate=None):
    events = checks.expected_events(seed, **workloads.SIM_EVENTS)
    rows = [(0.0, workloads.SIM_EVENTS["full"], 1.0, 1)] + [(t, c, 1.0, 1) for t, c in events]
    if mutate:
        rows = mutate(rows)
    lines = [",".join(checks.TRACE_COLUMNS)] + [
        f"{t!r},{c!r},{o!r},{k}" for t, c, o, k in rows
    ]
    return ("\r\n".join(lines) + "\r\n").encode()


def _check_trace(raw, seed):
    return checks.check_trace(raw, n=workloads.SIM_N, seed=seed, **workloads.SIM_EVENTS)


def test_trace_accepts_the_documented_events():
    assert _check_trace(_trace(5), 5) == len(checks.expected_events(5, **workloads.SIM_EVENTS))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda rows: rows[:-1], "trace rows"),
        (lambda rows: rows[:1] + [(rows[1][0], 50.0, 1.0, 1)] + rows[2:], "event"),
        (lambda rows: rows[:1] + [(rows[1][0], rows[1][1], 1.0, 10**6)] + rows[2:],
         "retained_count"),
    ],
)
def test_trace_rejects_tampering(mutate, message):
    with pytest.raises(checks.CheckError, match=message):
        _check_trace(_trace(5, mutate), 5)


def test_strip_elapsed_ignores_only_the_timing():
    a = _solution([1], 5.0, 2.0, 0.5)
    b = a.replace(b'"elapsed_us": 12', b'"elapsed_us": 99999')
    assert checks.digest(a) == checks.digest(b)
    assert checks.digest(a) != checks.digest(a.replace(b"5.0", b"5.5"))


def test_result_file_matches_the_schema():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "simulate_dynamic",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((run.RUN_DIR / "result-simulate_dynamic-trace0.json").read_text())
    run.validate_result(doc)
    assert doc["correct"] and doc["failed"] == 0, doc["errors"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"] == doc["metrics"]
    broken = dict(doc, metrics={})
    with pytest.raises(ValueError, match="missing or extra"):
        run.validate_result(broken)
