"""The four benchmark workloads: their inputs, their CLI invocations and their checks.

Every input is derived from the workload seed given on the benchmark's
command line; the program under test only ever sees the generated files and
the argument vectors built here.  Why each workload exists is recorded in
README.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

DEFAULT_SEED = 123

# solve_*: one FCM instance whose capacity is about 40% of the aggregate demand
# (about 5.1e9 VA at n = 20 000), so the scans keep and shed a real share.
SOLVE_SCENARIO = "FCM"
SOLVE_N = 20_000
SOLVE_CAPACITY = 2e9

# sweep_small: the researcher's plan, ratios against the exhaustive optimum.
SWEEP_PLAN = {
    "scenario": {"acronym": "FCR", "capacity": 25_000.0},
    "n_values": [14, 16, 18],
    "trials_per_n": 30,
    "algorithms": ["gva", "gra", "gda", "gsa"],
    "objective": "vmax",
    "oracle": "brute_force",
    "gsa_epsilon": 0.25,
}
SWEEP_THREADS = 2
# generate's default phase band: 36 degrees
MAX_THETA = 0.6283185307179586

# simulate_dynamic: all event parameters at the CLI defaults.
SIM_SCENARIO = "FCM"
SIM_N = 5_000
SIM_EVENTS = {
    "full": 2_000_000.0,
    "floor": 100_000.0,
    "horizon": 10_000.0,
    "event_rate": 0.005,
    "fail_prob": 0.65,
    "drop": (0.05, 0.35),
}
# Ops cycle through this many simulation seeds, so a run's median averages
# over the event count (about 50 +- 7 per seed) instead of inheriting one draw.
SIM_SEED_POOL = 16


def sim_seed(seed: int, op: int) -> int:
    return seed * SIM_SEED_POOL + op % SIM_SEED_POOL


@dataclass(frozen=True)
class Workload:
    """One workload: how to make its inputs and how to run and check one op."""

    name: str
    # (dispatch, seed, workdir) -> None; writes the input files
    make_inputs: Callable[[Callable, int, Path], None]
    # (seed, op index, workdir) -> argv for curtail.cli.dispatch
    argv: Callable[[int, int, Path], list[str]]
    # (raw output bytes, seed, op index, context) -> items completed; raises CheckError
    check: Callable[[bytes, int, int, dict], int]
    # key under which the op's output digest is recorded in digests.json
    digest_key: Callable[[int], str]


def instance_path(workdir: Path) -> Path:
    return workdir / "instance.json"


def plan_path(workdir: Path) -> Path:
    return workdir / "plan.json"


def output_path(workdir: Path) -> Path:
    return workdir / "output"


def _make_instance(dispatch, seed: int, workdir: Path) -> None:
    rc = dispatch([
        "generate", "--scenario", SOLVE_SCENARIO, "--n", str(SOLVE_N),
        "--capacity", repr(SOLVE_CAPACITY), "--seed", str(seed),
        "-o", str(instance_path(workdir)),
    ])
    if rc != 0:
        raise RuntimeError(f"generate exited with {rc}")


def sweep_plan(seed: int) -> dict:
    return {**SWEEP_PLAN, "scenario": {**SWEEP_PLAN["scenario"], "seed": seed}}


def _make_plan(dispatch, seed: int, workdir: Path) -> None:
    plan_path(workdir).write_text(json.dumps(sweep_plan(seed), indent=2, sort_keys=True) + "\n")


def _no_inputs(dispatch, seed: int, workdir: Path) -> None:
    pass


def _solve_argv(objective: str):
    def argv(seed: int, op: int, workdir: Path) -> list[str]:
        flags = ["--objective", "cmin"] if objective == "cmin" else []
        return [
            "solve", "--algorithm", "gda", *flags,
            str(instance_path(workdir)), "-o", str(output_path(workdir)),
        ]
    return argv


def _solve_check(objective: str):
    def check(raw: bytes, seed: int, op: int, context: dict) -> int:
        instance = context.get("instance")
        if instance is None:
            instance = context["instance"] = checks.load_instance_arrays(
                instance_path(context["workdir"])
            )
        checks.check_solution(instance, raw, objective)
        return len(instance.ids)
    return check


def _sweep_argv(seed: int, op: int, workdir: Path) -> list[str]:
    return [
        "bench", "--plan", str(plan_path(workdir)), "-o", str(output_path(workdir)),
        "--threads", str(SWEEP_THREADS),
    ]


def _sweep_check(raw: bytes, seed: int, op: int, context: dict) -> int:
    plan = SWEEP_PLAN
    checks.check_report(
        raw,
        acronym=plan["scenario"]["acronym"],
        n_values=plan["n_values"],
        algorithms=plan["algorithms"],
        epsilon=plan["gsa_epsilon"],
        max_theta=MAX_THETA,
    )
    return len(plan["n_values"]) * plan["trials_per_n"]


def _sim_argv(seed: int, op: int, workdir: Path) -> list[str]:
    return [
        "simulate", "--dynamic", "--scenario", SIM_SCENARIO, "--n", str(SIM_N),
        "--seed", str(sim_seed(seed, op)), "-o", str(output_path(workdir)),
    ]


def _sim_check(raw: bytes, seed: int, op: int, context: dict) -> int:
    return checks.check_trace(raw, n=SIM_N, seed=sim_seed(seed, op), **SIM_EVENTS)


def _same_key(name: str) -> Callable[[int], str]:
    return lambda op: name


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve_vmax", _make_instance, _solve_argv("vmax"), _solve_check("vmax"),
                 _same_key("solve_vmax")),
        Workload("solve_cmin", _make_instance, _solve_argv("cmin"), _solve_check("cmin"),
                 _same_key("solve_cmin")),
        Workload("sweep_small", _make_plan, _sweep_argv, _sweep_check, _same_key("sweep_small")),
        Workload("simulate_dynamic", _no_inputs, _sim_argv, _sim_check,
                 lambda op: f"simulate_dynamic.{op % SIM_SEED_POOL}"),
    )
}

