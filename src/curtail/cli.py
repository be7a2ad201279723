"""Command-line interface: generate / solve / oracle / bench / simulate.

All data goes to files or stdout as JSON/CSV; diagnostics go to stderr.
Exit codes are part of the contract:

    0  success
    1  internal error
    2  malformed input (bad flags, bad JSON, unknown scenario acronym)
    3  instance too large for the enumeration budget
    4  instance construction rejected (a customer's demand exceeds capacity)
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import (
    CMIN_ALGORITHMS,
    VMAX_ALGORITHMS,
    emit_csv,
    plan_from_dict,
    run_benchmark,
    run_dynamic_capacity,
    write_trace_csv,
)
from .gsa import GsaConfig, gsa, gsa_subset_count
from .model import (
    CAPACITY_REL_TOL,
    CurtailError,
    DemandExceedsCapacityError,
    FormatError,
    dump_instance,
    instance_to_dict,
    load_instance,
    read_json,
)
from .oracle import OracleBudget, OracleBudgetError, brute_force_cmin, brute_force_vmax
from .scenario import spec_from_acronym, generate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_ORACLE_BUDGET = 3
EXIT_INFEASIBLE_INSTANCE = 4

EXIT_CODES = {
    "ok": EXIT_OK,
    "error": EXIT_ERROR,
    "usage": EXIT_USAGE,
    "oracle_budget": EXIT_ORACLE_BUDGET,
    "infeasible_instance": EXIT_INFEASIBLE_INSTANCE,
}

GSA_SUBSET_WARN_THRESHOLD = 1_000_000


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _checked(convert, ok, requirement: str):
    """argparse type: ``convert`` the flag's text and refuse values that fail ``ok``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


# --tolerance-override, --horizon/--event-rate, --epsilon (the gsa precision), --threads
_rel_tol = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")
_positive_finite = _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
_epsilon = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_threads = _checked(int, lambda v: v >= 1, ">= 1")


def _cmd_generate(args) -> int:
    spec = spec_from_acronym(
        args.scenario,
        n=args.n,
        capacity=args.capacity,
        seed=args.seed,
        max_theta=args.max_theta,
        phase_anchor=args.phase_anchor,
        industrial_fraction=args.industrial_fraction,
    )
    instance = generate(spec)
    if args.output:
        dump_instance(instance, args.output)
    else:
        _emit(instance_to_dict(instance), None)
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    tag = args.algorithm
    rel_tol = args.tolerance_override
    if tag == "oracle":
        budget = OracleBudget(max_n=args.budget_max_n)
        if args.objective == "cmin":
            solution = brute_force_cmin(instance, budget, rel_tol)
        else:
            solution = brute_force_vmax(instance, budget, rel_tol)
    elif args.objective == "cmin":
        if tag == "gsa":
            raise FormatError("there is no compensation-minimising variant of gsa")
        solution = CMIN_ALGORITHMS[tag](instance, rel_tol)
    elif tag == "gsa":
        count = gsa_subset_count(len(instance), args.epsilon)
        if count > GSA_SUBSET_WARN_THRESHOLD and not args.quiet:
            print(
                f"warning: gsa will examine {count} subsets at epsilon={args.epsilon}; "
                f"this may take a long time",
                file=sys.stderr,
            )
        solution = gsa(instance, GsaConfig(args.epsilon), rel_tol)
    else:
        solution = VMAX_ALGORITHMS[tag](instance, rel_tol)
    _emit(solution.to_dict(), args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    doc = read_json(args.plan)
    try:
        plan = plan_from_dict(doc)
    except ValueError as exc:
        raise FormatError(f"{args.plan}: {exc}") from exc
    emit_csv(run_benchmark(plan), args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if not args.dynamic:
        raise FormatError("simulate currently supports only --dynamic")
    spec = spec_from_acronym(
        args.scenario, n=args.n, capacity=args.capacity, seed=args.seed
    )
    trace = run_dynamic_capacity(
        spec,
        horizon=args.horizon,
        event_rate=args.event_rate,
        fail_prob=args.fail_prob,
        drop_range=(args.drop_lo, args.drop_hi),
        algorithm=args.algorithm,
        seed=args.seed,
        floor_capacity=args.floor,
        gsa_epsilon=args.epsilon,
    )
    write_trace_csv(trace, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curtail",
        description=(
            "Solvers and experiment harness for capacity-constrained load "
            "curtailment with complex power demands. Scenario acronyms are "
            "three letters: power F(full)/A(active-only), correlation "
            "C(orrelated)/U(ncorrelated)/L(inear), load "
            "R(esidential)/I(ndustrial)/M(ixed); e.g. FCR, AUM."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random instance JSON file")
    gen.add_argument("--scenario", required=True, help="three-letter acronym, e.g. FCR")
    gen.add_argument("--n", type=int, required=True, help="number of customers")
    gen.add_argument("--capacity", type=float, required=True, help="capacity in VA")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-theta", type=float, default=0.6283185307179586,
                     help="phase band width in radians (default 36 degrees)")
    gen.add_argument("--phase-anchor", type=float, default=0.0)
    gen.add_argument("--industrial-fraction", type=float, default=0.2)
    gen.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve an instance file with one algorithm")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument("--algorithm", required=True,
                       choices=sorted(VMAX_ALGORITHMS) + ["gsa", "oracle"])
    solve.add_argument("--objective", choices=("vmax", "cmin"), default="vmax")
    solve.add_argument("--epsilon", type=_epsilon, default=0.25,
                       help="gsa precision, in (0, 1)")
    solve.add_argument("--budget-max-n", type=int, default=OracleBudget.max_n,
                       help="enumeration budget when --algorithm oracle")
    solve.add_argument("--tolerance-override", type=_rel_tol, default=CAPACITY_REL_TOL,
                       help="relative slack on the capacity feasibility test")
    solve.add_argument("--quiet", action="store_true", help="suppress warnings")
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=_cmd_solve)

    orc = sub.add_parser("oracle", help="exhaustive optimum of an instance file")
    orc.add_argument("instance", help="instance JSON path")
    orc.add_argument("--objective", choices=("vmax", "cmin"), default="vmax")
    orc.add_argument("--max-n", dest="budget_max_n", type=int, default=OracleBudget.max_n,
                     help="enumeration budget")
    orc.add_argument("--tolerance-override", type=_rel_tol, default=CAPACITY_REL_TOL,
                     help="relative slack on the capacity feasibility test")
    orc.add_argument("-o", "--output", default=None)
    orc.set_defaults(func=_cmd_solve, algorithm="oracle")

    bench = sub.add_parser("bench", help="run a benchmark plan, emit a CSV report")
    bench.add_argument("--plan", required=True, help="plan JSON path")
    bench.add_argument("-o", "--output", required=True, help="report CSV path")
    bench.add_argument("--threads", type=_threads, default=1,
                       help=">= 1; accepted for compatibility, trials run serially")
    bench.set_defaults(func=_cmd_bench)

    sim = sub.add_parser("simulate", help="dynamic-capacity event simulation")
    sim.add_argument("--dynamic", action="store_true", help="vary capacity over time")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--capacity", type=float, default=2_000_000.0, help="full capacity VA")
    sim.add_argument("--floor", type=float, default=100_000.0, help="capacity floor VA")
    sim.add_argument("--horizon", type=_positive_finite, default=10_000.0, help="seconds")
    sim.add_argument("--event-rate", type=_positive_finite, default=0.005,
                     help="events per second")
    sim.add_argument("--fail-prob", type=float, default=0.65)
    sim.add_argument("--drop-lo", type=float, default=0.05)
    sim.add_argument("--drop-hi", type=float, default=0.35)
    sim.add_argument("--algorithm", default="gda",
                     choices=sorted(VMAX_ALGORITHMS) + ["gsa"])
    sim.add_argument("--epsilon", type=_epsilon, default=0.25,
                     help="gsa precision, in (0, 1)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("-o", "--output", required=True, help="trace CSV path")
    sim.set_defaults(func=_cmd_simulate)

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse and run one invocation, mapping failures to the exit-code table."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_BUDGET
    except DemandExceedsCapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_INSTANCE
    except ValueError as exc:  # FormatError, bad spec/plan/flag values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CurtailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
