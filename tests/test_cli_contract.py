"""CLI contract under fuzzed documents and flag values.

Every invocation of ``cli.dispatch`` ends in an exit code from the table
(0, 2, 3 or 4 for these inputs), no exception escapes, and a command that
fails writes nothing to stdout.  Documents are valid instance and plan files
broken in the ways ``test_model`` breaks them; flag values include nan, inf,
negatives, 0 and integers too large for any count.  Every case stays small:
at most 20 customers, two worker threads, short simulations and no
enumeration tables beyond 2^20 entries.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from curtail import generate, instance_to_dict, spec_from_acronym
from curtail.cli import dispatch
from test_model import instance_documents

HUGE = 2**64
# Hostile values for float flags and fields: nothing here is a usable size.
BAD_FLOATS = (math.nan, math.inf, -math.inf, -1.0, 0.0, float(HUGE), 1e308)
BAD_INTS = (-1, 0, HUGE)
EPSILON = ((None, 0.25, 0.5), BAD_FLOATS)
TOLERANCE = ((None, 1e-9, 0.0), BAD_FLOATS)
OBJECTIVE = ((None, "vmax", "cmin"), ("max",))
OUTPUT = ((None, "{out}"), ())

# flag -> (usable values, hostile values); None leaves the flag out and True
# passes it bare.  Simulations always get a short horizon, and no hostile
# value names a large customer count, event count, thread count or table.
FLAGS = {
    "generate": {
        "--scenario": (("FCR", "FCM", "AUM", "ACI"), ("XYZ", "fc", "")),
        "--n": ((0, 1, 7, 20), (-1, "nan", "inf", "2.5")),
        "--capacity": ((2e6, 25e3), BAD_FLOATS),
        "--seed": ((None, 0, 7, HUGE), (-1, "nan")),
        "--max-theta": ((None, 0.3), BAD_FLOATS),
        "--phase-anchor": ((None, 0.2), BAD_FLOATS),
        "--industrial-fraction": ((None, 0.5), BAD_FLOATS),
        "-o": OUTPUT,
    },
    "solve": {
        "--algorithm": (("gva", "gma", "gra", "gda", "gsa", "oracle"), ("gxa", "")),
        "--objective": OBJECTIVE,
        "--epsilon": EPSILON,
        "--budget-max-n": ((None, 4, 20), BAD_INTS + ("nan",)),
        "--tolerance-override": TOLERANCE,
        "--quiet": ((None, True), ()),
        "-o": OUTPUT,
    },
    "oracle": {
        "--objective": OBJECTIVE,
        "--max-n": ((None, 4, 20), BAD_INTS + ("inf",)),
        "--tolerance-override": TOLERANCE,
        "-o": OUTPUT,
    },
    "bench": {
        "--plan": (("{plan}",), ()),
        "-o": (("{out}",), ()),
        "--threads": ((None, 1, 2), ()),
    },
    "simulate": {
        "--dynamic": ((True,), (None,)),
        "--scenario": (("FCR", "FCM", "AUM", "ACI"), ("XYZ",)),
        "--n": ((0, 1, 12, 50), (-1, "nan")),
        "--capacity": ((None, 2e6), BAD_FLOATS),
        "--floor": ((None, 1e5, 5e5), BAD_FLOATS),
        "--horizon": ((100.0, 500.0), BAD_FLOATS[:5]),
        "--event-rate": ((None, 0.005, 0.02), BAD_FLOATS[:5]),
        "--fail-prob": ((None, 0.0, 0.65, 1.0), BAD_FLOATS),
        "--drop-lo": ((None, 0.05), BAD_FLOATS),
        "--drop-hi": ((None, 0.35), BAD_FLOATS),
        "--algorithm": ((None, "gva", "gma", "gra", "gda", "gsa"), ("oracle",)),
        "--epsilon": EPSILON,
        "--seed": ((None, 3, HUGE), (-1,)),
        "-o": (("{out}",), ()),
    },
}


@st.composite
def argvs(draw, command: str):
    """``command`` with usable flag values, then up to two flags made hostile."""
    flags = FLAGS[command]
    breakable = [flag for flag in flags if flags[flag][1]]
    hostile = draw(st.sets(st.sampled_from(breakable), max_size=2)) if breakable else ()
    argv = [command] + (["{instance}"] if command in ("solve", "oracle") else [])
    for flag, (usable, bad) in flags.items():
        value = draw(st.sampled_from(bad if flag in hostile else usable))
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, str(value)]
    return argv


# Fields whose value sets a loop count or table size take no huge values.
SIZE_FIELDS = ("n_values", "trials_per_n")
PLAN_VALUES = (math.nan, math.inf, -1, 0, -2.5, 1e308, HUGE, "x", None, True, [], {})


@st.composite
def plan_documents(draw):
    doc = {
        "scenario": {"acronym": draw(st.sampled_from(("ACR", "FCR", "FUM"))),
                     "capacity": 25000.0, "seed": draw(st.integers(0, 9))},
        "n_values": draw(st.lists(st.integers(1, 8), min_size=1, max_size=2)),
        "algorithms": draw(st.lists(st.sampled_from(("gva", "gma", "gra", "gda", "gsa")),
                                    min_size=1, max_size=3)),
        "oracle": draw(st.sampled_from(("brute_force", "lp_bound", "none"))),
        "objective": draw(st.sampled_from(("vmax", "cmin"))),
    }
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from((
            "n_values", "trials_per_n", "algorithms", "objective", "oracle", "gsa_epsilon",
            "measure_time", "oracle_max_n", "scenario", "unknown", "scenario.acronym",
            "scenario.capacity", "scenario.seed", "scenario.max_theta",
            "scenario.phase_anchor", "scenario.industrial_fraction",
        )))
        values = PLAN_VALUES
        if field in SIZE_FIELDS:
            values = tuple(v for v in PLAN_VALUES if v not in (HUGE, 1e308))
        value = draw(st.sampled_from(values))
        if field == "n_values" and draw(st.booleans()):
            value = [value]
        target = doc["scenario"] if field.startswith("scenario.") else doc
        if isinstance(target, dict):
            target[field.removeprefix("scenario.")] = value
    return doc


def _valid_instance_documents():
    return st.builds(
        lambda n, seed: instance_to_dict(generate(spec_from_acronym("FCR", n, 25000.0, seed))),
        st.integers(0, 14), st.integers(0, 5),
    )


CASES = st.one_of(
    st.tuples(argvs("generate"), st.none(), st.none()),
    st.tuples(
        st.one_of(argvs("solve"), argvs("oracle")),
        st.one_of(instance_documents(), _valid_instance_documents()),
        st.none(),
    ),
    st.tuples(argvs("bench"), st.none(), plan_documents()),
    st.tuples(argvs("simulate"), st.none(), st.none()),
)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    return code, out.getvalue()


class TestCliContract:
    @settings(max_examples=300, deadline=None)
    @given(CASES)
    def test_exit_code_in_table_and_silent_stdout_on_failure(self, case):
        argv, instance_doc, plan_doc = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {
                "instance": os.path.join(tmp, "instance.json"),
                "plan": os.path.join(tmp, "plan.json"),
                "out": os.path.join(tmp, "out"),
            }
            if instance_doc is not None:
                with open(paths["instance"], "w", encoding="utf-8") as fh:
                    json.dump(instance_doc, fh)
            if plan_doc is not None:
                with open(paths["plan"], "w", encoding="utf-8") as fh:
                    json.dump(plan_doc, fh)
            argv = [arg.format(**paths) for arg in argv]
            code, stdout = _run(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2, 3, 4), (argv, code)
        if code != 0:
            assert stdout == "", argv
