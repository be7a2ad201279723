"""CLI dispatch: exit codes, JSON/CSV round trips, diagnostics."""

import json
import re

import pytest

from curtail import instance_to_dict, load_instance
from conftest import COERCIBLE_PLAN_FIELDS, plan_doc
from curtail.cli import (
    EXIT_CODES,
    EXIT_ERROR,
    EXIT_INFEASIBLE_INSTANCE,
    EXIT_OK,
    EXIT_ORACLE_BUDGET,
    EXIT_USAGE,
    dispatch,
)


def write_instance(path, capacity, rows):
    doc = {
        "capacity": capacity,
        "customers": [
            {"id": r[0], "p": r[1], "q": r[2], "valuation": r[3], "compensation": r[4]}
            for r in rows
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def trap_file(tmp_path):
    # tiny cheap customer plus a capacity-filling valuable one
    return write_instance(
        tmp_path / "trap.json",
        100.0,
        [(1, 1.0, 0.0, 1.0, 1.0), (2, 100.0, 0.0, 100.0, 100.0)],
    )


class TestExitCodeTable:
    def test_snapshot(self):
        assert EXIT_CODES == {
            "ok": 0,
            "error": 1,
            "usage": 2,
            "oracle_budget": 3,
            "infeasible_instance": 4,
        }

    def test_unknown_flag_is_usage_error(self):
        assert dispatch(["solve", "--no-such-flag", "x.json"]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        assert dispatch(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == EXIT_OK
        assert "generate" in capsys.readouterr().out


class TestGenerate:
    def test_writes_instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        code = dispatch(
            ["generate", "--scenario", "FCR", "--n", "20", "--capacity", "1e5",
             "--seed", "42", "-o", str(out)]
        )
        assert code == EXIT_OK
        inst = load_instance(str(out))
        assert len(inst) == 20

    def test_round_trip_matches_in_memory_instance(self, tmp_path):
        from curtail import generate as gen, spec_from_acronym

        out = tmp_path / "inst.json"
        dispatch(
            ["generate", "--scenario", "FUM", "--n", "30", "--capacity", "2e6",
             "--seed", "7", "-o", str(out)]
        )
        direct = gen(spec_from_acronym("FUM", 30, 2e6, seed=7))
        assert instance_to_dict(load_instance(str(out))) == instance_to_dict(direct)

    def test_unknown_acronym_is_usage_error(self, tmp_path, capsys):
        code = dispatch(
            ["generate", "--scenario", "XYZ", "--n", "5", "--capacity", "10",
             "-o", str(tmp_path / "x.json")]
        )
        assert code == EXIT_USAGE
        assert "acronym" in capsys.readouterr().err

    def test_stdout_when_no_output_path(self, capsys):
        code = dispatch(["generate", "--scenario", "ACR", "--n", "3", "--capacity", "1e5"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["customers"]) == 3

    def test_invalid_capacity_is_usage_error(self, capsys):
        code = dispatch(["generate", "--scenario", "ACR", "--n", "3", "--capacity", "-5"])
        assert code == EXIT_USAGE
        assert "capacity" in capsys.readouterr().err


class TestSolve:
    def test_gda_on_trap_instance(self, trap_file, capsys):
        code = dispatch(["solve", "--algorithm", "gda", trap_file])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] == 100.0
        assert doc["retained"] == [2]
        assert doc["algorithm"] == "gda"

    def test_cmin_objective(self, trap_file, capsys):
        code = dispatch(["solve", "--algorithm", "gda", "--objective", "cmin", trap_file])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] == 1.0

    def test_cmin_gsa_refused(self, trap_file):
        assert dispatch(
            ["solve", "--algorithm", "gsa", "--objective", "cmin", trap_file]
        ) == EXIT_USAGE

    def test_gsa_with_epsilon(self, trap_file, capsys):
        code = dispatch(["solve", "--algorithm", "gsa", "--epsilon", "0.3333", trap_file])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["objective"] == 100.0

    def test_gsa_warns_before_expensive_runs(self, trap_file, capsys, monkeypatch):
        import curtail.cli as cli_mod

        monkeypatch.setattr(cli_mod, "GSA_SUBSET_WARN_THRESHOLD", 1)
        assert dispatch(["solve", "--algorithm", "gsa", trap_file]) == EXIT_OK
        assert "subsets" in capsys.readouterr().err

    def test_quiet_suppresses_gsa_warning(self, trap_file, capsys, monkeypatch):
        import curtail.cli as cli_mod

        monkeypatch.setattr(cli_mod, "GSA_SUBSET_WARN_THRESHOLD", 1)
        assert dispatch(["solve", "--algorithm", "gsa", "--quiet", trap_file]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_tolerance_override_flag_wired_through(self, tmp_path, capsys):
        # a pair overflowing C by 0.5% is rejected at the default tolerance
        # and accepted when the override loosens the feasibility test
        path = write_instance(
            tmp_path / "edge.json", 100.0,
            [(0, 50.0, 0.0, 1.0, 1.0), (1, 50.5, 0.0, 1.0, 1.0)],
        )
        dispatch(["solve", "--algorithm", "gva", path])
        strict = json.loads(capsys.readouterr().out)
        dispatch(["solve", "--algorithm", "gva", "--tolerance-override", "0.01", path])
        loose = json.loads(capsys.readouterr().out)
        assert strict["retained"] == [0]
        assert loose["retained"] == [0, 1]

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("value", ["-2", "nan", "inf"])
    def test_meaningless_tolerance_override_rejected(self, trap_file, capsys, command, value):
        # -2 would be squared into a slack of 0; nan retains nobody, inf everybody
        argv = [command, trap_file, f"--tolerance-override={value}"]
        if command == "solve":
            argv += ["--algorithm", "gva"]
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance-override" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--algorithm", "gda"], ["solve", "--algorithm", "gda", "--objective", "cmin"],
         ["solve", "--algorithm", "gsa"], ["oracle"], ["oracle", "--objective", "cmin"]],
    )
    @pytest.mark.parametrize("capacity, tolerance", [(1e200, "1e-9"), (1000.0, "1e300")])
    def test_limit_squaring_to_inf_is_usage_error(
        self, tmp_path, capsys, argv, capacity, tolerance
    ):
        # an inf squared limit used to retain both customers at 1.98 times the capacity
        demand = 7e199 if capacity == 1e200 else 700.0
        rows = [(0, demand, demand, 1.0, 1.0), (1, demand, demand, 1.0, 1.0)]
        path = write_instance(tmp_path / "huge.json", capacity, rows)
        assert dispatch(argv + [path, f"--tolerance-override={tolerance}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "squares to inf" in captured.err

    @pytest.mark.parametrize("value", ["-3", "0", "1", "5", "nan"])
    def test_epsilon_outside_unit_interval_rejected(self, trap_file, capsys, value):
        # gda ignores the precision, but a value with no meaning is still refused
        code = dispatch(["solve", "--algorithm", "gda", f"--epsilon={value}", trap_file])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epsilon" in captured.err

    def test_id_beyond_int64_is_usage_error(self, tmp_path, capsys):
        path = write_instance(tmp_path / "big_id.json", 10.0, [(2**63, 1.0, 0.0, 1.0, 1.0)])
        assert dispatch(["solve", "--algorithm", "gda", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "customers[0]" in captured.err

    def test_largest_int64_id_is_solved(self, tmp_path, capsys):
        path = write_instance(tmp_path / "max_id.json", 10.0, [(2**63 - 1, 1.0, 0.0, 1.0, 1.0)])
        assert dispatch(["solve", "--algorithm", "gda", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["retained"] == [2**63 - 1]

    @pytest.mark.parametrize("field", ("p", "valuation", "capacity"))
    def test_integer_too_large_for_a_float_is_usage_error(self, tmp_path, capsys, field):
        doc = {
            "capacity": 10.0,
            "customers": [{"id": 0, "p": 1.0, "q": 0.0, "valuation": 1.0, "compensation": 1.0}],
        }
        if field == "capacity":
            doc["capacity"] = 10**400
        else:
            doc["customers"][0][field] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["solve", "--algorithm", "gda", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f".{field}: integer too large for a float" in captured.err

    def test_oracle_via_solve(self, trap_file, capsys):
        code = dispatch(["solve", "--algorithm", "oracle", trap_file])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["objective"] == 100.0

    def test_cmin_oracle_via_solve(self, trap_file, capsys):
        code = dispatch(
            ["solve", "--algorithm", "oracle", "--objective", "cmin", trap_file]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] == 1.0
        assert doc["algorithm"] == "cmin_oracle"

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"capacity": 10,\n  "customers": oops}')
        assert dispatch(["solve", "--algorithm", "gda", str(bad)]) == EXIT_USAGE
        assert ":2:" in capsys.readouterr().err

    def test_missing_field_reports_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"capacity": 10, "customers": [{"id": 0, "p": 1}]}))
        assert dispatch(["solve", "--algorithm", "gda", str(bad)]) == EXIT_USAGE
        assert "customers[0]" in capsys.readouterr().err

    def test_oversized_demand_exits_4_listing_ids(self, tmp_path, capsys):
        path = write_instance(
            tmp_path / "big.json", 10.0,
            [(0, 5.0, 0.0, 1.0, 1.0), (7, 50.0, 0.0, 1.0, 1.0)],
        )
        assert dispatch(["solve", "--algorithm", "gda", path]) == EXIT_INFEASIBLE_INSTANCE
        assert "7" in capsys.readouterr().err

    def test_output_file(self, trap_file, tmp_path):
        out = tmp_path / "sol.json"
        code = dispatch(["solve", "--algorithm", "gva", trap_file, "-o", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["objective"] == 100.0


class TestOracleCommand:
    def test_solves_small_instance(self, trap_file, capsys):
        assert dispatch(["oracle", trap_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["objective"] == 100.0

    def test_budget_refusal_exit_3(self, tmp_path, capsys):
        rows = [(k, 1.0, 0.0, 1.0, 1.0) for k in range(25)]
        path = write_instance(tmp_path / "big.json", 30.0, rows)
        assert dispatch(["oracle", path]) == EXIT_ORACLE_BUDGET
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["-1", "31", str(2**64)])
    def test_budget_outside_the_ceiling_is_usage_error(self, trap_file, capsys, max_n):
        # the budget is checked before any table is sized from it
        assert dispatch(["oracle", trap_file, "--max-n", max_n]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        bound = ">= 0" if max_n == "-1" else "<= 30"
        assert f"error: max_n must be {bound}, got {max_n}\n" == captured.err

    def test_budget_can_be_raised(self, tmp_path, capsys):
        rows = [(k, 1.0, 0.0, 1.0, 1.0) for k in range(22)]
        path = write_instance(tmp_path / "n22.json", 30.0, rows)
        assert dispatch(["oracle", path, "--max-n", "22"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["objective"] == 22.0

    def test_cmin_oracle(self, trap_file, capsys):
        assert dispatch(["oracle", trap_file, "--objective", "cmin"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["objective"] == 1.0

    @pytest.mark.parametrize("objective", ["vmax", "cmin"])
    def test_same_bytes_as_solve_oracle(self, tmp_path, objective):
        rows = [(k, 1.0 + 0.1 * k, 0.3 * (k % 3), 1.0 + k, 2.0 - 0.1 * k) for k in range(12)]
        path = write_instance(tmp_path / "n12.json", 6.5, rows)
        texts = []
        for argv in (
            ["oracle", path, "--objective", objective, "--max-n", "12"],
            ["solve", path, "--algorithm", "oracle", "--objective", objective,
             "--budget-max-n", "12"],
        ):
            out = tmp_path / "out.json"
            assert dispatch(argv + ["-o", str(out)]) == EXIT_OK
            texts.append(re.sub(r'"elapsed_us": \d+', "", out.read_text()))
        assert texts[0] == texts[1]

    def test_same_budget_refusal_as_solve_oracle(self, tmp_path, capsys):
        path = write_instance(tmp_path / "n13.json", 30.0, [(k, 1.0, 0.0, 1.0, 1.0) for k in range(13)])
        results = []
        for argv in (["oracle", path, "--max-n", "12"],
                     ["solve", path, "--algorithm", "oracle", "--budget-max-n", "12"]):
            results.append((dispatch(argv), capsys.readouterr()))
        assert [code for code, _ in results] == [EXIT_ORACLE_BUDGET] * 2
        assert results[0][1] == results[1][1]
        assert results[0][1].out == ""


class TestNegativeZeroDemands:
    """An empty sum and a sum of -0.0 demands both start from 0.0."""

    @pytest.mark.parametrize("objective, algorithm", [
        *[("vmax", a) for a in ("gva", "gma", "gra", "gda", "gsa", "oracle")],
        *[("cmin", a) for a in ("gva", "gma", "gra", "gda", "oracle")],
    ])
    def test_aggregate_is_positive_zero(self, tmp_path, capsys, objective, algorithm):
        rows = [(k, -0.0, -0.0, 1.0 + k, 2.0) for k in range(4)]
        path = write_instance(tmp_path / "zeros.json", 1.0, rows)
        argv = ["solve", path, "--algorithm", algorithm, "--objective", objective]
        assert dispatch(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["aggregate"] == {"p": 0.0, "q": 0.0}
        assert '"p": 0.0' in out and '"q": 0.0' in out
        assert "-0.0" not in out


class TestBenchCommand:
    def test_end_to_end(self, tmp_path):
        plan = {
            "scenario": {"acronym": "ACR", "capacity": 25000.0, "seed": 5},
            "n_values": [8],
            "trials_per_n": 30,
            "algorithms": ["gda"],
            "objective": "vmax",
            "oracle": "brute_force",
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out = tmp_path / "report.csv"
        assert dispatch(["bench", "--plan", str(plan_path), "-o", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("scenario,")

    def test_malformed_plan_usage_error(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"n_values": [4]}))
        out = tmp_path / "r.csv"
        assert dispatch(["bench", "--plan", str(plan_path), "-o", str(out)]) == EXIT_USAGE

    def test_integer_too_large_for_a_float_is_usage_error(self, tmp_path, capsys):
        plan = {
            "scenario": {"acronym": "ACR", "capacity": 10**400, "seed": 5},
            "n_values": [8],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out = tmp_path / "r.csv"
        assert dispatch(["bench", "--plan", str(plan_path), "-o", str(out)]) == EXIT_USAGE
        assert "plan.scenario.capacity: integer too large for a float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_doc("n_values", [4])))
        out = tmp_path / "r.csv"
        argv = ["bench", "--plan", str(plan_path), "-o", str(out), f"--threads={threads}"]
        assert dispatch(argv) == EXIT_USAGE
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_capacity_squaring_to_inf_exits_2_without_csv(self, tmp_path, capsys, threads):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_doc("scenario.capacity", 1e200)))
        out = tmp_path / "r.csv"
        argv = ["bench", "--plan", str(plan_path), "-o", str(out), f"--threads={threads}"]
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "squares to inf" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", COERCIBLE_PLAN_FIELDS + [("gsa_epsilon", 1.0)])
    def test_wrong_plan_field_exits_2_without_csv(self, tmp_path, capsys, field, value):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_doc(field, value)))
        out = tmp_path / "r.csv"
        assert dispatch(["bench", "--plan", str(plan_path), "-o", str(out)]) == EXIT_USAGE
        assert field.split(".")[-1] in capsys.readouterr().err
        assert not out.exists()


class TestNegativeSeedsAndCounts:
    """A negative seed or customer count is refused where it enters, naming its field."""

    def test_generate_seed(self, capsys):
        argv = ["generate", "--scenario", "FCR", "--n", "5", "--capacity", "1e5", "--seed", "-1"]
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_simulate_seed(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        argv = ["simulate", "--dynamic", "--scenario", "ACR", "--n", "12", "--seed", "-1",
                "-o", str(out)]
        assert dispatch(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [("scenario.seed", -5, "seed must be >= 0, got -5"),
         ("n_values", [4, -1, -3], "n_values must be >= 0, got [-1, -3]")],
        ids=["seed", "n_values"],
    )
    def test_plan_field(self, tmp_path, capsys, field, value, message):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_doc(field, value)))
        out = tmp_path / "r.csv"
        assert dispatch(["bench", "--plan", str(plan_path), "-o", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {plan_path}: malformed benchmark plan: {message}\n"
        assert not out.exists()


DEEP = "[" * 200_000 + "]" * 200_000


class TestDeeplyNestedJson:
    """Nesting deeper than the JSON parser can recurse is malformed input."""

    @pytest.mark.parametrize(
        "text", [DEEP, '{"capacity": 10, "customers": ' + DEEP + "}"], ids=["top", "customers"]
    )
    def test_solve_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert dispatch(["solve", "--algorithm", "gda", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested too deeply" in captured.err

    def test_bench_plan_exits_2_without_csv(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(DEEP)
        out = tmp_path / "r.csv"
        assert dispatch(["bench", "--plan", str(plan_path), "-o", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested too deeply" in captured.err
        assert not out.exists()


class TestSimulateCommand:
    @pytest.mark.parametrize("algorithm, warned", [("gsa", True), ("gda", False)])
    def test_simulate_warns_before_long_gsa_runs(self, algorithm, warned, tmp_path, capsys,
                                                 monkeypatch):
        # at the default epsilon (m = 2) gsa enumerates about 2e6 subsets of
        # 2000 customers per event; the stub keeps any solve from running
        import curtail.cli as cli_mod

        calls = []

        def simulation(spec, **kwargs):
            calls.append(kwargs)
            return []

        monkeypatch.setattr(cli_mod, "run_dynamic_capacity", simulation)
        argv = ["simulate", "--dynamic", "--scenario", "FCM", "--n", "2000",
                "--algorithm", algorithm, "-o", str(tmp_path / "t.csv")]
        assert dispatch(argv) == EXIT_OK
        assert calls[0]["algorithm"] == algorithm
        err = capsys.readouterr().err
        if warned:
            assert "warning: gsa may examine up to 2001001 subsets" in err
        else:
            assert err == ""

    def test_dynamic_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = dispatch(
            ["simulate", "--dynamic", "--scenario", "ACR", "--n", "12",
             "--horizon", "2000", "--seed", "3", "-o", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_seconds,capacity_va,objective,retained_count"
        assert len(lines) >= 2

    def test_floor_above_capacity_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = dispatch(
            ["simulate", "--dynamic", "--scenario", "ACR", "--n", "12",
             "--floor", "5e6", "-o", str(out)]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "floor" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--horizon", "--event-rate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_non_positive_timing_is_usage_error(
        self, tmp_path, capsys, flag, value
    ):
        # nan and inf used to grow the trace without bound
        out = tmp_path / "trace.csv"
        code = dispatch(
            ["simulate", "--dynamic", "--scenario", "ACR", "--n", "12",
             f"{flag}={value}", "-o", str(out)]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["5", "0", "-0.5", "nan"])
    def test_epsilon_outside_unit_interval_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "trace.csv"
        code = dispatch(
            ["simulate", "--dynamic", "--scenario", "ACR", "--n", "12",
             f"--epsilon={value}", "-o", str(out)]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epsilon" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["gda", "gsa"])
    def test_capacity_squaring_to_inf_is_usage_error(self, tmp_path, capsys, algorithm):
        out = tmp_path / "trace.csv"
        code = dispatch(
            ["simulate", "--dynamic", "--scenario", "ACR", "--n", "12", "--capacity", "1e200",
             "--algorithm", algorithm, "--horizon", "500", "-o", str(out)]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "squares to inf" in captured.err
        assert not out.exists()

    def test_requires_dynamic_flag(self, tmp_path):
        code = dispatch(
            ["simulate", "--scenario", "ACR", "--n", "5", "-o", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_USAGE

    def test_unwritable_trace_exits_1_naming_the_path(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "t.csv"
        code = dispatch(
            ["simulate", "--dynamic", "--scenario", "ACR", "--n", "12",
             "--horizon", "500", "-o", str(out)]
        )
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: could not write trace CSV to {out}: ")


class TestEpsilonBelowTheReciprocalRange:
    """1/epsilon overflows to inf below about 5.6e-309; gsa then enumerates
    every subset, as it does for any epsilon small enough that m >= n."""

    EPSILON = "1e-310"

    def test_solve(self, tmp_path, capsys):
        path = str(tmp_path / "i.json")
        assert dispatch(["generate", "--scenario", "FLM", "--n", "8", "--capacity", "5e6",
                         "--seed", "1", "-o", path]) == EXIT_OK
        code = dispatch(["solve", path, "--algorithm", "gsa", "--epsilon", self.EPSILON])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["algorithm"] == "gsa"

    def test_simulate(self, tmp_path):
        out = tmp_path / "t.csv"
        code = dispatch(["simulate", "--dynamic", "--scenario", "FCM", "--n", "8", "--seed", "3",
                         "--algorithm", "gsa", "--epsilon", self.EPSILON, "-o", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) >= 2

    def test_bench_plan(self, tmp_path):
        plan = {
            "scenario": {"acronym": "FCR", "capacity": 25000.0, "seed": 1},
            "n_values": [8], "trials_per_n": 30, "algorithms": ["gsa"],
            "oracle": "none", "gsa_epsilon": float(self.EPSILON),
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out = tmp_path / "report.csv"
        assert dispatch(["bench", "--plan", str(plan_path), "-o", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 2
