import csv
import json

import pytest
from click.testing import CliRunner

from typedfisher import fixedpoint, instance_to_dict, load_instance, solver
from typedfisher.cli import main

from helpers import later_free_good_market


@pytest.fixture
def runner():
    return CliRunner()


def test_validate_three_buyer_market(runner):
    result = runner.invoke(main, ["validate", "--builtin", "prop2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["errors"] == []


def test_validate_two_buyer_market_warns(runner):
    result = runner.invoke(main, ["validate", "--builtin", "prop1"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert "no-untyped-good" in doc["warnings"]


def test_validate_malformed_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["validate", "--instance", str(bad)])
    assert result.exit_code == 2


def test_validate_errors_exit_one(runner, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps(
            {
                "n": 1, "m": 2,
                "utilities": [[1.0, 2.0]],
                "budgets": [1.0],
                "capacities": [0.5, 0.5],
                "types": [[0, 1], [1]],
            }
        )
    )
    result = runner.invoke(main, ["validate", "--instance", str(broken)])
    assert result.exit_code == 1
    assert "overlap" in result.output


def test_validate_requires_exactly_one_source(runner):
    assert runner.invoke(main, ["validate"]).exit_code == 2
    assert (
        runner.invoke(
            main, ["validate", "--builtin", "prop2", "--instance", "x.json"]
        ).exit_code
        == 2
    )


def test_tol_only_on_commands_that_solve(runner):
    for command, has_tol in (
        ("validate", False), ("check", False), ("solve", True), ("fixed-point", True)
    ):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert ("--tol " in result.output) == has_tol, command


def test_option_defaults_are_the_library_defaults():
    for command, option, default in (
        ("solve", "tol", solver.DEFAULT_TOL),
        ("fixed-point", "tol", solver.DEFAULT_TOL),
        ("fixed-point", "eps", fixedpoint.DEFAULT_EPS),
        ("fixed-point", "max_iter", fixedpoint.DEFAULT_MAX_ITER),
    ):
        params = {p.name: p for p in main.commands[command].params}
        assert params[option].default == default, (command, option)


def test_solve_sop1_exposes_type_duals(runner):
    result = runner.invoke(main, ["solve", "--builtin", "prop2", "--sop1"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    r_sums = [sum(row) for row in doc["r"]]
    assert max(r_sums) > 1e-3  # some budget stays unused without perturbation
    assert doc["status"] in ("converged", "degenerate_tight")


def test_solve_with_lam_vector(runner):
    result = runner.invoke(
        main, ["solve", "--builtin", "prop2", "--lam", "[0.5, 0.0, 0.0]"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["lambda"] == [0.5, 0.0, 0.0]


def test_fixed_point_writes_trace_and_results(runner, tmp_path):
    trace = tmp_path / "t.csv"
    out = tmp_path / "r.json"
    result = runner.invoke(
        main,
        [
            "fixed-point", "--builtin", "prop2",
            "--eps", "1e-6",
            "--trace", str(trace),
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["iter", "residual"]
    assert len(rows) > 2
    doc = json.loads(out.read_text())
    assert doc["status"] == "converged"
    assert len(doc["prices"]) == 3
    assert len(doc["step_scales"]) == doc["iterations"] - 1 == len(rows) - 2
    assert doc["newton_iterations"] >= doc["iterations"]


def test_fixed_point_reports_how_each_solve_started(runner):
    result = runner.invoke(main, ["fixed-point", "--builtin", "prop2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    starts = doc["solver_starts"]
    assert len(starts) == doc["iterations"]
    assert starts[0] == "cold"
    assert set(starts) <= {"cold", "warm", "fallback"}


def test_fixed_point_no_types_single_iteration(runner, tmp_path):
    inst_path = tmp_path / "classical.json"
    runner.invoke(
        main,
        ["gen", "--seed", "3", "-n", "2", "-m", "2", "--types", "none",
         "-o", str(inst_path)],
    )
    result = runner.invoke(main, ["fixed-point", "--instance", str(inst_path)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["iterations"] == 1


def test_fixed_point_experiment_trace_under_100_rows(runner, tmp_path):
    trace = tmp_path / "t.csv"
    result = runner.invoke(
        main,
        ["fixed-point", "--builtin", "experiment", "--seed", "1",
         "--eps", "1e-6", "--trace", str(trace)],
    )
    assert result.exit_code == 0
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 < 100  # header plus one row per iteration


def test_check_command_passes_cited_equilibrium(runner, tmp_path):
    alloc = tmp_path / "a.json"
    alloc.write_text(json.dumps({"allocation": [[1, 0, 1], [0, 1, 0], [0, 1, 0]]}))
    result = runner.invoke(
        main,
        ["check", "--builtin", "prop2", "--prices", "[11, 10, 9]",
         "--alloc", str(alloc)],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["pass"] is True


def test_check_command_fails_bad_allocation(runner, tmp_path):
    alloc = tmp_path / "a.json"
    alloc.write_text(json.dumps([[0.5, 0, 1], [0, 1, 0], [0, 1, 0]]))
    result = runner.invoke(
        main,
        ["check", "--builtin", "prop2", "--prices", "[11, 10, 9]",
         "--alloc", str(alloc)],
    )
    assert result.exit_code == 1


def test_gen_then_validate_round_trip(runner, tmp_path):
    path = tmp_path / "inst.json"
    result = runner.invoke(
        main,
        ["gen", "--seed", "7", "-n", "10", "-m", "4", "--types", "2x2",
         "-o", str(path)],
    )
    assert result.exit_code == 0
    inst = load_instance(path)
    assert inst.n_agents == 10 and inst.n_goods == 4
    assert inst.types == ((0, 1), (2, 3))
    assert runner.invoke(main, ["validate", "--instance", str(path)]).exit_code == 0


def test_gen_is_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--seed", "5", "-n", "4", "-m", "3", "--types", "1x2"]
    runner.invoke(main, args + ["-o", str(a)])
    runner.invoke(main, args + ["-o", str(b)])
    assert a.read_text() == b.read_text()


def test_reproduce_worked_example(runner):
    result = runner.invoke(main, ["reproduce", "iop_ex1"])
    assert result.exit_code == 0
    assert "PASS" in result.output
    assert "FAIL" not in result.output
    assert "0.5" in result.output


def test_reproduce_unknown_name(runner):
    assert runner.invoke(main, ["reproduce", "nonsense"]).exit_code == 2


def test_reproduce_several_names(runner):
    result = runner.invoke(main, ["reproduce", "iop_ex1", "iop_ex2"])
    assert result.exit_code == 0
    assert "--- iop_ex1 ---" in result.output
    assert "--- iop_ex2 ---" in result.output
    assert result.output.index("--- iop_ex1 ---") < result.output.index("--- iop_ex2 ---")
    assert "FAIL" not in result.output
    assert result.output.count("PASS") == 5  # 2 rows for iop_ex1, 3 for iop_ex2


def test_reproduce_every_documented_result(runner):
    names = ["prop2", "prop1", "sop1_gap", "experiment"]
    result = runner.invoke(main, ["reproduce", *names])
    assert result.exit_code == 0, result.output
    lines = [line for line in result.output.splitlines() if line.strip()]
    assert [line for line in lines if line.startswith("---")] == [
        f"--- {name} ---" for name in names
    ]
    rows = [line for line in lines if not line.startswith("---")]
    assert len(rows) == 8  # 2 rows for prop2, 1 for prop1, 2 for sop1_gap, 3 for experiment
    assert all(row.startswith("PASS  ") for row in rows), result.output


# files named by '@key' in the arguments below; each is written as JSON
BAD_INPUT_FILES = {
    "overlap": {
        "n": 1, "m": 2, "utilities": [[1.0, 2.0]], "budgets": [1.0],
        "capacities": [0.5, 0.5], "types": [[0, 1], [1]],
    },
    "overcap": {  # type capacity 3.5 for 2 agents
        "n": 2, "m": 3, "utilities": [[1.0, 2.0, 1.0], [2.0, 1.0, 1.0]],
        "budgets": [1.0, 1.0], "capacities": [2.0, 1.5, 1.0], "types": [[0, 1]],
    },
    "alloc": {"allocation": [[1, 0, 1], [0, 1, 0], [0, 1, 0]]},
    "wrong_shape": [[1, 0], [0, 1]],
    "no_key": {"alloc": [[1, 0, 1], [0, 1, 0], [0, 1, 0]]},
    "nan_alloc": {"allocation": [[1, 0, 1], [0, 1, 0], [0, 1, float("nan")]]},
    "inf_alloc": {"allocation": [[1, 0, 1], [0, 1, 0], [0, float("inf"), 0]]},
    "later_free": instance_to_dict(later_free_good_market()),
}


@pytest.mark.parametrize(
    "args, code, cause",
    [
        (["solve", "--instance", "@overlap"], 1, "types overlap at good 2"),
        (["solve", "--instance", "@overcap"], 1, "type 1 capacity 3.5 exceeds"),
        (["fixed-point", "--instance", "@overcap"], 1, "type 1 capacity 3.5 exceeds"),
        (["solve", "--builtin", "prop2", "--lam", "[1,2"], 2, "--lam expects a JSON list"),
        (["solve", "--builtin", "prop2", "--lam", "[-1,0,0]"], 2, "finite nonnegative"),
        (["check", "--builtin", "prop2", "--prices", "[-1,10,9]", "--alloc", "@alloc"],
         2, "negative price -1"),
        (["check", "--builtin", "prop2", "--prices", "[11,10]", "--alloc", "@alloc"],
         2, "price vector must have length 3"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,9]", "--alloc", "@wrong_shape"],
         2, "allocation must have shape (3, 3)"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,9]", "--alloc", "@no_key"],
         2, 'no "allocation" key'),
        (["gen", "-n", "2", "-m", "2", "--w-range", "0,1", "-o", "@out"],
         2, "--w-range expects 0 < lo <= hi"),
        (["solve", "--builtin", "prop2", "--sop1", "--lam", "[1,0,0]"], 2, "drop --lam"),
        (["fixed-point", "--builtin", "prop2", "--max-iter", "0"], 2, "0 is not in the range x>=1"),
        (["fixed-point", "--builtin", "prop2", "--eps", "-1"], 2, "--eps must be finite and nonnegative"),
        (["solve", "--builtin", "prop2", "--tol", "0"], 2, "must be finite and positive, got 0.0"),
        (["solve", "--builtin", "prop2", "--tol", "nan"], 2, "must be finite and positive, got nan"),
        (["fixed-point", "--builtin", "prop2", "--tol", "-1"], 2, "must be finite and positive, got -1.0"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,9]", "--alloc", "@alloc",
          "--check-tol", "inf"], 2, "tol_clearing must be finite and nonnegative, got inf"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,9]", "--alloc", "@alloc",
          "--check-tol", "nan"], 2, "tol_clearing must be finite and nonnegative, got nan"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,9]", "--alloc", "@alloc",
          "--check-tol", "-1"], 2, "tol_clearing must be finite and nonnegative, got -1.0"),
        (["gen", "-n", "3", "-m", "3", "--types", "2x0", "-o", "@out"],
         2, "--types 2x0 needs T >= 1 and K >= 1"),
        (["gen", "-n", "3", "-m", "3", "--types", "2x-1", "-o", "@out"],
         2, "--types 2x-1 needs T >= 1 and K >= 1"),
        (["gen", "-n", "3", "-m", "3", "--types", "-1x2", "-o", "@out"],
         2, "--types -1x2 needs T >= 1 and K >= 1"),
        (["check", "--builtin", "prop2", "--prices", "abc", "--alloc", "@alloc"],
         2, "--prices expects a JSON list, got 'abc'"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,9]", "--alloc", "@missing"],
         2, "cannot read an allocation matrix from"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,0]", "--alloc", "@alloc"],
         1, "demands unbounded quantity of free good 3"),
        (["solve", "--builtin", "nope"], 2, "unknown builtin 'nope'"),
        (["gen", "-n", "3", "-m", "3", "--types", "foo", "-o", "@out"],
         2, "bad --types spec 'foo'"),
        (["gen", "-n", "3", "-m", "3", "--types", "[1,2]", "-o", "@out"],
         2, "bad --types JSON '[1,2]'"),
        (["gen", "-n", "3", "-m", "3", "--types", "2x2", "-o", "@out"],
         2, "--types 2x2 needs 4 goods but m=3"),
        (["gen", "-n", "0", "-m", "3", "-o", "@out"], 2, "n and m must be positive"),
        (["gen", "-n", "3", "-m", "3", "--u-range", "1", "-o", "@out"],
         2, "--u-range expects 'lo,hi'"),
        # "@nodir/..." names a file in a directory that does not exist
        (["validate", "--builtin", "prop2", "--out", "@nodir/x"],
         2, "nodir/x.json: No such file or directory"),
        (["solve", "--builtin", "prop2", "--sop1", "--out", "@nodir/x"],
         2, "nodir/x.json: No such file or directory"),
        (["fixed-point", "--builtin", "prop2", "--out", "@nodir/x"],
         2, "nodir/x.json: No such file or directory"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,9]", "--alloc", "@alloc",
          "--out", "@nodir/x"], 2, "nodir/x.json: No such file or directory"),
        (["fixed-point", "--builtin", "prop2", "--trace", "@nodir/t"],
         2, "nodir/t.json: No such file or directory"),
        (["gen", "-n", "3", "-m", "3", "-o", "@nodir/g"],
         2, "nodir/g.json: No such file or directory"),
        (["validate", "--instance", "@missing"], 2, "cannot read instance file"),
        (["check", "--instance", "@later_free", "--prices", "[1,0,1]", "--alloc", "@alloc"],
         1, "agent 3 demands unbounded quantity of free good 2"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,9]", "--alloc", "@nan_alloc"],
         2, "allocation must be finite"),
        (["check", "--builtin", "prop2", "--prices", "[11,10,9]", "--alloc", "@inf_alloc"],
         2, "allocation must be finite"),
    ],
)
def test_bad_input_exits_without_traceback(runner, tmp_path, args, code, cause):
    for key, doc in BAD_INPUT_FILES.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
    args = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert cause in result.output
    # a failed run prints no JSON result
    assert not result.output.startswith("{")
    if code == 2:
        assert "Error: " in result.output


def test_numbers_rounded_to_twelve_digits(runner):
    result = runner.invoke(main, ["solve", "--builtin", "prop2", "--sop1"])
    doc = json.loads(result.output)
    for row in doc["allocation"]:
        for v in row:
            assert float(f"{v:.12g}") == v
