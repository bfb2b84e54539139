import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from synthkit import ConfigError, SuiteLoadError
from synthkit.bench import (
    ProblemRecord,
    SuiteReport,
    SynthesizerSpec,
    get_all_problem_grammar_pairs,
    load_problem_file,
    run_one,
    run_suite,
)
from synthkit.cli import main
from synthkit.iterators import check_bounds
from synthkit.probe import ProbeConfig

from conftest import SUITES_DIR

MINI_STRINGS = SUITES_DIR / "mini-strings"
ARITH = SUITES_DIR / "arith"


def write_problem(path, name="p", start="Int", examples=None, **extra):
    payload = {
        "name": name,
        "start_symbol": start,
        "examples": examples
        if examples is not None
        else [{"input": {"x": 0}, "output": 1}],
    }
    payload.update(extra)
    path.write_text(json.dumps(payload))


# -- loading -----------------------------------------------------------------


def test_mini_strings_suite_loads():
    pairs = get_all_problem_grammar_pairs(MINI_STRINGS)
    assert len(pairs) == 10
    names = [pf.name for pf, _ in pairs]
    assert names == sorted(names)
    grammars = {id(g) for _, g in pairs}
    assert len(grammars) == 1  # shared default.herbg


def test_empty_directory_yields_no_pairs(tmp_path):
    assert get_all_problem_grammar_pairs(tmp_path) == []


def test_dedicated_grammar_overrides_default(tmp_path):
    (tmp_path / "default.herbg").write_text("Int = 1 | 2 | x\n")
    (tmp_path / "special.herbg").write_text("Int = x\n")
    write_problem(tmp_path / "special.problem.json", name="special")
    write_problem(tmp_path / "plain.problem.json", name="plain")
    pairs = dict((pf.name, g) for pf, g in get_all_problem_grammar_pairs(tmp_path))
    assert pairs["special"].rule_count == 1
    assert pairs["plain"].rule_count == 3


def test_orphan_problem_is_load_error(tmp_path):
    write_problem(tmp_path / "lonely.problem.json", name="lonely")
    with pytest.raises(SuiteLoadError) as excinfo:
        get_all_problem_grammar_pairs(tmp_path)
    assert "lonely" in str(excinfo.value)


def test_zero_examples_is_load_error(tmp_path):
    write_problem(tmp_path / "bad.problem.json", examples=[])
    with pytest.raises(SuiteLoadError):
        load_problem_file(tmp_path / "bad.problem.json")


def test_malformed_json_is_load_error(tmp_path):
    path = tmp_path / "broken.problem.json"
    path.write_text("{not json")
    with pytest.raises(SuiteLoadError) as excinfo:
        load_problem_file(path)
    assert "broken.problem.json" in str(excinfo.value)


def test_malformed_grammar_error_names_file_and_line(tmp_path):
    (tmp_path / "default.herbg").write_text("Int = 1\nInt = $\n")
    write_problem(tmp_path / "p.problem.json")
    with pytest.raises(SuiteLoadError) as excinfo:
        get_all_problem_grammar_pairs(tmp_path)
    message = str(excinfo.value)
    assert "default.herbg" in message and "line 2" in message


def test_inconsistent_variable_sets_rejected(tmp_path):
    write_problem(
        tmp_path / "vars.problem.json",
        examples=[
            {"input": {"x": 0}, "output": 1},
            {"input": {"y": 0}, "output": 1},
        ],
    )
    with pytest.raises(SuiteLoadError):
        load_problem_file(tmp_path / "vars.problem.json")


def test_values_typed_by_json_type(tmp_path):
    write_problem(
        tmp_path / "typed.problem.json",
        examples=[{"input": {"x": 3.0, "s": "hi", "b": True}, "output": 7}],
    )
    loaded = load_problem_file(tmp_path / "typed.problem.json")
    env = loaded.problem.examples[0].input
    assert env == {"x": 3, "s": "hi", "b": True}
    assert type(env["x"]) is int
    assert type(env["b"]) is bool


def test_non_integer_number_rejected(tmp_path):
    write_problem(tmp_path / "f.problem.json", examples=[{"input": {"x": 1.5}, "output": 1}])
    with pytest.raises(SuiteLoadError):
        load_problem_file(tmp_path / "f.problem.json")


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70, 1e30])
def test_integer_outside_64_bits_rejected(tmp_path, value):
    path = tmp_path / "big.problem.json"
    write_problem(path, examples=[{"input": {"x": 2**63 - 1}, "output": -(2**63)}])
    assert load_problem_file(path).problem.examples[0].output == -(2**63)
    write_problem(path, examples=[{"input": {"x": 0}, "output": value}])
    with pytest.raises(SuiteLoadError, match="big.problem.json"):
        load_problem_file(path)


@pytest.mark.parametrize("value", [None, [1], {"a": 1}])
def test_unsupported_json_value_rejected(tmp_path, value):
    path = tmp_path / "odd.problem.json"
    for example in ({"input": {"x": value}, "output": 1}, {"input": {"x": 0}, "output": value}):
        write_problem(path, examples=[example])
        with pytest.raises(SuiteLoadError, match="odd.problem.json: example 0"):
            load_problem_file(path)


def test_constraints_parsed_from_problem_file(tmp_path):
    write_problem(
        tmp_path / "c.problem.json",
        constraints=["(forbidden (rule 4 (var a) (var a)))"],
    )
    loaded = load_problem_file(tmp_path / "c.problem.json")
    assert len(loaded.constraints) == 1


MALFORMED_PROBLEMS = {
    "constraints_not_a_list": dict(constraints=5),
    "input_not_an_object": dict(examples=[{"input": [0], "output": 1}]),
    "constraint_not_a_string": dict(constraints=[[7]]),
    "name_not_a_string": dict(name=5),
}


@pytest.mark.parametrize("fields", MALFORMED_PROBLEMS.values(), ids=list(MALFORMED_PROBLEMS))
def test_malformed_problem_fields_are_load_errors(tmp_path, fields):
    write_problem(tmp_path / "odd.problem.json", **fields)
    with pytest.raises(SuiteLoadError) as excinfo:
        load_problem_file(tmp_path / "odd.problem.json")
    assert "odd.problem.json" in str(excinfo.value)


# -- running ------------------------------------------------------------------


def bfs_spec(**kwargs):
    defaults = dict(kind="bfs", max_depth=4, max_enumerations=400)
    defaults.update(kwargs)
    return SynthesizerSpec(**defaults)


def test_run_suite_arith():
    pairs = get_all_problem_grammar_pairs(ARITH)
    report = run_suite(pairs, bfs_spec(), timeout_seconds=30.0)
    by_name = {r.name: r for r in report.problems}
    assert by_name["linear"].solved is True
    assert by_name["linear"].flag == "optimal_program"
    assert by_name["contradictory"].solved is False
    assert report.total == 2
    assert report.solved_problems == 1


def test_timeout_zero_records_everything_unsolved():
    pairs = get_all_problem_grammar_pairs(ARITH)
    report = run_suite(pairs, bfs_spec(), timeout_seconds=0.0)
    for record in report.problems:
        assert record.solved is False
        assert record.flag == "no_program"
        assert record.wall_time_seconds == 0.0


def test_parallelism_does_not_change_results():
    pairs = get_all_problem_grammar_pairs(MINI_STRINGS)
    spec = bfs_spec(max_depth=3, max_enumerations=300)
    serial = run_suite(pairs, spec, timeout_seconds=30.0, parallelism=1)
    threaded = run_suite(pairs, spec, timeout_seconds=30.0, parallelism=4)
    assert [(r.name, r.solved, r.flag, r.program) for r in serial.problems] == [
        (r.name, r.solved, r.flag, r.program) for r in threaded.problems
    ]


def test_unknown_synthesizer_kind_rejected():
    with pytest.raises(SuiteLoadError):
        SynthesizerSpec(kind="genetic")


def test_probe_spec_rejects_max_size():
    with pytest.raises(SuiteLoadError):
        SynthesizerSpec(kind="probe", max_depth=4, max_size=2)


def test_negative_probe_cycles_rejected():
    with pytest.raises(SuiteLoadError):
        SynthesizerSpec(kind="probe", max_depth=4, probe_cycles=-3)
    assert SynthesizerSpec(kind="probe", max_depth=4, probe_cycles=0).probe_cycles == 0


@pytest.mark.parametrize(
    "kind, bounds, message",
    [
        ("bfs", {"max_depth": 0}, "max_depth"),
        ("dfs", {"max_size": 0}, "max_size"),
        ("mlfs", {"max_enumerations": -1}, "max_enumerations"),
        ("bottom_up", {"max_depth": 3}, "max_size"),
        ("probe", {"max_depth": -1}, "max_depth"),
        ("probe", {"max_enumerations": -5}, "max_enumerations"),
    ],
)
def test_bad_bounds_are_rejected_before_any_problem_runs(kind, bounds, message):
    # A spec is checked when it is made, so a suite run never starts with
    # a bound that every problem would report as an error.
    with pytest.raises(ConfigError, match=message):
        check_bounds(kind, *map(bounds.get, ("max_depth", "max_size", "max_enumerations")))
    with pytest.raises(ConfigError, match=message):
        SynthesizerSpec(kind, **bounds)
    if kind == "probe":
        with pytest.raises(ConfigError, match=message):
            ProbeConfig(**bounds)


def test_negative_timeout_rejected_before_any_run():
    pairs = get_all_problem_grammar_pairs(ARITH)
    problem_file, grammar = pairs[0]
    with pytest.raises(ConfigError):
        run_one(problem_file, grammar, bfs_spec(), -1.0)
    with pytest.raises(ConfigError):
        run_suite(pairs, bfs_spec(), timeout_seconds=-1.0)


@pytest.mark.parametrize("parallelism", [0, -4])
def test_parallelism_below_one_rejected(parallelism):
    pairs = get_all_problem_grammar_pairs(ARITH)
    with pytest.raises(ConfigError):
        run_suite(pairs, bfs_spec(), timeout_seconds=30.0, parallelism=parallelism)


def _mini_strings_pair(name):
    return next(
        (problem_file, grammar)
        for problem_file, grammar in get_all_problem_grammar_pairs(MINI_STRINGS)
        if problem_file.name == name
    )


def test_error_record_reports_the_programs_enumerated():
    # bfs scores 401 programs cleanly; the 402nd raises on the input "hello".
    problem_file, grammar = _mini_strings_pair("08_drop_first")
    spec = bfs_spec(max_enumerations=3000, allow_evaluation_errors=False)
    record = run_one(problem_file, grammar, spec, 30.0)
    assert record.flag == "no_program"
    assert "out of range" in record.error
    assert record.enumerated == 402


def test_probe_error_record_reports_the_programs_enumerated():
    problem_file, grammar = _mini_strings_pair("01_append_excl")
    spec = SynthesizerSpec(
        "probe", max_depth=4, max_enumerations=3000, allow_evaluation_errors=False
    )
    record = run_one(problem_file, grammar, spec, 30.0)
    assert record.error is not None
    assert record.enumerated > 0


def test_error_before_any_enumeration_reports_zero():
    problem_file, grammar = _mini_strings_pair("08_drop_first")
    problem_file.start_symbol = "Missing"
    record = run_one(problem_file, grammar, bfs_spec(), 30.0)
    assert record.error is not None
    assert record.enumerated == 0


def test_probe_with_a_zero_budget_enumerates_nothing():
    problem_file, grammar = _mini_strings_pair("01_append_excl")
    spec = SynthesizerSpec("probe", max_depth=3, max_enumerations=0, probe_cycles=1)
    record = run_one(problem_file, grammar, spec, 30.0)
    assert record.enumerated == 0
    assert not record.solved


def test_aggregate_counts_optimal_records():
    pairs = get_all_problem_grammar_pairs(ARITH)
    report = run_suite(pairs, bfs_spec(), timeout_seconds=30.0)
    assert report.solved_problems == sum(
        1 for r in report.problems if r.flag == "optimal_program"
    )


def test_report_json_round_trip():
    report = SuiteReport(
        [
            ProblemRecord("a", True, "optimal_program", 0.25, 17, "4{3,1}"),
            ProblemRecord("b", False, "no_program", 10.0, 5000, None, "boom"),
        ],
        1,
        2,
    )
    assert SuiteReport.from_json(report.to_json()) == report


def test_report_schema_keys():
    report = SuiteReport([ProblemRecord("a", True, "optimal_program", 0.1, 3, "1")], 1, 1)
    payload = json.loads(report.to_json())
    assert set(payload) == {"problems", "solved_problems", "total"}
    assert set(payload["problems"][0]) == {
        "name",
        "solved",
        "flag",
        "wall_time_seconds",
        "enumerated",
        "program",
    }


# -- CLI -------------------------------------------------------------------------


def test_cli_solve_arith(capsys):
    code = main(
        [
            "solve",
            "--grammar",
            str(ARITH / "default.herbg"),
            "--problem",
            str(ARITH / "linear.problem.json"),
            "--iterator",
            "bfs",
            "--max-depth",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "program: " in out
    assert "expression: " in out
    assert "flag: optimal_program" in out


def test_cli_solve_contradictory_exits_zero(capsys):
    code = main(
        [
            "solve",
            "--grammar",
            str(ARITH / "default.herbg"),
            "--problem",
            str(ARITH / "contradictory.problem.json"),
            "--iterator",
            "bfs",
            "--max-depth",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "flag: suboptimal_program" in out


def test_cli_solve_missing_file_exits_nonzero(tmp_path, capsys):
    code = main(
        [
            "solve",
            "--grammar",
            str(tmp_path / "nope.herbg"),
            "--problem",
            str(ARITH / "linear.problem.json"),
        ]
    )
    assert code != 0
    assert "error:" in capsys.readouterr().err


def test_cli_solve_malformed_problem_exits_nonzero(tmp_path, capsys):
    problem = tmp_path / "odd.problem.json"
    write_problem(problem, constraints=5)
    code = main(
        ["solve", "--grammar", str(ARITH / "default.herbg"), "--problem", str(problem)]
    )
    assert code == 1
    assert "odd.problem.json" in capsys.readouterr().err


def test_cli_solve_a_constraint_that_can_never_match_exits_nonzero(tmp_path, capsys):
    problem = tmp_path / "never.problem.json"
    write_problem(problem, constraints=["(forbidden (rule 4 (var a)))"])
    code = main(
        ["solve", "--grammar", str(ARITH / "default.herbg"), "--problem", str(problem),
         "--max-depth", "3"]
    )
    assert code == 1
    assert "child count" in capsys.readouterr().err


def test_cli_solve_mlfs_on_an_unweighted_grammar(capsys):
    code = main(
        [
            "solve",
            "--grammar",
            str(ARITH / "default.herbg"),
            "--problem",
            str(ARITH / "linear.problem.json"),
            "--iterator",
            "mlfs",
            "--max-depth",
            "4",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "program: " in out and "program: none" not in out


def test_cli_bench_probe_with_max_size_exits_nonzero(capsys):
    code = main(
        [
            "bench",
            "--suite",
            str(ARITH),
            "--synthesizer",
            "probe",
            "--max-depth",
            "4",
            "--max-size",
            "2",
        ]
    )
    captured = capsys.readouterr()
    assert code != 0
    assert "error:" in captured.err and "max_size" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cycles", "-2"], "probe cycles"),
        (["--timeout", "-1"], "timeout"),
        (["--parallelism", "-4"], "parallelism"),
        (["--max-depth", "0"], "max_depth"),
        (["--max-enumerations", "-1"], "max_enumerations"),
        (["--synthesizer", "bfs", "--max-depth", "0"], "max_depth"),
        (["--synthesizer", "bottom-up"], "max_size"),
    ],
)
def test_cli_bench_rejects_negative_budgets(capsys, flags, message):
    code = main(
        ["bench", "--suite", str(ARITH), "--synthesizer", "probe", "--max-depth", "3"] + flags
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err and message in captured.err
    assert captured.out == ""


def test_cli_unknown_iterator_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--grammar", "g", "--problem", "p", "--iterator", "magic"])
    assert excinfo.value.code == 2


def test_cli_enumerate_matches_oracle(capsys, g0):
    from oracles import enumerate_programs
    from synthkit import serialize_node

    code = main(
        [
            "enumerate",
            "--grammar",
            str(ARITH / "default.herbg"),
            "--start",
            "Int",
            "--max-depth",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert set(lines) == {serialize_node(p) for p in enumerate_programs(g0, "Int", 2)}


def test_cli_enumerate_limit(capsys):
    code = main(
        [
            "enumerate",
            "--grammar",
            str(ARITH / "default.herbg"),
            "--start",
            "Int",
            "--max-depth",
            "3",
            "--limit",
            "7",
        ]
    )
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 7


def test_cli_bench_writes_report(tmp_path, capsys):
    report_path = tmp_path / "out.json"
    code = main(
        [
            "bench",
            "--suite",
            str(ARITH),
            "--synthesizer",
            "bfs",
            "--max-depth",
            "4",
            "--max-enumerations",
            "400",
            "--timeout",
            "30",
            "--report",
            str(report_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "solved 1/2 problems" in out
    payload = json.loads(report_path.read_text())
    assert payload["total"] == 2
    assert payload["solved_problems"] == 1


def test_cli_bench_determinism(tmp_path):
    reports = []
    for i in range(2):
        path = tmp_path / f"r{i}.json"
        code = main(
            [
                "bench",
                "--suite",
                str(MINI_STRINGS),
                "--synthesizer",
                "bfs",
                "--max-depth",
                "3",
                "--max-enumerations",
                "300",
                "--timeout",
                "60",
                "--report",
                str(path),
            ]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        for record in payload["problems"]:
            record["wall_time_seconds"] = 0.0
        reports.append(json.dumps(payload, sort_keys=True))
    assert reports[0] == reports[1]


def test_module_entry_point_runs():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "synthkit",
            "enumerate",
            "--grammar",
            str(ARITH / "default.herbg"),
            "--start",
            "Int",
            "--max-depth",
            "1",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert result.returncode == 0
    assert result.stdout.split() == ["1", "2", "3"]


def test_mlfs_gets_uniform_probabilities_when_grammar_is_unweighted():
    pairs = get_all_problem_grammar_pairs(ARITH)
    spec = SynthesizerSpec(kind="mlfs", max_depth=5, max_enumerations=2000)
    report = run_suite(pairs, spec, timeout_seconds=30.0)
    by_name = {r.name: r for r in report.problems}
    assert by_name["linear"].solved is True
    assert by_name["linear"].error is None


def test_bench_pairs_compares_a_checkout_with_itself():
    # Both sides are this checkout, so every run must be correct and each
    # end-to-end metric gets a row with both medians, a ratio, the parent's
    # spread (none over one pair) and a count.
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [
            sys.executable, str(root / "scripts" / "bench_pairs.py"), str(root), str(root),
            "--workload", "enum-constrained", "--seeds", "1", "--seconds", "1", "--smoke",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    rows = {line.split()[0]: line.split()[1:] for line in result.stdout.splitlines()}
    assert rows["all"] == ["runs", "correct:", "True"]
    parent, change, ratio, spread, improved, worse = rows["programs_per_s"]
    assert float(parent) > 0 and float(change) > 0 and float(ratio) > 0
    assert float(spread) == 0
    assert improved in ("0/1", "1/1") and worse in ("0/1", "1/1")
    assert {"setup_s", "suite_s", "solved_frac", "peak_rss_mb"} <= rows.keys()


def _bench_pairs():
    """``scripts/bench_pairs.py`` as a module; importing it starts no run."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", script)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_compiles_each_checkout_before_it_runs(tmp_path, monkeypatch):
    # A copy of the sources with one stale .pyc and the rest uncompiled:
    # after compile_sources every module has a .pyc that matches its
    # source, as an import checks it, even with PYTHONDONTWRITEBYTECODE.
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    sources = sorted((tmp_path / "src").rglob("*.py"))
    stale = Path(importlib.util.cache_from_source(str(sources[0])))
    stale.parent.mkdir()
    stale.write_bytes(importlib.util.MAGIC_NUMBER + bytes(12))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    _bench_pairs().compile_sources(tmp_path)
    for source in sources:
        header = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
        stat = source.stat()
        assert header[:4] == importlib.util.MAGIC_NUMBER, source
        assert int.from_bytes(header[8:12], "little") == int(stat.st_mtime) & 0xFFFFFFFF, source
        assert int.from_bytes(header[12:16], "little") == stat.st_size & 0xFFFFFFFF, source


def test_bench_pairs_looks_up_directions_without_the_workload_prefix():
    # `run.py --workload all` names each metric `<workload>.<metric>`; the
    # direction comes from BENCHMARK.json's bare name.  No run is started.
    root = Path(__file__).resolve().parent.parent
    bench_pairs = _bench_pairs()
    better, workloads = bench_pairs.directions(root)
    assert {"enum-plain", "enum-constrained", "pbe-topdown", "pbe-bottomup"} <= set(workloads)
    for name, expected in [
        ("programs_per_s", "higher"),
        ("enum-plain.programs_per_s", "higher"),
        ("pbe-topdown.suite_s", "lower"),
        ("enum-constrained.iterators.mlfs.programs_per_s", "higher"),
        ("pbe-bottomup.solver.split_s", "lower"),
        ("enum-plain.no_such_metric", None),
        ("no-such-workload.programs_per_s", None),
    ]:
        assert bench_pairs.direction(name, better, workloads) == expected, name


def test_bench_pairs_summary_counts_ties_apart_from_losses():
    # Canned results of three pairs, no run started: a metric that ties in
    # every pair reads 0 improved and 0 worse, not as three losses.
    def run(programs, solved, suite):
        metrics = {"programs_per_s": programs, "solved_frac": solved, "suite_s": suite, "odd": 1}
        return {"metrics": {name: {"value": value} for name, value in metrics.items()}}

    runs = {
        "parent": [run(100, 0.0, 5.0), run(110, 0.0, 5.0), run(90, 0.0, 4.0)],
        "change": [run(120, 0.0, 4.0), run(105, 0.0, 5.0), run(95, 0.0, 6.0)],
    }
    root = Path(__file__).resolve().parent.parent
    bench_pairs = _bench_pairs()
    better, workloads = bench_pairs.directions(root)
    header, *lines = bench_pairs.summary(runs, better, workloads)
    assert header.split()[-2:] == ["improved", "worse"]
    rows = {line.split()[0]: line.split()[1:] for line in lines}
    assert rows["programs_per_s"][-2:] == ["2/3", "1/3"]
    assert rows["solved_frac"][-2:] == ["0/3", "0/3"]
    assert rows["suite_s"][-2:] == ["1/3", "1/3"]
    assert rows["odd"][-2:] == ["?", "?"]
    assert [float(v) for v in rows["programs_per_s"][:2]] == [100, 105]
    assert not any(line.startswith("skipped") for line in lines)


def _canned_run(**metrics):
    """A run's result as ``perfbench/run.py`` prints it; no metrics is a failed run."""
    return {"metrics": {name: {"value": value} for name, value in metrics.items()}}


def test_bench_pairs_summary_pairs_runs_by_seed():
    # Four seeds, the change 10 faster in every pair; the third parent run
    # and the fourth change run failed.  Only the first two pairs have both
    # sides, so the change wins 2 of 2 and loses none: filtering each side
    # on its own would pair the parent's fourth run with the change's
    # third and read one loss in three.
    parent = [_canned_run(programs_per_s=v, suite_s=1.0) for v in (100, 120, 140, 160)]
    change = [_canned_run(programs_per_s=v, suite_s=1.0) for v in (110, 130, 150, 170)]
    parent[2] = change[3] = _canned_run()
    root = Path(__file__).resolve().parent.parent
    bench_pairs = _bench_pairs()
    better, workloads = bench_pairs.directions(root)
    _, *lines = bench_pairs.summary({"parent": parent, "change": change}, better, workloads)
    rows = {line.split()[0]: line.split()[1:] for line in lines}
    assert rows["programs_per_s"][-2:] == ["2/2", "0/2"]
    assert [float(v) for v in rows["programs_per_s"][:2]] == [110, 120]
    assert rows["suite_s"][-2:] == ["0/2", "0/2"]
    assert [line for line in lines if line.startswith("skipped")] == [
        "skipped 2/4 pairs, a side reporting no value, for 2 metrics"
    ]


def test_bench_pairs_summary_takes_metric_names_from_any_run():
    # A failed first parent run reports no metrics; the names still come
    # from the other runs, and the pair it spoils is skipped.  A metric
    # that only one side ever reports has no pair and no row.
    parent = [_canned_run(), _canned_run(programs_per_s=100), _canned_run(programs_per_s=90)]
    change = [
        _canned_run(programs_per_s=v, only_change=1.0) for v in (120, 95, 100)
    ]
    root = Path(__file__).resolve().parent.parent
    bench_pairs = _bench_pairs()
    better, workloads = bench_pairs.directions(root)
    _, *lines = bench_pairs.summary({"parent": parent, "change": change}, better, workloads)
    rows = {line.split()[0]: line.split()[1:] for line in lines}
    assert rows["programs_per_s"][-2:] == ["1/2", "1/2"]
    assert "only_change" not in rows
    assert [line for line in lines if line.startswith("skipped")] == [
        "skipped 1/3 pairs, a side reporting no value, for 1 metrics",
        "skipped 3/3 pairs, a side reporting no value, for 1 metrics",
    ]
