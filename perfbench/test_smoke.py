"""Smoke tests for the benchmark: tiny bounds, every workload, both modes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import taskgen  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_passes_and_reports_every_metric(trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = _result(done.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{w['name']}.{m['name']}": m["unit"] for w in SPEC["workloads"] for m in SPEC[section]
    }
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected


def test_a_checkout_without_synthkit_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _patched_run(monkeypatch, capsys, workload, patches) -> tuple[int, dict]:
    sk = run.load_synthkit(run.check_layout())
    for module, name, value in patches(sk):
        monkeypatch.setattr(module, name, value)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--smoke"])
    return code, _result(capsys.readouterr().out)


def test_an_emitted_set_that_breaks_a_constraint_fails_the_run(monkeypatch, capsys):
    code, result = _patched_run(
        monkeypatch, capsys, "enum-constrained",
        lambda sk: [(sk.iterators, "check_program", lambda constraints, program: True),
                    (sk.solver.SolverState, "propagate", lambda state: True)],
    )
    assert code == 1 and not result["correct"] and result["failed"] > 0


def test_a_program_that_misses_the_examples_fails_the_run(monkeypatch, capsys):
    always = lambda actual, expected: True  # noqa: E731
    code, result = _patched_run(
        monkeypatch, capsys, "pbe-topdown",
        lambda sk: [(sk.probe, "values_equal", always),
                    (sys.modules["synthkit.interpreter"], "values_equal", always)],
    )
    assert code == 1 and not result["correct"] and result["failed"] > 0


@pytest.mark.parametrize("family", taskgen.FAMILIES, ids=lambda f: f.name)
def test_reference_oracles_agree_with_each_other_and_with_synthkit(family):
    sk = run.load_synthkit(run.check_layout())
    grammar = ref.load_grammar(ROOT / family.grammar_path)
    for depth, size in ((2, 5), (3, 6), (4, 7)):
        listed = ref.list_programs(grammar, family.start, depth, size)
        assert len(listed) == ref.count_programs(grammar, family.start, depth, size)
        assert len({ref.text_of(p) for p in listed}) == len(listed)
    library_grammar = sk.grammar_text.parse_grammar((ROOT / family.grammar_path).read_text())
    execute = sys.modules["synthkit.interpreter"].execute_on_input
    for task in taskgen.generate(taskgen.Catalogue(family, grammar), 20, seed=11):
        program = sk.nodes.parse_node(ref.text_of(task.target))
        assert tuple(execute(library_grammar, program, env) for env in task.inputs) == task.outputs


def test_tasks_depend_only_on_the_seed():
    grammar = ref.load_grammar(ROOT / taskgen.FAMILIES[1].grammar_path)
    catalogue = taskgen.Catalogue(taskgen.FAMILIES[1], grammar)
    first = taskgen.generate(catalogue, 15, seed=4)
    fresh = taskgen.generate(taskgen.Catalogue(taskgen.FAMILIES[1], grammar), 15, seed=4)
    other = taskgen.generate(catalogue, 15, seed=5)
    assert [(t.target, t.inputs) for t in first] == [(t.target, t.inputs) for t in fresh]
    assert [t.inputs for t in first] != [t.inputs for t in other]


def test_mlfs_order_check_rejects_a_rising_log_probability():
    grammar = ref.load_grammar(ROOT / taskgen.FAMILIES[0].grammar_path)
    probabilities = ref.seeded_probabilities(grammar, random.Random(0))
    workload = workloads.EnumPlain.__new__(workloads.EnumPlain)
    workload.probabilities = {"arith": probabilities}
    texts = sorted(
        (ref.text_of(p) for p in ref.list_programs(grammar, "Int", 2, 3)),
        key=lambda t: ref.log_probability(ref.parse_text(t), ref.logs(probabilities)),
    )
    p = workloads._Pass("mlfs", "arith", 2, 3, ())
    workload.expected = {("arith", 2, 3, ()): set(texts)}
    assert "rises" in workload._check(p, texts)
    assert workload._check(p, texts[::-1]) is None
