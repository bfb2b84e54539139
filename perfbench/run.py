"""synthkit benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload enum-plain --seed 1 --seconds 20 --trace 0

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
wraps synthkit's layer boundaries in spans (see ``spans.py``) and prints
the per-layer metrics instead.  ``--workload all`` runs every workload in
turn, and ``--smoke`` shrinks every bound so a run takes seconds.  The last
line of standard output is the JSON result; the exit status is 0 only when
every output passed its check.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 2
RUN_LIMIT_S = 90.0  # measuring ends within this, whatever --seconds says

SYNTHKIT_MODULES = (
    "bench", "constraints", "errors", "grammar", "grammar_text", "iterators",
    "nodes", "probe", "solver",
)
END_TO_END = (
    ("setup_s", "s"),
    ("programs_per_s", "1/s"),
    ("task_p50_s", "s"),
    ("task_p90_s", "s"),
    ("suite_s", "s"),
    ("solved_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


class LayoutError(Exception):
    """The checkout does not hold the synthkit sources the benchmark measures."""


# Run in a fresh interpreter: time the import, then scale it with reference
# samples taken in the same process right after.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from clock import Clock
start = time.perf_counter()
import synthkit, {modules}
seconds = time.perf_counter() - start
clock = Clock()
for _ in range(15):
    clock.sample()
print(clock.scaled(start, seconds))
"""


def check_layout() -> Path:
    """The checkout's ``src``, or LayoutError when synthkit's sources are missing."""
    src = ROOT / "src"
    needed = [src / "synthkit" / "__init__.py"] + [
        ROOT / family.grammar_path for family in workloads.taskgen.FAMILIES
    ]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]
    if missing:
        raise LayoutError(f"not a synthkit checkout, missing: {', '.join(missing)}")
    return src


def load_synthkit(src: Path):
    """Import synthkit from ``src``.

    The modules are returned by name because the package namespace rebinds
    some of them (``synthkit.probe`` is the function there).
    """
    sys.path.insert(0, str(src))
    sk = types.SimpleNamespace(**{
        name: importlib.import_module(f"synthkit.{name}") for name in SYNTHKIT_MODULES
    })
    imported = Path(sys.modules["synthkit"].__file__).resolve()
    if not imported.is_relative_to(src):
        raise LayoutError(f"synthkit was imported from {imported}, not {src}")
    return sk


def import_seconds(src: Path) -> float:
    """Median time to import synthkit in a fresh interpreter, at reference speed."""
    code = IMPORT_PROBE.format(modules=", ".join(f"synthkit.{m}" for m in SYNTHKIT_MODULES))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code, str(src), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def run_rounds(workload, state, tracer, seconds: float) -> list:
    """Whole rounds until the next one would end past ``seconds``; two at least,
    unless a second would end past the workload's deadline."""
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(workload.run_round(state, tracer))
        walls.append(time.perf_counter() - began)
        projected = time.perf_counter() + statistics.median(walls)
        if projected > workload.deadline or (
            len(rounds) >= MIN_ROUNDS and projected - start > seconds
        ):
            return rounds


class Typical(NamedTuple):
    """One unit's figures over a run's rounds, in seconds at reference speed."""

    seconds: float
    programs: int
    solved: bool
    blocks: list


def typical_units(rounds, clock: Clock) -> list[Typical]:
    """Per unit (and per block of a pass), the median of its scaled times over rounds."""
    typical = []
    for runs in zip(*(r.units for r in rounds)):
        seconds = [clock.scaled(unit.start, unit.seconds) for unit in runs]
        blocks = [[clock.scaled(start, s) for start, s in unit.blocks] for unit in runs]
        if len({len(b) for b in blocks}) == 1:
            block_seconds = [statistics.median(column) for column in zip(*blocks)]
        else:
            block_seconds = blocks[0]
        first = runs[0]
        typical.append(Typical(statistics.median(seconds), first.programs, first.solved, block_seconds))
    return typical


def end_to_end_metrics(rounds, clock: Clock, setup_s: float) -> tuple[dict, str]:
    """The end-to-end metrics of a run's rounds, and a summary line."""
    units = typical_units(rounds, clock)
    latencies = [x for unit in units for x in unit.blocks] or [unit.seconds for unit in units]
    suite_s = sum(unit.seconds for unit in units)
    values = {
        "setup_s": setup_s,
        "programs_per_s": sum(unit.programs for unit in units) / suite_s,
        "task_p50_s": statistics.median(latencies),
        "task_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "suite_s": suite_s,
        "solved_frac": sum(unit.solved for unit in units) / len(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_s = sum(unit.seconds for r in rounds for unit in r.units) / len(rounds)
    beyond_p90 = sum(x > values["task_p90_s"] for x in latencies)
    note = (f"{len(rounds)} rounds of {len(units)} units; {len(latencies)} latency samples, "
            f"{beyond_p90} above p90; a round took {raw_s:.3f} s unscaled, "
            f"{suite_s:.3f} s at reference speed")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, note


def layer_metrics(setup_table, table, n_rounds: int, speed: float, overhead_pct: float) -> dict:
    """Per-layer numbers from span tables; counts and times are per round.

    Span times are scaled by ``speed``, the run's reference-speed factor.
    """
    calls, counts = table[0], table[3]
    total = {name: value * speed for name, value in table[1].items()}
    self_time = {name: value * speed for name, value in table[2].items()}
    setup_total = {name: value * speed for name, value in setup_table[1].items()}

    def per_round(value):
        return value / n_rounds

    def ratio(a, b):
        return a / b if b else 0.0

    top_down_programs = sum(counts[f"iterators.{k}.programs"] for k in ("bfs", "dfs", "mlfs"))
    interpreter_s = sum(
        total.get(f"interpreter.{name}", 0.0)
        for name in ("evaluate", "run_examples", "to_expression")
    )
    evaluations = calls["interpreter.evaluate"] + counts["interpreter.run_examples_evals"]
    m = {
        "nodes.rulenodes_built": (per_round(counts["nodes.rulenodes_built"]), "count"),
        "grammar_text.parse_s": (setup_total.get("grammar_text.parse", 0.0), "s"),
        "bench.load_s": (setup_total.get("bench.load", 0.0), "s"),
    }

    def span(metric, name):
        m[f"{metric}_calls"] = (per_round(calls[name]), "count")
        m[f"{metric}_s"] = (per_round(total.get(name, 0.0)), "s")

    span("solver.split", "solver.split")
    m["solver.uniform_trees"] = (per_round(calls["solver.init_state"]), "count")
    span("solver.materialize", "solver.materialize")
    m["solver.materialize_per_program"] = (
        ratio(calls["solver.materialize"], top_down_programs), "ratio")
    span("solver.propagate", "solver.propagate")
    m["solver.propagate_wipeouts"] = (per_round(counts["solver.propagate_wipeouts"]), "count")
    span("constraints.check", "constraints.check")
    m["constraints.accept_ratio"] = (
        ratio(counts["constraints.accepted"], calls["constraints.check"]), "ratio")
    for kind in ("bfs", "dfs", "mlfs", "bottom_up"):
        m[f"iterators.{kind}.programs_per_s"] = (
            ratio(counts[f"iterators.{kind}.programs"], total.get(f"iterators.next.{kind}", 0.0)),
            "1/s",
        )
    m["iterators.self_s"] = (per_round(sum(
        value for name, value in self_time.items() if name.startswith("iterators.next.")
    )), "s")
    m["iterators.bu_candidates_evaluated"] = (per_round(counts["iterators.bu_candidates"]), "count")
    m["iterators.bu_programs_per_candidate"] = (
        ratio(counts["iterators.bottom_up.programs"], counts["iterators.bu_candidates"]), "ratio")
    span("interpreter.to_expression", "interpreter.to_expression")
    span("interpreter.evaluate", "interpreter.evaluate")
    m["interpreter.evals_per_s"] = (ratio(evaluations, interpreter_s), "1/s")
    m["interpreter.eval_errors"] = (per_round(counts["interpreter.eval_errors"]), "count")
    span("interpreter.run_examples", "interpreter.run_examples")
    m["probe.cycles"] = (per_round(counts["probe.cycles"]), "count")
    m["probe.enumerated"] = (per_round(counts["probe.enumerated"]), "count")
    m["probe.promising_per_cycle"] = (
        ratio(counts["probe.promising"], counts["probe.reweights"]), "count")
    m["probe.reweight_s"] = (per_round(total.get("probe.reweight", 0.0)), "s")
    m["probe.evals_per_program"] = (
        ratio(counts["probe.evaluate_calls"], counts["probe.enumerated"]), "ratio")
    m["bench.run_one_self_s"] = (per_round(self_time.get("bench.run_one", 0.0)), "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def run_workload(sk, clock: Clock, import_s: float, name: str, seed: int, seconds: float,
                 trace: bool, smoke: bool):
    """Set up and measure one workload; returns (metrics, rounds, a summary line)."""
    scale = workloads.SMOKE if smoke else workloads.FULL
    # One directory per workload, rewritten by every run, so runs do not pile up files.
    work_dir = HERE / ".work" / f"{name}{'-smoke' if smoke else ''}"
    workload = workloads.WORKLOADS[name](sk, ROOT, seed, scale, work_dir, clock)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        clock.tick()
        start = time.perf_counter()
        state = workload.setup()
        setup_times.append((start, time.perf_counter() - start))
    # The benchmark's own long-lived data (reference sets, tasks) stays out
    # of the collector's way while synthkit runs.
    gc.collect()
    gc.freeze()
    workload.deadline = time.perf_counter() + RUN_LIMIT_S
    if not trace:
        rounds = run_rounds(workload, state, None, seconds)
        # Scaled only now, when reference samples surround every set-up.
        setup_s = import_s + statistics.median(clock.scaled(*t) for t in setup_times)
        metrics, note = end_to_end_metrics(rounds, clock, setup_s)
        return metrics, rounds, note
    untraced = workload.run_round(state, None)
    tracer = Tracer()
    tracer.install(sk)
    try:
        state = workload.setup()
        setup_table = tracer.take()
        traced_from = time.perf_counter()
        rounds = run_rounds(workload, state, tracer, seconds)
        table = tracer.take()
        speed = clock.factor(traced_from, time.perf_counter())
    finally:
        tracer.uninstall()
    tracer.write(work_dir / "trace.spans")
    traced_s = sum(unit.seconds for unit in typical_units(rounds, clock))
    untraced_s = sum(unit.seconds for unit in typical_units([untraced], clock))
    overhead_pct = (traced_s / untraced_s - 1.0) * 100.0
    metrics = layer_metrics(setup_table, table, len(rounds), speed, overhead_pct)
    note = (f"1 untraced and {len(rounds)} traced rounds; "
            f"spans in {work_dir.relative_to(ROOT) / 'trace.spans'}")
    return metrics, [untraced] + rounds, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny bounds, for a quick check")
    args = parser.parse_args(argv)
    clock = Clock()
    try:
        src = check_layout()
        sk = load_synthkit(src)
    except LayoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    clock.sample()
    import_s = import_seconds(src)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        metrics, rounds, note = run_workload(
            sk, clock, import_s, name, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        attempted += sum(r.attempted for r in rounds)
        failed += sum(r.failed for r in rounds)
        print(f"== {name} (seed {args.seed}): {note}")
        for metric, entry in metrics.items():
            print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
        for r in rounds:
            for failure in r.failures[:20]:
                print(f"  FAILED {failure}")
        prefix = f"{name}." if args.workload == "all" else ""
        all_metrics.update({prefix + metric: entry for metric, entry in metrics.items()})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": all_metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
