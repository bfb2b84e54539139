#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage:
    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
                                  [--seeds 21 22 23] [--seconds S] [--smoke]

Each seed makes one pair: the ``perfbench/run.py`` of each checkout, run
from that checkout's root with ``--trace 0`` (the setting the benchmark
times with), one after the other.  The first of each pair alternates,
parent first on even pairs, so a drift of the machine's speed weighs on
both sides alike.  Per metric it prints the parent's and the
change's median, their ratio (change over parent), the spread of the
parent's runs (the distance between their quartiles) and how many pairs
the change improved, in the direction ``BENCHMARK.json`` gives for the metric
(``?`` where it names none), looked up without the ``<workload>.`` prefix
that ``--workload all`` gives each name.  The exit status is 0 only when every run
exited 0 and reported ``"correct": true``.

Before the first pair each checkout's ``src`` is compiled to bytecode
(:func:`compile_sources`), so both sides import from the same cache state:
a copied checkout may carry stale ``.pyc`` files or none, and with
``PYTHONDONTWRITEBYTECODE`` set no run writes them, so one side's
``setup_s`` would include compiling every module and the other's not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, args, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its JSON result line, with
    the exit status under ``"status"``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    if args.smoke:
        command.append("--smoke")
    # Each checkout imports its own src; an inherited path could shadow it.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        result = {"correct": False, "metrics": {}}
    result["status"] = done.returncode
    return result


def compile_sources(root: Path) -> None:
    """Compile every module under ``root/src`` to bytecode, rewriting any
    ``.pyc`` whose source changed; ``compileall`` writes them even where
    ``PYTHONDONTWRITEBYTECODE`` is set."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, check=True)


def directions(root: Path) -> dict:
    """``better`` ("higher" or "lower") per metric name in ``BENCHMARK.json``,
    and the workload names it declares under ``"workloads"``."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return {
        entry["name"]: entry["better"]
        for entry in declared.get("end_to_end", []) + declared.get("per_layer", [])
    }, [workload["name"] for workload in declared.get("workloads", [])]


def direction(name: str, better: dict, workloads: list):
    """The direction of the metric ``name`` as a run reports it: ``run.py
    --workload all`` prefixes each name with ``<workload>.``, which the
    lookup strips.  ``None`` where ``BENCHMARK.json`` names none."""
    for workload in workloads:
        if name.startswith(workload + "."):
            name = name[len(workload) + 1 :]
            break
    return better.get(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[21, 22, 23])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for root in sides.values():
        compile_sources(root)
    for pair, seed in enumerate(args.seeds):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], args, seed))
        print(f"pair {pair + 1}/{len(args.seeds)} (seed {seed}) done", file=sys.stderr)

    better, workloads = directions(sides["change"])
    names = [name for name in runs["parent"][0]["metrics"] if name in runs["change"][0]["metrics"]]
    print(f"{'metric':40s} {'parent':>12s} {'change':>12s} {'ratio':>8s} {'spread':>12s} improved")
    for name in names:
        values = {
            side: [run["metrics"][name]["value"] for run in runs[side] if name in run["metrics"]]
            for side in sides
        }
        if len(values["parent"]) != len(values["change"]):
            continue
        medians = {side: statistics.median(values[side]) for side in sides}
        ratio = medians["change"] / medians["parent"] if medians["parent"] else float("nan")
        spread = 0.0
        if len(values["parent"]) > 1:
            quartiles = statistics.quantiles(values["parent"], n=4)
            spread = quartiles[2] - quartiles[0]
        sign = {"higher": 1, "lower": -1}.get(direction(name, better, workloads))
        if sign is None:
            improved = "?"
        else:
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            improved = f"{wins}/{len(values['parent'])}"
        print(
            f"{name:40s} {medians['parent']:12.6g} {medians['change']:12.6g} {ratio:8.4f}"
            f" {spread:12.6g} {improved}"
        )

    ok = all(run["status"] == 0 and run["correct"] for side in sides for run in runs[side])
    print(f"all runs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
