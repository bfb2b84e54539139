"""Command-line interface: solve one problem, bench a suite, or enumerate.

Subcommands::

    synthkit solve --grammar g.herbg --problem p.problem.json --iterator bfs --max-depth 5
    synthkit bench --suite suites/mini-strings --synthesizer probe --cycles 3 \
        --max-depth 5 --timeout 10 --report out.json
    synthkit enumerate --grammar g.herbg --start Int --max-depth 3 --limit 50

Exit status is 0 when the command completes (solved or not), nonzero on
configuration or load errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    SynthesizerSpec,
    get_all_problem_grammar_pairs,
    load_grammar_file,
    load_problem_file,
    run_suite,
)
from .errors import SynthkitError
from .interpreter import to_expression
from .iterators import ITERATOR_KINDS, IteratorConfig, make_iterator, synth
from .nodes import serialize_node

# The iterator kinds as the command line spells them: bottom-up, not bottom_up.
_CLI_KINDS = [kind.replace("_", "-") for kind in ITERATOR_KINDS]


def _iterator_kind(text: str) -> str:
    return text.replace("-", "_")


def _add_bound_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-depth", type=int, default=None, help="tree depth bound")
    parser.add_argument("--max-size", type=int, default=None, help="node count bound")
    parser.add_argument(
        "--max-enumerations", type=int, default=None, help="programs enumerated bound"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthkit", description="Grammar-based program synthesis toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="synthesize a program for one problem")
    solve.add_argument("--grammar", required=True, type=Path)
    solve.add_argument("--problem", required=True, type=Path)
    solve.add_argument(
        "--iterator",
        default="bfs",
        choices=_CLI_KINDS,
    )
    _add_bound_flags(solve)
    solve.add_argument("--allow-eval-errors", action="store_true")

    bench = commands.add_parser("bench", help="run a synthesizer over a suite")
    bench.add_argument("--suite", required=True, type=Path)
    bench.add_argument(
        "--synthesizer",
        default="probe",
        choices=_CLI_KINDS + ["probe"],
    )
    bench.add_argument(
        "--cycles", type=int, default=3, metavar="N", help="at most N probe cycles"
    )
    _add_bound_flags(bench)
    bench.add_argument("--timeout", type=float, default=10.0, help="seconds per problem")
    bench.add_argument("--parallelism", type=int, default=1)
    bench.add_argument("--report", type=Path, default=None, help="write report JSON here")
    bench.add_argument("--allow-eval-errors", action="store_true")

    enumerate_cmd = commands.add_parser(
        "enumerate", help="print serialized programs, one per line"
    )
    enumerate_cmd.add_argument("--grammar", required=True, type=Path)
    enumerate_cmd.add_argument("--start", required=True)
    enumerate_cmd.add_argument("--max-depth", type=int, default=None)
    enumerate_cmd.add_argument("--limit", type=int, default=None)
    return parser


def _cmd_solve(args) -> int:
    grammar = load_grammar_file(args.grammar)
    problem_file = load_problem_file(args.problem)
    config = IteratorConfig(
        _iterator_kind(args.iterator),
        grammar,
        problem_file.start_symbol,
        max_depth=args.max_depth,
        max_size=args.max_size,
        max_enumerations=args.max_enumerations,
        constraints=problem_file.constraints,
    )
    result = synth(
        problem_file.problem,
        config,
        allow_evaluation_errors=args.allow_eval_errors,
    )
    if result.program is not None:
        print(f"program: {serialize_node(result.program)}")
        print(f"expression: {to_expression(grammar, result.program)}")
    else:
        print("program: none")
    print(f"flag: {result.flag.value}")
    print(f"enumerated: {result.stats.enumerated}")
    print(f"time: {result.stats.elapsed_seconds:.3f}s")
    return 0


def _cmd_bench(args) -> int:
    pairs = get_all_problem_grammar_pairs(args.suite)
    spec = SynthesizerSpec(
        kind=_iterator_kind(args.synthesizer),
        max_depth=args.max_depth,
        max_size=args.max_size,
        max_enumerations=args.max_enumerations,
        probe_cycles=args.cycles,
        allow_evaluation_errors=args.allow_eval_errors or args.synthesizer == "probe",
    )
    report = run_suite(pairs, spec, timeout_seconds=args.timeout, parallelism=args.parallelism)
    for record in report.problems:
        status = "solved" if record.solved else record.flag
        line = f"{record.name}: {status} in {record.wall_time_seconds:.2f}s ({record.enumerated} programs)"
        if record.error:
            line += f" [error: {record.error}]"
        print(line)
    print(f"solved {report.solved_problems}/{report.total} problems")
    if args.report is not None:
        args.report.write_text(report.to_json())
        print(f"report written to {args.report}")
    return 0


def _cmd_enumerate(args) -> int:
    grammar = load_grammar_file(args.grammar)
    config = IteratorConfig(
        "bfs",
        grammar,
        args.start,
        max_depth=args.max_depth,
        max_enumerations=args.limit,
    )
    for program in make_iterator(config):
        print(serialize_node(program))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": _cmd_solve, "bench": _cmd_bench, "enumerate": _cmd_enumerate}
    try:
        return handlers[args.command](args)
    except (SynthkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
