"""Spans around synthkit's layer boundaries, for the traced run.

:meth:`Tracer.install` replaces functions with timing wrappers under the
names their callers look them up by (``iterators.check_program``, not
``constraints.check_program``), so recursion inside a layer is one span.
Each span records its name, start, end, parent span and the task or pass
id current when it began.  Spans are kept in flat arrays and written out
once at the end; per-name call counts, total time and self time (duration
minus the time of direct child spans) are accumulated as spans close.
``RuleNode`` constructions are counted but not timed: they are the most
frequent call and a span each would swamp what it measures.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

MAX_STORED_SPANS = 1_000_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._fields = {
            "id": array("q"),
            "name": array("H"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "task": array("q"),
        }
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time of child spans, parent id, task id]
        self.task_id = -1
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- spans ------------------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0, parent, self.task_id]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        if self._next_id > MAX_STORED_SPANS:
            self.dropped += 1
            return
        f = self._fields
        f["id"].append(frame[0])
        f["name"].append(self._name_id(name))
        f["start"].append(start)
        f["end"].append(end)
        f["parent"].append(frame[2])
        f["task"].append(frame[3])

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result, error)`` runs on exit."""

        def wrapper(*args, **kwargs):
            frame = self._open()
            start = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self._close(name, frame, start, time.perf_counter())
                if after is not None:
                    after(args, result, error)

        return wrapper

    def timed_stream(self, orig_iter):
        """An ``__iter__`` replacement whose stream times every ``next``."""
        tracer = self

        def traced_iter(iterator):
            stream = orig_iter(iterator)
            name = f"iterators.next.{iterator.kind}"
            produced = f"iterators.{iterator.kind}.programs"

            def gen():
                while True:
                    frame = tracer._open()
                    start = time.perf_counter()
                    try:
                        program = next(stream)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, frame, start, time.perf_counter())
                    tracer.counts[produced] += 1
                    yield program

            return gen()

        return traced_iter

    # -- installing ---------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        self.patch(owner, attr, self.timed(name, getattr(owner, attr), after))

    def install(self, sk) -> None:
        """Wrap the layer boundaries of the ``synthkit`` modules in ``sk``."""
        counts = self.counts
        bench, iterators, probe, solver = sk.bench, sk.iterators, sk.probe, sk.solver
        interpreter_error = sk.errors.InterpreterError

        original_post_init = sk.nodes.RuleNode.__post_init__

        def counted_post_init(node):
            counts["nodes.rulenodes_built"] += 1
            original_post_init(node)

        self.patch(sk.nodes.RuleNode, "__post_init__", counted_post_init)

        def on_propagate(args, result, error):
            counts["solver.propagate_wipeouts"] += result is False

        def on_check(args, result, error):
            counts["constraints.accepted"] += result is True

        def on_evaluate(args, result, error):
            counts["interpreter.eval_errors"] += isinstance(error, interpreter_error)

        def on_probe_evaluate(args, result, error):
            on_evaluate(args, result, error)
            counts["probe.evaluate_calls"] += 1

        def on_candidate(args, result, error):
            counts["iterators.bu_candidates"] += 1

        def on_run_examples(args, result, error):
            counts["interpreter.run_examples_evals"] += len(args[2].examples)

        def on_probe_run(args, result, error):
            if result is not None:
                counts["probe.cycles"] += result.cycles_completed
                counts["probe.enumerated"] += result.enumerated

        def on_reweight(args, result, error):
            counts["probe.reweights"] += 1
            counts["probe.promising"] += len(args[0])

        self.wrap(sk.grammar_text, "parse_grammar", "grammar_text.parse")
        self.wrap(bench, "parse_grammar", "grammar_text.parse")
        self.wrap(bench, "get_all_problem_grammar_pairs", "bench.load")
        self.wrap(bench, "run_one", "bench.run_one")
        self.wrap(bench, "synth", "iterators.synth")
        self.wrap(bench, "probe_with_stats", "probe.probe_with_stats", on_probe_run)
        self.wrap(iterators, "synth", "iterators.synth")
        self.wrap(iterators, "split_first_hole", "solver.split")
        self.wrap(iterators, "check_program", "constraints.check", on_check)
        self.wrap(iterators, "to_expression", "interpreter.to_expression", on_candidate)
        self.wrap(iterators, "evaluate", "interpreter.evaluate", on_evaluate)
        self.wrap(iterators, "run_examples", "interpreter.run_examples", on_run_examples)
        self.wrap(probe, "to_expression", "interpreter.to_expression")
        self.wrap(probe, "evaluate", "interpreter.evaluate", on_probe_evaluate)
        self.wrap(probe, "run_examples", "interpreter.run_examples", on_run_examples)
        self.wrap(probe, "modify_grammar_probe", "probe.reweight", on_reweight)
        self.wrap(solver.SolverState, "__init__", "solver.init_state")
        self.wrap(solver.SolverState, "current_tree", "solver.materialize")
        self.wrap(solver.SolverState, "propagate", "solver.propagate", on_propagate)
        for cls in (iterators.TopDownIterator, iterators.BottomUpIterator):
            self.patch(cls, "__iter__", self.timed_stream(cls.__iter__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def take(self) -> tuple[Counter, dict, dict, Counter]:
        """Calls, total and self time per span name, and counters; then clear them."""
        taken = (Counter(self.calls), dict(self.total), dict(self.self_time), Counter(self.counts))
        for table in (self.calls, self.total, self.self_time, self.counts):
            table.clear()
        return taken

    def write(self, path: Path) -> None:
        """One JSON header line, then each field's array in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self._fields["id"]),
            "dropped": self.dropped,
            "fields": [[key, arr.typecode] for key, arr in self._fields.items()],
            "times": "time.perf_counter seconds",
        }
        with open(path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode())
            for arr in self._fields.values():
                arr.tofile(out)
