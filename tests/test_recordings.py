"""Shared top-down enumerations: a search whose key was seen before replays
one recorded enumeration, and every replay must be exactly a fresh search."""

import gc
import itertools
import pickle
import sys
import threading
import time
import types
import weakref

import pytest

from synthkit import IOExample, Problem, parse_constraint, parse_grammar
from synthkit.bench import SynthesizerSpec, get_all_problem_grammar_pairs, run_suite
from synthkit.errors import EvaluationError
from synthkit.interpreter import EVAL_ERROR, solved_counter, values_equal
from synthkit import iterators
from synthkit.iterators import IteratorConfig, SynthFlag, make_iterator, synth
from synthkit.nodes import serialize_node
from synthkit.probe import ProbeConfig, probe_with_stats

from conftest import ARITH_TEXT, SUITES_DIR
from oracles import has_recording

MINI_STRINGS = SUITES_DIR / "mini-strings"
STRINGS_TEXT = (MINI_STRINGS / "default.herbg").read_text()

# Rules of mini-strings: x, six constants, concat, replace, substring; 1, 2, length.
STRINGS_PROBABILITIES = [0.2, 0.05, 0.04, 0.03, 0.06, 0.07, 0.05, 0.25, 0.1, 0.15, 0.5, 0.3, 0.2]
ARITH_PROBABILITIES = [0.3, 0.1, 0.25, 0.2, 0.15]

FAMILIES = {
    "arith": (
        ARITH_TEXT, "Int", ARITH_PROBABILITIES,
        Problem("arith", tuple(IOExample({"x": x}, 3 * x + 2) for x in (0, 1, 4))),
        ("(ordered (rule 4 (var a) (var b)) (a b))", "(forbidden (rule 5 (var a) (var a)))"),
    ),
    "strings": (
        STRINGS_TEXT, "S", STRINGS_PROBABILITIES,
        Problem("strings", (IOExample({"x": "hello"}, "ello"), IOExample({"x": "ab"}, "b"))),
        ("(forbidden (rule 8 (var a) (var a)))", "(ordered (rule 8 (var a) (var b)) (a b))"),
    ),
}

# (kind, dfs_over_shapes, weighted): the top-down searches; mlfs also on
# uniform probabilities.
SEARCHES = [
    ("bfs", False, False),
    ("dfs", False, False),
    ("dfs", True, False),
    ("mlfs", False, False),
    ("mlfs", False, True),
]

BUDGET = 900


def _grammar(family, weighted):
    """A new grammar object, over a structure no search has seen."""
    text, _, probabilities, _, _ = FAMILIES[family]
    grammar = parse_grammar(text)
    return grammar.with_probabilities(probabilities) if weighted else grammar


def _config(grammar, family, kind, dfs_over_shapes, constrained, budget, max_depth=4, max_size=None):
    _, start, _, _, constraints = FAMILIES[family]
    return IteratorConfig(
        kind, grammar, start, max_depth=max_depth, max_size=max_size, max_enumerations=budget,
        constraints=tuple(parse_constraint(c) for c in constraints) if constrained else (),
        dfs_over_shapes=dfs_over_shapes,
    )


def _drain(config, problem, deadline=None):
    iterator = make_iterator(config, problem=problem, deadline=deadline)
    return [(serialize_node(program), iterator.last_vector) for program in iterator]


# The builder's default cache bound, and one so small that its caches start
# over all the time: the recorded search then builds equal subtrees again as
# new objects, which each consumer's fold must still score alike.
@pytest.mark.parametrize("cached_parts", [None, 2], ids=["cached", "caches-start-over"])
@pytest.mark.parametrize("constrained", [False, True], ids=["plain", "constrained"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize(
    "kind, dfs_over_shapes, weighted", SEARCHES,
    ids=["bfs", "dfs", "dfs-over-shapes", "mlfs-uniform", "mlfs-weighted"],
)
def test_every_consumer_of_a_shared_grammar_sees_a_fresh_search(
    family, kind, dfs_over_shapes, weighted, constrained, cached_parts, monkeypatch
):
    if cached_parts is not None:
        monkeypatch.setattr(iterators, "_CACHED_PARTS", cached_parts)
    problem = FAMILIES[family][3]
    fresh = _drain(
        _config(_grammar(family, weighted), family, kind, dfs_over_shapes, constrained, BUDGET),
        problem,
    )
    assert len(fresh) > 100
    shared = _grammar(family, weighted)
    # The first search runs plain, the second starts the recording, and the
    # rest replay it, growing it past where it stopped and reading less.
    for budget in (BUDGET // 3, BUDGET // 4, BUDGET // 2, BUDGET, 7, BUDGET):
        config = _config(shared, family, kind, dfs_over_shapes, constrained, budget)
        assert _drain(config, problem) == fresh[:budget]
    assert has_recording(shared)
    # The recorded search runs without a problem: it builds no vectors.
    recordings = iterators._SHELVES[shared._structure].recordings.values()
    assert all(recording.search.code is None for recording in recordings)
    # A search without a budget never replays, and neither does one without
    # a problem.
    unbounded = make_iterator(
        _config(shared, family, kind, dfs_over_shapes, constrained, None), problem=problem
    )
    assert [
        (serialize_node(program), unbounded.last_vector)
        for program in itertools.islice(unbounded, BUDGET)
    ] == fresh
    programs = [serialize_node(p) for p in make_iterator(_config(
        shared, family, kind, dfs_over_shapes, constrained, BUDGET
    ))]
    assert programs == [text for text, _ in fresh]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_searches_that_differ_in_their_key_share_no_recording(family):
    # Every search kind, with and without constraints, on uniform and on
    # set probabilities, under several bounds, over one rule set.  Each
    # pair of searches whose keys differ in one part runs in turn, each
    # often enough to be recorded, and each must see its own fresh sequence.
    problem = FAMILIES[family][3]
    variants = [
        (kind, over_shapes, weighted, constrained, max_depth, max_size)
        for kind, over_shapes, weighted in SEARCHES + [("bfs", False, True)]
        for constrained in (False, True)
        for max_depth, max_size in ((4, None), (3, None), (4, 6))
    ]

    def config(grammar, kind, over_shapes, weighted, constrained, max_depth, max_size):
        return _config(
            grammar, family, kind, over_shapes, constrained, 300, max_depth, max_size
        )

    fresh = {
        variant: _drain(config(_grammar(family, variant[2]), *variant), problem)
        for variant in variants
    }
    plain = _grammar(family, False)
    grammars = {False: plain, True: plain.with_log_probabilities(
        _grammar(family, True).log_probabilities
    )}
    neighbours = [
        (first, second)
        for i, first in enumerate(variants)
        for second in variants[i + 1 :]
        if sum(a != b for a, b in zip(first, second)) == 1
    ]
    assert len(neighbours) > len(variants)
    for pair in neighbours:
        for variant in pair + pair:
            assert _drain(config(grammars[variant[2]], *variant), problem) == fresh[variant]
    assert has_recording(plain)


def test_searches_from_another_start_symbol_share_no_recording():
    problem = Problem("lengths", (IOExample({"x": "hello"}, 4), IOExample({"x": "ab"}, 1)))
    configs = {
        start: IteratorConfig("bfs", parse_grammar(STRINGS_TEXT), start, max_depth=3, max_enumerations=200)
        for start in "SI"
    }
    fresh = {start: _drain(config, problem) for start, config in configs.items()}
    shared = parse_grammar(STRINGS_TEXT)
    for start in "SISI":
        config = IteratorConfig("bfs", shared, start, max_depth=3, max_enumerations=200)
        for _ in range(3):
            assert _drain(config, problem) == fresh[start]


def test_a_recording_does_not_keep_its_grammar_alive():
    problem = FAMILIES["strings"][3]
    grammar = _grammar("strings", False)
    for _ in range(3):
        _drain(_config(grammar, "strings", "bfs", False, False, 50), problem)
    assert has_recording(grammar)
    structure = weakref.ref(grammar._structure)
    del grammar
    gc.collect()
    assert structure() is None


def test_a_key_seen_once_runs_plain_and_the_second_sight_records(monkeypatch):
    grammar = _grammar("strings", False)
    problem = FAMILIES["strings"][3]
    started = []
    recording = iterators._Recording

    def counted(*args):
        started.append(1)
        return recording(*args)

    monkeypatch.setattr(iterators, "_Recording", counted)
    config = _config(grammar, "strings", "bfs", False, False, 50)
    _drain(config, problem)
    assert not started and not has_recording(grammar)
    _drain(config, problem)
    assert started == [1] and has_recording(grammar)
    _drain(config, problem)
    assert started == [1]
    # A reweighted copy shares the structure but not the key.
    weighted = grammar.with_probabilities(STRINGS_PROBABILITIES)
    _drain(_config(weighted, "strings", "bfs", False, False, 50), problem)
    assert started == [1]


def test_a_key_followed_by_enough_new_keys_is_forgotten(monkeypatch):
    started = []

    def counted(config, shelf, key):
        started.append(key)
        return object()

    monkeypatch.setattr(iterators, "_Recording", counted)
    shelf = iterators._Shelf()
    assert shelf.lookup("first", None) is None
    for newer in range(iterators._Shelf.NOTED):
        assert shelf.lookup(newer, None) is None
    assert "first" not in shelf.noted
    # Its next sight only notes it again; the sight after that records.
    assert shelf.lookup("first", None) is None
    assert not started and "first" in shelf.noted
    assert shelf.lookup("first", None) is not None
    assert started == ["first"]


@pytest.mark.parametrize(
    "kind, replayed",
    [("bfs", False), ("bfs", True), ("mlfs", False), ("bottom_up", False)],
    ids=["bfs", "bfs-replayed", "mlfs", "bottom-up"],
)
def test_synth_frees_its_iterator_without_the_cycle_collector(kind, replayed, monkeypatch):
    grammar = _grammar("arith", False)
    problem = FAMILIES["arith"][3]
    config = IteratorConfig(
        kind, grammar, "Int", max_depth=None if kind == "bottom_up" else 4, max_size=7,
        max_enumerations=BUDGET,
    )
    if replayed:
        for _ in range(2):
            synth(problem, config)
        assert has_recording(grammar)
    built = []
    make = iterators.make_iterator

    def tracked(*args, **kwargs):
        iterator = make(*args, **kwargs)
        built.append(weakref.ref(iterator))
        return iterator

    monkeypatch.setattr(iterators, "make_iterator", tracked)
    gc.collect()
    gc.disable()
    try:
        result = synth(problem, config)
        (iterator,) = built
        assert result.flag == SynthFlag.optimal_program
        assert iterator() is None
        # Nothing the run made is left in a reference cycle.
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_probe_frees_its_iterators_without_the_cycle_collector(monkeypatch):
    probe_module = sys.modules["synthkit.probe"]
    grammar = _grammar("arith", True)
    problem = FAMILIES["arith"][3]
    built = []
    make = probe_module.make_iterator

    def tracked(*args, **kwargs):
        iterator = make(*args, **kwargs)
        built.append(weakref.ref(iterator))
        return iterator

    monkeypatch.setattr(probe_module, "make_iterator", tracked)
    gc.collect()
    gc.disable()
    try:
        run = probe_with_stats(grammar, "Int", problem, ProbeConfig(max_depth=4))
        assert run.program is not None
        assert built and all(iterator() is None for iterator in built)
        assert gc.collect() == 0
    finally:
        gc.enable()


class _Clock:
    """A monotonic clock that advances by one on every reading."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("kind", ["bfs", "mlfs"])
def test_a_deadline_pauses_the_recorded_search_without_ending_it(kind, monkeypatch):
    problem = FAMILIES["arith"][3]
    fresh = _drain(_config(_grammar("arith", True), "arith", kind, False, True, BUDGET), problem)
    clock = _Clock()
    monkeypatch.setattr(iterators, "time", types.SimpleNamespace(monotonic=clock.monotonic))
    # Each first consumer of a recording runs out of time at another clock
    # reading, mostly inside the recorded search, which then waits for the
    # next consumer to go on.
    for allowed in (2, 3, 5, 8, 40, 200, 700):
        shared = _grammar("arith", True)
        config = _config(shared, "arith", kind, False, True, BUDGET)
        _drain(config, problem)
        clock.now = 0.0
        emitted = _drain(config, problem, deadline=float(allowed))
        assert emitted == fresh[: len(emitted)] and len(emitted) < len(fresh)
        assert has_recording(shared)
        assert _drain(config, problem) == fresh
        # A replay of what is already recorded reads the clock once per
        # program.
        clock.now = 0.0
        assert _drain(config, problem, deadline=float(allowed)) == fresh[: allowed - 1]


@pytest.mark.parametrize("kind", ["bfs", "mlfs"])
def test_a_consumer_that_raises_on_an_evaluation_error_counts_the_same(kind):
    # bfs reaches the first program whose evaluation fails at its 402nd.
    pairs = dict((pf.name, (pf, g)) for pf, g in get_all_problem_grammar_pairs(MINI_STRINGS))
    problem_file, grammar = pairs["08_drop_first"]
    config = IteratorConfig(
        kind, grammar, problem_file.start_symbol, max_depth=4, max_enumerations=3000
    )
    counts = []
    for _ in range(4):
        with pytest.raises(EvaluationError) as raised:
            synth(problem_file.problem, config, allow_evaluation_errors=False)
        counts.append(raised.value.enumerated)
    assert has_recording(config.grammar)
    assert counts == [counts[0]] * 4
    if kind == "bfs":
        assert counts[0] == 402


class _Injected(Exception):
    pass


def test_a_recorded_search_that_raises_is_dropped(monkeypatch):
    problem = FAMILIES["strings"][3]
    fresh = _drain(_config(_grammar("strings", False), "strings", "bfs", False, False, BUDGET), problem)
    shared = _grammar("strings", False)
    config = _config(shared, "strings", "bfs", False, False, BUDGET)
    _drain(config, problem)
    short = _config(shared, "strings", "bfs", False, False, 40)
    assert _drain(short, problem) == fresh[:40]
    # A consumer that has read part of the recording when it breaks.
    bystander = make_iterator(config, problem=problem)
    before = [(serialize_node(next(bystander)), bystander.last_vector) for _ in range(30)]
    split = iterators.split_first_hole

    def failing(*args):
        raise _Injected()

    monkeypatch.setattr(iterators, "split_first_hole", failing)
    with pytest.raises(_Injected):
        _drain(config, problem)
    monkeypatch.setattr(iterators, "split_first_hole", split)
    assert not has_recording(shared)
    after = [(serialize_node(p), bystander.last_vector) for p in bystander]
    assert before + after == fresh
    # The key starts over: noted, then recorded afresh.
    for _ in range(3):
        assert _drain(config, problem) == fresh
    assert has_recording(shared)


def test_synth_timeout_holds_when_a_replayed_search_prunes_everything(g0, arith_problem):
    # As test_synth_timeout_holds_when_propagation_prunes_everything, but
    # with a budget, so that the search is recorded and the timed runs
    # extend the recording: the deadline must pause it in time.
    forbid_leaves = parse_constraint("(forbidden (domain (1 2 3)))")
    config = IteratorConfig(
        "bfs", g0, "Int", max_depth=6, max_enumerations=10**6, constraints=(forbid_leaves,)
    )
    probe_config = ProbeConfig(max_depth=6, constraints=(forbid_leaves,))
    for _ in range(2):
        synth(arith_problem, config, timeout_seconds=0.1)
        probe_with_stats(g0, "Int", arith_problem, probe_config, timeout_seconds=0.1)
    assert has_recording(g0)
    started = time.monotonic()
    result = synth(arith_problem, config, timeout_seconds=1.0)
    assert time.monotonic() - started < 1.5
    assert result.stats.timed_out is True
    assert result.stats.enumerated == 0
    assert result.flag == SynthFlag.no_program

    started = time.monotonic()
    run = probe_with_stats(g0, "Int", arith_problem, probe_config, timeout_seconds=1.0)
    assert time.monotonic() - started < 1.5
    assert run.timed_out is True
    assert run.program is None


def _records(report):
    return [(r.name, r.solved, r.flag, r.enumerated, r.program, r.error) for r in report.problems]


@pytest.mark.parametrize("kind", ["bfs", "probe"])
def test_parallel_runs_equal_serial_runs_when_the_table_is_warm(kind):
    pairs = get_all_problem_grammar_pairs(MINI_STRINGS)
    grammar = pairs[0][1]
    spec = SynthesizerSpec(kind, max_depth=4, max_enumerations=300)
    serial = run_suite(pairs, spec, timeout_seconds=30.0, parallelism=1)
    assert has_recording(grammar)
    pickled = pickle.dumps(grammar)
    warm = run_suite(pairs, spec, timeout_seconds=30.0, parallelism=1)
    parallel = run_suite(pairs, spec, timeout_seconds=30.0, parallelism=2)
    assert _records(warm) == _records(serial)
    assert _records(parallel) == _records(serial)
    assert pickle.dumps(grammar) == pickled
    assert not any(isinstance(value, iterators._Recording) for value in vars(grammar).values())


def test_threads_sharing_a_recording_each_see_a_fresh_search():
    problem = FAMILIES["strings"][3]
    fresh = {
        kind: _drain(_config(_grammar("strings", False), "strings", kind, False, False, 400), problem)
        for kind in ("bfs", "mlfs")
    }
    shared = _grammar("strings", False)
    results, errors = [], []

    def consume(kind):
        try:
            for budget in (400, 150, 400):
                config = _config(shared, "strings", kind, False, False, budget)
                results.append(_drain(config, problem) == fresh[kind][:budget])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume, args=(kind,)) for kind in ("bfs", "mlfs") * 3]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(results) == 18 and all(results)
    assert has_recording(shared)


# -- counting solved examples -------------------------------------------------

VALUES = [-1, 0, 1, 2, True, False, "", "a", "0", "1"]


def test_solved_counts_match_values_equal_on_a_grid():
    # Every expected vector of one or two legal values against every output
    # vector of one or two values or EVAL_ERROR, and a few of length three.
    outputs = VALUES + [EVAL_ERROR]
    checked = 0
    for expected in [(a,) for a in VALUES] + [(a, b) for a in VALUES for b in VALUES]:
        count = solved_counter(expected)
        for vector in (
            [(a,) for a in outputs] if len(expected) == 1
            else [(a, b) for a in outputs for b in outputs]
        ):
            assert count(vector) == sum(map(values_equal, vector, expected)), (vector, expected)
            checked += 1
    assert checked == 10 * 11 + 100 * 121
    for expected in [(0, "1", True), (1, 2, False), ("a", "", "0")]:
        count = solved_counter(expected)
        for vector in [(a, b, c) for a in outputs for b in outputs for c in outputs]:
            assert count(vector) == sum(map(values_equal, vector, expected)), (vector, expected)
