"""synthkit: enumerative program synthesis over probabilistic grammars."""

from .constraints import (
    ConcreteRule,
    Constraint,
    DomainMember,
    Forbidden,
    Ordered,
    PatternVar,
    check_program,
    match_pattern,
    parse_constraint,
)
from .errors import (
    ConfigError,
    ConstraintSyntaxError,
    EvaluationError,
    GrammarError,
    GrammarTextError,
    IncompleteTreeError,
    InterpreterError,
    NodeParseError,
    SolverStateError,
    SuiteLoadError,
    SynthkitError,
    UnboundVariableError,
)
from .grammar import Grammar, IntLit, Placeholder, Rule, StrLit, Sym, arity, set_uniform_probabilities
from .grammar_text import parse_grammar, serialize_grammar
from .interpreter import (
    EVAL_ERROR,
    Apply,
    Expression,
    Literal,
    Variable,
    evaluate,
    execute_on_input,
    output_vector,
    run_examples,
    to_expression,
)
from .iterators import (
    BFSIterator,
    BottomUpIterator,
    DFSIterator,
    IteratorConfig,
    MLFSIterator,
    SynthFlag,
    SynthResult,
    SynthStats,
    bottom_up_iterate,
    derivation_heuristic,
    make_iterator,
    max_rulenode_log_probability,
    priority_function,
    synth,
)
from .nodes import (
    Hole,
    Node,
    RuleNode,
    UniformHole,
    depth,
    is_complete,
    is_uniform,
    node_count,
    parse_node,
    serialize_node,
)
from .probe import (
    ProbeConfig,
    PromisingProgram,
    fitness,
    get_promising_programs_with_fitness,
    modify_grammar_probe,
    probe,
    probe_with_stats,
)
from .solver import Checkpoint, SolverState, decompose
from .specification import IOExample, Problem, Value

__version__ = "0.1.0"
