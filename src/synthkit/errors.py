"""Exception hierarchy shared across the package."""


class SynthkitError(Exception):
    """Base class for every error raised by synthkit.

    ``enumerated`` is how many programs a search had enumerated when the
    error ended it, a program whose evaluation raised included; 0 for an
    error raised outside a search.
    """

    enumerated: int = 0


class GrammarError(SynthkitError):
    """Invalid grammar construction, lookup, or node building."""


class GrammarTextError(SynthkitError):
    """Problem in the textual grammar format (.herbg)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LexError(GrammarTextError):
    """Unknown or malformed token in grammar text."""


class GrammarSyntaxError(GrammarTextError):
    """Structurally invalid grammar declaration."""


class GrammarValidationError(GrammarTextError):
    """Well-formed grammar text with inconsistent content (e.g. bad probabilities)."""


class NodeParseError(SynthkitError):
    """Malformed serialized AST text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IncompleteTreeError(SynthkitError):
    """An operation that requires a complete program encountered a hole."""


class InterpreterError(SynthkitError):
    """Base class for errors during program evaluation."""


class UnboundVariableError(InterpreterError):
    """A variable referenced by the program is missing from the environment."""


class EvaluationError(InterpreterError):
    """Type mismatch or out-of-range operand during evaluation."""


class ConstraintSyntaxError(SynthkitError):
    """Malformed constraint s-expression."""


class SolverStateError(SynthkitError):
    """Invalid use of solver checkpoints (e.g. restoring a stale one)."""


class ConfigError(SynthkitError):
    """Invalid iterator or synthesizer configuration."""


class SuiteLoadError(SynthkitError):
    """Problem or grammar files in a benchmark suite could not be loaded."""
