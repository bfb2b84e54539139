"""Problem specifications: named sets of input-output examples."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

Value = Union[int, str, bool]

# The object language's integers are 64-bit.
_INT_MIN = -(2**63)
_INT_MAX = 2**63 - 1


def _check_value(value, where: str) -> None:
    """Raise ValueError unless ``value`` is a bool, a str or a 64-bit int."""
    kind = type(value)
    if kind is int:
        if not _INT_MIN <= value <= _INT_MAX:
            raise ValueError(f"{where}: integer outside the 64-bit range: {value!r}")
    elif kind is not bool and kind is not str:
        raise ValueError(f"{where}: unsupported value {value!r}, expected a bool, str or int")


@dataclass(frozen=True)
class IOExample:
    """One observation: a variable environment and the output it must produce.

    Every value must be a ``bool``, a ``str`` or an ``int`` within 64 bits,
    the values the interpreter computes with; anything else raises
    ValueError.
    """

    input: Mapping[str, Value]
    output: Value

    def __post_init__(self):
        for name, value in self.input.items():
            _check_value(value, f"input {name!r}")
        _check_value(self.output, "output")


@dataclass(frozen=True)
class Problem:
    """A named programming-by-example task."""

    name: str
    examples: tuple[IOExample, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
