"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes (see the cli.EXIT_* constants):
input/validation problems exit 2, violated mathematical hypotheses exit 3,
exhausted budgets/tolerances exit 4, failed verification suites exit 5.
"""

import sys


def check_addressable(words: int, what: str) -> None:
    """MemoryError when words 8-byte values are past the address space, where
    numpy arrays and Python sequences raise ValueError or OverflowError."""
    if words > sys.maxsize // 8:
        raise MemoryError(f"{what} is past the address space")


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InputError(ToolkitError):
    """Unreadable or malformed input (files, JSON payloads, flag values)."""


class ValidationError(InputError):
    """Structurally valid input whose values violate a documented invariant
    (negative coefficient, element outside [0, N], parameter outside its box).
    """


class HypothesisError(ToolkitError):
    """A computation's mathematical hypothesis does not hold for the given
    input, e.g. the asymptotic constant requires I1 < 0.
    """


class DomainError(ToolkitError):
    """Input is outside the mathematical domain of an operation
    (e.g. the ratio I1^2/I2 of an identically zero series).
    """


class BudgetError(ToolkitError):
    """An exhaustive search ran out of its node budget.

    Carries the best lower bound found so far; `size` and `witness` are
    explicitly NOT exact values.
    """

    def __init__(self, message, size, witness, nodes):
        super().__init__(message)
        self.size = size
        self.witness = witness
        self.nodes = nodes


class ToleranceError(ToolkitError):
    """A requested certified tolerance cannot be met within the configured
    iteration budget; `achieved` records the error bound that was reached.
    """

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved

