"""Exception types shared across the package.

Exit-code mapping used by the CLI: InputError -> 5, UsageError -> 2,
BudgetExceededError -> 4.  "Decided negative" (a search returning None)
is not an error and maps to exit code 3.
"""

import sys
from contextlib import contextmanager


class InputError(ValueError):
    """Invalid input value: malformed file, out-of-range vertex, bad parameter."""


class UsageError(Exception):
    """Malformed command line or inconsistent option combination."""


class BudgetExceededError(RuntimeError):
    """A bounded search ran out of its node or wall-clock budget.

    Raised instead of silently degrading to an approximation.
    """


class HypothesisError(InputError):
    """A structural hypothesis of a guaranteed-embedding routine is violated.

    `hypothesis` names the violated condition so callers can tell which
    precondition failed.
    """

    def __init__(self, hypothesis: str, message: str):
        super().__init__(f"{hypothesis}: {message}")
        self.hypothesis = hypothesis


class RowError(InputError):
    """A constructor's rejection of one edge or triple.

    `index` is the row's position in the iterable the constructor was
    given, so a loader can name the line or JSON index at fault.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@contextmanager
def digit_limit_as_input_error():
    """Report an int too long for str() (int_max_str_digits) as an InputError.
    Wrap serialisation alone: any ValueError inside is taken for that."""
    try:
        yield
    except ValueError:
        limit = sys.get_int_max_str_digits()
        message = f"a value has more than {limit} digits, the limit for printing an integer"
        raise InputError(message) from None
