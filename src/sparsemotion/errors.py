"""The package's error contract: every error a caller can fix by changing
what it passes in is an InputError, and solvers.BudgetExceededError and
solvers.SolverError are the only other errors it raises on purpose."""

import numbers


class InputError(ValueError):
    """Input the caller can fix: a bad argument, config, file or sequence."""


def check_number(value, name: str, integer: bool = False):
    """value when it is a real number, or an integer when integer is set;
    otherwise an InputError naming it.  A bool is neither."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{name} {value!r} is not {'an integer' if integer else 'a number'}")
    return value
