"""The package's error contract: every error a caller can fix by changing
what it passes in is an InputError, and solvers.BudgetExceededError and
solvers.SolverError are the only other errors it raises on purpose."""


class InputError(ValueError):
    """Input the caller can fix: a bad argument, config, file or sequence."""
