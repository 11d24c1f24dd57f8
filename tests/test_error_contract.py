"""Every exception class the package defines is an InputError, which the
CLI reports as exit 1, or one of the two resource errors it reports as
exit 2, so a new error class cannot end a command in a traceback."""

import importlib
import inspect
import pkgutil

import sparsemotion
from sparsemotion.errors import InputError
from sparsemotion.solvers import BudgetExceededError, SolverError

RESOURCE_ERRORS = (BudgetExceededError, SolverError)


def package_exceptions():
    """(qualified name, class) of each exception class a package module
    defines."""
    found = []
    for info in pkgutil.iter_modules(sparsemotion.__path__):
        module = importlib.import_module(f"sparsemotion.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found.append((f"{module.__name__}.{name}", obj))
    return found


def test_every_package_error_has_an_exit_code():
    names = [name for name, _ in package_exceptions()]
    assert "sparsemotion.errors.InputError" in names
    assert "sparsemotion.camera.RankDeficientError" in names
    stray = [name for name, cls in package_exceptions()
             if not issubclass(cls, InputError) and cls not in RESOURCE_ERRORS]
    assert stray == []
    assert not any(issubclass(cls, InputError) for cls in RESOURCE_ERRORS)
