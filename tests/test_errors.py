"""Every exception class of the package reports a fault in the user's input,
so the CLI turns it into one ``Error:`` line; the one exception is an
internal invariant, which keeps its traceback."""

import importlib
import inspect
import pkgutil

import incongruity
from incongruity.classify import TrainingError
from incongruity.errors import InputError
from incongruity.harness import IncompleteMatrixError

# Internal invariants: a bug, not a fault in the input.
INTERNAL = {IncompleteMatrixError}


def exception_classes():
    """Every exception class defined in a module of the package."""
    for info in pkgutil.iter_modules(incongruity.__path__):
        module = importlib.import_module(f"{incongruity.__name__}.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                yield cls


def test_every_exception_class_is_an_input_error():
    classes = set(exception_classes())
    assert INTERNAL | {InputError, TrainingError} <= classes
    strays = [cls.__qualname__ for cls in classes - INTERNAL if not issubclass(cls, InputError)]
    assert strays == []
    assert issubclass(TrainingError, RuntimeError)
