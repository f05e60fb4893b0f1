"""The error classes a caller can branch on."""

import inspect

from netpolar import errors


def test_errors_module_defines_exactly_the_five_classes():
    classes = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert set(classes) == {"NetpolarError", "ValidationError", "DisconnectedError",
                            "DomainError", "ConvergenceFailureError"}
    assert all(issubclass(cls, errors.NetpolarError) for cls in classes.values())
    assert issubclass(errors.DisconnectedError, errors.ValidationError)
