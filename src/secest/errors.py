"""Exception types shared across the package.

Two broad families: validation errors (bad inputs, violated preconditions)
and numerical errors (an otherwise well-posed computation that could not be
completed reliably). The CLI maps the former to exit code 1 and the latter
to exit code 2.
"""


class ValidationError(ValueError):
    """Inputs violate a documented precondition or invariant."""


class ConfigError(ValidationError):
    """A run-configuration file is malformed.

    ``pointer`` holds the JSON pointer of the offending field when known,
    e.g. ``/system/Q``.
    """

    def __init__(self, message: str, pointer: str | None = None):
        super().__init__(message if pointer is None else f"{pointer}: {message}")
        self.pointer = pointer


class NumericalError(RuntimeError):
    """An iterative or direct solver could not produce a trustworthy result."""


class InconclusiveError(NumericalError):
    """Raised nowhere in the package: every feasibility probe returns a
    certified verdict. Kept because ``perfbench/tracer.py`` binds it; the
    benchmark's upkeep may delete both."""
