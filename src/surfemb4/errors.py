"""The exceptions the CLI maps to its exit codes, so that it maps them running no other module."""


class InternalConsistency(Exception):
    """Two independent computations of one quantity disagree.

    Raised in place of ``assert`` so the checks also run under ``python -O``.
    It is deliberately not a ``ValueError``: handlers that turn bad input
    into a validation error must not swallow it.  The CLI exits with 3.
    """


class SchemaError(ValueError):
    """An invalid input file; ``errors`` are its "pointer: message" strings."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors
