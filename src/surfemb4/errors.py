"""The exception shared by every internal cross-check."""


class InternalConsistency(Exception):
    """Two independent computations of one quantity disagree.

    Raised in place of ``assert`` so the checks also run under ``python -O``.
    It is deliberately not a ``ValueError``: handlers that turn bad input
    into a validation error must not swallow it.  The CLI exits with 3.
    """
