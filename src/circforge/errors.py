"""The base class of circforge's domain errors.

A domain error is a well-formed question that has no answer of the asked
kind: a determinant that does not cancel to a polynomial, a series that
does not split, an ideal that splits into invariant pieces.  The CLI
reports any of them as exit code 1.  This module imports nothing, so the
CLI can catch the whole family without loading the layers that raise it.
"""


class DomainError(Exception):
    """A domain error of any circforge layer."""
