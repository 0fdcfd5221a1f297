"""Shared exception types.

Every error raised by the library derives from UberhomError; the CLI maps
the exit_code attribute straight to a process exit status.
"""

from __future__ import annotations


class UberhomError(Exception):
    exit_code = 1


class ParseError(UberhomError):
    """Malformed input text (complex, graph6, plane graph, colouring)."""

    exit_code = 2


class ComplexError(UberhomError):
    """Invalid complex or graph construction."""

    exit_code = 2


class InvalidColouring(UberhomError):
    """A malformed colouring: no vertices, bits beyond its length, or an
    elementary vertex outside it."""

    exit_code = 2


class ColouringMismatch(UberhomError):
    """Colouring length does not match the vertex count."""

    exit_code = 3


class CapExceeded(UberhomError):
    """Vertex count above the configured cube cap."""

    exit_code = 4


class EngineError(UberhomError, AssertionError):
    """An engine invariant failed (chain-map law, d² = 0, non-negative
    ranks, the degree-0 and graded Euler identities of `uber`): a bug."""

    exit_code = 5
