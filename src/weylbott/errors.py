"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine-level failures."""


class NotFiniteType(EngineError):
    """The Cartan matrix is not of finite type: its positive-root closure passed
    n^2 + 56 roots, which no finite type of rank n exceeds."""


class NotDominant(EngineError):
    """A weight violates a dominance precondition."""


class NotDecomposable(EngineError):
    """A character is not a nonnegative sum of irreducible characters."""


class GuardrailExceeded(EngineError):
    """A fixed safety bound was passed: a character support or the work of a power
    operation over characters.MAX_SUPPORT, or the degree entries a certificate would
    hold over verify.MAX_DEGREE_ENTRIES (checked before any pair is computed)."""


class ParseError(EngineError):
    """Expression text failed to parse.

    Carries the 0-based offset of the offending character and a
    description of what was expected there.
    """

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"parse error at position {position}: expected {expected}")
