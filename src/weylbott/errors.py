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
    """A fixed safety bound of 10^6 was passed: a character support or a power operation's
    work (characters.MAX_SUPPORT), a certificate's degree entries (verify.MAX_DEGREE_ENTRIES,
    checked before any pair), or the root closure's (n^2 + 56) x n coordinates, from rank 100
    on, checked before the closure, so an infinite type of such a rank is refused here."""


class ParseError(EngineError):
    """Expression text failed to parse.

    Carries the 0-based offset of the offending character and a
    description of what was expected there.
    """

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"parse error at position {position}: expected {expected}")
