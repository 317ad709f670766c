"""Exception taxonomy for the hadclique package.

Every error raised by the library derives from :class:`HadcliqueError`, so
callers can catch one type at the CLI boundary.  The subclasses are grouped
by the module that raises them; none carry extra state beyond the message
except where noted.
"""

from __future__ import annotations


class HadcliqueError(Exception):
    """Base class for all hadclique errors."""


# --- vertex codes / graph machinery ---

class WeightError(HadcliqueError):
    """Code does not contain exactly 2t one-bits."""


class PatternError(HadcliqueError):
    """Quarter one-bit counts do not follow the (k, t-k, t-k, k) pattern."""


class RangeError(HadcliqueError):
    """Code is outside [0, 2^(4t))."""


class KOutOfRange(HadcliqueError):
    """k is outside the admissible range for the operation."""


class InfeasibleQuarter(HadcliqueError):
    """A demanded per-quarter coincidence count cannot be realized."""


class PoolTooLarge(RangeError, ValueError):
    """The neighbor pool of G_t cannot be held: 4t > 64, or its byte
    estimate exceeds physical memory. A ValueError, so the CLI reports a
    usage error, where a RangeError from decoding a code is a bad input."""


# --- oracle ---

class TooLarge(HadcliqueError):
    """t exceeds the brute-force resource guard."""


class InvalidClique(HadcliqueError):
    """A clique argument, such as a search's seed, failed verification."""


# --- searches ---

class BothEmpty(HadcliqueError):
    """Crossover needs at least one parent with nonzero fitness."""


# --- matrices / seeds ---

class NotOrthogonal(HadcliqueError):
    """Matrix rows are not pairwise orthogonal."""


class BadShape(HadcliqueError):
    """Matrix shape is unusable (fewer than 3 rows, or columns not 4t)."""


class DecodeFailure(HadcliqueError):
    """A matrix row does not decode to a graph vertex.

    Carries ``row`` (0-based index into the matrix) when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class RaggedRows(HadcliqueError):
    """Sign-matrix text rows have differing lengths."""


class BadCharacter(HadcliqueError):
    """Sign-matrix text contains a character outside '+', '-', '1', '0'.

    Carries 1-based ``line`` and ``column`` of the offending character.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.line = line
        self.column = column


class NoDecomposition(HadcliqueError):
    """2t-i admits no decomposition into i odd primes for i in {2, 3}."""
