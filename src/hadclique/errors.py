"""The library's two exception types, one per CLI exit code.

A refused argument or setting, such as a t outside 1..16 or a pool too big
for the machine, raises the builtin ValueError (exit 64). A value that fails
a check, such as a code, a clique, a matrix or a file's text, raises
HadcliqueError (exit 1). NoDecomposition, a HadcliqueError, means that no
Paley seed exists for the t asked (exit 2). Positions such as a matrix row
or a text line and column are in the message.
"""

from __future__ import annotations


class HadcliqueError(Exception):
    """A code, clique, matrix or file's text fails a check."""


class NoDecomposition(HadcliqueError):
    """2t-i admits no decomposition into i odd primes for i in {2, 3}."""
