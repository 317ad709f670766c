"""Brute-force ground truth for small t.

Everything here works from first principles only: a vertex is any 4t-bit
word passing the weight and quarter-pattern check, adjacency is a popcount
over the XOR, and partial Hadamard validity is an explicit Gram matrix.
A sign matrix is a plain 2-D int64 numpy array of +1/-1 entries, one row
per array row; clique_to_matrix returns one and verify_ph takes one.
None of the counting or generator machinery of :mod:`hadclique.graph` is
used, so the two sides can validate each other.

verify_clique and verify_ph are the package's only clique and partial
Hadamard tests: a caller that refuses a bad clique or matrix
(extend_exact, run_fast, clique_to_matrix, normalize) calls Report.check,
which raises HadcliqueError with the verdict's message.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HadcliqueError
from .graph import Clique, VertexCode, decode

__all__ = [
    "Report",
    "enumerate_vertices",
    "vertex_codes",
    "brute_adjacency_codes",
    "verify_clique",
    "clique_to_matrix",
    "verify_ph",
]

ENUMERATE_T_MAX = 6
ADJACENCY_T_MAX = 5
_SCAN_CHUNK = 1 << 20


@dataclass(frozen=True, slots=True)
class Report:
    """Pass/fail verdict with a human-readable reason.

    A caller that refuses a bad clique or matrix calls check(), so every
    refusal carries the oracle's own message.
    """

    ok: bool
    message: str

    def __bool__(self) -> bool:
        return self.ok

    def check(self) -> None:
        """Raise HadcliqueError(message) when the verdict failed."""
        if not self.ok:
            raise HadcliqueError(self.message)


@lru_cache(maxsize=8)
def _scan_codes(t: int) -> np.ndarray:
    """All valid vertex codes of G_t by exhaustive scan, ascending uint64."""
    two_t = 2 * t
    qmask = np.uint64((1 << t) - 1)
    shifts = [np.uint64(3 * t), np.uint64(2 * t), np.uint64(t)]
    found = []
    for start in range(0, 1 << (4 * t), _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, 1 << (4 * t))
        codes = np.arange(start, stop, dtype=np.uint64)
        codes = codes[np.bitwise_count(codes) == two_t]
        c1 = np.bitwise_count((codes >> shifts[0]) & qmask)
        c2 = np.bitwise_count((codes >> shifts[1]) & qmask)
        c3 = np.bitwise_count((codes >> shifts[2]) & qmask)
        c4 = np.bitwise_count(codes & qmask)
        keep = (c1 == c4) & (c2 == c3) & (c1 + c2 == t)
        found.append(codes[keep])
    return np.concatenate(found) if found else np.empty(0, dtype=np.uint64)


def vertex_codes(t: int) -> np.ndarray:
    """Ascending uint64 array of every vertex code of G_t (exhaustive scan)."""
    if t > ENUMERATE_T_MAX:
        raise ValueError(f"enumeration scans 2^{4 * t} codes; t={t} > {ENUMERATE_T_MAX}")
    return _scan_codes(t)


def enumerate_vertices(t: int) -> list[VertexCode]:
    """Every vertex of G_t, ascending, by exhaustive scan over [0, 2^4t)."""
    return [decode(int(c), t) for c in vertex_codes(t)]


def brute_adjacency_codes(v: VertexCode) -> np.ndarray:
    """Codes of all w orthogonal to v, by popcount over the full vertex set."""
    if v.t > ADJACENCY_T_MAX:
        raise ValueError(f"brute adjacency is quadratic in |G_t|; t={v.t} > {ADJACENCY_T_MAX}")
    codes = vertex_codes(v.t)
    return codes[np.bitwise_count(codes ^ np.uint64(v.code)) == 2 * v.t]


def verify_clique(c: Clique) -> Report:
    """Check members are int codes of G_t, pairwise distinct and orthogonal.

    Each member must be a plain int (not a bool, a numpy integer or a
    vertex record) that decodes as a vertex of G_t. The first violating pair
    (or member) is named in the report; a clique of 0 or 1 valid members
    passes. No clique passes when t < 1, since there is no such G_t.
    """
    if c.t < 1:
        return Report(False, f"t must be positive, got {c.t}")
    for idx, code in enumerate(c.members):
        if type(code) is not int:
            return Report(False, f"member {idx} ({code!r}) is not an int code")
        try:
            decode(code, c.t)
        except HadcliqueError as exc:
            return Report(False, f"member {idx} (code {code}) invalid: {exc}")
    n = len(c.members)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = c.members[i], c.members[j]
            if a == b:
                return Report(False, f"members {i} and {j} are duplicates (code {a})")
            if (a ^ b).bit_count() != 2 * c.t:
                return Report(False, f"members {i} and {j} (codes {a}, {b}) are not orthogonal")
    return Report(True, f"clique of size {n} in G_{c.t} verified")


def _canonical_rows(t: int) -> np.ndarray:
    n = 4 * t
    row1 = np.ones(n, dtype=np.int64)
    row2 = np.concatenate([np.ones(2 * t, dtype=np.int64), -np.ones(2 * t, dtype=np.int64)])
    quarter = np.concatenate([np.ones(t, dtype=np.int64), -np.ones(t, dtype=np.int64)])
    row3 = np.concatenate([quarter, quarter])
    return np.stack([row1, row2, row3])


def clique_to_matrix(c: Clique) -> np.ndarray:
    """Stack the three canonical rows over the members' sign rows.

    A clique of size m yields an (m+3) x 4t int64 array, a partial Hadamard
    matrix; the members' bit 1 maps to -1 with position 1 as the most
    significant bit. A clique that fails verify_clique raises
    HadcliqueError with its verdict's message.
    """
    verify_clique(c).check()
    t = c.t
    n = 4 * t
    rows = [_canonical_rows(t)]
    for code in c.members:
        bits = np.array([(code >> (n - 1 - p)) & 1 for p in range(n)], dtype=np.int64)
        rows.append((1 - 2 * bits)[None, :])
    return np.concatenate(rows, axis=0)


def verify_ph(M: np.ndarray) -> Report:
    """Check the partial Hadamard property: M M^T = n I, n in {1,2} or 4Z.

    M is a 2-D array; one with no entries, such as the (0, 0) array of a
    sign-matrix text with no rows, passes as vacuous.
    """
    if M.size == 0:
        return Report(True, "empty matrix verified (vacuous)")
    m, n = M.shape
    if not np.isin(M, (-1, 1)).all():
        return Report(False, "entries must be +1 or -1")
    if not (n in (1, 2) or n % 4 == 0):
        return Report(False, f"width {n} is not 1, 2, or a multiple of 4")
    if m > n:
        return Report(False, f"depth {m} exceeds width {n}; no partial Hadamard matrix that deep exists")
    gram = M @ M.T
    off = gram - n * np.eye(m, dtype=np.int64)
    if off.any():
        # off is symmetric with a zero diagonal, so the row-major scan meets i < j first
        i, j = (int(x) for x in np.argwhere(off)[0])
        return Report(False, f"rows {i} and {j} have inner product {gram[i, j]}, expected 0")
    return Report(True, f"{m} x {n} partial Hadamard matrix verified")
