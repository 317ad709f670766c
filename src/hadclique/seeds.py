"""Seed cliques: matrix normalization, text I/O, and Paley constructions.

A (partial) Hadamard matrix can be column-negated and column-permuted into
a normal form whose first three rows are the canonical triple; a sign
matrix here is always a plain 2-D int64 numpy array of +1/-1 entries.
matrix_to_clique checks that form and decodes the rows below as graph
vertices, turning any published matrix into a starting clique for the
searches. The Paley constructions supply such matrices for free: the
juxtaposition of truncated Paley blocks whose orders sum to 4t is a
partial Hadamard matrix of depth 2 min(p) + 2, hence a clique of size
2 min(p) - 1.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from .errors import HadcliqueError, NoDecomposition
from .graph import Clique, decode
from .oracle import _canonical_rows

__all__ = [
    "normalize",
    "matrix_to_clique",
    "ingest_sign_matrix",
    "format_sign_matrix",
    "paley_seed",
]


def normalize(M: np.ndarray) -> np.ndarray:
    """Column-negate and column-swap M so its first three rows are canonical.

    Returns the normal form as a new int64 array, the input that
    matrix_to_clique decodes. The work is done on a copy, so the caller's
    array is never written.

    Step 1 negates every column whose first entry is negative; step 2 swaps
    left-half columns with a negative second entry against right-half
    columns with a positive one; step 3 does the same per half for the
    third row. Each step preserves all row inner products, so the
    orthogonality structure is untouched.

    The Gram test, which refuses any two rows that are not orthogonal, is
    the only balance check the swaps need. After step 1 row 0 is all +1, so
    row 1 sums to 0 and has as many -1s in the left half as +1s in the
    right half. Row 2 is orthogonal to rows 0 and 1, so each half of it sums
    to 0, and the same holds within each half.
    """
    arr = np.array(M, dtype=np.int64)
    m, n = arr.shape
    if m < 3 or n < 4 or n % 4:
        raise HadcliqueError(f"need >= 3 rows and 4t columns, got {m} x {n}")
    if not np.isin(arr, (-1, 1)).all():
        raise HadcliqueError("entries must be +1 or -1")
    gram = arr @ arr.T
    if (gram - np.diag(np.diag(gram))).any():
        i, j = np.argwhere(gram - np.diag(np.diag(gram)))[0]
        raise HadcliqueError(f"rows {i} and {j} have inner product {gram[i, j]}")
    t = n // 4

    arr[:, arr[0] < 0] *= -1

    def swap(cols_lo: np.ndarray, cols_hi: np.ndarray) -> None:
        # counts match because the row sums to zero over the span
        for a, b in zip(cols_lo, cols_hi):
            arr[:, [a, b]] = arr[:, [b, a]]

    half = 2 * t
    lo = np.nonzero(arr[1, :half] < 0)[0]
    hi = half + np.nonzero(arr[1, half:] > 0)[0]
    swap(lo, hi)

    for base in (0, half):
        lo = base + np.nonzero(arr[2, base:base + t] < 0)[0]
        hi = base + t + np.nonzero(arr[2, base + t:base + 2 * t] > 0)[0]
        swap(lo, hi)

    return arr


def matrix_to_clique(M: np.ndarray) -> Clique:
    """Decode rows 4..m of a normalized matrix as a clique of G_t.

    M must be in normal form: at least 3 rows, 4t columns, and the
    canonical triple as its first three rows, as normalize returns it;
    anything else raises HadcliqueError. Entry -1 maps to bit 1, column 1
    being the most significant bit; a row that is no valid vertex raises
    HadcliqueError naming its 0-based row index. Each code is built from
    the row's Python ints, so members are plain ints even at 64 columns,
    where a numpy integer would overflow.
    """
    m, n = M.shape
    if m < 3 or n < 4 or n % 4:
        raise HadcliqueError(f"normalized matrix needs >= 3 rows and 4t columns, got {m} x {n}")
    t = n // 4
    if (M[:3] != _canonical_rows(t)).any():
        raise HadcliqueError("first three rows are not the canonical triple")
    members = []
    for r in range(3, m):
        code = 0
        for e in M[r].tolist():
            code = code << 1 | (e < 0)
        try:
            members.append(decode(code, t).code)
        except HadcliqueError as exc:
            raise HadcliqueError(f"row {r} does not decode: {exc}") from exc
    return Clique(t=t, members=tuple(members))


def ingest_sign_matrix(text: str) -> np.ndarray:
    """Parse '+'/'-' (or '1'/'0') sign-matrix text into an int64 array.

    Blank lines and lines starting with '#' are skipped; spaces and tabs
    inside a row are ignored. All rows must have equal length. Text with
    no rows gives shape (0, 0).
    """
    rows: list[list[int]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        row: list[int] = []
        for col, ch in enumerate(line, start=1):
            if ch in " \t":
                continue
            if ch in "+1":
                row.append(1)
            elif ch in "-0":
                row.append(-1)
            else:
                raise HadcliqueError(f"line {ln}, column {col}: unexpected {ch!r}")
        if rows and len(row) != len(rows[0]):
            raise HadcliqueError(f"line {ln} has {len(row)} entries, expected {len(rows[0])}")
        rows.append(row)
    return np.array(rows, dtype=np.int64) if rows else np.empty((0, 0), dtype=np.int64)


def format_sign_matrix(M: np.ndarray) -> str:
    """Render a 2-D array as unpadded '+'/'-' rows, each ending in a newline."""
    return "".join("".join("+" if e > 0 else "-" for e in row) + "\n" for row in M.tolist())


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _decompose(t: int) -> tuple[int, ...] | None:
    """2t - i as a sum of i odd primes, i in {2, 3}; maximize min(p)."""
    for i in (2, 3):
        primes = [p for p in range(3, 2 * t - i) if _is_odd_prime(p)]
        sums = [ps for ps in combinations_with_replacement(primes, i) if sum(ps) == 2 * t - i]
        if sums:
            return max(sums, key=lambda ps: (min(ps), ps))
    return None


def _jacobsthal(p: int) -> np.ndarray:
    residues = {pow(x, 2, p) for x in range(1, p)}
    chi = np.zeros(p, dtype=np.int64)
    for x in range(1, p):
        chi[x] = 1 if x in residues else -1
    idx = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    return chi[idx]


def _paley_block(p: int) -> np.ndarray:
    """A Hadamard matrix of order 2p + 2 from the prime p.

    p = 3 mod 4: the skew Paley Hadamard matrix of order p + 1, doubled by
    the standard order-2 Hadamard tensor. p = 1 mod 4: the symmetric Paley
    conference matrix of order p + 1 run through the conference-to-Hadamard
    doubling.
    """
    Q = _jacobsthal(p)
    n = p + 1
    if p % 4 == 3:
        S = np.zeros((n, n), dtype=np.int64)
        S[0, 1:] = 1
        S[1:, 0] = -1
        S[1:, 1:] = Q
        H = np.eye(n, dtype=np.int64) + S
        return np.kron(H, np.array([[1, 1], [1, -1]], dtype=np.int64))
    C = np.zeros((n, n), dtype=np.int64)
    C[0, 1:] = 1
    C[1:, 0] = 1
    C[1:, 1:] = Q
    eye = np.eye(n, dtype=np.int64)
    return np.block([[C + eye, C - eye], [C - eye, -C - eye]])


def paley_seed(t: int) -> Clique:
    """A seed clique of G_t from juxtaposed truncated Paley blocks.

    Writes 2t - i as a sum of i odd primes (i = 2 preferred, then the
    decomposition with the largest smallest prime), builds a Hadamard
    block of order 2p + 2 per prime, keeps the top d = 2 min(p) + 2 rows
    of each, juxtaposes into a d x 4t partial Hadamard matrix, normalizes,
    and decodes. The resulting clique has size d - 3 = 2 min(p) - 1.
    """
    ps = _decompose(t)
    if ps is None:
        raise NoDecomposition(f"2*{t} - i is no sum of i odd primes for i in (2, 3)")
    d = 2 * min(ps) + 2
    strip = np.hstack([_paley_block(p)[:d] for p in ps])
    return matrix_to_clique(normalize(strip))
