"""Seed cliques: matrix normalization, text I/O, and Paley constructions.

A (partial) Hadamard matrix can be column-negated and column-permuted into
a normal form whose first three rows are the canonical triple; the rows
below then decode directly as graph vertices, turning any published
matrix into a starting clique for the searches. The Paley constructions
supply such matrices for free: the juxtaposition of truncated Paley blocks
whose orders sum to 4t is a partial Hadamard matrix of depth
2 min(p) + 2, hence a clique of size 2 min(p) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadCharacter,
    BadShape,
    DecodeFailure,
    HadcliqueError,
    NoDecomposition,
    NotOrthogonal,
    RaggedRows,
)
from .graph import Clique, decode
from .oracle import SignMatrix, _canonical_rows

__all__ = [
    "NormalizedMatrix",
    "normalize",
    "matrix_to_clique",
    "ingest_sign_matrix",
    "format_sign_matrix",
    "paley_seed",
]


@dataclass(frozen=True, slots=True)
class NormalizedMatrix:
    """A SignMatrix whose first three rows are the canonical triple."""

    matrix: SignMatrix

    def __post_init__(self) -> None:
        m, n = self.matrix.m, self.matrix.n
        if m < 3 or n < 4 or n % 4:
            raise BadShape(f"normalized matrix needs >= 3 rows and 4t columns, got {m} x {n}")
        arr = self.matrix.to_array()
        if (arr[:3] != _canonical_rows(n // 4)).any():
            raise BadShape("first three rows are not the canonical triple")

    @property
    def t(self) -> int:
        return self.matrix.n // 4

    @property
    def m(self) -> int:
        return self.matrix.m


def normalize(M: SignMatrix) -> NormalizedMatrix:
    """Column-negate and column-swap M so its first three rows are canonical.

    Step 1 negates every column whose first entry is negative; step 2 swaps
    left-half columns with a negative second entry against right-half
    columns with a positive one; step 3 does the same per half for the
    third row. Each step preserves all row inner products, so the
    orthogonality structure is untouched.
    """
    m, n = M.m, M.n
    if m < 3 or n < 4 or n % 4:
        raise BadShape(f"need >= 3 rows and 4t columns, got {m} x {n}")
    arr = M.to_array().copy()
    if not np.isin(arr, (-1, 1)).all():
        raise BadShape("entries must be +1 or -1")
    gram = arr @ arr.T
    if (gram - np.diag(np.diag(gram))).any():
        i, j = np.argwhere(gram - np.diag(np.diag(gram)))[0]
        raise NotOrthogonal(f"rows {i} and {j} have inner product {gram[i, j]}")
    t = n // 4

    arr[:, arr[0] < 0] *= -1

    def swap(cols_lo: np.ndarray, cols_hi: np.ndarray) -> None:
        # counts match because the row sums to zero over the span
        for a, b in zip(cols_lo, cols_hi):
            arr[:, [a, b]] = arr[:, [b, a]]

    half = 2 * t
    lo = np.nonzero(arr[1, :half] < 0)[0]
    hi = half + np.nonzero(arr[1, half:] > 0)[0]
    if len(lo) != len(hi):
        raise NotOrthogonal("second row is not balanced against the all-plus row")
    swap(lo, hi)

    for base in (0, half):
        lo = base + np.nonzero(arr[2, base:base + t] < 0)[0]
        hi = base + t + np.nonzero(arr[2, base + t:base + 2 * t] > 0)[0]
        if len(lo) != len(hi):
            raise NotOrthogonal("third row is not balanced within a half")
        swap(lo, hi)

    return NormalizedMatrix(SignMatrix.from_array(arr))


def matrix_to_clique(M: NormalizedMatrix | SignMatrix) -> Clique:
    """Decode rows 4..m of a normalized matrix as a clique of G_t.

    A plain SignMatrix is accepted when its first three rows are already
    canonical. Entry -1 maps to bit 1, column 1 being the most significant
    bit; a row that is no valid vertex raises DecodeFailure carrying its
    0-based row index.
    """
    if isinstance(M, SignMatrix):
        M = NormalizedMatrix(M)
    t = M.t
    n = 4 * t
    members = []
    for r in range(3, M.m):
        code = 0
        for e in M.matrix.rows[r]:
            code = code << 1 | (e < 0)
        try:
            members.append(decode(code, t))
        except HadcliqueError as exc:
            raise DecodeFailure(f"row {r} does not decode: {exc}", row=r) from exc
    return Clique(t=t, members=tuple(members))


def ingest_sign_matrix(text: str) -> SignMatrix:
    """Parse '+'/'-' (or '1'/'0') sign-matrix text.

    Blank lines and lines starting with '#' are skipped; spaces and tabs
    inside a row are ignored. All rows must have equal length.
    """
    rows: list[tuple[int, ...]] = []
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
                raise BadCharacter(f"line {ln}, column {col}: unexpected {ch!r}", line=ln, column=col)
        if rows and len(row) != len(rows[0]):
            raise RaggedRows(f"line {ln} has {len(row)} entries, expected {len(rows[0])}")
        rows.append(tuple(row))
    return SignMatrix(rows=tuple(rows))


def format_sign_matrix(M: SignMatrix) -> str:
    """Render as '+'/'-' rows, one per line, trailing newline, no padding."""
    return "".join("".join("+" if e > 0 else "-" for e in row) + "\n" for row in M.rows)


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
        target = 2 * t - i
        best: tuple[int, ...] | None = None
        primes = [p for p in range(3, target) if _is_odd_prime(p)]
        if i == 2:
            combos = [(a, b) for a in primes for b in primes if a <= b and a + b == target]
        else:
            combos = [
                (a, b, c)
                for a in primes
                for b in primes
                if a <= b
                for c in primes
                if b <= c and a + b + c == target
            ]
        for ps in combos:
            if best is None or (min(ps), ps) > (min(best), best):
                best = ps
        if best is not None:
            return best
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
    if t < 1:
        raise NoDecomposition(f"t must be positive, got {t}")
    ps = _decompose(t)
    if ps is None:
        raise NoDecomposition(f"2*{t} - i is no sum of i odd primes for i in (2, 3)")
    d = 2 * min(ps) + 2
    strip = np.hstack([_paley_block(p)[:d] for p in ps])
    return matrix_to_clique(normalize(SignMatrix.from_array(strip)))
