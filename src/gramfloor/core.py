"""Bit-packed unit lower-triangular (0,1)-matrices and exact integer matrices.

A pattern Y is stored as its dimension ``n`` plus a single Python integer
carrying the n(n-1)/2 strictly-lower entries, row-major: positions (1,0),
(2,0), (2,1), (3,0), ... in 0-based (row, col) order.  Bit k of that integer
is position k, so the packed field doubles as the enumeration index of Y
within its size class: ``from_index(n, i).bits == i``.  The diagonal is
implicitly all ones and the upper triangle implicitly zero.  Row i sits in
bits tri(i) .. tri(i) + i - 1, and two functions read that layout:
``LowerUnitMatrix.row_mask`` for one Python-int pattern and ``row_masks``
for a batch of int64 indices.  Every other reader goes through them.

Dense exact matrices are tuples of tuples of Python ints.  Nothing in this
module rounds; Python integers keep every product exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

import numpy as np


def tri(n: int) -> int:
    """Number of strictly-lower positions in an n x n matrix."""
    return n * (n - 1) // 2


def lower_positions(n: int) -> Iterator[tuple[int, int]]:
    """Strictly-lower (row, col) pairs in packed order."""
    for i in range(1, n):
        for j in range(i):
            yield i, j


@dataclass(frozen=True)
class LowerUnitMatrix:
    """Unit lower-triangular (0,1)-matrix with a bit-packed lower part."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if not 0 <= self.bits < (1 << tri(self.n)):
            raise ValueError(f"bitfield {self.bits} out of range for n={self.n}")

    def entry(self, i: int, j: int) -> int:
        """Full-matrix entry at 0-based (i, j)."""
        if not 0 <= j < self.n:
            raise IndexError(f"column {j} out of range for n={self.n}")
        return (self.row_mask(i) >> j) & 1

    def row_mask(self, i: int) -> int:
        """Row i as a column bitmask, unit diagonal included."""
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} out of range for n={self.n}")
        return ((self.bits >> tri(i)) & ((1 << i) - 1)) | (1 << i)


def row_masks(n: int, idx: np.ndarray) -> np.ndarray:
    """Row bitmasks of a batch of packed int64 indices, unit diagonal included.

    The batched twin of LowerUnitMatrix.row_mask: entry (i, b) is row i of
    pattern idx[b], shape (n, B) int64.  An int64 holds tri(n) <= 63 packed
    positions, so n <= 11; larger sizes raise ValueError.
    """
    if tri(n) > 63:
        raise ValueError(
            f"packed int64 indices cover tri(n) <= 63 bit positions, "
            f"n = {n} needs {tri(n)}"
        )
    rows = np.arange(n, dtype=np.int64)[:, None]
    masks = np.right_shift(idx, rows * (rows - 1) // 2)
    masks &= (1 << rows) - 1
    masks |= 1 << rows
    return masks


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense square matrix with exact integer entries."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.entries) != self.n:
            raise ValueError("entries must form a nonempty square matrix")
        if any(len(row) != self.n for row in self.entries):
            raise ValueError("entries must form a square matrix")

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return mat_mul(self, other)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive definite product Y Y^T of a unit lower pattern."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.entries) != self.n:
            raise ValueError("entries must form a nonempty square matrix")
        for i, row in enumerate(self.entries):
            if len(row) != self.n:
                raise ValueError("entries must form a square matrix")
            for j in range(i):
                if row[j] != self.entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")


def from_index(n: int, index: int) -> LowerUnitMatrix:
    """Pattern number ``index`` of size n; its ``bits`` field is ``index``.

    Raises ValueError when index is outside [0, 2^(n(n-1)/2)).
    """
    return LowerUnitMatrix(n, index)


def y0(n: int) -> LowerUnitMatrix:
    """The alternating-parity pattern: below the diagonal, entry (i, j) is 1
    exactly when i + j is odd.  Conjectured (and exhaustively verified for
    small n) to minimize the smallest eigenvalue of Y Y^T over all patterns.
    """
    bits = 0
    for k, (i, j) in enumerate(lower_positions(n)):
        if (i + j) & 1:
            bits |= 1 << k
    return LowerUnitMatrix(n, bits)


def gram(y: LowerUnitMatrix) -> GramMatrix:
    """Exact Gram matrix Z = Y Y^T.

    Entry (i, j) counts the common ones of rows i and j, so each entry is a
    popcount of intersected row masks.
    """
    masks = [y.row_mask(i) for i in range(y.n)]
    rows = tuple(
        tuple((masks[i] & masks[j]).bit_count() for j in range(y.n))
        for i in range(y.n)
    )
    return GramMatrix(y.n, rows)


def to_dense(y: LowerUnitMatrix) -> IntegerMatrix:
    """Unpack a pattern into a dense exact matrix."""
    rows = tuple(tuple(y.entry(i, j) for j in range(y.n)) for i in range(y.n))
    return IntegerMatrix(y.n, rows)


def encode(matrix: IntegerMatrix | Sequence[Sequence[int]]) -> LowerUnitMatrix:
    """Pack a dense unit lower-triangular (0,1)-matrix.

    Rejects non-square input, entries outside {0, 1} below the diagonal,
    a non-unit diagonal, and a nonzero upper part.
    """
    rows = matrix.entries if isinstance(matrix, IntegerMatrix) else matrix
    n = len(rows)
    if n < 1 or any(len(row) != n for row in rows):
        raise ValueError("input must be a nonempty square matrix")
    bits = 0
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if i == j:
                if v != 1:
                    raise ValueError(f"diagonal entry ({i}, {i}) must be 1, got {v}")
            elif i < j:
                if v != 0:
                    raise ValueError(f"upper entry ({i}, {j}) must be 0, got {v}")
            else:
                if v not in (0, 1):
                    raise ValueError(f"lower entry ({i}, {j}) must be 0 or 1, got {v}")
                if v:
                    bits |= 1 << (tri(i) + j)
    return LowerUnitMatrix(n, bits)


def gram_factor(z: GramMatrix) -> LowerUnitMatrix:
    """Recover the unique unit lower-triangular Y with Y Y^T = Z.

    This is an exact integer Cholesky walk; it doubles as membership
    validation, rejecting Z that no (0,1) pattern generates.
    """
    n = z.n
    rows: list[list[int]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = z.entries[i][j] - sum(rows[i][k] * rows[j][k] for k in range(j))
            if i == j:
                if acc != 1:
                    raise ValueError(f"not a unit Gram matrix: pivot {acc} at ({i}, {i})")
                rows[i][i] = 1
            else:
                if acc not in (0, 1):
                    raise ValueError(f"not a (0,1) Gram matrix: entry {acc} at ({i}, {j})")
                rows[i][j] = acc
    return encode(rows)


def mat_mul(a: IntegerMatrix | GramMatrix, b: IntegerMatrix | GramMatrix) -> IntegerMatrix:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    bt = tuple(zip(*b.entries))
    rows = tuple(
        tuple(sum(map(mul, arow, bcol)) for bcol in bt) for arow in a.entries
    )
    return IntegerMatrix(n, rows)


def mat_transpose(a: IntegerMatrix) -> IntegerMatrix:
    return IntegerMatrix(a.n, tuple(zip(*a.entries)))


def mat_abs(a: IntegerMatrix) -> IntegerMatrix:
    return IntegerMatrix(a.n, tuple(tuple(abs(v) for v in row) for row in a.entries))
