"""Exact inverses of unit lower-triangular (0,1)-matrices.

Write Y = I + N with N strictly lower.  The inverse A = Y^-1 is again unit
lower-triangular with integer entries and is computed by a column
recurrence, a_kl = -sum_{i=l}^{k-1} n_ki a_il for k > l, which walks each
column top to bottom touching only rows where Y has a one.

Off-diagonal inverse entries obey |a_ij| <= F_{i-j} (Fibonacci numbers with
F_1 = F_2 = 1), and the bound is checkable entrywise.  The Gram inverse
(Y Y^T)^-1 = A^T A is assembled from A without ever inverting a float.

The ``*_batch`` helpers vectorize the same recurrence over many patterns
at once in int64; they exist for bulk scans and are equivalence tested
against the scalar paths.  Patterns are read a row at a time, as the
scalar recurrence reads them: packed indices through core.row_masks, bit
arrays as their columns tri(k) .. tri(k) + k - 1, so no dense copy of the
strict lower part is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    IntegerMatrix,
    LowerUnitMatrix,
    mat_mul,
    mat_transpose,
    row_masks,
    tri,
)


@dataclass(frozen=True)
class BoundWitness:
    """Outcome of an entrywise bound check; falsy when violated."""

    holds: bool
    violation: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.holds


def invert_unit_lower(y: LowerUnitMatrix) -> IntegerMatrix:
    """Exact inverse via the column recurrence.

    a_kk = 1 and, for k > l, a_kl = -sum over i in [l, k) with y_ki = 1
    of a_il.  Everything stays in Python ints.
    """
    n = y.n
    a: list[list[int]] = [[0] * n for _ in range(n)]
    for k in range(n):
        a[k][k] = 1
        row = y.row_mask(k)
        ones = [i for i in range(k) if (row >> i) & 1]
        for l in range(k):
            a[k][l] = -sum(a[i][l] for i in ones if i >= l)
    return IntegerMatrix(n, tuple(tuple(r) for r in a))


def fibonacci_bound_holds(a: IntegerMatrix) -> BoundWitness:
    """Check |a_ij| <= F_{i-j} below the diagonal.

    Returns the first violating position in row-major order, if any.
    """
    from .extremal import fib_upto  # deferred: extremal imports this module

    n = a.n
    fib = (0,) + fib_upto(n - 1) if n > 1 else (0,)
    for i in range(n):
        for j in range(i):
            if abs(a.entries[i][j]) > fib[i - j]:
                return BoundWitness(False, (i, j))
    return BoundWitness(True, None)


def gram_inverse(y: LowerUnitMatrix) -> IntegerMatrix:
    """Exact (Y Y^T)^-1 = (Y^-1)^T (Y^-1)."""
    a = invert_unit_lower(y)
    return mat_mul(mat_transpose(a), a)


# -- vectorized bulk paths ------------------------------------------------

# The recurrence keeps every intermediate sum below F_{n+2} in magnitude,
# so int64 is safe while F_{n+2} < 2^63, i.e. n <= 90.  The Gram product
# A^T A is tighter: its (0,0) entry reaches 1 + F_{n-1} F_n, attained at
# the alternating pattern, which clears 2^63 at n = 48.
_BATCH_N_MAX = 90
_GRAM_BATCH_N_MAX = 47


def invert_batch(n: int, patterns: np.ndarray) -> np.ndarray:
    """Column-recurrence inverses for a whole batch of patterns.

    Patterns are packed int64 indices (1-D, n <= 11, each in [0,
    2^tri(n)), decoded by core.row_masks) or bit rows (2-D, B x tri(n), in
    position order).
    Returns (B, n, n) int64 matrices equal to invert_unit_lower on each
    pattern.  Bounded to n <= 90 so no entry can overflow int64.
    """
    if n > _BATCH_N_MAX:
        raise ValueError(f"batch inversion supports n <= {_BATCH_N_MAX}, got {n}")
    patterns = np.asarray(patterns)
    if patterns.ndim == 1:
        masks = row_masks(n, patterns.astype(np.int64))
        # row_masks decodes the low tri(n) bits of any int64 and checks none
        if patterns.size and (patterns.min() < 0 or patterns.max() >= 1 << tri(n)):
            raise ValueError(f"packed indices for n = {n} must lie in [0, 2^{tri(n)})")
        # bits 0 .. k-1 of row k's mask, one column per bit
        rows = [(masks[k, :, None] >> np.arange(k)) & 1 for k in range(n)]
    elif patterns.ndim == 2:
        m = tri(n)
        if patterns.shape[1] != m:
            raise ValueError(f"expected {m} bit columns for n = {n}, got {patterns.shape[1]}")
        bits = patterns.astype(np.int64)
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            raise ValueError("bit arrays must be 0/1 valued")
        # row k's strictly lower bits are columns tri(k) .. tri(k) + k - 1
        rows = [bits[:, tri(k) : tri(k) + k] for k in range(n)]
    else:
        raise ValueError(f"patterns must be 1-D packed or 2-D bits, got ndim={patterns.ndim}")
    a = np.zeros((patterns.shape[0], n, n), dtype=np.int64)
    idx = np.arange(n)
    a[:, idx, idx] = 1
    for k in range(1, n):
        # row k of the inverse from rows above it
        a[:, k, :k] = -np.einsum("bi,bij->bj", rows[k], a[:, :k, :k])
    return a


def gram_inverse_batch(n: int, patterns: np.ndarray) -> np.ndarray:
    """(B, n, n) int64 Gram inverses A^T A for a batch of patterns."""
    if n > _GRAM_BATCH_N_MAX:
        raise ValueError(
            f"batch Gram inversion supports n <= {_GRAM_BATCH_N_MAX}, got {n}; "
            f"entries can exceed int64 beyond that"
        )
    a = invert_batch(n, patterns)
    return np.einsum("bki,bkj->bij", a, a)
