"""Closed forms attached to the alternating-parity pattern.

Let Y0 be the pattern whose strictly-lower (i, j) entry is 1 exactly when
i + j is odd, and Z0 = Y0 Y0^T.  Both inverses have explicit Fibonacci
descriptions (F_1 = F_2 = 1):

  * (Y0^-1)_ij = (-1)^(i-j) F_{i-j} below the diagonal, 1 on it;
  * (Z0^-1)_ii = 1 + sum_{k>i} F_{k-i}^2 and, for j < i,
    (Z0^-1)_ij = (-1)^(i-j) (F_{i-j} + sum_{t>i} F_{t-i} F_{t-j}).

Z0^-1 strictly alternates in sign with parity (-1)^(i-j), and its absolute
value bounds |Z^-1| entrywise for every pattern Z of the same size.  With
D = diag((-1)^i) the alternation reads |Z0^-1| = D Z0^-1 D, and since
D = D^-1 that makes |Z0^-1| similar to Z0^-1: the two share their spectrum,
so trace(|Z0^-1|^k) = trace((Z0^-1)^k) for every k and their spectral radii
agree.  All checks here are exact.
"""

from __future__ import annotations

from .core import GramMatrix, IntegerMatrix, gram_factor, mat_abs
from .inverse import BoundWitness, gram_inverse


_FIB = [1, 1]  # F_1, F_2, ...; fib_upto grows it on demand


def fib_upto(m: int) -> tuple[int, ...]:
    """(F_1, ..., F_m); empty for m <= 0."""
    while len(_FIB) < m:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return tuple(_FIB[: max(m, 0)])


def fibonacci(k: int) -> int:
    """F_k with F_1 = F_2 = 1."""
    if k < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {k}")
    return fib_upto(k)[k - 1]


def y0_inverse_closed(n: int) -> IntegerMatrix:
    """Closed-form inverse of the alternating-parity pattern."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    fib = (0,) + fib_upto(n - 1)
    rows = tuple(
        tuple(
            1 if i == j else (0 if i < j else (-fib[i - j] if (i - j) & 1 else fib[i - j]))
            for j in range(n)
        )
        for i in range(n)
    )
    return IntegerMatrix(n, rows)


def z0_inverse_closed(n: int) -> IntegerMatrix:
    """Closed-form inverse of Z0 = Y0 Y0^T.

    Only the lower half is generated from the formula; the upper half is
    mirrored.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    fib = (0,) + fib_upto(n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1 + sum(fib[k - i] ** 2 for k in range(i + 1, n))
        for j in range(i):
            s = fib[i - j] + sum(fib[t - i] * fib[t - j] for t in range(i + 1, n))
            rows[i][j] = -s if (i - j) & 1 else s
            rows[j][i] = rows[i][j]
    return IntegerMatrix(n, tuple(tuple(r) for r in rows))


def sign_pattern_check(m: IntegerMatrix) -> bool:
    """True when every entry is nonzero with sign (-1)^(i-j)."""
    for i in range(m.n):
        for j in range(m.n):
            v = m.entries[i][j]
            if v == 0:
                return False
            if (v < 0) != bool((i - j) & 1):
                return False
    return True


def domination_check(z: GramMatrix) -> BoundWitness:
    """Check |Z^-1| <= |Z0^-1| entrywise, exactly.

    Z^-1 is computed through the integer Gram-inverse path (the generating
    pattern is recovered from Z first), never by floating inversion.
    """
    n = z.n
    ref = mat_abs(z0_inverse_closed(n))
    zi = gram_inverse(gram_factor(z))
    for i in range(n):
        for j in range(n):
            if abs(zi.entries[i][j]) > ref.entries[i][j]:
                return BoundWitness(False, (i, j))
    return BoundWitness(True, None)


def trace_equality_check(n: int) -> bool:
    """trace((Z0^-1)^k) = trace(|Z0^-1|^k) for every k, exactly.

    Certified through the similarity D Z0^-1 D = |Z0^-1|, D = diag((-1)^i):
    entry (i, j) of D Z0^-1 D is (-1)^(i+j) (Z0^-1)_ij, so n^2 integer sign
    tests settle it, and similar matrices have equal power traces.  It makes
    the spectral radius of Z0^-1 match that of its absolute value, which is
    what makes the alternating pattern extremal.  False means the identity
    failed at some entry.
    """
    signed = z0_inverse_closed(n)
    return all(
        (-v if (i + j) & 1 else v) == abs(v)
        for i, row in enumerate(signed.entries)
        for j, v in enumerate(row)
    )
