"""Number-theoretic lower bounds and GCD-matrix companions.

Three families of checks live here.  Closed-form lower bounds on the least
Gram eigenvalue floor c_n, in a general and a parity-refined variant, both
of the shape base^((n-1)/2).  The divisor-matrix bound t_n >= 1/(n sum mu^2)
for the pattern whose strictly lower part marks divisibility.  And power GCD
matrices: the Hong-Loewy eigenvalue bound through Jordan totients, plus the
classical determinant identity det = prod phi over factor-closed sets, done
in exact integer arithmetic.

Both eigenvalue checks take their least eigenvalue in float64 from LAPACK
through numpy.linalg.eigvalsh; the Hong-Loewy verdict allows _SLACK for
its rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .charpoly import smallest_eigenvalue
from .core import IntegerMatrix, gram, mat_mul, mat_transpose, y0


@dataclass(frozen=True)
class BoundsRow:
    """One line of the bounds comparison table."""

    n: int
    c_n: float
    mattila_general: float
    mattila_parity: float
    holds: bool


@dataclass(frozen=True)
class GcdMatrixSpec:
    """Power GCD matrix on a duplicate-free set of positive integers."""

    s: tuple[int, ...]
    eps: float
    entries: tuple[tuple, ...]


@dataclass(frozen=True)
class DivisorBoundResult:
    t_n: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class HongLoewyResult:
    lambda_min: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class SmithResult:
    determinant: int
    phi_product: int
    equal: bool


# -- closed-form floor bounds ------------------------------------------------


def mattila_bases(n: int) -> tuple[Fraction, Fraction]:
    """Exact bases of the general and parity-refined bounds, both raised
    to the same exponent (n-1)/2, so base order decides bound order."""
    if n < 2:
        raise ValueError(f"bounds are defined for n >= 2, got {n}")
    general = Fraction(6, n**4 + 2 * n**3 + 2 * n**2 + n)
    if n % 2 == 0:
        parity = Fraction(48, n**4 + 56 * n**2 + 48 * n)
    else:
        parity = Fraction(48, n**4 + 50 * n**2 + 48 * n - 51)
    return general, parity


def mattila_bounds(n: int) -> tuple[float, float]:
    """(general, parity-variant) lower bounds on the floor c_n."""
    general, parity = mattila_bases(n)
    exponent = (n - 1) / 2
    return float(general) ** exponent, float(parity) ** exponent


# -- multiplicative functions ------------------------------------------------


def mobius_sieve(n: int) -> list[int]:
    """mu(0..n) by a linear sieve; the 0 slot is a placeholder zero."""
    if n < 1:
        raise ValueError(f"sieve bound must be positive, got {n}")
    mu = [0] * (n + 1)
    mu[1] = 1
    primes: list[int] = []
    composite = bytearray(n + 1)
    for i in range(2, n + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            composite[i * p] = 1
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def _factorize(m: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            a = 0
            while m % d == 0:
                m //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(m: int) -> int:
    return jordan_totient(m, 1)


def jordan_totient(m: int, eps: float) -> int | float:
    """J_eps(m) = m^eps * prod over p | m of (1 - p^(-eps)).

    Integer eps stays in exact integer arithmetic; real eps goes through
    floats with the same product over distinct prime factors.
    """
    if m < 1:
        raise ValueError(f"totient argument must be positive, got {m}")
    if eps <= 0:
        raise ValueError(f"exponent must be positive, got {eps}")
    factors = _factorize(m)
    if isinstance(eps, int) or float(eps).is_integer():
        k = int(eps)
        out = 1
        for p, a in factors:
            out *= p ** (a * k) - p ** ((a - 1) * k)
        return out
    out = float(m) ** eps
    for p, _ in factors:
        out *= 1.0 - float(p) ** -eps
    return out


# -- divisor matrix ----------------------------------------------------------


def divisor_matrix(n: int) -> IntegerMatrix:
    """Entry (i, j) is 1 exactly when j divides i, in 1-based labels."""
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    rows = tuple(
        tuple(1 if i % j == 0 else 0 for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    return IntegerMatrix(n, rows)


def divisor_matrix_bound_check(n: int) -> DivisorBoundResult:
    """t_n = least eigenvalue of E^T E against 1 / (n * sum of mu^2)."""
    e = divisor_matrix(n)
    ete = mat_mul(mat_transpose(e), e)
    t_n = float(np.linalg.eigvalsh(np.array(ete.entries, dtype=np.float64))[0])
    mu = mobius_sieve(n)
    bound = 1.0 / (n * sum(v * v for v in mu[1:]))
    return DivisorBoundResult(t_n, bound, t_n >= bound)


# -- power GCD matrices ------------------------------------------------------


def _validated_set(s: Sequence[int]) -> tuple[int, ...]:
    xs = tuple(int(x) for x in s)
    if not xs:
        raise ValueError("the set must be nonempty")
    if any(x < 1 for x in xs):
        raise ValueError(f"set elements must be positive, got {min(xs)}")
    if len(set(xs)) != len(xs):
        dup = next(x for i, x in enumerate(xs) if x in xs[:i])
        raise ValueError(f"set elements must be distinct, {dup} repeats")
    return xs


def power_gcd_matrix(s: Sequence[int], eps: float) -> GcdMatrixSpec:
    """Matrix of gcd(x_i, x_j)^eps; exact integers whenever eps is integral."""
    xs = _validated_set(s)
    if eps <= 0:
        raise ValueError(f"exponent must be positive, got {eps}")
    integral = isinstance(eps, int) or float(eps).is_integer()
    if integral:
        k = int(eps)
        entries = tuple(
            tuple(math.gcd(a, b) ** k for b in xs) for a in xs
        )
    else:
        entries = tuple(
            tuple(float(math.gcd(a, b)) ** eps for b in xs) for a in xs
        )
    return GcdMatrixSpec(xs, eps, entries)


@functools.cache
def floor_value(n: int) -> float:
    """c_n as the least Gram eigenvalue of the alternating pattern Y0.

    Y0 attains the floor, so this equals the exhaustive scan's c_n bit for
    bit wherever a scan computes both, without the scan's cost.
    """
    return smallest_eigenvalue(gram(y0(n)))


_SLACK = 1e-9


def hong_loewy_check(s: Sequence[int], eps: float) -> HongLoewyResult:
    """Least eigenvalue of the power GCD matrix against c_n * min J_eps,
    with c_n = ``floor_value(len(s))``."""
    spec = power_gcd_matrix(s, eps)
    lam = float(np.linalg.eigvalsh(np.array(spec.entries, dtype=np.float64))[0])
    bound = floor_value(len(spec.s)) * min(jordan_totient(x, eps) for x in spec.s)
    holds = lam >= bound - _SLACK * max(1.0, abs(bound))
    return HongLoewyResult(lam, bound, holds)


# -- Smith determinant -------------------------------------------------------


def _divisors(x: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= x:
        if x % d == 0:
            small.append(d)
            if d != x // d:
                large.append(x // d)
        d += 1
    return small + large[::-1]


def _bareiss_determinant(m: list[list[int]]) -> int:
    """Fraction-free elimination; every division along the way is exact."""
    n = len(m)
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_determinant_check(s: Sequence[int]) -> SmithResult:
    """det of the GCD matrix on a factor-closed set equals prod phi(x_k).

    Factor closure is validated up front; a missing divisor is named in the
    error.  The determinant is computed in exact integer arithmetic.
    """
    xs = _validated_set(s)
    members = set(xs)
    for x in xs:
        for d in _divisors(x):
            if d not in members:
                raise ValueError(
                    f"set is not factor-closed: divisor {d} of {x} is missing"
                )
    entries = [[math.gcd(a, b) for b in xs] for a in xs]
    det = _bareiss_determinant(entries)
    phi_prod = math.prod(euler_phi(x) for x in xs)
    return SmithResult(det, phi_prod, det == phi_prod)


# -- summary table -----------------------------------------------------------


def bounds_table(n_max: int) -> tuple[BoundsRow, ...]:
    """Rows n = 2..n_max comparing c_n (``floor_value``) against both closed bounds."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    rows = []
    for n in range(2, n_max + 1):
        c = floor_value(n)
        general, parity = mattila_bounds(n)
        rows.append(BoundsRow(n, c, general, parity, c >= general and c >= parity))
    return tuple(rows)
