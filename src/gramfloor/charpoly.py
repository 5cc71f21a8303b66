"""Exact characteristic polynomials and the smallest-eigenvalue pipeline.

The route from a matrix to its least eigenvalue is: exact integer power sums
p_k = trace(Z^k), Newton's identities for the elementary symmetric functions
e_k (every division is exact and checked), then Newton's method on the monic
polynomial

    q(x) = x^n - e_1 x^(n-1) + e_2 x^(n-2) - ... + (-1)^n e_n

started at 0.  For a polynomial with all roots real and positive the iterates
increase monotonically to the least root, so the first fixed point is the
right one.  The stopping rule is fixed, so c_n has one value: the walk stops
once a step is at most NEWTON_TOL relative to the iterate, or once the
residual sinks under the float64 noise floor, and gives up after NEWTON_CAP
steps.  The scan in search values each pattern through newton_identities
and this walk too, so every route to a value runs the same code.

Near-ties between candidate minima are settled exactly: integer
characteristic polynomials are compared through Sturm-chain root counting
with rational interval endpoints, no floating point involved.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .core import GramMatrix, IntegerMatrix

_EPS = sys.float_info.epsilon
# |q(x)| at or below this multiple of the coefficient-magnitude Horner sum is
# indistinguishable from zero in float64; treat such iterates as converged.
NOISE_FLOOR = 4.0 * _EPS
# steps more negative than -sqrt(eps) * scale signal a genuine precondition
# violation rather than rounding jitter near a multiple root
_BACKSTEP = math.sqrt(_EPS)
# the stopping rule of every Newton walk: relative step size, step budget
NEWTON_TOL = 1e-13
NEWTON_CAP = 500


class ConvergenceError(RuntimeError):
    """An iterative method ran out of its iteration budget or left its regime."""


@dataclass(frozen=True)
class PowerSums:
    """p_k = trace(M^k) for k = 1..n, exact."""

    n: int
    p: tuple[int, ...]


@dataclass(frozen=True)
class CharPoly:
    """Elementary symmetric functions e_1..e_n of the eigenvalues.

    The monic characteristic polynomial is
    x^n - e_1 x^(n-1) + e_2 x^(n-2) - ... + (-1)^n e_n.
    """

    n: int
    e: tuple[int, ...]


def power_sums(m: IntegerMatrix | GramMatrix) -> PowerSums:
    """Exact traces of the first n powers of a symmetric matrix.

    Every power of a symmetric M is symmetric, so only the powers up to
    h = ceil(n/2) are formed, and of each only the half j >= i: entry
    (i, j) of M^k is row i of M^(k-1) times row j of M, and it is written
    to (j, i) as well.  p_k for k <= h is the diagonal sum of M^k; for
    k > h it is the entrywise product sum of M^h and M^(k-h), since
    trace(A B) = sum_ij A_ij B_ij for symmetric B, and both being
    symmetric it is read off the diagonal and twice the half j > i.
    Non-symmetric input raises ValueError.
    """
    n = m.n
    rows = m.entries
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError("power sums need a symmetric matrix")
    half = (n + 1) // 2
    pows = [rows]  # pows[k - 1] = M^k
    for _ in range(1, half):
        prev = pows[-1]
        cur = [[0] * n for _ in range(n)]
        for i, prow in enumerate(prev):
            crow = cur[i]
            for j in range(i, n):
                crow[j] = cur[j][i] = sum(map(mul, prow, rows[j]))
        pows.append(cur)
    p = [sum(a[i][i] for i in range(n)) for a in pows]
    top = pows[-1]
    for b in pows[: n - half]:
        p.append(sum(
            arow[i] * brow[i] + 2 * sum(map(mul, arow[i + 1:], brow[i + 1:]))
            for i, (arow, brow) in enumerate(zip(top, b))
        ))
    return PowerSums(n, tuple(p))


def newton_identities(ps: PowerSums) -> CharPoly:
    """e_k from power sums: k e_k = sum_{i=1}^{k} (-1)^(i-1) e_{k-i} p_i.

    The division by k is exact for integer input; a nonzero remainder means
    an upstream bug and raises ArithmeticError.
    """
    n = ps.n
    p = (0,) + ps.p
    e = [0] * (n + 1)
    e[0] = 1
    for k in range(1, n + 1):
        acc = 0
        sign = 1
        for i in range(1, k + 1):
            acc += sign * e[k - i] * p[i]
            sign = -sign
        q, r = divmod(acc, k)
        if r:
            raise ArithmeticError(
                f"Newton identity division not exact at k={k}: {acc} % {k} = {r}"
            )
        e[k] = q
    return CharPoly(n, tuple(e[1:]))


def _float_coeffs(cp: CharPoly) -> list[float]:
    """Monic descending float coefficients [1, -e_1, e_2, ...]."""
    coeffs = [1.0]
    sign = -1
    for ek in cp.e:
        coeffs.append(sign * float(ek))
        sign = -sign
    return coeffs


def _horner3(coeffs: Sequence[float], x: float) -> tuple[float, float, float]:
    """Value, derivative, and coefficient-magnitude sum at x >= 0."""
    q = coeffs[0]
    dq = 0.0
    s = abs(coeffs[0])
    for cj in coeffs[1:]:
        dq = dq * x + q
        q = q * x + cj
        s = s * x + abs(cj)
    return q, dq, s


def _newton_iterates(coeffs: Sequence[float]) -> tuple[float, list[float]]:
    """Newton from 0 toward the least root; returns (root, iterate list).

    Stops when the step falls below NEWTON_TOL relative to the iterate, or
    when the residual sinks under the float64 noise floor of the evaluation
    (which is where multiple roots land: a root of multiplicity m cannot be
    resolved past about eps^(1/m) in double precision).
    """
    x = 0.0
    iterates = [0.0]
    for _ in range(NEWTON_CAP):
        q, dq, s = _horner3(coeffs, x)
        if abs(q) <= NOISE_FLOOR * s:
            return x, iterates
        if dq == 0.0:
            raise ConvergenceError("stationary point hit before convergence")
        xn = x - q / dq
        step = xn - x
        if step <= 0.0:
            if step >= -_BACKSTEP * max(x, 1.0):
                return x, iterates
            raise ConvergenceError(
                f"iterates left the monotone regime at x={x!r} (step {step!r})"
            )
        iterates.append(xn)
        if step <= NEWTON_TOL * xn:
            return xn, iterates
        x = xn
    raise ConvergenceError(f"no convergence within {NEWTON_CAP} iterations")


def smallest_root_newton(cp: CharPoly) -> float:
    """Least root of the characteristic polynomial, all roots real positive.

    Monotone Newton from 0: below the least root of such a polynomial the
    Newton step is always positive, so the iteration cannot jump past it.
    Relative accuracy NEWTON_TOL for simple roots; multiple roots are
    returned at the float64 resolution limit instead of looping forever.
    """
    value, _ = _newton_iterates(_float_coeffs(cp))
    return value


def smallest_eigenvalue(z: GramMatrix | IntegerMatrix) -> float:
    """Least eigenvalue via exact power sums, Newton identities, Newton root."""
    return smallest_root_newton(newton_identities(power_sums(z)))


# -- exact comparison of least roots ----------------------------------------


def _frac_coeffs(cp: CharPoly) -> list[Fraction]:
    coeffs = [Fraction(1)]
    sign = -1
    for ek in cp.e:
        coeffs.append(Fraction(sign * ek))
        sign = -sign
    return coeffs


def _strip(p: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _eval_frac(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def _derivative(p: Sequence[Fraction]) -> list[Fraction]:
    deg = len(p) - 1
    return [c * (deg - i) for i, c in enumerate(p[:-1])]


def _is_zero(p: Sequence[Fraction]) -> bool:
    return len(p) == 1 and p[0] == 0


def _poly_mod(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Remainder of a by b; zero polynomial is represented as [0]."""
    r = _strip(list(a))
    db = len(b) - 1
    while len(r) - 1 >= db and not _is_zero(r):
        f = r[0] / b[0]
        for i in range(db + 1):
            r[i] -= f * b[i]
        r = _strip(r[1:]) if len(r) > 1 else [Fraction(0)]
    return r


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [_strip(p)]
    if len(chain[0]) == 1:
        return chain
    d = _strip(_derivative(chain[0]))
    chain.append(d)
    while len(chain[-1]) > 1:
        rem = _poly_mod(chain[-2], chain[-1])
        if _is_zero(rem):
            break
        chain.append([-c for c in rem])
    return chain


def _variations(chain: Sequence[Sequence[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _eval_frac(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _roots_in(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b]; endpoints must not be roots of chain[0]."""
    return _variations(chain, a) - _variations(chain, b)


def _poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd by the Euclidean remainder walk."""
    x, y = _strip(list(a)), _strip(list(b))
    while not _is_zero(y):
        x, y = y, _poly_mod(x, y)
    return [c / x[0] for c in x]


def _isolate_smallest(
    chain, upper: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink (0, upper] until it holds exactly one distinct root, the least."""
    p = chain[0]
    lo, hi = Fraction(0), upper
    total = _roots_in(chain, lo, hi)
    if total < 1:
        raise ValueError("polynomial has no root in (0, upper]")
    count = total
    while count > 1:
        mid = (lo + hi) / 2
        while _eval_frac(p, mid) == 0:
            mid = (mid + hi) / 2
        left = _roots_in(chain, lo, mid)
        if left >= 1:
            hi = mid
            count = left
        else:
            lo = mid
    return lo, hi


def _refine(chain, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Halve an isolating interval (lo, hi] around a single distinct root."""
    p = chain[0]
    mid = (lo + hi) / 2
    if _eval_frac(p, mid) == 0:
        return (lo + mid) / 2, mid
    if _roots_in(chain, lo, mid) == 1:
        return lo, mid
    return mid, hi


def compare_smallest_roots(a: CharPoly, b: CharPoly) -> int:
    """Exact order of the least roots: -1, 0, or +1.

    Both polynomials must have all roots real and positive (characteristic
    polynomials of positive definite matrices).  Strict order falls out of
    disjoint isolating intervals; equality is certified by a common root of
    gcd(a, b) inside the overlap of two isolating intervals.
    """
    if a.e == b.e:
        return 0
    pa, pb = _frac_coeffs(a), _frac_coeffs(b)
    if pa[-1] == 0 or pb[-1] == 0:
        raise ValueError("least-root comparison needs nonzero determinant")
    ca, cb = _sturm_chain(pa), _sturm_chain(pb)
    ua = Fraction(1) + max(abs(c) for c in pa)
    ub = Fraction(1) + max(abs(c) for c in pb)
    la, ha = _isolate_smallest(ca, ua)
    lb, hb = _isolate_smallest(cb, ub)
    g = _poly_gcd(pa, pb)
    cg = _sturm_chain(g) if len(g) > 1 else None
    for _ in range(10_000):
        if ha <= lb:
            return -1
        if hb <= la:
            return 1
        if cg is not None:
            lo, hi = max(la, lb), min(ha, hb)
            if lo < hi and _roots_in(cg, lo, hi) >= 1:
                return 0
        la, ha = _refine(ca, la, ha)
        lb, hb = _refine(cb, lb, hb)
    raise RuntimeError("root comparison failed to separate or certify equality")
