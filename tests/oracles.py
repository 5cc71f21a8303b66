"""Second routes to results the package computes one way, for tests only.

Each oracle reaches the same answer as a package function by another
method, so agreement between the two is evidence for both:

  * faddeev_leverrier: the characteristic polynomial by the
    Faddeev-LeVerrier recursion, against charpoly.newton_identities;
  * power_sums_by_products: trace(M^k) from n - 1 full products
    M^k = M^(k-1) M, against charpoly.power_sums and its symmetric halves;
  * trace_equality_by_power_sums: trace((Z0^-1)^k) = trace(|Z0^-1|^k)
    compared as power sums, against extremal.trace_equality_check and its
    similarity D Z0^-1 D = |Z0^-1|;
  * spectral_radius_power_iteration: the spectral radius by power
    iteration, against the least eigenvalue through the reciprocal law;
  * jacobi_eigenvalues: every eigenvalue of a symmetric matrix by cyclic
    Jacobi rotations in float64, against charpoly.smallest_eigenvalue and
    against the LAPACK eigenvalues the bounds checks take;
  * invert_via_nilpotent: the inverse of a pattern as the terminating
    series I - N + N^2 - ..., against inverse.invert_unit_lower;
  * nilpotent_band_check: N^k vanishes on the band i - j < k, the
    structure that makes that series terminate;
  * batched_values: the scan kernel's values by vectorized twins of the
    Newton identities and the Newton walk, against the scalar pipeline
    that search._values_for runs;
  * unfiltered_scan_block: a block scan that values every pattern through
    batched_values, against search.scan_block and its Cholesky prefilter.

Four helpers that only tests call, mat_identity, mat_trace, index_of and
block_ranges, live here too.
"""

from __future__ import annotations

import math

import numpy as np

from gramfloor import extremal, search
from gramfloor.charpoly import (
    NEWTON_CAP,
    NEWTON_TOL,
    NOISE_FLOOR,
    _BACKSTEP,
    CharPoly,
    ConvergenceError,
    power_sums,
)
from gramfloor.core import (
    GramMatrix,
    IntegerMatrix,
    LowerUnitMatrix,
    mat_abs,
    mat_mul,
    to_dense,
    tri,
)

# the stopping rule of the Jacobi sweeps: off-diagonal mass, sweep budget
JACOBI_TOL = 1e-12
JACOBI_SWEEPS = 100


def mat_identity(n: int) -> IntegerMatrix:
    return IntegerMatrix(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def mat_trace(a: IntegerMatrix | GramMatrix) -> int:
    return sum(a.entries[i][i] for i in range(a.n))


def index_of(y: LowerUnitMatrix) -> int:
    """Enumeration index of a pattern; equals its packed bitfield."""
    return y.bits


def block_ranges(n: int, block_size: int) -> list[tuple[int, int]]:
    """The [start, stop) index ranges of exhaustive_min's blocks, in order."""
    total = 1 << tri(n)
    return [(s, min(s + block_size, total)) for s in range(0, total, block_size)]


def faddeev_leverrier(m: IntegerMatrix | GramMatrix) -> CharPoly:
    """Same coefficients as newton_identities, by the Faddeev-LeVerrier recursion.

    M_k = A M_{k-1} + c_{n-k+1} I with c_n = 1 and c_{n-k} = -trace(A M_k)/k;
    then e_j = (-1)^j c_{n-j}.  Divisions are exact and checked.
    """
    n = m.n
    c = [0] * (n + 1)
    c[n] = 1
    t = None
    for k in range(1, n + 1):
        if t is None:
            mk = tuple(
                tuple(c[n] if i == j else 0 for j in range(n)) for i in range(n)
            )
        else:
            shift = c[n - k + 1]
            mk = tuple(
                tuple(t.entries[i][j] + (shift if i == j else 0) for j in range(n))
                for i in range(n)
            )
        t = mat_mul(m, IntegerMatrix(n, mk))
        q, r = divmod(-mat_trace(t), k)
        if r:
            raise ArithmeticError(f"Faddeev-LeVerrier division not exact at k={k}")
        c[n - k] = q
    e = tuple(c[n - j] if j % 2 == 0 else -c[n - j] for j in range(1, n + 1))
    return CharPoly(n, e)


def power_sums_by_products(m: IntegerMatrix | GramMatrix) -> tuple[int, ...]:
    """trace(M^k) for k = 1..n, each power a full mat_mul of the one before."""
    p = [mat_trace(m)]
    power = m
    for _ in range(1, m.n):
        power = mat_mul(power, m)
        p.append(mat_trace(power))
    return tuple(p)


def trace_equality_by_power_sums(n: int) -> bool:
    """trace((Z0^-1)^k) = trace(|Z0^-1|^k) for k = 1..n, by comparing traces.

    The first n power sums fix the spectrum and so every later power sum;
    the similarity implies this equality, and is the stronger statement.
    """
    signed = extremal.z0_inverse_closed(n)
    return power_sums(signed) == power_sums(mat_abs(signed))


def _as_float_array(m) -> np.ndarray:
    if isinstance(m, (IntegerMatrix, GramMatrix)):
        return np.array(m.entries, dtype=np.float64)
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return a


def jacobi_eigenvalues(m) -> list[float]:
    """All eigenvalues of a symmetric matrix by cyclic-by-row Jacobi sweeps.

    Plain rotations, no library eigensolver behind it; sweeps stop once the
    off-diagonal Frobenius mass is at most JACOBI_TOL, scaled by the matrix
    norm when that norm exceeds one, and give up after JACOBI_SWEEPS.
    Ascending order.
    """
    a = _as_float_array(m).copy()
    n = a.shape[0]
    if not np.array_equal(a, a.T):
        raise ValueError("Jacobi sweeps need symmetric input")
    if n == 1:
        return [float(a[0, 0])]
    # summing the squared off-diagonal part directly avoids the cancellation
    # that |A|_F^2 - |diag|^2 suffers once the norms dwarf the residual
    goal = JACOBI_TOL * max(1.0, math.sqrt(float(np.sum(a * a))))

    def off_mass() -> float:
        mask = a.copy()
        np.fill_diagonal(mask, 0.0)
        return math.sqrt(float(np.sum(mask * mask)))

    for _ in range(JACOBI_SWEEPS):
        if off_mass() <= goal:
            return sorted(float(v) for v in np.diag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                # hypot keeps theta^2 from overflowing for denormal pivots
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp_, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp_ - s * cq
                a[:, q] = s * cp_ + c * cq
                a[p, q] = a[q, p] = 0.0
    off = off_mass()
    if off <= goal:
        return sorted(float(v) for v in np.diag(a))
    raise ConvergenceError(f"off-diagonal mass {off} after {JACOBI_SWEEPS} sweeps")


def spectral_radius_power_iteration(
    m, tol: float = 1e-10, max_iter: int = 200_000
) -> float:
    """Spectral radius by power iteration.

    Symmetric input converges through the Rayleigh quotient with a residual
    stop; the dominant eigenvalue in modulus is then the spectral radius for
    the matrices tested (positive semidefinite or entrywise nonnegative
    symmetric).  Non-symmetric input must be entrywise nonnegative; there
    the iteration runs on M + I (same eigenvectors, radius shifted by one,
    and the unit diagonal keeps iterates strictly positive) and brackets the
    radius with the classical min/max iterate ratios.
    """
    a = _as_float_array(m)
    n = a.shape[0]
    if n == 1:
        return abs(float(a[0, 0]))
    symmetric = np.array_equal(a, a.T)
    if symmetric:
        best = 0.0
        # two deterministic starts guard against an unlucky orthogonal one
        starts = (np.ones(n), np.cos(np.arange(1, n + 1)))
        for x0 in starts:
            x = x0 / np.linalg.norm(x0)
            lam = 0.0
            for _ in range(max_iter):
                y = a @ x
                lam = float(x @ y)
                if np.linalg.norm(y - lam * x) <= tol * max(abs(lam), 1e-300):
                    break
                ny = np.linalg.norm(y)
                if ny == 0.0:
                    lam = 0.0
                    break
                x = y / ny
            else:
                raise ConvergenceError(
                    f"power iteration did not settle in {max_iter} steps"
                )
            best = max(best, abs(lam))
        return best
    if a.min() < 0:
        raise ValueError("non-symmetric input must be entrywise nonnegative")
    b = a + np.eye(n)
    x = np.ones(n)
    for _ in range(max_iter):
        y = b @ x
        ratios = y / x
        hi = float(ratios.max())
        lo = float(ratios.min())
        if hi - lo <= tol * hi:
            return (lo + hi) / 2.0 - 1.0
        x = y / np.linalg.norm(y)
    raise ConvergenceError(f"ratio bracket did not close in {max_iter} steps")


def _strict_lower(y: LowerUnitMatrix) -> IntegerMatrix:
    """N = Y - I, the strictly lower part of a pattern."""
    rows = to_dense(y).entries
    return IntegerMatrix(
        y.n,
        tuple(tuple(v - (i == j) for j, v in enumerate(row)) for i, row in enumerate(rows)),
    )


def invert_via_nilpotent(y: LowerUnitMatrix) -> IntegerMatrix:
    """Y^-1 as the alternating sum of powers of the strict lower part."""
    n = y.n
    nil = _strict_lower(y)
    acc = mat_identity(n)
    term = mat_identity(n)
    sign = 1
    for _ in range(1, n):
        term = mat_mul(term, nil)
        sign = -sign
        acc = IntegerMatrix(
            n,
            tuple(
                tuple(av + sign * tv for av, tv in zip(arow, trow))
                for arow, trow in zip(acc.entries, term.entries)
            ),
        )
    return acc


def nilpotent_band_check(y: LowerUnitMatrix, k: int) -> bool:
    """True when N^k vanishes on the band i - j < k (N the strict lower part).

    Holds for every unit lower pattern and every k >= 0.
    """
    if k < 0:
        raise ValueError(f"power must be nonnegative, got {k}")
    n = y.n
    nil = _strict_lower(y)
    power = mat_identity(n)
    for _ in range(k):
        power = mat_mul(power, nil)
    return all(
        power.entries[i][j] == 0
        for i in range(n)
        for j in range(n)
        if i - j < k
    )


def batched_values(n: int, idx: np.ndarray) -> np.ndarray:
    """Least Gram eigenvalues for a batch of packed indices, vectorized.

    search._power_sums_for's exact power sums go through Newton's
    identities in int64, where the scan's 2^53 bound keeps every partial
    sum under 2^63, and then through _newton_batch.  Both run on one row
    per coefficient, elementwise in the scalar pipeline's order, so every
    value must equal charpoly.smallest_eigenvalue's bit for bit.
    """
    bsz = idx.shape[0]
    p = np.empty((n + 1, bsz), dtype=np.int64)
    p[1:] = search._power_sums_for(n, idx)
    e = np.empty((n + 1, bsz), dtype=np.int64)
    prod = np.empty(bsz, dtype=np.int64)
    e[0] = 1
    for k in range(1, n + 1):
        acc = e[k]
        acc[...] = 0
        sign = 1
        for i in range(1, k + 1):
            np.multiply(e[k - i], p[i], out=prod)
            if sign > 0:
                acc += prod
            else:
                acc -= prod
            sign = -sign
        if k > 1:
            np.remainder(acc, k, out=prod)
            if prod.any():
                raise ArithmeticError(f"Newton identity division not exact at k={k}")
            acc //= k
    if not (e[n] == 1).all():
        raise ArithmeticError("unit determinant violated in batched values")

    coeffs = e.astype(np.float64)
    coeffs[1::2] *= -1.0
    return _newton_batch(coeffs)


def _newton_batch(coeffs: np.ndarray) -> np.ndarray:
    """Vectorized twin of the scalar Newton walk, identical stop rules.

    ``coeffs`` holds one coefficient per row, (w, B).  A column that has
    stopped keeps its iterate and is only dropped from the arrays once half
    of them have stopped, which keeps the gathers rare.
    """
    w, bsz = coeffs.shape
    abs_c = np.abs(coeffs)
    x = np.zeros(bsz)
    cols = np.arange(bsz)  # the x entry of each column still held
    xa = np.zeros(bsz)
    live = np.ones(bsz, dtype=bool)
    q, dq, s = np.empty(bsz), np.empty(bsz), np.empty(bsz)
    for _ in range(NEWTON_CAP):
        m = xa.size
        q, dq, s = q[:m], dq[:m], s[:m]
        q[...] = coeffs[0]
        dq[...] = 0.0
        s[...] = abs_c[0]
        for j in range(1, w):
            dq *= xa
            dq += q
            q *= xa
            q += coeffs[j]
            s *= xa
            s += abs_c[j]
        noise_done = np.abs(q) <= NOISE_FLOOR * s
        if ((dq == 0.0) & ~noise_done & live).any():
            raise ConvergenceError("stationary point hit before convergence")
        dq_safe = np.where(dq == 0.0, 1.0, dq)
        xn = xa - q / dq_safe
        step = xn - xa
        backstep = (step <= 0.0) & ~noise_done
        if (backstep & live & (step < -_BACKSTEP * np.maximum(xa, 1.0))).any():
            raise ConvergenceError("iterates left the monotone regime")
        # negative steps inside the jitter band park at the previous iterate
        xn = np.where(noise_done | backstep, xa, xn)
        done = noise_done | backstep | (step <= NEWTON_TOL * xn)
        np.copyto(xa, xn, where=live)
        live &= ~done
        nlive = np.count_nonzero(live)
        if 2 * nlive <= m:
            x[cols] = xa
            if nlive == 0:
                return x
            cols, xa = cols[live], xa[live]
            coeffs, abs_c = coeffs[:, live], abs_c[:, live]
            live = np.ones(nlive, dtype=bool)
    raise ConvergenceError(f"no convergence within {NEWTON_CAP} iterations")


def unfiltered_scan_block(n: int, start: int, stop: int) -> search.PartialResult:
    """search.scan_block without its prefilter: every pattern is valued.

    Chunks of search._CHUNK indices go through batched_values in turn, each
    keeping the running minimum and the indices within TIE_EPS of it, so the
    result must equal scan_block's for every range.
    """
    best = float("inf")
    cands: list[tuple[int, float]] = []
    count = 0
    for lo in range(start, stop, search._CHUNK):
        idx = np.arange(lo, min(lo + search._CHUNK, stop), dtype=np.int64)
        count += idx.size
        vals = batched_values(n, idx)
        vmin = float(vals.min())
        if vmin < best:
            best = vmin
            cands = [c for c in cands if c[1] <= best + search.TIE_EPS]
        sel = np.flatnonzero(vals <= best + search.TIE_EPS)
        cands.extend((int(idx[i]), float(vals[i])) for i in sel)
    return search.PartialResult(count, best, tuple(cands))
