"""Exhaustive minimization of the least Gram eigenvalue over all patterns.

The index space of size-n patterns is split into contiguous blocks; each
block is scanned by a vectorized kernel that computes exact power sums in
batches and values each pattern through charpoly's own Newton identities and
monotone Newton root, so the value computed for an index never depends on
which block or chunk it landed in.  A Cholesky prefilter sends only the
patterns that can reach the smaller of the block minimum and a cap through
that pipeline, and the merged result is what valuing every pattern gives.
Block results carry the block minimum plus every index whose value sits
within TIE_EPS of it; merging keeps the global minimum and the surviving
near-ties, and is associative and commutative, which is what makes worker
count and completion order irrelevant to the result.

Candidates within TIE_EPS of the final minimum are then re-ordered exactly
through their integer characteristic polynomials, so the reported argmin set
is a statement about integers, not floats.

Exactness notes for the kernel: Z is built straight from the row bitmasks
that core.row_masks decodes from each packed index, Z_ij = popcount(row_i &
row_j), through a 2^9-entry table; every entry is an integer of at most n,
so no unpacked matrix of Y and no float product Y Y^T is needed.  A size-n
pattern Y has at most n(n+1)/2 ones, so every eigenvalue of Z is at most s =
n(n+1)/2.  All power products stay below n * s^n, which for n <= 9 is under
2^53; matrix products of nonnegative integers that small are exact in
float64 no matter how the sums are ordered, so the BLAS-backed batched
products are exact and reproducible.  Each valued pattern's power sums then
go through charpoly.newton_identities and charpoly.smallest_root_newton, so
its value is the scalar pipeline's by construction.

The prefilter.  Most patterns of a chunk lie far above the block minimum,
and a float32 Cholesky certifies that cheaply; only the other patterns are
valued.  The threshold is t = min(cap, m), m the block's running minimum.
With no cap, t is always a value of the block: on the block's first
chunk, scan_block values one pattern, the pick, and t is its value; from
then on t is the running minimum.  With a finite cap nothing is picked.
The pick is the pattern whose Cholesky at shift 0 has the least squared
pivot, a guess at the chunk's minimum that carries no proof.  The kernel
factors J Z J, J the reversal of the rows, in place of Z: the two share
their definiteness, determinant and traces, so nothing below changes, and
the reversed pivots guess the minimum far better.  A pattern is dropped only when the float32 Cholesky
of Z - sI, s = t + TIE_EPS + _MARGIN, has every pivot positive and a pivot
product above _DET_GUARD * ((tr Z + n s) / n)^n.  Then:

  * R^T R = Z - sI + dA for the computed factor R, with ||dA||_2 <= e =
    g / (1 - g) * n(n+1)/2 + 2 (n+1) u, g = gamma_{n+1} and u = 2^-24
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 10.3, with ||R||_F^2 = tr(R^T R) and tr Z <= n(n+1)/2; the last
    term covers rounding s and the shifted diagonal to float32).  R^T R is
    positive definite, so lambda_min(Z) > s - e.  At n = 9, e is 2.8e-5,
    under _MARGIN / 2.
  * When the least eigenvalue is multiple, the Newton value can stop far
    below it on the noise floor: 4.2e-2 below for the identity at n = 9.
    The guard rules that out below s - e.  There the characteristic
    polynomial is at least det(Z - (s - e)I) >= det(R^T R), the pivot
    product, while the walk's noise bound is NOISE_FLOOR * prod(lambda_i +
    x) <= NOISE_FLOOR * ((tr Z + n s) / n)^n, five orders of magnitude
    under the guard.  Below the least root a Newton step is at least
    (lambda_min - x) / n, so no step-size stop falls more than a relative
    n * NEWTON_TOL under it either.

So a dropped pattern's value exceeds t + TIE_EPS + _MARGIN / 2.  With no
cap, t is a value of the block, so no dropped pattern can be a new minimum
or a near-tie, and scan_block returns, bit for bit, what valuing every
pattern returns.  The pick itself is never dropped, so it is valued again
with the patterns the filter keeps.  The exact-division check of
newton_identities and the unit-determinant check of _values_for run on the
valued patterns only.

The cap.  exhaustive_min caps every block, and every one-pattern rescan of
a resume, at z0 = lambda_min(Y0 Y0^T), computed once before the first
block through the scalar pipeline, so it is bit for bit Y0's scan value.
Y0 is one of the patterns, so c_n <= z0 whether or not the conjecture
holds: every merged state that covers Y0's block has its minimum at or
below z0.  Let U be a block's uncapped result and C its result under a cap
c.  A pattern at or below c + TIE_EPS is never dropped while t = c, nor
one within TIE_EPS of U's minimum while t is a value of the block.  Then
merge(C, X) == merge(U, X) for every state X with X.best <= c:

  * if U.best <= c, t never falls below U.best, every pattern within
    TIE_EPS of it is valued, and C == U;
  * otherwise both merges have X.best as their minimum, whose near-ties lie
    at or below c + TIE_EPS; those patterns of the block are all valued in
    C, and so is its minimizer, so C keeps exactly U's near-ties there.  C
    may be (count, inf, ()) when no pattern of the block is kept.

Y0's block has U.best <= z0, and every other block merges with a state
that covers Y0's, so replacing the uncapped blocks by capped ones one at a
time, by associativity and commutativity, leaves the merged report bit for
bit as it was.  Put directly: a dropped pattern's value is above min(z0,
m) + TIE_EPS + _MARGIN / 2, and the merged minimum is at most both z0 and
m, so no dropped pattern is the minimum or a near-tie of the merged state.
Mid-run, the merged state may differ from an uncapped scan's in its
minimum and in near-ties above z0 + TIE_EPS, and so may a checkpoint's
running_argmin_indices, often fewer; none of those survives the merge
with Y0's block.

The kernel works through a block in chunks of _CHUNK indices, small enough
that a chunk's matrices stay in cache.  Each step of the kernel allocates
the arrays it returns, so nothing passes from one chunk, call or thread to
another but the read-only _layout of each n.

The driver merges block results in the order the blocks were handed out,
so the finished blocks are always 0 .. done - 1 and a checkpoint holds the
one count, blocks_done.  The driver saves at most once every _SAVE_EVERY
seconds, and once more on every way out of the scan, so the file holds the
merged blocks whenever the scan stops; a hard kill loses at most the blocks
merged since the last save, which a resume scans again.  The file records
the Newton tolerance, always charpoly.NEWTON_TOL; a file that records
another one, or is of another version, is refused.

exhaustive_min runs one loop over the blocks for every worker count: it
hands them out in order through submit, a process pool's or, with one
worker, _run_now, and merges the results in the same order.  While it
waits for the oldest block, workers + 1 blocks are out on a pool, so a
worker that finishes early finds the next one waiting; after an abort only
the blocks still out, at most workers, run on while the pool closes, and
are discarded.  The pool's workers ignore SIGINT: a Ctrl-C in a terminal
signals the whole process group, and a worker interrupted mid-block could
leave the pool hung, so the main process alone stops the scan.  It stops
at a block boundary: while the loop runs, a SIGINT is only recorded, and
the loop raises KeyboardInterrupt after the next merged block
(_sigint_between_blocks says why).
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import os
import signal
import tempfile
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .charpoly import (
    NEWTON_TOL,
    CharPoly,
    PowerSums,
    compare_smallest_roots,
    newton_identities,
    power_sums,
    smallest_eigenvalue,
    smallest_root_newton,
)
from .core import from_index, gram, row_masks, tri, y0

TIE_EPS = 1e-9
DEFAULT_BLOCK_SIZE = 1 << 20
SEARCH_N_MAX = 9
CHECKPOINT_VERSION = "3"
_CHUNK = 1 << 12
# the prefilter's shift above the threshold, and its determinant guard;
# the module notes give the error argument for both
_MARGIN = 1e-4
_DET_GUARD = 1e-10
_SAVE_EVERY = 1.0  # seconds between checkpoint saves while a scan runs


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or belongs to a different run."""


@dataclass(frozen=True)
class PartialResult:
    """Scan state over some subset of the index space."""

    count: int
    best: float
    candidates: tuple[tuple[int, float], ...]


EMPTY_PARTIAL = PartialResult(0, float("inf"), ())


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive scan."""

    n: int
    total_scanned: int
    c_n_estimate: float
    argmin_indices: tuple[int, ...]
    z0_value: float
    conjecture_holds: bool
    unique_argmin: bool
    elapsed: float
    blocks_completed: int

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(dataclasses.asdict(self), indent=indent)

    @staticmethod
    def from_json(text: str) -> "SearchReport":
        d = json.loads(text)
        return SearchReport(**{**d, "argmin_indices": tuple(d["argmin_indices"])})


@dataclass
class Checkpoint:
    """Resumable scan state; persisted as a small versioned JSON document.

    The finished blocks are 0 .. blocks_done - 1.
    """

    n: int
    block_size: int
    blocks_done: int
    running_argmin_indices: tuple[int, ...]
    created: str
    updated: str


def y0_index(n: int) -> int:
    """Enumeration index of the alternating-parity pattern."""
    return y0(n).bits


# -- vectorized kernel -------------------------------------------------------

# popcount of every row mask a pattern with n <= SEARCH_N_MAX can have
_POPCOUNT = np.array([bin(v).count("1") for v in range(1 << SEARCH_N_MAX)], dtype=np.uint8)


@functools.cache
def _layout(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Where the kernel keeps the entries of a size-n Gram matrix.

    Returns pair_start and sym.  The pair counts hold one popcount per row
    pair i <= j, the pairs of row i from pair_start[i] to pair_start[i + 1];
    sym maps entry (i, j) of Z, flattened, to its pair.  Sizes beyond
    SEARCH_N_MAX raise ValueError.
    """
    # the 2^53 bound of the exactness notes, raised rather than asserted
    # so that it holds under python -O as well
    if not 1 <= n <= SEARCH_N_MAX:
        raise ValueError(f"exhaustive scan supports 1 <= n <= {SEARCH_N_MAX}, got {n}")
    upper_i, upper_j = np.triu_indices(n)
    sym = np.empty((n, n), dtype=np.intp)
    sym[upper_i, upper_j] = sym[upper_j, upper_i] = np.arange(upper_i.size)
    sym = sym.ravel()
    sym.flags.writeable = False  # one array for every caller
    return (0, *itertools.accumulate(range(n, 0, -1))), sym


def _pair_counts(n: int, idx: np.ndarray) -> np.ndarray:
    """Entries i <= j of J Z J, J the row reversal, as (npairs, B) uint8.

    Entry (i, j) is popcount(row_a & row_b) for rows a = n-1-i and
    b = n-1-j.  Row i's pairs start at pair_start[i]; read by symmetry,
    the same array is J Z J's lower triangle packed by columns, column j
    holding entries (j .. n-1, j).
    """
    pair_start, _ = _layout(n)
    masks = row_masks(n, idx)[::-1]
    pairs = np.empty((pair_start[n], idx.shape[0]), dtype=np.int64)
    for i in range(n):
        np.bitwise_and(masks[i], masks[i:], out=pairs[pair_start[i]:pair_start[i + 1]])
    return np.take(_POPCOUNT, pairs, mode="clip")


def _cholesky(n: int, counts: np.ndarray, shift: float) -> np.ndarray:
    """Squared pivots of a float32 Cholesky of J Z J - shift I, as (n, B).

    ``counts`` is a batch of _pair_counts.  A pattern whose factor breaks
    down gets a pivot that is not positive, or NaN, from the first failing
    column on.
    """
    start, _ = _layout(n)
    a = counts.astype(np.float32)
    a[start[:n], :] -= np.float32(shift)
    piv = np.empty((n, counts.shape[1]), dtype=np.float32)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(n):
            col = a[start[j]:start[j + 1]]
            piv[j] = col[0]
            np.sqrt(col[0], out=col[0])
            col[1:] /= col[0]
            for k in range(j + 1, n):
                a[start[k]:start[k + 1]] -= col[k - j:] * col[k - j]
    return piv


def _power_sums_for(n: int, idx: np.ndarray) -> np.ndarray:
    """Power sums p_1 .. p_n of a batch of packed indices, as (n, B) float64.

    Row k - 1 holds trace(Z^k), an exact integer.  The powers are those of
    J Z J, from _pair_counts, whose traces are Z's.
    """
    _, sym = _layout(n)
    bsz = idx.shape[0]
    # the batched matmul runs several times slower on a Fortran-ordered
    # stack, so the transpose is copied into C order here
    z = _pair_counts(n, idx)[sym].T.astype(np.float64, order="C").reshape(bsz, n, n)
    half = (n + 1) // 2
    pows = [None, z]
    for _ in range(2, half + 1):
        pows.append(np.matmul(pows[-1], z))
    # all power sums are bounded by n * (n(n+1)/2)^n < 2^53 for n <= 9,
    # so the float64 traces are exact integers
    p = np.empty((n, bsz))
    for k in range(1, n + 1):
        if k <= half:
            np.einsum("bii->b", pows[k], out=p[k - 1])
        else:
            np.einsum("bij,bij->b", pows[half], pows[k - half], out=p[k - 1])
    return p


def _values_for(n: int, idx: np.ndarray) -> np.ndarray:
    """Least Gram eigenvalues for a batch of packed indices.

    Each pattern's power sums go through the scalar pipeline's Newton
    identities and Newton walk.
    """
    values = np.empty(idx.shape[0])
    for b, col in enumerate(_power_sums_for(n, idx).T.tolist()):
        cp = newton_identities(PowerSums(n, tuple(map(int, col))))
        if cp.e[-1] != 1:
            raise ArithmeticError("unit determinant violated in scan kernel")
        values[b] = smallest_root_newton(cp)
    return values


def _reachable(n: int, counts: np.ndarray, t: float) -> np.ndarray:
    """Mask of the patterns whose value the filter cannot place above t + TIE_EPS.

    ``counts`` is a batch of _pair_counts.  A pattern is excluded only when
    the float32 Cholesky of Z - sI, with s = t + TIE_EPS + _MARGIN, has
    every pivot positive and a pivot product above _DET_GUARD * ((tr Z +
    n s) / n)^n; the module notes show that its value then exceeds t +
    TIE_EPS + _MARGIN / 2.
    """
    pair_start, _ = _layout(n)
    s = t + TIE_EPS + _MARGIN
    piv = _cholesky(n, counts, s)
    trace = counts[pair_start[:n], :].sum(axis=0, dtype=np.float32)
    floor = _DET_GUARD * ((trace + np.float32(n * s)) / np.float32(n)) ** n
    with np.errstate(invalid="ignore", over="ignore"):
        certified = (piv > 0).all(axis=0) & (piv.prod(axis=0) > floor)
    return ~certified


def scan_block(n: int, start: int, stop: int, cap: float = float("inf")) -> PartialResult:
    """Scan one contiguous index range; returns its minimum and near-ties.

    The filter's threshold is min(cap, running minimum).  With the default
    cap the result is what valuing every pattern returns.  With a finite
    cap, patterns whose value lies above cap + TIE_EPS may be left out, and
    a block whose patterns all lie well above the cap returns (count, inf,
    ()); merged with any state whose minimum is at most cap, the result is
    the one the uncapped block gives (the module notes say why).
    """
    _layout(n)  # refuses a size beyond the exactness bound, even for no indices
    best = float("inf")
    cands: list[tuple[int, float]] = []
    count = 0
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        idx = np.arange(lo, hi, dtype=np.int64)
        count += idx.size
        counts = _pair_counts(n, idx)
        if min(cap, best) == float("inf"):
            # seed the threshold with a value of the block: that of the
            # pattern with the least squared pivot at shift 0, a guess at
            # the chunk's minimum
            pick = int(_cholesky(n, counts, 0.0).min(axis=0).argmin())
            best = float(_values_for(n, idx[pick:pick + 1])[0])
        kept = idx[_reachable(n, counts, min(cap, best))]
        if not kept.size:
            continue
        vals = _values_for(n, kept)
        vmin = float(vals.min())
        if vmin < best:
            best = vmin
            cands = [c for c in cands if c[1] <= best + TIE_EPS]
        sel = np.flatnonzero(vals <= best + TIE_EPS)
        cands.extend((int(kept[i]), float(vals[i])) for i in sel)
    return PartialResult(count, best, tuple(cands))


def merge_partials(a: PartialResult, b: PartialResult) -> PartialResult:
    """Associative, commutative merge of two scan states."""
    best = min(a.best, b.best)
    cands = tuple(
        sorted(c for c in a.candidates + b.candidates if c[1] <= best + TIE_EPS)
    )
    return PartialResult(a.count + b.count, best, cands)


# -- checkpointing -----------------------------------------------------------


def checkpoint_save(path: str, ck: Checkpoint) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "n": ck.n,
        "block_size": ck.block_size,
        "newton_tol": NEWTON_TOL,
        "blocks_done": ck.blocks_done,
        "running_argmin_indices": ck.running_argmin_indices,
        "created": ck.created,
        "updated": ck.updated,
    }
    text = json.dumps(payload)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def checkpoint_load(path: str) -> Checkpoint:
    """Read a checkpoint; a file of another version is refused, and so is
    one that records another tolerance, whose values are of another c_n."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    version = d.get("version") if isinstance(d, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} does not match {CHECKPOINT_VERSION!r}"
        )
    if d.get("newton_tol") != NEWTON_TOL:
        raise CheckpointError(
            f"checkpoint Newton tolerance {d.get('newton_tol')!r} does not match {NEWTON_TOL!r}"
        )
    try:
        return Checkpoint(
            n=d["n"],
            block_size=d["block_size"],
            blocks_done=d["blocks_done"],
            running_argmin_indices=tuple(d["running_argmin_indices"]),
            created=d["created"],
            updated=d["updated"],
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc


def _validate_checkpoint(ck: Checkpoint, n: int, block_size: int, nblocks: int) -> None:
    if ck.n != n:
        raise CheckpointError(f"checkpoint is for n={ck.n}, run wants n={n}")
    if ck.block_size != block_size:
        raise CheckpointError(
            f"checkpoint block size {ck.block_size} does not match {block_size}"
        )
    if not (type(ck.blocks_done) is int and 0 <= ck.blocks_done <= nblocks):
        raise CheckpointError(
            f"checkpoint blocks_done {ck.blocks_done!r} is not a count in 0..{nblocks}"
        )
    total = 1 << tri(n)
    idx = ck.running_argmin_indices
    # this build writes merge_partials' sorted indices, each scanned once; a
    # repeated one would be scanned and adjudicated twice
    if any(type(i) is not int or not 0 <= i < total for i in idx) or any(
        a >= b for a, b in zip(idx, idx[1:])
    ):
        raise CheckpointError(
            f"checkpoint near-tie indices are not strictly increasing integers "
            f"in 0..{total - 1}: {list(idx[:5])}"
        )


# -- driver ------------------------------------------------------------------


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _adjudicate(n: int, candidates: Iterable[tuple[int, float]]) -> tuple[int, ...]:
    """Exact argmin subset of the float near-tie candidates."""
    best: list[int] = []
    best_poly: CharPoly | None = None
    for idx, _val in sorted(candidates):
        poly = newton_identities(power_sums(gram(from_index(n, idx))))
        if best_poly is None:
            best, best_poly = [idx], poly
            continue
        order = compare_smallest_roots(poly, best_poly)
        if order < 0:
            best, best_poly = [idx], poly
        elif order == 0:
            best.append(idx)
    return tuple(best)


def _run_now(fn: Callable, *args) -> Future:
    """fn(*args), called at once and returned as a finished future."""
    future: Future = Future()
    future.set_result(fn(*args))
    return future


@contextlib.contextmanager
def _sigint_between_blocks():
    """Defer a SIGINT that arrives during the scan to the next merged block.

    Yields a check that raises KeyboardInterrupt once a SIGINT has come in.
    Raised where the signal lands, a KeyboardInterrupt can hit the wait on
    a pool result between a lock's release and its re-acquire inside
    concurrent.futures, whose exit then fails with "cannot release
    un-acquired lock" and a traceback instead of the interrupt.  Outside the
    main thread, or under a SIGINT handler other than Python's default,
    nothing is deferred.
    """
    pending = []
    owned = (
        threading.current_thread() is threading.main_thread()
        and signal.getsignal(signal.SIGINT) is signal.default_int_handler
    )
    if owned:
        signal.signal(signal.SIGINT, lambda signum, frame: pending.append(signum))

    def check() -> None:
        if pending:
            raise KeyboardInterrupt

    try:
        yield check
    finally:
        if owned:
            signal.signal(signal.SIGINT, signal.default_int_handler)


def exhaustive_min(
    n: int,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    checkpoint_path: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SearchReport:
    """Scan every size-n pattern and report the least Gram eigenvalue.

    The result is independent of ``workers`` and ``block_size``; both only
    shape the schedule.  With ``checkpoint_path`` the scan records finished
    blocks at most every _SAVE_EVERY seconds and once more when it stops,
    and resumes from the same file, producing the identical report whether
    or not it was interrupted.
    """
    if not 1 <= n <= SEARCH_N_MAX:
        raise ValueError(f"exhaustive scan supports 1 <= n <= {SEARCH_N_MAX}, got {n}")
    if n == SEARCH_N_MAX and checkpoint_path is None:
        # 2^36 kernels is a multi-day run; refuse to start it unresumably
        raise ValueError("n = 9 requires a checkpoint path")
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    if block_size < 1:
        raise ValueError(f"block size must be positive, got {block_size}")
    t0 = time.perf_counter()
    # c_n is at most Y0's value, so no block needs to value a pattern far
    # above it: every block filters against this cap
    z0v = smallest_eigenvalue(gram(y0(n)))
    total = 1 << tri(n)
    # block k starts at starts[k]; a range, so no block is made before the
    # loop hands it out
    starts = range(0, total, block_size)
    nblocks = len(starts)

    ck: Checkpoint | None = None
    if checkpoint_path is not None:
        if os.path.exists(checkpoint_path):
            ck = checkpoint_load(checkpoint_path)
            _validate_checkpoint(ck, n, block_size, nblocks)
        else:
            ck = Checkpoint(
                n=n,
                block_size=block_size,
                blocks_done=0,
                running_argmin_indices=(),
                created=_now(),
                updated=_now(),
            )
            checkpoint_save(checkpoint_path, ck)

    # the finished blocks are always 0 .. done - 1
    done = saved = ck.blocks_done if ck else 0
    state = EMPTY_PARTIAL
    saved_at = time.monotonic()

    def save() -> None:
        nonlocal saved, saved_at
        ck.blocks_done = done
        ck.running_argmin_indices = tuple(i for i, _ in state.candidates)
        ck.updated = _now()
        checkpoint_save(checkpoint_path, ck)
        saved, saved_at = done, time.monotonic()

    def note_done(result: PartialResult) -> None:
        nonlocal state, done
        state = merge_partials(state, result)
        done += 1
        if ck is not None and time.monotonic() - saved_at >= _SAVE_EVERY:
            save()
        if progress is not None:
            progress(done, nblocks)

    try:
        if ck is not None:
            # the merged state of the finished blocks: their near-ties
            # scanned again, and the patterns they cover.  A near-tie past
            # them belongs to a block merged but not yet counted when the
            # file was saved, which is scanned again
            covered = min(done * block_size, total)
            for idx in ck.running_argmin_indices:
                if idx < covered:
                    state = merge_partials(state, scan_block(n, idx, idx + 1, z0v))
            state = PartialResult(covered, state.best, state.candidates)
        # one loop for every worker count, with ``ahead`` blocks out while
        # it waits for the oldest; the module notes say why
        with _sigint_between_blocks() as check_interrupt, (
            ProcessPoolExecutor(
                max_workers=workers,
                initializer=signal.signal,
                initargs=(signal.SIGINT, signal.SIG_IGN),
            )
            if workers > 1
            else contextlib.nullcontext()
        ) as pool:
            submit, ahead = (pool.submit, workers + 1) if pool else (_run_now, 1)
            rest = starts[done:]
            pending: collections.deque[Future] = collections.deque()
            for i in range(len(rest)):
                for start in rest[i + len(pending):i + ahead]:
                    stop = min(start + block_size, total)
                    pending.append(submit(scan_block, n, start, stop, z0v))
                note_done(pending.popleft().result())
                check_interrupt()
    finally:
        # every way out leaves the file holding the merged blocks
        if ck is not None and done != saved:
            save()

    if state.count != total:
        raise RuntimeError(
            f"scan incomplete: visited {state.count} of {total} indices"
        )
    argmin = _adjudicate(n, state.candidates)
    y0i = y0_index(n)
    return SearchReport(
        n=n,
        total_scanned=state.count,
        c_n_estimate=state.best,
        argmin_indices=argmin,
        z0_value=z0v,
        conjecture_holds=y0i in argmin,
        unique_argmin=argmin == (y0i,),
        elapsed=time.perf_counter() - t0,
        blocks_completed=done,
    )
