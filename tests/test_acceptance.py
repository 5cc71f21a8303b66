"""End-to-end acceptance runs.

Each test pins one shipping criterion and records a PASS/FAIL verdict
line, printed in the terminal summary.  The n = 8 long run is opt-in:
set GRAMFLOOR_LONGRUN=1.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from gramfloor.bounds import (
    divisor_matrix_bound_check,
    hong_loewy_check,
    mattila_bounds,
    smith_determinant_check,
)
from gramfloor.charpoly import (
    newton_identities,
    power_sums,
    smallest_eigenvalue,
)
from gramfloor.cli import main
from gramfloor.core import from_index, gram, mat_mul, to_dense, tri, y0
from gramfloor.extremal import (
    domination_check,
    fibonacci,
    sign_pattern_check,
    trace_equality_check,
    y0_inverse_closed,
    z0_inverse_closed,
)
from gramfloor.inverse import (
    fibonacci_bound_holds,
    gram_inverse,
    invert_batch,
    invert_unit_lower,
)
from gramfloor.search import checkpoint_load, exhaustive_min, y0_index
from oracles import (
    faddeev_leverrier,
    jacobi_eigenvalues,
    mat_identity,
    spectral_radius_power_iteration,
)


def _without_timing(report) -> dict:
    d = json.loads(report.to_json())
    d.pop("elapsed")
    d.pop("blocks_completed")
    return d


def test_criterion_01_exhaustive_verification(acceptance, capsys):
    ok = True
    for n in range(2, 7):
        report = exhaustive_min(n)
        ok &= report.conjecture_holds and report.unique_argmin
        ok &= report.argmin_indices == (y0_index(n),)
    start = time.perf_counter()
    big = exhaustive_min(7, workers=1)
    elapsed = time.perf_counter() - start
    ok &= big.conjecture_holds and big.unique_argmin
    ok &= big.total_scanned == 2_097_152
    ok &= elapsed <= 60.0
    # the command-line path reports the same verdict
    ok &= main(["verify", "--n", "3", "--workers", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ok &= payload["conjecture_holds"] is True
    acceptance(1, "exhaustive verification n=2..7, n=7 within 60s", ok)


@pytest.mark.longrun
@pytest.mark.skipif(
    os.environ.get("GRAMFLOOR_LONGRUN") != "1",
    reason="n=8 long run enabled by GRAMFLOOR_LONGRUN=1",
)
def test_criterion_02_long_run_n8(acceptance, tmp_path):
    path = str(tmp_path / "n8.json")
    budget = 2 * 60 * 60

    class Interrupt(Exception):
        pass

    def stop_early(done, total):
        if done == 3:
            raise Interrupt()

    start = time.perf_counter()
    with pytest.raises(Interrupt):
        exhaustive_min(8, workers=8, checkpoint_path=path, progress=stop_early)
    assert checkpoint_load(path).blocks_done == 3
    resumed = exhaustive_min(8, workers=8, checkpoint_path=path)
    fresh = exhaustive_min(8, workers=8)
    elapsed = time.perf_counter() - start
    ok = resumed.conjecture_holds and resumed.unique_argmin
    ok &= resumed.total_scanned == 268_435_456
    ok &= _without_timing(resumed) == _without_timing(fresh)
    ok &= elapsed <= budget
    acceptance(2, "n=8 long run, resumable, within budget", ok)


def test_criterion_03_fibonacci_entry_bound(acceptance):
    ok = True
    for bits in range(1 << tri(6)):
        witness = fibonacci_bound_holds(invert_unit_lower(from_index(6, bits)))
        if not witness.holds:
            ok = False
            break
    rng = np.random.default_rng(1618)
    fib = np.zeros(16, dtype=np.int64)
    fib[1] = 1
    for k in range(2, 16):
        fib[k] = fib[k - 1] + fib[k - 2]
    rows = np.repeat(np.arange(1, 16), np.arange(1, 16))
    cols = np.concatenate([np.arange(i) for i in range(1, 16)])
    ceiling = fib[rows - cols]
    for _ in range(5):
        bits = rng.integers(0, 2, size=(20_000, tri(16)), dtype=np.int64)
        inv = invert_batch(16, bits)
        ok &= bool((np.abs(inv[:, rows, cols]) <= ceiling).all())
    for n in (2, 17, 64):
        a = y0_inverse_closed(n)
        for i in range(n):
            for j in range(i):
                ok &= abs(a.entries[i][j]) == fibonacci(i - j)
    acceptance(3, "Fibonacci bound, 2^15 at n=6 plus 1e5 at n=16, attained", ok)


def test_criterion_04_domination(acceptance):
    ok = True
    for bits in range(1 << tri(5)):
        if not domination_check(gram(from_index(5, bits))).holds:
            ok = False
            break
    acceptance(4, "entrywise inverse domination, exhaustive n=5", ok)


def test_criterion_05_closed_forms(acceptance):
    ok = True
    for n in range(1, 31):
        ident = mat_identity(n).entries
        ok &= mat_mul(y0_inverse_closed(n), to_dense(y0(n))).entries == ident
        ok &= mat_mul(z0_inverse_closed(n), gram(y0(n))).entries == ident
    acceptance(5, "closed-form inverses exact to n=30", ok)


def test_criterion_06_sign_and_trace(acceptance):
    ok = True
    for n in range(1, 13):
        ok &= bool(sign_pattern_check(z0_inverse_closed(n)))
        ok &= bool(trace_equality_check(n))
    acceptance(6, "sign pattern and trace equality to n=12", ok)


def test_criterion_07_newton_identities_vs_oracle(acceptance):
    ok = True
    for bits in range(1 << tri(5)):
        z = gram(from_index(5, bits))
        cp = newton_identities(power_sums(z))
        ok &= cp.e == faddeev_leverrier(z).e
        ok &= cp.e[-1] == 1
    for n in range(1, 11):
        zi = z0_inverse_closed(n)
        cp = newton_identities(power_sums(zi))
        ok &= cp.e == faddeev_leverrier(zi).e
        ok &= cp.e[-1] == 1
    acceptance(7, "Newton identities match the oracle, unit determinant", ok)


def test_criterion_08_eigenvalue_pipeline(acceptance):
    sizes = list(range(2, 10))
    space = np.array([1 << tri(n) for n in sizes], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(space)])
    rng = np.random.default_rng(55)
    draws = rng.integers(0, offsets[-1], size=1000, dtype=np.int64)
    ok = True
    for r in draws:
        slot = int(np.searchsorted(offsets, r, side="right") - 1)
        n, bits = sizes[slot], int(r - offsets[slot])
        z = gram(from_index(n, bits))
        gap = abs(smallest_eigenvalue(z) - min(jacobi_eigenvalues(z)))
        if gap > 1e-10:
            ok = False
            break
    for bits in range(1 << tri(5)):
        y = from_index(5, bits)
        lam = min(jacobi_eigenvalues(gram(y)))
        rho = spectral_radius_power_iteration(gram_inverse(y))
        if abs(lam * rho - 1.0) > 1e-9:
            ok = False
            break
    acceptance(8, "pipeline matches Jacobi, reciprocal law at n=5", ok)


def test_criterion_09_bounds_suite(acceptance):
    ok = True
    for n in range(2, 8):
        c_n = exhaustive_min(n).c_n_estimate
        general, parity = mattila_bounds(n)
        ok &= c_n >= general and c_n >= parity
    for n in range(1, 51):
        ok &= divisor_matrix_bound_check(n).holds
    rng = np.random.default_rng(196)
    for _ in range(20):
        x = int(rng.integers(1, 201))
        closure = [d for d in range(1, x + 1) if x % d == 0]
        ok &= smith_determinant_check(closure).equal
    universe = range(1, 9)
    for size in range(1, 6):
        for subset in itertools.combinations(universe, size):
            for eps in (1, 2):
                ok &= hong_loewy_check(list(subset), eps).holds
    acceptance(9, "floor bounds, divisor bound, Smith, totient bound", ok)


def test_criterion_10_determinism(acceptance):
    reports = []
    for workers in (1, 2, 8):
        for block_size in (16, 1024):
            report = exhaustive_min(5, workers=workers, block_size=block_size)
            reports.append(json.dumps(_without_timing(report), sort_keys=True))
    ok = len(set(reports)) == 1
    acceptance(10, "identical reports across workers and block sizes", ok)
