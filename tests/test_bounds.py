"""Closed-form floor bounds, multiplicative functions, GCD matrix checks."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gramfloor.bounds import (
    _SLACK,
    bounds_table,
    divisor_matrix,
    divisor_matrix_bound_check,
    euler_phi,
    floor_value,
    hong_loewy_check,
    jordan_totient,
    mattila_bases,
    mattila_bounds,
    mobius_sieve,
    power_gcd_matrix,
    smith_determinant_check,
)
from gramfloor.charpoly import smallest_eigenvalue
from gramfloor.core import gram, mat_mul, mat_transpose, y0
from gramfloor.search import exhaustive_min
from oracles import jacobi_eigenvalues


def test_mattila_frozen_examples():
    general, parity = mattila_bounds(2)
    assert abs(general - 0.377964) <= 1e-6
    assert general == parity  # the even refinement coincides at n = 2
    _, odd = mattila_bounds(3)
    assert odd == 48 / 624


def test_mattila_rejects_small_n():
    with pytest.raises(ValueError):
        mattila_bounds(1)


def test_parity_base_dominates_general_base():
    # same exponent on both sides, so exact base comparison decides
    for n in range(2, 101):
        general, parity = mattila_bases(n)
        assert parity >= general
        assert isinstance(general, Fraction) and isinstance(parity, Fraction)


def test_mobius_frozen_values():
    mu = mobius_sieve(12)
    assert mu[1] == 1 and mu[4] == 0 and mu[6] == 1
    assert mu[2] == -1 and mu[12] == 0 and mu[10] == 1


def test_mobius_sieve_matches_definition():
    mu = mobius_sieve(500)
    for m in range(1, 501):
        factors = []
        x, d = m, 2
        squarefree = True
        while d * d <= x:
            if x % d == 0:
                count = 0
                while x % d == 0:
                    x //= d
                    count += 1
                squarefree &= count == 1
                factors.append(d)
            d += 1
        if x > 1:
            factors.append(x)
        expected = 0 if not squarefree else (-1) ** len(factors)
        assert mu[m] == expected, m


def test_totient_frozen_values():
    assert euler_phi(12) == 4
    assert euler_phi(1) == 1
    assert jordan_totient(6, 2) == 24
    assert jordan_totient(6, 2.0) == 24  # integral float takes the exact path


def test_jordan_matches_euler():
    for m in range(1, 10_001):
        assert jordan_totient(m, 1) == euler_phi(m)


def test_jordan_real_exponent():
    value = jordan_totient(6, 1.5)
    expected = 6**1.5 * (1 - 2**-1.5) * (1 - 3**-1.5)
    assert abs(value - expected) <= 1e-12
    assert isinstance(value, float)


def test_totient_validation():
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        jordan_totient(5, 0)
    with pytest.raises(ValueError):
        mobius_sieve(0)


def test_divisor_matrix_shape():
    e = divisor_matrix(4)
    assert e.entries == (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (1, 1, 0, 1),
    )


def test_divisor_bound_frozen_small():
    r1 = divisor_matrix_bound_check(1)
    assert r1.t_n == 1.0 and r1.bound == 1.0 and r1.holds
    r2 = divisor_matrix_bound_check(2)
    assert abs(r2.t_n - (3 - math.sqrt(5)) / 2) <= 1e-12
    assert r2.bound == 0.25
    assert r2.holds


def test_divisor_bound_spot_checks():
    for n in (5, 12, 25):
        assert divisor_matrix_bound_check(n).holds


def test_power_gcd_matrix_frozen():
    spec = power_gcd_matrix([1, 2, 3], 1)
    assert spec.entries == ((1, 1, 1), (1, 2, 1), (1, 1, 3))
    assert spec.s == (1, 2, 3)


def test_power_gcd_matrix_real_exponent():
    spec = power_gcd_matrix([2, 4], 0.5)
    assert spec.entries[0][1] == pytest.approx(math.sqrt(2))


def test_power_gcd_matrix_validation():
    with pytest.raises(ValueError):
        power_gcd_matrix([2, 2], 1)
    with pytest.raises(ValueError):
        power_gcd_matrix([0, 1], 1)
    with pytest.raises(ValueError):
        power_gcd_matrix([], 1)
    with pytest.raises(ValueError):
        power_gcd_matrix([1, 2], 0)


def test_hong_loewy_trivial_singleton():
    result = hong_loewy_check([1], 3)
    assert result.lambda_min == 1.0
    assert result.bound == 1.0
    assert result.holds


def test_hong_loewy_frozen_example():
    result = hong_loewy_check([1, 2, 3], 1)
    assert result.holds
    assert result.bound == pytest.approx(0.19806226419516174)


def test_hong_loewy_sampled_sets():
    for s in ([2, 4, 6, 8], [3, 5, 7], [1, 4, 9, 16], [2, 3, 5, 7, 8]):
        for eps in (1, 2):
            assert hong_loewy_check(s, eps).holds, (s, eps)


def _close(value, reference):
    return abs(value - reference) <= 1e-12 * abs(reference)


def test_divisor_bound_agrees_with_jacobi():
    for n in range(1, 51):
        result = divisor_matrix_bound_check(n)
        e = divisor_matrix(n)
        t_n = min(jacobi_eigenvalues(mat_mul(mat_transpose(e), e)))
        assert _close(result.t_n, t_n), (n, result.t_n, t_n)
        assert result.holds == (t_n >= result.bound), n


def test_hong_loewy_agrees_with_jacobi():
    subsets = [c for k in range(1, 6) for c in itertools.combinations(range(1, 9), k)]
    for s in subsets:
        for eps in (1, 2, 0.5):
            result = hong_loewy_check(s, eps)
            lam = min(jacobi_eigenvalues(power_gcd_matrix(s, eps).entries))
            assert _close(result.lambda_min, lam), (s, eps, result.lambda_min, lam)
            verdict = lam >= result.bound - _SLACK * max(1.0, abs(result.bound))
            assert result.holds == verdict, (s, eps)


def test_smith_frozen_examples():
    assert smith_determinant_check([1]).determinant == 1
    r = smith_determinant_check([1, 2])
    assert r.determinant == 1 and r.equal
    r = smith_determinant_check([1, 2, 3, 4, 6, 12])
    assert r.determinant == 32
    assert r.phi_product == 32
    assert r.equal


def test_smith_order_invariance():
    assert smith_determinant_check([12, 1, 6, 2, 4, 3]).equal


def test_smith_names_missing_divisor():
    with pytest.raises(ValueError, match="divisor 2 of 4"):
        smith_determinant_check([1, 4])
    with pytest.raises(ValueError, match="divisor 1"):
        smith_determinant_check([2])


@given(st.integers(min_value=1, max_value=200))
def test_smith_on_divisor_closures(seed_value):
    divisors = [d for d in range(1, seed_value + 1) if seed_value % d == 0]
    result = smith_determinant_check(divisors)
    assert result.equal


def test_bounds_table_rows():
    rows = bounds_table(6)
    assert [r.n for r in rows] == [2, 3, 4, 5, 6]
    assert all(r.holds for r in rows)
    assert rows[0].c_n == 0.38196601125010515
    with pytest.raises(ValueError):
        bounds_table(1)


def test_bounds_table_floor_is_consistent_past_exhaustive_cap():
    # floor_value is Y0's value at every n; it must be the exhaustive floor
    # bit for bit wherever a scan computes both (n = 1 backs the Hong-Loewy
    # bound of a one-element set)
    for n in range(1, 7):
        scanned = exhaustive_min(n).c_n_estimate
        assert scanned == smallest_eigenvalue(gram(y0(n)))
        assert floor_value(n) == scanned
