"""Exact characteristic polynomials and the Newton smallest-root walk."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gramfloor.charpoly import (
    CharPoly,
    ConvergenceError,
    _float_coeffs,
    _newton_iterates,
    compare_smallest_roots,
    newton_identities,
    power_sums,
    smallest_eigenvalue,
    smallest_root_newton,
)
from gramfloor.core import IntegerMatrix, from_index, gram, tri, y0
from gramfloor.extremal import z0_inverse_closed
from gramfloor.inverse import gram_inverse
from oracles import (
    faddeev_leverrier,
    jacobi_eigenvalues,
    power_sums_by_products,
    spectral_radius_power_iteration,
)


def test_power_sums_frozen_example():
    ps = power_sums(gram(y0(3)))
    assert ps.p == (5, 13, 38)


def test_power_sums_refuses_non_symmetric_input():
    with pytest.raises(ValueError, match="symmetric"):
        power_sums(IntegerMatrix(2, ((1, 0), (1, 1))))


@st.composite
def _symmetric_integer_matrices(draw):
    n = draw(st.integers(1, 12))
    size = tri(n + 1)
    upper = draw(st.lists(st.integers(-1000, 1000), min_size=size, max_size=size))
    rows = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return IntegerMatrix(n, tuple(map(tuple, rows)))


@given(_symmetric_integer_matrices())
def test_power_sums_match_repeated_products(m):
    # the half-products and mirrored upper halves give the traces that n - 1
    # full products give, for odd and even n and entries of either sign
    assert power_sums(m).p == power_sums_by_products(m)


def test_newton_identities_frozen_examples():
    ps = power_sums(gram(y0(3)))
    assert newton_identities(ps).e == (5, 6, 1)
    ps2 = power_sums(gram(from_index(2, 1)))
    assert ps2.p == (3, 7)
    assert newton_identities(ps2).e == (3, 1)


def test_faddeev_leverrier_agrees_exhaustively():
    for n in range(1, 5):
        for bits in range(1 << tri(n)):
            z = gram(from_index(n, bits))
            assert newton_identities(power_sums(z)).e == faddeev_leverrier(z).e


def test_unit_determinant_exhaustive():
    for bits in range(1 << tri(4)):
        cp = newton_identities(power_sums(gram(from_index(4, bits))))
        assert cp.e[-1] == 1


def test_faddeev_leverrier_on_gram_inverses():
    for n in range(1, 9):
        zi = z0_inverse_closed(n)
        assert newton_identities(power_sums(zi)).e == faddeev_leverrier(zi).e


def test_smallest_root_frozen_floor():
    cp = newton_identities(power_sums(gram(from_index(2, 1))))
    assert smallest_root_newton(cp) == 0.38196601125010515


def test_smallest_eigenvalue_matches_jacobi():
    z = gram(y0(3))
    newton = smallest_eigenvalue(z)
    jac = min(jacobi_eigenvalues(z))
    assert abs(newton - jac) <= 1e-12
    assert newton == 0.19806226419516174


def test_newton_iterates_increase():
    cp = newton_identities(power_sums(gram(y0(4))))
    _, iterates = _newton_iterates(_float_coeffs(cp))
    assert all(a < b for a, b in zip(iterates, iterates[1:]))
    assert iterates[0] == 0.0


def test_repeated_root_stops_at_noise_floor():
    # (x - 1)^7: multiplicity-7 roots resolve to about eps^(1/7) in float64
    e = tuple(math.comb(7, k) for k in range(1, 8))
    root = smallest_root_newton(CharPoly(7, e))
    assert abs(root - 1.0) <= 5e-2


def test_identity_gram_smallest_root():
    root = smallest_eigenvalue(gram(from_index(4, 0)))
    assert abs(root - 1.0) <= 1e-3


def test_stationary_start_raises():
    # x^2 + 1 has derivative zero at the start and no positive root
    with pytest.raises(ConvergenceError):
        _newton_iterates([1.0, 0.0, 1.0])


def test_jacobi_frozen_pair():
    vals = jacobi_eigenvalues([[2.0, 1.0], [1.0, 1.0]])
    assert abs(vals[0] - (3 - math.sqrt(5)) / 2) <= 1e-12
    assert abs(vals[1] - (3 + math.sqrt(5)) / 2) <= 1e-12


def test_jacobi_requires_symmetry():
    with pytest.raises(ValueError):
        jacobi_eigenvalues([[1.0, 2.0], [0.0, 1.0]])


def test_jacobi_single_entry():
    assert jacobi_eigenvalues([[4.0]]) == [4.0]


def test_jacobi_large_scale_matrix():
    # convergence is judged relative to the matrix norm, so scaling is free
    base = np.array(gram(y0(5)).entries, dtype=float)
    big = base * 1e8
    vals = np.array(jacobi_eigenvalues(big))
    ref = np.array(jacobi_eigenvalues(base)) * 1e8
    assert np.allclose(vals, ref, rtol=1e-10)


def test_spectral_radius_frozen_example():
    assert spectral_radius_power_iteration([[2, 1], [1, 1]]) == 2.6180339887498945


def test_spectral_radius_nonsymmetric_nonnegative():
    rho = spectral_radius_power_iteration([[0, 2], [1, 0]])
    assert abs(rho - math.sqrt(2)) <= 1e-9


def test_spectral_radius_rejects_signed_nonsymmetric():
    with pytest.raises(ValueError):
        spectral_radius_power_iteration([[0, -2], [1, 0]])


def test_reciprocal_law_sample():
    # least eigenvalue of Z and spectral radius of its inverse are reciprocal;
    # both solvers here stay accurate at repeated eigenvalues
    for bits in range(1 << tri(4)):
        y = from_index(4, bits)
        lam = min(jacobi_eigenvalues(gram(y)))
        rho = spectral_radius_power_iteration(gram_inverse(y))
        assert abs(lam * rho - 1.0) <= 1e-9


def test_compare_smallest_roots_strict_order():
    a = newton_identities(power_sums(gram(y0(3))))
    b = newton_identities(power_sums(gram(from_index(3, 7))))
    assert compare_smallest_roots(a, b) == -1
    assert compare_smallest_roots(b, a) == 1


def test_compare_smallest_roots_equal_self():
    a = newton_identities(power_sums(gram(y0(4))))
    assert compare_smallest_roots(a, a) == 0


def test_compare_smallest_roots_cospectral_pair():
    # single one at (1,0) vs at (2,0): same characteristic polynomial
    a = newton_identities(power_sums(gram(from_index(3, 1))))
    b = newton_identities(power_sums(gram(from_index(3, 2))))
    assert a.e == b.e
    assert compare_smallest_roots(a, b) == 0


def test_compare_smallest_roots_shared_root_different_degree():
    # x^2 - 3x + 1 and (x^2 - 3x + 1)(x - 2) share their smallest root
    a = CharPoly(2, (3, 1))
    b = CharPoly(3, (5, 7, 2))
    assert compare_smallest_roots(a, b) == 0
    assert compare_smallest_roots(b, a) == 0


def test_compare_smallest_roots_repeated_roots():
    # (x - 1)^2 vs x^2 - 3x + 1: smallest roots 1 and 0.382
    double = CharPoly(2, (2, 1))
    golden = CharPoly(2, (3, 1))
    assert compare_smallest_roots(golden, double) == -1
    assert compare_smallest_roots(double, golden) == 1
    assert compare_smallest_roots(double, double) == 0


def _squarefree(cp):
    from gramfloor.charpoly import _derivative, _frac_coeffs, _poly_gcd

    coeffs = _frac_coeffs(cp)
    return len(_poly_gcd(coeffs, _derivative(coeffs))) == 1


@given(st.integers(min_value=1, max_value=7), st.data())
def test_pipeline_against_jacobi_random(n, data):
    """Simple smallest roots agree to 1e-10; a root of multiplicity m is only
    determined to about eps^(1/m) by any float64 polynomial evaluation, so
    repeated-root draws get the documented envelope instead."""
    bits = data.draw(st.integers(min_value=0, max_value=(1 << tri(n)) - 1))
    z = gram(from_index(n, bits))
    cp = newton_identities(power_sums(z))
    gap = abs(smallest_root_newton(cp) - min(jacobi_eigenvalues(z)))
    if _squarefree(cp):
        assert gap <= 1e-10
    else:
        # multiplicity up to n = 7: eps^(1/7) is about 7e-3, keep headroom
        assert gap <= 5e-2


def test_char_poly_sign_convention():
    # x^2 - 3x + 1 from e = (3, 1): p(0) = e_2, p(1) = 1 - 3 + 1
    cp = CharPoly(2, (3, 1))
    coeffs = _float_coeffs(cp)
    assert coeffs == [1.0, -3.0, 1.0]
