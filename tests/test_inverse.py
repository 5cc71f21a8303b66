"""Exact unit lower triangular inverses and the Fibonacci entry bound."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gramfloor.core import from_index, gram, mat_mul, to_dense, tri, y0
from gramfloor.extremal import fib_upto, y0_inverse_closed
from gramfloor.inverse import (
    fibonacci_bound_holds,
    gram_inverse,
    gram_inverse_batch,
    invert_batch,
    invert_unit_lower,
)
from oracles import invert_via_nilpotent, mat_identity, nilpotent_band_check


def test_full_ones_inverse_frozen():
    y = from_index(3, 7)
    assert invert_unit_lower(y).entries == ((1, 0, 0), (-1, 1, 0), (0, -1, 1))


def test_alternating_pattern_inverse_matches_closed_form():
    assert invert_unit_lower(y0(4)).entries == y0_inverse_closed(4).entries


def test_recurrence_agrees_with_series_exhaustive():
    for n in range(1, 6):
        for bits in range(1 << tri(n)):
            y = from_index(n, bits)
            assert invert_unit_lower(y).entries == invert_via_nilpotent(y).entries


def test_inverse_times_pattern_is_identity_exhaustive():
    for n in range(1, 6):
        ident = mat_identity(n).entries
        for bits in range(1 << tri(n)):
            y = from_index(n, bits)
            a = invert_unit_lower(y)
            assert mat_mul(a, to_dense(y)).entries == ident


@given(st.integers(min_value=1, max_value=9), st.data())
def test_inverse_times_pattern_is_identity_random(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << tri(n)) - 1))
    y = from_index(n, bits)
    a = invert_unit_lower(y)
    assert mat_mul(a, to_dense(y)).entries == mat_identity(n).entries


def test_gram_inverse_frozen_example():
    assert gram_inverse(from_index(2, 1)).entries == ((2, -1), (-1, 1))


def test_gram_inverse_is_inverse():
    for bits in range(1 << tri(4)):
        y = from_index(4, bits)
        zi = gram_inverse(y)
        assert mat_mul(zi, gram(y)).entries == mat_identity(4).entries


def test_nilpotent_band_vanishes():
    for bits in range(1 << tri(4)):
        y = from_index(4, bits)
        for k in range(1, 5):
            assert nilpotent_band_check(y, k)


def test_fibonacci_bound_exhaustive_small():
    for n in range(1, 6):
        for bits in range(1 << tri(n)):
            witness = fibonacci_bound_holds(invert_unit_lower(from_index(n, bits)))
            assert witness.holds and witness.violation is None
            assert bool(witness)


@given(st.integers(min_value=2, max_value=12), st.data())
def test_fibonacci_bound_random(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << tri(n)) - 1))
    assert fibonacci_bound_holds(invert_unit_lower(from_index(n, bits)))


def test_bound_witness_reports_violation():
    # a fabricated matrix breaking the bound at (2, 0): |3| > F_2 = 1
    fake = type(invert_unit_lower(y0(3)))(3, ((1, 0, 0), (-1, 1, 0), (3, -1, 1)))
    witness = fibonacci_bound_holds(fake)
    assert not witness.holds
    assert witness.violation == (2, 0)


def test_batch_inverse_matches_scalar_packed():
    # n = 11 is the largest size whose packed index fits in an int64
    rng = np.random.default_rng(20240817)
    for n in (8, 11):
        idx = rng.integers(0, 1 << tri(n), size=2000, dtype=np.int64)
        batch = invert_batch(n, idx)
        for row in range(0, idx.size, 89):
            scalar = invert_unit_lower(from_index(n, int(idx[row])))
            assert np.array_equal(batch[row], np.array(scalar.entries))


def test_batch_inverse_matches_scalar_bits():
    rng = np.random.default_rng(3)
    for n in (12, 16):
        bits = rng.integers(0, 2, size=(600, tri(n)), dtype=np.int64)
        batch = invert_batch(n, bits)
        for row in range(0, bits.shape[0], 101):
            packed = sum(int(b) << k for k, b in enumerate(bits[row]))
            scalar = invert_unit_lower(from_index(n, packed))
            assert np.array_equal(batch[row], np.array(scalar.entries))


def test_batch_rejects_packed_indices_past_63_bits():
    with pytest.raises(ValueError):
        invert_batch(16, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        invert_batch(5, np.zeros((4, 3), dtype=np.int64))


def test_batch_gram_inverse_matches_scalar():
    rng = np.random.default_rng(9)
    n = 8
    idx = rng.integers(0, 1 << tri(n), size=500, dtype=np.int64)
    batch = gram_inverse_batch(n, idx)
    for row in range(0, idx.size, 97):
        scalar = gram_inverse(from_index(n, int(idx[row])))
        assert np.array_equal(batch[row], np.array(scalar.entries))


def test_batch_gram_inverse_exact_at_int64_ceiling():
    # n = 47 is the last size whose Gram inverse entries fit in int64;
    # the worst entry (1 + F_46 F_47 at the alternating pattern) uses
    # 59% of the range, so agreement here rules out silent wraparound
    n = 47
    y = y0(n)
    bits = np.array(
        [[(y.bits >> k) & 1 for k in range(tri(n))]], dtype=np.int64
    )
    batch = gram_inverse_batch(n, bits)
    assert np.array_equal(batch[0], np.array(gram_inverse(y).entries))


def test_batch_rejects_oversized_inputs():
    with pytest.raises(ValueError):
        invert_batch(91, np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError):
        gram_inverse_batch(48, np.zeros((1, tri(48)), dtype=np.int64))
    # packed indices outside [0, 2^tri(3)) name no pattern of size 3
    for bad in ([8], [-1]):
        for batch in (invert_batch, gram_inverse_batch):
            with pytest.raises(ValueError, match="must lie in"):
                batch(3, np.array(bad, dtype=np.int64))
