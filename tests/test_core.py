"""Bit-packed pattern representation and exact Gram products."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gramfloor.core import (
    GramMatrix,
    IntegerMatrix,
    LowerUnitMatrix,
    encode,
    from_index,
    gram,
    gram_factor,
    lower_positions,
    mat_mul,
    mat_transpose,
    row_masks,
    to_dense,
    tri,
    y0,
)
from oracles import index_of, mat_identity


def test_tri_counts_strict_lower_positions():
    assert [tri(n) for n in range(1, 7)] == [0, 1, 3, 6, 10, 15]


def test_lower_positions_row_major():
    assert list(lower_positions(3)) == [(1, 0), (2, 0), (2, 1)]
    assert list(lower_positions(1)) == []


def test_from_index_unpacks_row_major():
    y = from_index(3, 5)
    assert to_dense(y).entries == ((1, 0, 0), (1, 1, 0), (0, 1, 1))


def test_index_round_trip_exhaustive_small():
    for n in range(1, 6):
        for bits in range(1 << tri(n)):
            assert index_of(from_index(n, bits)) == bits


@given(st.integers(min_value=1, max_value=8), st.data())
def test_index_round_trip_random(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << tri(n)) - 1))
    y = from_index(n, bits)
    assert index_of(y) == bits
    assert y.bits == bits


def test_from_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_index(3, 8)
    with pytest.raises(ValueError):
        from_index(3, -1)
    with pytest.raises(ValueError):
        from_index(0, 0)


def test_y0_alternating_parity():
    y = y0(5)
    for i in range(5):
        for j in range(i):
            assert y.entry(i, j) == ((i + j) % 2)
    assert y0(3).bits == 5


def test_y0_size_one():
    assert to_dense(y0(1)).entries == ((1,),)


def test_gram_frozen_example():
    assert gram(y0(3)).entries == ((1, 1, 0), (1, 2, 1), (0, 1, 2))


def test_gram_diagonal_counts_row_ones():
    for bits in range(1 << tri(4)):
        y = from_index(4, bits)
        z = gram(y)
        for i in range(4):
            ones = 1 + sum(y.entry(i, j) for j in range(i))
            assert z.entries[i][i] == ones


@given(st.integers(min_value=1, max_value=8), st.data())
def test_gram_symmetric(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << tri(n)) - 1))
    z = gram(from_index(n, bits))
    for i in range(n):
        for j in range(n):
            assert z.entries[i][j] == z.entries[j][i]


def test_encode_round_trip():
    for bits in range(1 << tri(4)):
        y = from_index(4, bits)
        assert encode(to_dense(y)) == y


def test_encode_rejects_bad_matrices():
    with pytest.raises(ValueError):
        encode(IntegerMatrix(2, ((2, 0), (0, 1))))
    with pytest.raises(ValueError):
        encode(IntegerMatrix(2, ((1, 1), (0, 1))))
    with pytest.raises(ValueError):
        encode(IntegerMatrix(2, ((1, 0), (2, 1))))


def test_gram_factor_recovers_pattern():
    for bits in range(1 << tri(5)):
        y = from_index(5, bits)
        assert gram_factor(gram(y)) == y


def test_gram_factor_rejects_non_members():
    with pytest.raises(ValueError):
        gram_factor(GramMatrix(2, ((2, 0), (0, 2))))
    with pytest.raises(ValueError):
        gram_factor(GramMatrix(2, ((1, 2), (2, 1))))


def test_gram_matrix_requires_symmetry():
    with pytest.raises(ValueError):
        GramMatrix(2, ((1, 2), (3, 1)))


def test_lower_unit_matrix_validates_bits():
    with pytest.raises(ValueError):
        LowerUnitMatrix(3, 1 << 3)
    with pytest.raises(ValueError):
        LowerUnitMatrix(3, -1)


def test_mat_helpers():
    a = IntegerMatrix(2, ((1, 2), (3, 4)))
    assert mat_mul(a, mat_identity(2)).entries == a.entries
    assert mat_transpose(mat_transpose(a)).entries == a.entries
    assert (a @ mat_identity(2)).entries == a.entries


def test_row_mask_matches_bits():
    y = from_index(3, 5)
    assert y.row_mask(0) == 0b001
    assert y.row_mask(1) == 0b011
    assert y.row_mask(2) == 0b110
    for i, j in [(3, 0), (-1, 0), (1, 3), (1, -1)]:
        with pytest.raises(IndexError):
            y.entry(i, j)
    with pytest.raises(IndexError):
        y.row_mask(3)


@pytest.mark.parametrize("n", range(1, 12))
def test_row_masks_match_row_mask(n):
    # every pattern up to n = 5; beyond, a seeded sample plus all ones
    total = 1 << tri(n)
    if n <= 5:
        indices = list(range(total))
    else:
        rng = random.Random(n)
        indices = [rng.randrange(total) for _ in range(300)] + [total - 1]
    idx = np.array(indices, dtype=np.int64)
    out = row_masks(n, idx)
    assert out.shape == (n, idx.size) and out.dtype == np.int64
    for b, i in enumerate(indices):
        y = from_index(n, i)
        assert out[:, b].tolist() == [y.row_mask(r) for r in range(n)], i
