"""Closed forms for the alternating pattern and its Gram inverse."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gramfloor import extremal
from gramfloor.core import (
    IntegerMatrix,
    from_index,
    gram,
    mat_abs,
    mat_mul,
    to_dense,
    tri,
    y0,
)
from gramfloor.extremal import (
    fib_upto,
    fibonacci,
    sign_pattern_check,
    trace_equality_check,
    y0_inverse_closed,
    z0_inverse_closed,
)
from gramfloor.inverse import gram_inverse, gram_inverse_batch, invert_unit_lower
from oracles import mat_identity, trace_equality_by_power_sums


def test_fibonacci_sequence():
    assert [fibonacci(k) for k in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fib_upto(6) == (1, 1, 2, 3, 5, 8)
    with pytest.raises(ValueError):
        fibonacci(0)


def test_y0_inverse_closed_matches_recurrence():
    for n in range(1, 65):
        assert y0_inverse_closed(n).entries == invert_unit_lower(y0(n)).entries


def test_y0_inverse_entries_attain_fibonacci():
    for n in (2, 8, 33, 64):
        a = y0_inverse_closed(n)
        for i in range(n):
            for j in range(i):
                assert abs(a.entries[i][j]) == fibonacci(i - j)


def test_z0_inverse_frozen_example():
    assert z0_inverse_closed(3).entries == ((3, -2, 1), (-2, 2, -1), (1, -1, 1))


def test_closed_forms_invert_exactly():
    for n in range(1, 31):
        ident = mat_identity(n).entries
        assert mat_mul(y0_inverse_closed(n), to_dense(y0(n))).entries == ident
        assert mat_mul(z0_inverse_closed(n), gram(y0(n))).entries == ident


def test_z0_inverse_matches_product_form():
    for n in range(1, 21):
        assert z0_inverse_closed(n).entries == gram_inverse(y0(n)).entries


def test_sign_pattern_alternates():
    for n in range(1, 31):
        assert sign_pattern_check(z0_inverse_closed(n))


def test_sign_pattern_rejects_zero_entry():
    from gramfloor.core import IntegerMatrix

    assert not sign_pattern_check(IntegerMatrix(2, ((1, 0), (0, 1))))
    assert not sign_pattern_check(IntegerMatrix(2, ((1, 1), (1, 1))))


def test_trace_equality():
    # the similarity and the power sums it implies, up to the CLI's cap
    for n in [*range(1, 41), 64]:
        assert trace_equality_check(n) and trace_equality_by_power_sums(n), n


def test_trace_equality_rejects_one_flipped_pair(monkeypatch):
    # Z0^-1 with the signs of entries (0, 2) and (2, 0) flipped: |M| stays
    # |Z0^-1|, but the products round the triangles (0, 2, j) turn negative,
    # so trace(M^3) falls below trace(|M|^3)
    real = extremal.z0_inverse_closed

    def flipped(n):
        rows = [list(row) for row in real(n).entries]
        rows[0][2] = rows[2][0] = -rows[0][2]
        return IntegerMatrix(n, tuple(map(tuple, rows)))

    monkeypatch.setattr(extremal, "z0_inverse_closed", flipped)
    for n in range(3, 13):
        assert not trace_equality_check(n), n


def test_domination_exhaustive_small():
    from gramfloor.extremal import domination_check

    for n in range(1, 6):
        for bits in range(1 << tri(n)):
            witness = domination_check(gram(from_index(n, bits)))
            assert witness.holds, (n, bits, witness.violation)


def test_domination_random_batched():
    rng = np.random.default_rng(41)
    for n in (8, 10):
        reference = np.abs(np.array(z0_inverse_closed(n).entries))
        idx = rng.integers(0, 1 << tri(n), size=10_000, dtype=np.int64)
        batch = np.abs(gram_inverse_batch(n, idx))
        assert (batch <= reference).all()


def test_domination_reference_is_attained():
    from gramfloor.extremal import domination_check

    witness = domination_check(gram(y0(6)))
    assert witness.holds


@given(st.integers(min_value=1, max_value=9), st.data())
def test_domination_random_scalar(n, data):
    from gramfloor.extremal import domination_check

    bits = data.draw(st.integers(min_value=0, max_value=(1 << tri(n)) - 1))
    assert domination_check(gram(from_index(n, bits)))


def test_abs_z0_inverse_equals_reference():
    for n in range(1, 13):
        ref = mat_abs(z0_inverse_closed(n))
        assert all(v >= 0 for row in ref.entries for v in row)
