"""Unit tests for block time intervals A(i)."""

import numpy as np
import pytest

from repro.core.intervals import block_intervals


def test_block_intervals_staircase():
    # Generation order: {3,2} at 0.1, {1} at 0.25, {0} at 0.4.
    c = np.array([0.4, 0.25, 0.1, 0.1])
    a = block_intervals(c)
    assert a[3] == pytest.approx(0.15)
    assert a[2] == pytest.approx(0.15)
    assert a[1] == pytest.approx(0.15)
    assert np.isinf(a[0])  # final block: no later generation


def test_block_intervals_single_block_all_inf():
    a = block_intervals(np.zeros(4))
    assert np.all(np.isinf(a))


def test_block_intervals_uneven_steps():
    c = np.array([1.0, 0.6, 0.1])
    a = block_intervals(c)
    assert a[2] == pytest.approx(0.5)
    assert a[1] == pytest.approx(0.4)
    assert np.isinf(a[0])

