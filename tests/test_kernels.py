"""Correlation tables are block-unitary, and t-blocking the channel sums changes neither values nor memory growth."""

import tracemalloc

import numpy as np
import pytest

from jcsubdyn import _kernels
from jcsubdyn.hilbert import poisson_weights

CASES = [
    # (half_det, g, n_max, mean, rho_uu, rho_ud)
    (0.1, 0.02, 40, 10.0, 1.0, 0.0 + 0.0j),
    (-0.2, 0.05, 35, 6.0, 0.4, 0.25 - 0.1j),
    (0.0, 0.1, 30, 4.0, 0.7, 0.2 + 0.3j),
    (0.3, 0.0, 25, 8.0, 0.5, 0.0 + 0.5j),
]


def _args(half_det, g, n_max, mean, rho_uu, rho_ud):
    ts = np.linspace(0.0, 900.0, 75)
    p = poisson_weights(mean, n_max)
    p1 = poisson_weights(mean, n_max + 1)[1:]
    alpha = complex(np.sqrt(mean)) * np.exp(0.3j)
    return ts, n_max, half_det, g, 1.0, p, p1, alpha, rho_uu, 1.0 - rho_uu, rho_ud


def test_corr_tables_block_unitarity():
    ts = np.linspace(0.0, 300.0, 40)
    v, w = _kernels.corr_tables(ts, -0.15, 0.03, 30)
    np.testing.assert_allclose(np.abs(v) ** 2 + w ** 2, np.ones_like(w), atol=1e-13)


@pytest.mark.parametrize("half_det", [0.25, -0.25])
def test_boundary_sector_is_free_phase(half_det):
    """Column 0 (sector -1) must carry exp(i half_det t) for either sign."""
    ts = np.array([0.0, 1.3, 7.7])
    v, w = _kernels.corr_tables(ts, half_det, 0.04, 10)
    np.testing.assert_allclose(v[:, 0], np.exp(1j * half_det * ts), atol=1e-14)
    np.testing.assert_allclose(w[:, 0], 0.0, atol=1e-15)


@pytest.mark.parametrize("steps", [3 * _kernels.T_BLOCK + 137, 4 * _kernels.T_BLOCK])
@pytest.mark.parametrize("case", CASES + [(-0.15, 0.02, 86, 40.0, 0.8, 0.3 + 0.2j)])
def test_blocked_sums_match_one_table(case, steps):
    """Blocked sums equal the formulas over one unblocked table pair to roundoff."""
    args = list(_args(*case))
    args[0] = np.linspace(0.0, 900.0, steps)
    blocked = _kernels.channel_sums(*args)
    whole = _kernels._channel_sums_block(*args)
    for got, want in zip(blocked, whole):
        assert got.shape == want.shape == (steps,)
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize("case", CASES)
def test_grid_within_one_block_is_unchanged(case):
    args = _args(*case)
    assert len(args[0]) < _kernels.T_BLOCK
    for got, want in zip(_kernels.channel_sums(*args), _kernels._channel_sums_block(*args)):
        assert np.array_equal(got, want)


def test_table_memory_bounded_on_long_grid():
    """50k points at n_max 86: one unblocked v/w table pair alone takes ~105 MB.

    The outputs are ~4.4 MB; evaluating the whole grid as one block peaks
    near 700 MB of traced allocations.
    """
    args = list(_args(-0.15, 0.02, 86, 40.0, 0.8, 0.3 + 0.2j))
    args[0] = np.linspace(0.0, 1e4, 50_000)
    tracemalloc.start()
    try:
        out = _kernels.channel_sums(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out[0]) == 50_000
    assert peak < 40e6, f"peak traced allocation {peak / 1e6:.1f} MB"
