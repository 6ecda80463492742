"""Correlation tables are block-unitary and bytewise their literal assembly, and t-blocking the channel sums changes neither values nor memory growth."""

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


def _literal_tables(ts, half_det, g, n_cols):
    """The table assembly written out as one complex expression."""
    ns = np.arange(-1, n_cols - 1, dtype=np.float64)
    kappa = g * np.sqrt(ns + 1.0)
    lam = np.sqrt(half_det * half_det + kappa * kappa)
    safe = np.where(lam > 0.0, lam, 1.0)
    cos2t = np.where(lam > 0.0, half_det / safe, 1.0)
    sin2t = np.where(lam > 0.0, kappa / safe, 0.0)
    phase = np.outer(ts, lam)
    return np.cos(phase) + 1j * cos2t * np.sin(phase), sin2t * np.sin(phase)


@pytest.mark.parametrize("g", [0.03, 0.0])
@pytest.mark.parametrize("half_det", [0.17, -0.17, 0.0, -0.0])
def test_corr_tables_bytes_match_literal_assembly(half_det, g):
    """v and w are bytewise those of the literal expression, signed zeros included.

    t = 0 and t = -0 give zero sines, so cos2t * sin is a signed zero there,
    and a negative half-detuning or time flips its sign; the literal's
    complex add makes every such -0 imaginary part +0.  The 300 x 88 case
    is large enough for numpy to reuse the literal's temporaries in place.
    """
    short = np.concatenate([[0.0, -0.0], np.linspace(-40.0, 60.0, 37)])
    long = np.concatenate([[0.0, -0.0], np.linspace(-900.0, 900.0, 298)])
    for ts, n_cols in ((short, 12), (long, 88)):
        got = _kernels.corr_tables(ts, half_det, g, n_cols)
        want = _literal_tables(ts, half_det, g, n_cols)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_block_rows_halve_to_the_cell_budget():
    assert _kernels.block_rows(3) == _kernels.T_BLOCK == 512
    cols = (32, 33, 64, 65, 88, 1002)
    assert [_kernels.block_rows(c) for c in cols] == [512, 256, 256, 128, 128, 16]
    assert _kernels.block_rows(_kernels.BLOCK_CELLS + 1) == 1


# 1673 leaves a partial last block and 2048 fills whole blocks, for blocks of
# any power of two from 16 to 512 rows
@pytest.mark.parametrize("steps", [1673, 2048])
@pytest.mark.parametrize("case", CASES + [(-0.15, 0.02, 86, 40.0, 0.8, 0.3 + 0.2j)])
def test_blocked_sums_match_one_table(case, steps):
    """Blocked sums equal the formulas over one unblocked table pair to roundoff."""
    assert steps > 2 * _kernels.block_rows(case[2] + 2)
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
    assert len(args[0]) < _kernels.block_rows(case[2] + 2)
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
