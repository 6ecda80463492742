"""Correlation tables are block-unitary and bytewise their literal assembly, and
t-blocking the channel sums, or reducing the blocks on two threads, changes
neither values nor memory growth."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from jcsubdyn import _kernels, cli, hilbert
from jcsubdyn.analysis import ORACLE_CHANNELS, Scenario, observable_series
from jcsubdyn.hilbert import _lower_cut, auto_n_max, poisson_weights
from jcsubdyn.jcm import JcmParams

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
    cols = (88, 128, 129, 256, 257, 1002)
    assert [_kernels.block_rows(c) for c in cols] == [512, 512, 256, 256, 128, 64]
    assert _kernels.block_rows(_kernels.BLOCK_CELLS + 1) == 1
    assert [_kernels.block_rows(c, _kernels.LONE_ROW_CELLS) for c in cols] == [128, 128, 64, 64,
                                                                               32, 16]


def _matvec_calls(m, x):
    """``_matvec(m, x)`` and the shapes of the tables its np.matmul calls took."""
    shapes = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            shapes.append(inputs[0].shape)
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(out) for out in kwargs["out"])
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    return np.asarray(_kernels._matvec(m.view(Counted), x)), shapes


# powers of two, a lone row after them, other tails, and one row alone
@pytest.mark.parametrize("rows", [1, 5, 32, 33, 64, 65, 129, 161, 417, 512])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matvec_is_one_product_bitwise(rng, dtype, rows):
    """_matvec(m, x) is bytewise one m @ x (one OpenBLAS thread), for tables of
    38, 82 and 88 columns.  A real table goes to BLAS whole; a complex one in
    equal power-of-two chunks under MATVEC_BYTES, a lone last row joining the
    chunk before it."""
    for cols in (38, 82, 88):
        m = rng.standard_normal((rows, cols)).astype(dtype)
        if m.dtype.kind == "c":
            m.imag = rng.standard_normal((rows, cols))
        x = rng.standard_normal(cols)
        got, shapes = _matvec_calls(m, x)
        want = m @ x
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert sum(r for r, _ in shapes) == rows
        if m.dtype.kind == "f" or len(shapes) == 1:
            assert shapes == [m.shape]
            continue
        step = shapes[0][0]
        assert step & (step - 1) == 0 and step * cols * m.itemsize < _kernels.MATVEC_BYTES
        assert all(r == step for r, _ in shapes[1:-1]) and 2 <= shapes[-1][0] <= step + 1


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_one_worker_leaves_the_blas_pool_thread_idle():
    """At two OpenBLAS threads, one block worker reducing a sweep-shape grid
    (n_max 86 from sector 6, a mixed start, four 512-row blocks, 20 calls)
    hands no product to OpenBLAS's pool thread: threads other than the caller
    take at most 0.02 s of CPU time.  A complex product of 4096 cells or more
    would wake it: with complex chunks of 128 KiB they take 0.3-0.9 s (2-vCPU Xeon)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__),
                                           os.environ.get("PYTHONPATH", "")]))
    code = ("import os, threading, test_kernels as tk\n"
            "from jcsubdyn import _kernels\n"
            "_kernels._block_workers = lambda n_blocks: 1\n"
            "def others():\n"
            "    me, ticks = threading.get_native_id(), 0\n"
            "    for tid in os.listdir('/proc/self/task'):\n"
            "        if int(tid) != me:\n"
            "            with open(f'/proc/self/task/{tid}/stat') as f:\n"
            "                ticks += sum(map(int, f.read().rsplit(')', 1)[1].split()[11:13]))\n"
            "    return ticks / os.sysconf('SC_CLK_TCK')\n"
            "args = tk._pinned_args(-0.19, 0.02, 86, 40.0, 0.9, 0.24 + 0.13j, 2048)\n"
            "before = others()\n"
            "for _ in range(20):\n"
            "    _kernels.channel_sums(*args, 6)\n"
            "print(others() - before)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 0.02, f"{float(proc.stdout):.2f} s on other threads"


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


def test_smallest_truncation_ends(tmp_path):
    """At n_max 1 a dressing table has no columns; the run ends (in a child, so a hang fails)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "x.csv"
    proc = subprocess.run([sys.executable, "-m", "jcsubdyn", "--n-max", "1", "--grid", "0", "1", "3",
                           "--output", str(out)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# --- pinned bytes of the mixed-start channel sums ---------------------------

# (half_det, g, n_max, mean, rho_uu, rho_ud, steps); each starts the atom in a
# superposition, so C_n and D_n reach quasi_a and qpl_cd (figure1 starts in
# |up>, where the block skips them: these pins alone carry them).  Each is
# reduced at two cell budgets (BUDGETS).  At n_max 86 the first grid's last
# block holds 417 rows (161 at 1 << 15), whose last complex product chunk holds
# 32 rows and a lone row; at n_max 36 the last 512-row block holds 129, a lone
# row after the complex (64-row) chunks; at n_max 20 the last 512-row block
# holds a single grid point.  The last two, at n_max 86, end in an 88-row block
# after a 512-row one (two 256-row ones), and in a lone row that follows a
# 512-row block and a 128-row one (two 256-row blocks and a 128-row one).
PINNED = [
    (-0.19, 0.02, 86, 40.0, 0.9, 0.24 + 0.13j, 417),
    (0.15, 0.02, 36, 10.0, 0.6, -0.3 + 0.35j, 641),
    (-0.07, 0.05, 20, 5.0, 0.3, 0.1 - 0.42j, 1025),
    (-0.19, 0.02, 86, 40.0, 0.9, 0.24 + 0.13j, 600),
    (0.11, 0.03, 86, 40.0, 0.35, -0.28 + 0.2j, 641),
]
#: SHA-256 over the eight outputs of channel_sums (dtype name, then bytes) as
#: the serial, unchunked implementation wrote them; the last two as the
#: implementation with blocks of at most 1 << 14 cells wrote them.  Like the
#: figure1 digests they depend on libm and the BLAS kernels.
PINNED_SHA256 = [
    "77e87d85dcde652225c6446550d43fb26a81e872307758b7642da5fed01af8fa",
    "94bc12565c54c78f49982f0f4247511c58e098ef55fbc583f8a318cedbdd5ae0",
    "3ed85e60cbd84d52f5d0289033b87a6de4b0d3dae257b52de4952c0460ce8c0c",
    "35f2edb446db9c42d2366e846f92d301ba6827fd186753a787b38a9f42eba684",
    "81c5ae48b751289434679bee05d38d0e1dcaa1a03fdba0973d4b91ad38399a1e",
]


def _pinned_args(half_det, g, n_max, mean, rho_uu, rho_ud, steps):
    ts = np.linspace(0.0, 150.0 / g, steps)
    p = poisson_weights(mean, n_max)
    p1 = poisson_weights(mean, n_max + 1)[1:]
    alpha = complex(np.sqrt(mean)) * np.exp(-0.7j)
    return ts, n_max, half_det, g, 1.0, p, p1, alpha, rho_uu, 1.0 - rho_uu, rho_ud


def _digest(sums):
    h = hashlib.sha256()
    for out in sums:
        h.update(out.dtype.name.encode())
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


#: The cell budgets every pin is reduced at: the default and 1 << 15, whose
#: 256-row blocks at n_max 86 keep the partial blocks the pins were chosen for.
BUDGETS = (_kernels.BLOCK_CELLS, 1 << 15)
#: A pin that spans two blocks at either budget, for the two-worker tests.
TWO_BLOCKS = PINNED[3]


def pinned_digests():
    """Digests of channel_sums over the PINNED scenarios (also run in a subprocess)."""
    return [_digest(_kernels.channel_sums(*_pinned_args(*case))) for case in PINNED]


def test_pinned_scenarios_reach_their_chunk_shapes():
    shapes = {1 << 16: ([512] * 5, [417, 129, 1, 88, 129]),
              1 << 15: ([256, 512, 512, 256, 256], [161, 129, 1, 88, 129])}
    assert set(shapes) == set(BUDGETS)
    for cells, (want_rows, want_last) in shapes.items():
        rows = [_kernels.block_rows(case[2] + 2, cells) for case in PINNED]
        assert rows == want_rows
        assert [case[-1] % r for case, r in zip(PINNED, rows)] == want_last
    # complex products run in chunks of 32 rows at 88 columns and 64 at 38
    assert [_matvec_calls(np.zeros((rows, cols), complex), np.zeros(cols))[1][-2:]
            for rows, cols in ((417, 88), (161, 88), (129, 38))] \
        == [[(32, 88), (33, 88)], [(32, 88), (33, 88)], [(64, 38), (65, 38)]]
    # the last goes alone, as blocks of LONE_ROW_CELLS leave it
    assert PINNED[-1][-1] % _kernels.block_rows(88, _kernels.LONE_ROW_CELLS) == 1


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_mixed_start_sums_keep_their_bytes(monkeypatch, index):
    args = _pinned_args(*PINNED[index])
    for cells in BUDGETS:
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", cells)
        got = _kernels.channel_sums(*args)
        digest = _digest(got)
        if digest != PINNED_SHA256[index]:
            # a libm or BLAS difference moves every output by roundoff only
            whole = _kernels._channel_sums_block(*args)
            names = ("s1z", "s2z", "s3z", "quasi_a", "quasi_n", "qpl_dev", "qpl_cd", "qpl_abs_a")
            pytest.fail(f"sha256 {digest} != {PINNED_SHA256[index]} at {cells} cells; "
                        "max |blocked - one table| "
                        + ", ".join(f"{name}={np.max(np.abs(a - b)):.2e}"
                                    for name, a, b in zip(names, got, whole)))


# --- pinned bytes of the zero-weight starts ----------------------------------

# (half_det, g, n_max, mean, rho_uu, rho_ud, steps) of starts with a density
# weight of exactly 0, whose terms the block skips: |up>, |down>,
# diag(0.6, 0.4), and |up> at alpha = 0, where alpha * a_sum has -0 parts that
# the skipped terms would turn into +0.  Each grid but the fifth ends in a lone
# row: the third after a 384-row block (a 256-row block and a 128-row one at
# 1 << 15), the others after full blocks; the fifth ends in a 188-row block
# after a 512-row one (two 256-row ones).
ZERO_WEIGHT = [
    (0.075, 0.02, 36, 10.0, 1.0, 0j, 1537),
    (-0.11, 0.03, 20, 6.0, 0.0, 0j, 1025),
    (0.2, 0.02, 86, 40.0, 0.6, 0j, 385),
    (-0.0, 0.05, 12, 0.0, 1.0, 0j, 1025),
    (0.2, 0.02, 86, 40.0, 0.6, 0j, 700),
    (-0.13, 0.02, 86, 40.0, 0.0, 0j, 513),
]
#: As PINNED_SHA256, written by the implementation that evaluated every term;
#: the last two by the implementation with blocks of at most 1 << 14 cells.
ZERO_WEIGHT_SHA256 = [
    "e57472ce755af33165ac917357a31c63668cc0255e85071463be3a347b4e1fc6",
    "0f78a824ed18cb4528e1fb7ad735f8dad7f3972954402b8c05e0fcb8dc97fe93",
    "a9b0aa373ac83e7f18bdc54789cdff17a77f0acbc390e10353da335c43cbb5ca",
    "63e940ae0edb11ba560c53a81234ac692ddcf23fe78b1d3a8d337893e3c21b60",
    "54931a6d8a637e078eb21e5cd0f1517d2da90e9742cdf97e39b89946297285b9",
    "e7de8d2c83a67bf61b04a471239ceb1587051bc53a7e58ba8cc08dd9d9cc975d",
]


def test_zero_weight_scenarios_span_blocks_and_end_in_a_lone_row():
    last = {1 << 16: [1, 1, 385, 1, 188, 1], 1 << 15: [1, 1, 129, 1, 188, 1]}
    assert set(last) == set(BUDGETS)
    for cells, want in last.items():
        rows = [_kernels.block_rows(case[2] + 2, cells) for case in ZERO_WEIGHT]
        # the third is one block but for its lone row at the default budget
        assert [case[-1] > r for case, r in zip(ZERO_WEIGHT, rows)] \
            == [True, True, cells < 1 << 16, True, True, True]
        assert [case[-1] % r for case, r in zip(ZERO_WEIGHT, rows)] == want
    # the third ends in a lone row as blocks of LONE_ROW_CELLS leave it
    lone = [case[-1] % _kernels.block_rows(case[2] + 2, _kernels.LONE_ROW_CELLS) == 1
            for case in ZERO_WEIGHT]
    assert lone == [True, True, True, True, False, True]


@pytest.mark.parametrize("index", range(len(ZERO_WEIGHT)))
def test_zero_weight_sums_keep_their_bytes(monkeypatch, index):
    for cells in BUDGETS:
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", cells)
        assert _digest(_kernels.channel_sums(*_pinned_args(*ZERO_WEIGHT[index]))) \
            == ZERO_WEIGHT_SHA256[index], f"at {cells} cells"


# --- the sector window ---------------------------------------------------------

def test_window_starts_at_sector_0_up_to_mean_20():
    """figure1, the benchmark's oracle run and the JSON pins keep every sector."""
    assert {_lower_cut(mean) for mean in np.linspace(0.0, 20.0, 401)} == {0}
    assert [_lower_cut(mean) for mean in (25.0, 40.0, 700.0, 13302.0)] == [1, 6, 515, 12416]


def test_full_window_keeps_the_pinned_bytes():
    """channel_sums from sector 0, asked for, is the call the pins were written by."""
    assert [_digest(_kernels.channel_sums(*_pinned_args(*case), 0)) for case in PINNED] \
        == PINNED_SHA256


def _dropped_bound(mass, moment, a):
    """Bounds on the eight channel sums' terms over sectors of Poisson ``mass`` and
    first moment ``moment``, for |alpha| = ``a`` and a density start: |w|, |v| <= 1,
    |A_n| <= 1 + sqrt(2), and the C and D terms |alpha|² p(n - 1) |C_n| / sqrt(n (n + 1))
    and p(n) |D_n| are each at most sqrt(n + 1) p(n) <= (n + 1) p(n)."""
    return np.array([2.0 * mass, 2.0 * mass, 2.0 * a * mass,
                     2.5 * a * mass + 2.0 * (moment + mass), moment + (1.0 + 2.0 * a) * mass,
                     3.5 * mass, 2.0 * (moment + mass), 2.5 * mass])


@pytest.mark.parametrize("mean", [700.0, 13302.0])
def test_window_moves_each_sum_by_at_most_what_its_dropped_sectors_carry(mean):
    """The windowed sums equal the full-window ones within the dropped sectors' bound
    (their mass through sector lo covers the p(n + 1) weights) plus the roundoff of
    summing n_cols terms in another order, n_cols eps times the bound over every sector."""
    lo, n_max = _lower_cut(mean), auto_n_max(mean)
    both = poisson_weights(mean, n_max + 1)
    ts = np.linspace(0.0, 200.0 / 0.02, 20)
    alpha = math.sqrt(mean) * complex(math.cos(0.4), math.sin(0.4))
    args = (ts, n_max, 0.1, 0.02, 1.0, both[:-1], both[1:], alpha, 0.6, 0.4, 0.2 - 0.3j)
    mass, moment = both[:lo + 1].sum(), np.arange(lo) @ both[:lo]
    assert mass <= 1e-10 and moment <= 5e-11
    bound = (_dropped_bound(mass, moment, abs(alpha))
             + (n_max + 2) * np.finfo(float).eps * _dropped_bound(1.0, mean, abs(alpha)))
    gaps = [np.max(np.abs(win - full)) for win, full in
            zip(_kernels.channel_sums(*args, lo), _kernels.channel_sums(*args))]
    assert np.all(gaps <= bound), (gaps, bound)


def test_truncation_below_the_window_sums_its_top_sectors(monkeypatch):
    """At mean 100 the window starts at sector 39; a run truncated at n_max 20 (its
    tail flagged) sums sectors 19..20, within 1e-10 of all 21."""
    rho = np.array([[0.6, 0.2 - 0.3j], [0.2 + 0.3j, 0.4]])
    scenario = Scenario(params=JcmParams(1.0, 0.9, 0.02, 20), atom_init=rho, magnitude=10.0,
                        grid=(0.0, 50.0, 40))
    windowed = observable_series(scenario)
    monkeypatch.setattr(hilbert, "_lower_cut", lambda mean, tail_tol: 0)
    full = observable_series(scenario).channels
    assert not windowed.metadata["tail_ok"]
    for name in ("quasi_a_re", "quasi_a_im", "quasi_n", "sigma_z_mean", "conservation_residual"):
        assert np.max(np.abs(windowed.channels[name] - full[name])) <= 1e-10, name


def test_sums_do_not_depend_on_the_blas_thread_count():
    """Two OpenBLAS threads (the benchmark's setting; Tier-1 runs one) give the pinned bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__),
                                           os.environ.get("PYTHONPATH", "")]))
    code = "import json, test_kernels; print(json.dumps(test_kernels.pinned_digests()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PINNED_SHA256


# 1100 points end in a 76-row block at any of these budgets; 1153 points end
# in a lone row, which blocks of 64 rows leave alone and LONE_ROW_CELLS keeps so
@pytest.mark.parametrize("steps", [1100, 1153])
def test_block_size_moves_no_byte(monkeypatch, steps):
    """A mixed start at n_max 86, reduced by both workers in blocks of 64 to
    512 rows: every cell budget gives the bytes of the 1 << 14 one."""
    _force_workers(monkeypatch, 2)
    args = _pinned_args(0.13, 0.02, 86, 40.0, 0.7, 0.3 - 0.2j, steps)
    rows, digests = [], {}
    for cells in (1 << 13, 1 << 14, 1 << 15, 1 << 16):
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", cells)
        rows.append(_kernels.block_rows(88))
        digests[cells] = _digest(_kernels.channel_sums(*args))
    assert rows == [64, 128, 256, 512]
    assert digests == dict.fromkeys(digests, digests[1 << 14])


def test_repeated_calls_fault_in_few_pages():
    """Three calls at n_max 86 on 5000 points in a fresh process: the tables of
    a block live in a workspace, so the second and third call fault in fewer
    than 2000 pages (each block's freed temporaries took tens of thousands)."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__),
                                                       os.environ.get("PYTHONPATH", "")]))
    code = ("import json, resource, test_kernels as tk\n"
            "from jcsubdyn import _kernels\n"
            "args = tk._pinned_args(-0.19, 0.02, 86, 40.0, 0.9, 0.24 + 0.13j, 5000)\n"
            "faults = []\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    _kernels.channel_sums(*args)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(json.dumps(faults))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert max(faults[1:]) < 2000, faults


# --- the two block workers --------------------------------------------------

def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(_kernels, "_block_workers", lambda n_blocks: workers)


def _in_helper_block(monkeypatch, action):
    """Run ``action()`` in a block the helper thread reduces, before the caller
    reduces any: the caller's first block waits for the helper's."""
    real = _kernels._channel_sums_block
    caller = threading.get_ident()
    helper_began = threading.Event()

    def block(*args):
        if threading.get_ident() == caller:
            assert helper_began.wait(30), "the helper thread reduced no block"
        else:
            try:
                action()
            finally:
                helper_began.set()
        return real(*args)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(_kernels, "_channel_sums_block", block)


def test_two_workers_match_one_bitwise(monkeypatch):
    for case in PINNED:
        args = _pinned_args(*case)
        _force_workers(monkeypatch, 1)
        serial = _kernels.channel_sums(*args)
        _force_workers(monkeypatch, 2)
        threaded = _kernels.channel_sums(*args)
        for a, b in zip(serial, threaded):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_no_thread_outlives_the_call(monkeypatch):
    _force_workers(monkeypatch, 2)
    before = threading.active_count()
    _kernels.channel_sums(*_pinned_args(*TWO_BLOCKS))
    assert threading.active_count() == before


def test_helper_block_error_reaches_the_caller(monkeypatch):
    def fail():
        raise ValueError("raised in a helper block")

    _in_helper_block(monkeypatch, fail)
    before = threading.active_count()
    with pytest.raises(ValueError, match="raised in a helper block"):
        _kernels.channel_sums(*_pinned_args(*TWO_BLOCKS))
    assert threading.active_count() == before


def test_caller_block_error_propagates_when_every_block_raises(monkeypatch):
    caller = threading.get_ident()
    both_in_a_block = threading.Barrier(2, timeout=30)

    def block(*args):
        both_in_a_block.wait()
        raise ValueError("raised on the caller" if threading.get_ident() == caller
                         else "raised on the helper")

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(_kernels, "_channel_sums_block", block)
    before = threading.active_count()
    with pytest.raises(ValueError, match="raised on the caller"):
        _kernels.channel_sums(*_pinned_args(*TWO_BLOCKS))
    assert threading.active_count() == before


def _overflow():
    np.exp(np.array([1000.0]))


def test_helper_block_keeps_the_callers_raise_errstate(monkeypatch):
    _in_helper_block(monkeypatch, _overflow)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
        _kernels.channel_sums(*_pinned_args(*TWO_BLOCKS))


def test_helper_block_keeps_the_callers_ignore_errstate(monkeypatch):
    _in_helper_block(monkeypatch, _overflow)
    with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _kernels.channel_sums(*_pinned_args(*TWO_BLOCKS))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_sweep_scale_blocks_match_the_oracle(monkeypatch):
    """|alpha|² = 40 (n_max 86, the sweep's truncation) on 656 points: a
    512-row block, the sweep's block shape, and a 144-row one, reduced by both
    workers."""
    _force_workers(monkeypatch, 2)
    g, ratio = 0.02, 9.5
    n_max = auto_n_max(40.0)
    assert n_max == 86 and 656 - 144 == _kernels.block_rows(n_max + 2 - _lower_cut(40.0)) == 512
    theta, phi = 0.6, 5.8
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    rho = np.array([[c * c, c * s * np.exp(-1j * phi)], [c * s * np.exp(1j * phi), s * s]])
    scenario = Scenario(params=JcmParams(1.0, 1.0 - ratio * g, g, n_max), atom_init=rho,
                        magnitude=math.sqrt(40.0), grid=(0.0, 200.0, 656), oracle=True)
    deviations = observable_series(scenario).metadata["oracle_deviation"]
    assert set(deviations) == set(ORACLE_CHANNELS)
    assert max(deviations.values()) <= cli.CROSSCHECK_TOL
