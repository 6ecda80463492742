"""Correlation tables and the closed-form dressing coefficients built on them.

The closed-form observable series reduce, at every grid point, a family of
per-sector correlation factors

    lam_n = sqrt(half_det² + g²(n+1))
    v_n(t) = cos(lam_n t) + i (half_det/lam_n) sin(lam_n t)
    w_n(t) = (g sqrt(n+1)/lam_n) sin(lam_n t)

against Poisson weights.  :func:`corr_tables` builds them as (v, w) tables
with one row per time; :func:`channel_sums` reduces them one block of
:func:`block_rows` grid points at a time with numpy broadcasting, on the
caller and one helper thread, each writing its tables into one workspace.

Sector index convention: column ``j`` of a correlation table holds sector
``n = j - 1``; the leading ``n = -1`` column is the boundary sector with
``g sqrt(n+1) = 0`` (it evaluates to v = exp(i half_det t), w = 0 through
the same formula, no special casing).

Each dressing coefficient is written once, here: :func:`dressing_a`,
:func:`dressing_c` and :func:`dressing_d` for the quasi-annihilation
operator, :func:`dressing_n` for the quasi-number operator,
:func:`inversion_series` for the dressed inversion and
:func:`spin_plus_terms` for the dressed raising operator.  They take
the sectors as a half-open range ``lo, hi`` and read sector ``n`` and its
neighbours ``n - 1``, ``n + 1`` as basic column slices, so they work on the
time-blocked tables of :func:`channel_sums` and on the one-row tables of
the per-t functions in :mod:`jcsubdyn.jcm` alike.  Terms whose density weight
is an exact zero are skipped where the signed zeros they add move no byte.
Each table they make is written by a ufunc call with ``out=`` (a new array, or
a buffer of the workspace ``ws``), in the operand order of the literal
formula, so numpy never swaps the operands to reuse a temporary in place.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading

import numpy as np

__all__ = [
    "T_BLOCK",
    "BLOCK_CELLS",
    "MATVEC_BYTES",
    "block_rows",
    "active_lane",
    "corr_tables",
    "dressing_a",
    "dressing_c",
    "dressing_d",
    "dressing_n",
    "inversion_series",
    "spin_plus_terms",
    "channel_sums",
]

#: Most grid points per block, here and in the oracle's evolved states.
T_BLOCK = 512
#: Most table cells (grid points x sectors) per block of :func:`channel_sums`:
#: 512 rows up to n_max 62, 256 up to 126, 128 up to 254.  A block's tables
#: live in its worker's workspace, at most 2 MiB at this budget, so a taller
#: block allocates no table; it only halves the numpy calls, and with them the
#: GIL handoffs between the two workers, per grid point.
BLOCK_CELLS = 1 << 15
#: A grid's last row goes alone where blocks of this many cells leave it alone.
LONE_ROW_CELLS = 1 << 14
#: Every matrix-vector product of a block runs in row chunks of fewer bytes
#: than this.  OpenBLAS runs a product on one thread below 4096 complex
#: (64 KiB) or 9216 real (72 KiB) cells; above, it hands part of it to its
#: pool thread, which then spins on the core the second block worker needs.
MATVEC_BYTES = 1 << 16


def block_rows(n_cols: int, cells: int | None = None) -> int:
    """Grid points per :func:`channel_sums` block for tables of ``n_cols`` columns:
    ``T_BLOCK`` halved until a block holds at most ``cells or BLOCK_CELLS`` cells.

    Always a power of two: figure1's bytes are the same for blocks of 64 to
    512 rows, not for blocks of 215, 323 or 431.
    """
    rows = T_BLOCK
    while rows > 1 and rows * n_cols > (cells or BLOCK_CELLS):
        rows //= 2
    return rows


def active_lane() -> str:
    """Name of the kernel implementation, recorded in every run's metadata."""
    return "numpy"


#: The buffers of a block worker's workspace and their dtypes; each holds one
#: table of at most a block's rows x (n_max + 2) cells at a time.
_WORKSPACE = {"v": np.complex128, "w": np.float64, "real": np.float64,
              "coef": np.complex128, "aux": np.complex128}


def _table(ws, name: str, shape) -> np.ndarray:
    """A C-contiguous ``shape`` array: new, or the front of the workspace buffer ``name``."""
    dtype = _WORKSPACE[name]
    return np.empty(shape, dtype) if ws is None else np.ndarray(shape, dtype, ws[name])


def _matvec(m, x):
    """``m @ x``, for a 2-D ``m`` in row chunks of fewer than ``MATVEC_BYTES``.

    A chunk is a power of two rows, at least four, so each row sits where the
    BLAS kernel's row groups put it in the whole product.  A lone last row
    joins the chunk before it: numpy takes a one-row product through a dot
    kernel, which rounds differently from the matrix-vector one.
    """
    if m.ndim != 2:
        return m @ x
    rows, row_bytes = m.shape[0], m.shape[1] * m.itemsize
    step = 4
    while step < rows and 2 * step * row_bytes < MATVEC_BYTES:  # ends at 0 bytes a row too
        step *= 2
    if rows <= step + 1:
        return m @ x
    out = np.empty(rows, dtype=np.result_type(m, x))
    x = x.astype(out.dtype, copy=False)
    for start in range(0, rows - 1, step):
        stop = start + step if start + step < rows - 1 else rows
        np.matmul(m[start:stop], x, out=out[start:stop])
    return out


#: The t-independent sector factors, by the formula each evaluates over n.
_SECTOR_FACTORS = {
    "sqrt(n)": lambda n: np.sqrt(n),
    "sqrt(n+1)": lambda n: np.sqrt(n + 1.0),
    "1/sqrt(n+1)": lambda n: 1.0 / np.sqrt(n + 1.0),
    "sqrt(n(n+1))": lambda n: np.sqrt(n * (n + 1.0)),
    "sqrt((n+2)/(n+1))": lambda n: np.sqrt((n + 2.0) / (n + 1.0)),
    "sqrt(n/(n+1))": lambda n: np.sqrt(n / (n + 1.0)),
}


@functools.lru_cache(maxsize=64)
def _sector_factor(formula: str, lo: int, hi: int) -> np.ndarray:
    """``_SECTOR_FACTORS[formula]`` over sectors n = lo..hi-1, computed once per
    range instead of once per block; read-only, since every caller shares it."""
    row = _SECTOR_FACTORS[formula](np.arange(lo, hi, dtype=np.float64))
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=16)
def _sector_rates(half_det_hex: str, g_hex: str, n_cols: int):
    """lam, cos2t and sin2t of the table columns, read-only.

    Keyed by the exact float bits (``float.hex``), so that -0.0 and 0.0,
    which give differently signed zeros, are cached apart.
    """
    half_det, g = float.fromhex(half_det_hex), float.fromhex(g_hex)
    ns = np.arange(-1, n_cols - 1, dtype=np.float64)
    kappa = g * np.sqrt(ns + 1.0)
    lam = np.sqrt(half_det * half_det + kappa * kappa)
    safe = np.where(lam > 0.0, lam, 1.0)
    cos2t = np.where(lam > 0.0, half_det / safe, 1.0)
    sin2t = np.where(lam > 0.0, kappa / safe, 0.0)
    for row in (lam, cos2t, sin2t):
        row.flags.writeable = False
    return lam, cos2t, sin2t


# --- correlation-factor tables ---------------------------------------------

def corr_tables(ts: np.ndarray, half_det: float, g: float, n_cols: int, ws=None):
    """v and w tables of shape (len(ts), n_cols); column j is sector n = j-1."""
    ts = np.asarray(ts, dtype=np.float64)
    lam, cos2t, sin2t = _sector_rates(float(half_det).hex(), float(g).hex(), int(n_cols))
    phase = np.outer(ts, lam, out=_table(ws, "real", (ts.size, lam.size)))
    sin_p = np.sin(phase, out=_table(ws, "w", phase.shape))
    # v holds the bytes of cos(phase) + 1j * cos2t * sin_p, assembled without
    # promoting the float tables to complex; the += 0.0 turns a -0 product
    # into +0 as that expression's complex add does
    v = _table(ws, "v", phase.shape)
    v.real = np.cos(phase, out=phase)
    np.multiply(cos2t, sin_p, out=v.imag)
    v.imag += 0.0
    w = np.multiply(sin2t, sin_p, out=sin_p)
    return v, w


# --- dressing coefficients ---------------------------------------------------

def dressing_a(v, w, lo, hi, rho_uu, rho_dd, ws=None):
    """A_n, the single-quantum band coefficient, for sectors n = lo..hi-1.

    Reads sectors n - 1..n + 1; pristine value 1.
    """
    vn, wn = v[..., lo + 1:hi + 1], w[..., lo + 1:hi + 1]
    # a branch weighted by an exact 0 would add signed zeros to the other one,
    # which has no -0 part at the weight 1 a density then gives it (its complex
    # add makes every -0 imaginary part +0, its real part is a cosine product)
    branches = [(rho, k, factor) for rho, other, k, factor in
                ((rho_uu, rho_dd, 2, "sqrt((n+2)/(n+1))"), (rho_dd, rho_uu, 0, "sqrt(n/(n+1))"))
                if rho != 0.0 or other == 0.0]
    a = None
    for (rho, k, factor), name in zip(branches, ("coef", "aux")):
        term = np.conj(vn, out=_table(ws, name, vn.shape))
        np.multiply(term, v[..., lo + k:hi + k], out=term)
        real = np.multiply(wn, w[..., lo + k:hi + k], out=_table(ws, "real", wn.shape))
        np.add(term, np.multiply(real, _sector_factor(factor, lo, hi), out=real), out=term)
        np.multiply(rho, term, out=term)
        a = term if a is None else np.add(a, term, out=a)
    return a


def _off_diagonal(v, w, lo, hi, rho, conj, first, second, ws):
    """1j rho (w_{n-1} X(v_n) first - w_n X(v_{n-1}) second) over sectors n = lo..hi-1,
    where X conjugates when ``conj`` is set and ``first``, ``second`` name sector factors."""
    terms = []
    for wk, vk, factor, name in ((w[..., lo:hi], v[..., lo + 1:hi + 1], first, "coef"),
                                 (w[..., lo + 1:hi + 1], v[..., lo:hi], second, "aux")):
        term = _table(ws, name, vk.shape)
        np.multiply(wk, np.conj(vk, out=term) if conj else vk, out=term)
        terms.append(np.multiply(term, _sector_factor(factor, lo, hi), out=term))
    coef = np.subtract(terms[0], terms[1], out=terms[0])
    return np.multiply(1j * rho, coef, out=coef)


def dressing_c(v, w, lo, hi, rho_du, ws=None):
    """C_n, the two-quantum |n-1><n+1| coefficient, for sectors n = lo..hi-1."""
    return _off_diagonal(v, w, lo, hi, rho_du, True, "sqrt(n+1)", "sqrt(n)", ws)


def dressing_d(v, w, lo, hi, rho_ud, ws=None):
    """D_n, the quantum-conserving diagonal |n><n| coefficient, for sectors n = lo..hi-1."""
    return _off_diagonal(v, w, lo, hi, rho_ud, False, "sqrt(n)", "sqrt(n+1)", ws)


def dressing_n(v, w, lo, hi, rho_uu, rho_dd, rho_ud):
    """Quasi-number |n><n| entries n + rho_uu w_n² - rho_dd w_{n-1}² and |n+1><n|
    entries -i rho_ud w_n v_n (|n><n+1| holds their conjugates), sectors n = lo..hi-1."""
    n = np.arange(lo, hi, dtype=np.float64)
    vn, wn = v[..., lo + 1:hi + 1], w[..., lo + 1:hi + 1]
    return n + rho_uu * wn ** 2 - rho_dd * w[..., lo:hi] ** 2, -1j * rho_ud * wn * vn


def inversion_series(v, w, lo, hi, p, p1, alpha, ws=None):
    """(s1, s2, s3) of the dressed inversion over sectors n = lo..hi-1.

    s1 = 1 - 2 sum p(n) w_n², s2 = -1 + 2 sum p(n+1) w_n² and
    s3 = -2i alpha sum p(n) w_n conj(v_n) / sqrt(n+1), with ``p`` and ``p1``
    indexed by sector.  The s3 term of sector n pairs the coherent
    amplitudes n and n + 1, so s3 stops one sector earlier, at n = hi - 2.
    """
    vn, wn = v[..., lo + 1:hi + 1], w[..., lo + 1:hi + 1]
    w2 = np.square(wn, out=_table(ws, "real", wn.shape))
    s1 = 1.0 - 2.0 * _matvec(w2, p[lo:hi])
    s2 = -1.0 + 2.0 * _matvec(w2, p1[lo:hi])
    root = _sector_factor("1/sqrt(n+1)", lo, hi - 1)
    s3_terms = np.conj(vn[..., :-1], out=_table(ws, "coef", vn[..., :-1].shape))
    np.multiply(wn[..., :-1], s3_terms, out=s3_terms)
    s3 = -2j * alpha * np.multiply(p[lo:hi - 1] * root, s3_terms, out=s3_terms).sum(axis=-1)
    return s1, s2, s3


def spin_plus_terms(v, w, lo, hi, p, alpha):
    """Per-sector terms of the dressed raising operator's s1..s4, sectors n = lo..hi-1.

    Each carries the Poisson weight p(n); both factors of the s1 term are
    conjugated; s2..s4 divide by ``alpha``.  Their sums over the last axis are the series.
    """
    n = np.arange(lo, hi, dtype=np.float64)
    p = p[lo:hi]
    vn, wn = v[..., lo + 1:hi + 1], w[..., lo + 1:hi + 1]
    vm, wm = v[..., lo:hi], w[..., lo:hi]
    t1 = p * np.conj(vn) * np.conj(vm)
    t2 = p * wn * wm * (np.conj(alpha) / alpha) * np.sqrt(n / (n + 1.0))
    t3 = -1j * p * np.conj(vn) * wm * np.sqrt(n) / alpha
    t4 = 1j * p * np.conj(vm) * wn * np.conj(alpha) / np.sqrt(n + 1.0)
    return t1, t2, t3, t4


# --- fused channel sums ------------------------------------------------------

#: dtypes of the eight outputs of :func:`channel_sums`, in order.
_SUM_DTYPES = (np.float64, np.float64, np.complex128, np.complex128,
               np.float64, np.float64, np.float64, np.float64)


def _block_workers(n_blocks: int) -> int:
    """Threads that reduce ``n_blocks`` blocks: the caller, plus one helper when
    there are two blocks or more and this process may run on two CPUs or more."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 2 if n_blocks > 1 and (cpus or 1) > 1 else 1


def channel_sums(ts, n_max, half_det, g, omega, p, p1, alpha, rho_uu, rho_dd, rho_ud):
    """Every closed-form channel sum over the grid ``ts``.

    Returns (s1z, s2z, s3z, quasi_a, quasi_n, qpl_dev, qpl_cd, qpl_abs_a).
    The tables are built and reduced one block of ``block_rows(n_max + 2)``
    grid points at a time, in one workspace per worker, so their memory stays
    O(BLOCK_CELLS) for any grid length.  The caller and, with two blocks or
    more, one helper thread claim the blocks in turn and write each block's
    rows into the outputs; no byte depends on which of them reduced a block.
    """
    ts = np.asarray(ts, dtype=np.float64)
    args = (int(n_max), float(half_det), float(g), float(omega),
            np.asarray(p, dtype=np.float64), np.asarray(p1, dtype=np.float64),
            complex(alpha), float(rho_uu), float(rho_dd), complex(rho_ud))
    rows = block_rows(args[0] + 2)
    # numpy takes a one-row block through a dot kernel, which rounds differently
    # from the matrix-vector one: the last row goes alone exactly where blocks of
    # LONE_ROW_CELLS leave it alone, so no budget from there up moves a byte
    last = len(ts) - (len(ts) % block_rows(args[0] + 2, LONE_ROW_CELLS) == 1)
    edges = [*range(0, last, rows), last, len(ts)]
    blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
    n_blocks = len(blocks)
    sums = tuple(np.empty(len(ts), dtype=dtype) for dtype in _SUM_DTYPES)
    # next() on a count is atomic under the GIL; a claim duplicated without
    # one would only reduce a block twice, to the same bytes
    claims = itertools.count()
    errors = []  # the first error stops both workers

    def reduce_blocks():
        ws = {name: np.empty(min(rows, len(ts)) * (args[0] + 2), dtype)
              for name, dtype in _WORKSPACE.items()}
        for k in claims:
            if k >= n_blocks or errors:
                return
            rows_k = blocks[k]
            for out, part in zip(sums, _channel_sums_block(ts[rows_k], *args, ws)):
                out[rows_k] = part

    if _block_workers(n_blocks) == 1:
        reduce_blocks()
        return sums

    # numpy keeps its floating-point error state per thread: hand the caller's on
    err, errcall = np.geterr(), np.geterrcall()

    def helper():
        try:
            with np.errstate(call=errcall, **err):
                reduce_blocks()
        except BaseException as exc:  # re-raised on the caller below
            errors.append(exc)

    thread = threading.Thread(target=helper, name="jcsubdyn-channel-sums", daemon=True)
    thread.start()
    try:
        reduce_blocks()
    except BaseException as exc:
        errors.append(exc)
        raise
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return sums


def _has_negative_zero(x) -> bool:
    """Whether a real or imaginary part of the complex array ``x`` is -0."""
    parts = x.view(np.float64)
    return bool(np.signbit(parts[parts == 0.0]).any())


def _channel_sums_block(ts, n_max, half_det, g, omega, p, p1, alpha,
                        rho_uu, rho_dd, rho_ud, ws=None):
    """Every channel sum over one (len(ts), n_max + 2) table pair, kept in ``ws`` if given."""
    v, w = corr_tables(ts, half_det, g, n_max + 2, ws)
    ns = np.arange(n_max + 1, dtype=np.float64)

    # column slices in sector coordinates: idx j = n + 1
    vn = v[:, 1:]            # v_n,   n = 0..n_max
    wn = w[:, 1:]
    wm = w[:, :-1]           # w_{n-1}

    s1z, s2z, s3z = inversion_series(v, w, 0, n_max + 1, p, p1, alpha, ws)

    root = _sector_factor("1/sqrt(n+1)", 0, n_max)
    quasi_n = _matvec(np.square(wn, out=_table(ws, "real", wn.shape)), p * rho_uu)
    if rho_dd != 0.0:  # at rho_dd == 0 this subtracts +0, which changes no value
        quasi_n = quasi_n - _matvec(np.square(wm, out=_table(ws, "real", wm.shape)), p * rho_dd)
    quasi_n = quasi_n + float(ns @ p)
    # at rho_ud == 0 the cross term is a signed zero, and a sum ending in n p(n) >= +0 is never -0
    if rho_ud != 0:
        terms = np.multiply(wn[:, :-1], vn[:, :-1], out=_table(ws, "coef", (len(ts), n_max)))
        np.multiply(p[:-1] * root, terms, out=terms)
        cross = -1j * rho_ud * np.conj(alpha) * terms.sum(axis=1)
        quasi_n = quasi_n + 2.0 * cross.real

    # each coefficient table is reduced to its sums before the next takes its buffer
    a_coef = dressing_a(v, w, 0, n_max, rho_uu, rho_dd, ws)
    moduli = _table(ws, "real", a_coef.shape)
    a_sum = _matvec(a_coef, p[:-1])
    a_dev = np.subtract(a_coef, 1.0, out=_table(ws, "aux", a_coef.shape))
    qpl_dev = _matvec(np.abs(a_dev, out=moduli), p[:-1])
    qpl_abs_a = _matvec(np.abs(a_coef, out=moduli), p[:-1])
    # at rho_ud == 0, C_n and D_n are signed zeros too (their moduli sum to +0): added
    # to alpha * a_sum they move only its -0 parts, found at alpha = 0 or on underflow
    if rho_ud == 0 and not _has_negative_zero(alpha * a_sum):
        quasi_a, qpl_cd = np.exp(-1j * omega * ts) * (alpha * a_sum), np.zeros(len(ts))
        return s1z, s2z, s3z, quasi_a, quasi_n, qpl_dev, qpl_cd, qpl_abs_a
    d_coef = dressing_d(v, w, 0, n_max + 1, rho_ud, ws)
    d_sum = _matvec(d_coef, p)
    qpl_cd = _matvec(np.abs(d_coef, out=_table(ws, "real", d_coef.shape)), p)
    c_coef = dressing_c(v, w, 1, n_max, np.conj(rho_ud), ws)
    c_sum = _matvec(c_coef, p[:-2] / _sector_factor("sqrt(n(n+1))", 1, n_max))
    qpl_cd = qpl_cd + _matvec(np.abs(c_coef, out=_table(ws, "real", c_coef.shape)), p[1:-1])

    rot = np.exp(-1j * omega * ts)
    quasi_a = rot * (alpha * a_sum + alpha * alpha * c_sum + d_sum)

    return s1z, s2z, s3z, quasi_a, quasi_n, qpl_dev, qpl_cd, qpl_abs_a
