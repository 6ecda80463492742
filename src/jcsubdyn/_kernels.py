"""Grid-hot numeric kernels, in two interchangeable lanes.

The closed-form observable series reduce, at every grid point, a family of
per-sector correlation factors

    lam_n = sqrt(half_det² + g²(n+1))
    v_n(t) = cos(lam_n t) + i (half_det/lam_n) sin(lam_n t)
    w_n(t) = (g sqrt(n+1)/lam_n) sin(lam_n t)

against Poisson weights.  That inner loop dominates the runtime of a
time-series run, so it carries a numba ``@njit`` lane with a pure-numpy
broadcasting lane as fallback.  Lane selection: numba when importable,
unless ``JCSUBDYN_DISABLE_NUMBA=1`` is set in the environment.

Sector index convention: column ``j`` of a correlation table holds sector
``n = j - 1``; the leading ``n = -1`` column is the boundary sector with
``g sqrt(n+1) = 0`` (it evaluates to v = exp(i half_det t), w = 0 through
the same formula, no special casing).

Both lanes return identical values up to summation-order roundoff; a test
compares them.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "USING_NUMBA",
    "active_lane",
    "corr_tables",
    "corr_tables_numpy",
    "channel_sums",
    "channel_sums_numpy",
]

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

USING_NUMBA = HAVE_NUMBA and os.environ.get("JCSUBDYN_DISABLE_NUMBA", "0") != "1"


#: Grid points per table block of the numpy lane.  A block's tables (about
#: T_BLOCK * (n_max + 2) * 24 bytes each) stay cache-sized at the usual
#: truncations, and peak memory no longer grows with the grid length.
T_BLOCK = 512


def active_lane() -> str:
    return "numba" if USING_NUMBA else "numpy"


# --- correlation-factor tables ---------------------------------------------

def corr_tables_numpy(ts: np.ndarray, half_det: float, g: float, n_cols: int):
    """v and w tables of shape (len(ts), n_cols); column j is sector n = j-1."""
    ts = np.asarray(ts, dtype=np.float64)
    ns = np.arange(-1, n_cols - 1, dtype=np.float64)
    kappa = g * np.sqrt(ns + 1.0)
    lam = np.sqrt(half_det * half_det + kappa * kappa)
    safe = np.where(lam > 0.0, lam, 1.0)
    cos2t = np.where(lam > 0.0, half_det / safe, 1.0)
    sin2t = np.where(lam > 0.0, kappa / safe, 0.0)
    phase = np.outer(ts, lam)
    sin_p = np.sin(phase)
    v = np.cos(phase) + 1j * cos2t[None, :] * sin_p
    w = sin2t[None, :] * sin_p
    return v, w


def _corr_row(t, half_det, g, n_cols, v_row, w_row):
    for j in range(n_cols):
        kappa = g * math.sqrt(float(j))  # j = n + 1
        lam = math.sqrt(half_det * half_det + kappa * kappa)
        if lam > 0.0:
            s = math.sin(lam * t)
            v_row[j] = math.cos(lam * t) + 1j * (half_det / lam) * s
            w_row[j] = (kappa / lam) * s
        else:
            v_row[j] = 1.0
            w_row[j] = 0.0


def _channel_sums_impl(ts, n_max, half_det, g, omega, p, p1, alpha,
                       rho_uu, rho_dd, rho_ud):
    """Fused per-grid-point reduction of every closed-form channel.

    Returns (s1z, s2z, s3z, quasi_a, quasi_n, qpl_dev, qpl_cd, qpl_abs_a).
    """
    nt = ts.shape[0]
    n_cols = n_max + 2  # sectors -1..n_max
    s1z = np.empty(nt, np.float64)
    s2z = np.empty(nt, np.float64)
    s3z = np.empty(nt, np.complex128)
    quasi_a = np.empty(nt, np.complex128)
    quasi_n = np.empty(nt, np.float64)
    qpl_dev = np.empty(nt, np.float64)
    qpl_cd = np.empty(nt, np.float64)
    qpl_abs_a = np.empty(nt, np.float64)
    v = np.empty(n_cols, np.complex128)
    w = np.empty(n_cols, np.float64)
    rho_du = rho_ud.conjugate()

    for it in range(nt):
        t = ts[it]
        _corr_row(t, half_det, g, n_cols, v, w)

        acc_w2 = 0.0        # sum p(n) w_n^2,   n = 0..n_max
        acc_w2_s = 0.0      # sum p(n+1) w_n^2, n = 0..n_max
        acc_s3 = 0.0 + 0.0j
        acc_n = 0.0
        acc_n_x = 0.0 + 0.0j
        acc_a = 0.0 + 0.0j
        acc_c = 0.0 + 0.0j
        acc_d = 0.0 + 0.0j
        acc_dev = 0.0
        acc_cd = 0.0
        acc_abs_a = 0.0

        for n in range(n_max + 1):
            j = n + 1
            wn = w[j]
            wm = w[j - 1]
            vn = v[j]
            pn = p[n]
            acc_w2 += pn * wn * wn
            acc_w2_s += p1[n] * wn * wn
            acc_n += pn * (n + rho_uu * wn * wn - rho_dd * wm * wm)

            # diagonal dressing term of the quasi-annihilation operator
            dn = 1j * rho_ud * (wm * vn * math.sqrt(n) - wn * v[j - 1] * math.sqrt(n + 1.0))
            acc_d += dn * pn
            acc_cd += pn * abs(dn)

            if n <= n_max - 1:
                root = 1.0 / math.sqrt(n + 1.0)
                acc_s3 += pn * wn * vn.conjugate() * root
                acc_n_x += pn * wn * vn * root
                an = (rho_uu * (vn.conjugate() * v[j + 1]
                                + wn * w[j + 1] * math.sqrt((n + 2.0) / (n + 1.0)))
                      + rho_dd * (vn.conjugate() * v[j - 1]
                                  + wn * wm * math.sqrt(n / (n + 1.0))))
                acc_a += pn * an
                acc_dev += pn * abs(an - 1.0)
                acc_abs_a += pn * abs(an)
                if n >= 1:
                    cn = 1j * rho_du * (wm * vn.conjugate() * math.sqrt(n + 1.0)
                                        - wn * v[j - 1].conjugate() * math.sqrt(float(n)))
                    acc_c += cn * p[n - 1] / math.sqrt(n * (n + 1.0))
                    acc_cd += pn * abs(cn)

        s1z[it] = 1.0 - 2.0 * acc_w2
        s2z[it] = -1.0 + 2.0 * acc_w2_s
        s3z[it] = -2j * acc_s3 * alpha
        rot = math.cos(omega * t) - 1j * math.sin(omega * t)
        quasi_a[it] = rot * (alpha * acc_a + alpha * alpha * acc_c + acc_d)
        cross = -1j * rho_ud * acc_n_x * alpha.conjugate()
        quasi_n[it] = acc_n + 2.0 * cross.real
        qpl_dev[it] = acc_dev
        qpl_cd[it] = acc_cd
        qpl_abs_a[it] = acc_abs_a

    return s1z, s2z, s3z, quasi_a, quasi_n, qpl_dev, qpl_cd, qpl_abs_a


def channel_sums_numpy(ts, n_max, half_det, g, omega, p, p1, alpha,
                       rho_uu, rho_dd, rho_ud):
    """Table-based (broadcasting) lane of :func:`channel_sums`.

    The tables are built and reduced one block of ``T_BLOCK`` grid points at
    a time, so their memory stays O(T_BLOCK * n_max) for any grid length.
    """
    ts = np.asarray(ts, dtype=np.float64)
    blocks = [_channel_sums_block(ts[i:i + T_BLOCK], n_max, half_det, g, omega, p, p1,
                                  alpha, rho_uu, rho_dd, rho_ud)
              for i in range(0, max(len(ts), 1), T_BLOCK)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _channel_sums_block(ts, n_max, half_det, g, omega, p, p1, alpha,
                        rho_uu, rho_dd, rho_ud):
    """Every channel sum over one (len(ts), n_max + 2) table pair."""
    v, w = corr_tables_numpy(ts, half_det, g, n_max + 2)
    ns = np.arange(n_max + 1, dtype=np.float64)
    rho_du = np.conj(rho_ud)

    # column slices in sector coordinates: idx j = n + 1
    vn = v[:, 1:]            # v_n,   n = 0..n_max
    vm = v[:, :-1]           # v_{n-1}
    wn = w[:, 1:]
    wm = w[:, :-1]

    w2 = wn ** 2
    s1z = 1.0 - 2.0 * (w2 @ p)
    s2z = -1.0 + 2.0 * (w2 @ p1)

    root = 1.0 / np.sqrt(ns[:-1] + 1.0)
    s3_terms = (p[:-1] * root) * (wn[:, :-1] * np.conj(vn[:, :-1]))
    s3z = -2j * alpha * s3_terms.sum(axis=1)

    quasi_n = (w2 @ (p * rho_uu)) - ((wm ** 2) @ (p * rho_dd)) + float(ns @ p)
    cross = -1j * rho_ud * np.conj(alpha) * ((p[:-1] * root) * (wn[:, :-1] * vn[:, :-1])).sum(axis=1)
    quasi_n = quasi_n + 2.0 * cross.real

    # A_n for n = 0..n_max-1 (needs sector n+1)
    na = ns[:-1]
    a_up = np.conj(vn[:, :-1]) * vn[:, 1:] + wn[:, :-1] * wn[:, 1:] * np.sqrt((na + 2.0) / (na + 1.0))
    a_dn = np.conj(vn[:, :-1]) * vm[:, :-1] + wn[:, :-1] * wm[:, :-1] * np.sqrt(na / (na + 1.0))
    a_coef = rho_uu * a_up + rho_dd * a_dn

    d_coef = 1j * rho_ud * (wm * vn * np.sqrt(ns) - wn * vm * np.sqrt(ns + 1.0))

    nc = ns[1:-1]  # n = 1..n_max-1
    c_coef = 1j * rho_du * (wm[:, 1:-1] * np.conj(vn[:, 1:-1]) * np.sqrt(nc + 1.0)
                            - wn[:, 1:-1] * np.conj(vm[:, 1:-1]) * np.sqrt(nc))

    rot = np.exp(-1j * omega * ts)
    quasi_a = rot * (alpha * (a_coef @ p[:-1])
                     + alpha * alpha * (c_coef @ (p[:-2] / np.sqrt(nc * (nc + 1.0))))
                     + d_coef @ p)

    qpl_dev = np.abs(a_coef - 1.0) @ p[:-1]
    qpl_abs_a = np.abs(a_coef) @ p[:-1]
    qpl_cd = np.abs(d_coef) @ p
    qpl_cd = qpl_cd + np.abs(c_coef) @ p[1:-1]

    return s1z, s2z, s3z, quasi_a, quasi_n, qpl_dev, qpl_cd, qpl_abs_a


if USING_NUMBA:
    _corr_row = njit(cache=True)(_corr_row)
    _channel_sums_nb = njit(cache=True)(_channel_sums_impl)

    @njit(cache=True)
    def _corr_tables_nb(ts, half_det, g, n_cols):
        nt = ts.shape[0]
        v = np.empty((nt, n_cols), np.complex128)
        w = np.empty((nt, n_cols), np.float64)
        for it in range(nt):
            _corr_row(ts[it], half_det, g, n_cols, v[it], w[it])
        return v, w

    def corr_tables(ts, half_det, g, n_cols):
        return _corr_tables_nb(np.ascontiguousarray(ts, dtype=np.float64),
                               float(half_det), float(g), int(n_cols))

    def channel_sums(ts, n_max, half_det, g, omega, p, p1, alpha, rho_uu, rho_dd, rho_ud):
        return _channel_sums_nb(np.ascontiguousarray(ts, dtype=np.float64), int(n_max),
                                float(half_det), float(g), float(omega),
                                np.ascontiguousarray(p, dtype=np.float64),
                                np.ascontiguousarray(p1, dtype=np.float64),
                                complex(alpha), float(rho_uu), float(rho_dd),
                                complex(rho_ud))
else:
    corr_tables = corr_tables_numpy

    def channel_sums(ts, n_max, half_det, g, omega, p, p1, alpha, rho_uu, rho_dd, rho_ud):
        return channel_sums_numpy(np.asarray(ts, dtype=np.float64), int(n_max),
                                  float(half_det), float(g), float(omega),
                                  np.asarray(p, dtype=np.float64),
                                  np.asarray(p1, dtype=np.float64),
                                  complex(alpha), float(rho_uu), float(rho_dd),
                                  complex(rho_ud))
