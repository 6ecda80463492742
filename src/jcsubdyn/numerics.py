"""Minimal dense complex-matrix kernel.

Everything downstream works on plain ``numpy.ndarray`` objects with
``complex128`` entries in row-major order.  This module adds the checked
operations the rest of the package relies on: Hermiticity validation,
Hermitian eigendecomposition and unitarity checks.  The one matrix
exponential, :class:`jcsubdyn.subdyn.SpectralPropagator`, is built on
:func:`eigh_hermitian`: every generator here is Hermitian and small (a few
hundred rows at most), and the spectral route gives unitarity to roundoff,
which scaling-and-squaring does not guarantee.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "max_abs",
    "require_finite",
    "require_hermitian",
    "eigh_hermitian",
    "unitarity_defect",
    "require_unitary",
]

#: Hermiticity tolerance, relative to max(1, max|M|), for every matrix checked,
#: densities included.  The Kraus route's ``eigh`` reads one triangle of its
#: weighting state: with starts 1e-10 off Hermitian the photon-side routes came
#: 1.00-1.16e-9 apart at n_max 170, past ``subdyn.ROUTE_TOL``, in 6 of 24 draws.
HERMITIAN_RTOL = 1e-12
#: Largest entry of |U†U - I| that :func:`require_unitary` accepts; the oracle's
#: eigensystem and Heisenberg-point checks hold :func:`unitarity_defect` to it too.
UNITARY_TOL = 1e-10


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-abs norm; 0 for empty input."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def require_finite(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    if not np.all(np.isfinite(m.view(np.float64) if m.dtype == np.complex128 else m)):
        raise ValueError(f"{what} contains non-finite entries")
    return m


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within :data:`HERMITIAN_RTOL` × max(1, max-abs)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    require_finite(m, what)
    tol = HERMITIAN_RTOL * max(1.0, max_abs(m))
    defect = max_abs(m - m.conj().T)
    if defect > tol:
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e} > tol {tol:.3e}")
    return m


def eigh_hermitian(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real ascending
    and eigenvectors as unitary columns.  Rejects input that
    :func:`require_hermitian` rejects.
    """
    m = require_hermitian(m)
    evals, evecs = np.linalg.eigh(m)
    return evals, evecs


def unitarity_defect(u: np.ndarray) -> float:
    """max |U†U - I| entrywise."""
    u = np.asarray(u)
    return max_abs(u.conj().T @ u - np.eye(u.shape[0]))


def require_unitary(u: np.ndarray, what: str = "operator") -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise ValueError(f"{what} is not unitary: defect {defect:.3e} > tol {UNITARY_TOL:.3e}")
    return u
