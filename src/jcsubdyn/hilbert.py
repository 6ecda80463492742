"""Truncated Fock space, two-level atom, and their tensor product.

Conventions fixed here and used by every other module:

* Photon basis ``|0>..|n_max>`` (dimension ``n_max + 1``); the truncated
  creation operator annihilates ``|n_max>``.
* Atom basis ordered ``(|up>, |down>)`` with ``sigma_z |up> = +|up>``;
  index 0 is up, index 1 is down.
* Composite basis is photon-major: ``|n, s> -> 2*n + s``.  Equivalently,
  composite operators are ``np.kron(photon_op, atom_op)``.  This makes the
  exchange-coupled pairs ``{|n, up>, |n+1, down>}`` near-diagonal bands.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .numerics import require_finite, require_hermitian

__all__ = [
    "UP",
    "DOWN",
    "ATOM_DIM",
    "FockSpace",
    "annihilation",
    "number_op",
    "ladder_ops",
    "Paulis",
    "pauli_ops",
    "quadrature_ops",
    "CoherentState",
    "coherent_state",
    "poisson_weights",
    "auto_n_max",
    "embed_photon",
    "embed_atom",
    "tensor_product",
    "partial_trace",
    "require_atom_density",
    "require_density",
]

UP, DOWN = 0, 1
ATOM_DIM = 2

#: Truncation is considered faithful when the coherent tail mass stays below this.
DEFAULT_TAIL_TOL = 1e-10

#: Gap a density matrix may show in Hermiticity, in unit trace and below zero
#: in its eigenvalues.
_DENSITY_TOL = 1e-10
#: Largest truncation :func:`auto_n_max` searches.
_AUTO_N_MAX_LIMIT = 100000


@dataclass(frozen=True)
class FockSpace:
    """Photon Hilbert space truncated at occupation ``n_max``."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, numbers.Integral) or isinstance(self.n_max, bool):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


def annihilation(space: FockSpace) -> np.ndarray:
    """a with a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, space.dim, dtype=np.float64)), 1).astype(np.complex128)


def number_op(space: FockSpace) -> np.ndarray:
    return np.diag(np.arange(space.dim, dtype=np.float64)).astype(np.complex128)


def ladder_ops(space: FockSpace):
    """(a, a†, N) on the truncated photon space, with N = a†a."""
    a = annihilation(space)
    adag = a.conj().T
    return a, adag, adag @ a


Paulis = namedtuple("Paulis", ["x", "y", "z", "plus", "minus"])


def pauli_ops() -> Paulis:
    """Standard Pauli matrices in the (|up>, |down>) ordered basis."""
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return Paulis(sx, sy, sz, (sx + 1j * sy) / 2, (sx - 1j * sy) / 2)


def quadrature_ops(space: FockSpace, omega: float):
    """Field quadratures (electric, magnetic) for mode frequency ``omega``.

    electric = i sqrt(omega/2) (a - a†), magnetic = sqrt(omega/2) (a + a†).
    Both are Hermitian; (electric² + magnetic²)/2 equals omega (a†a + 1/2) on
    the rows/columns with n < n_max (the truncated a a† breaks it at the top).
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    a = annihilation(space)
    adag = a.conj().T
    scale = math.sqrt(omega / 2.0)
    return 1j * scale * (a - adag), scale * (a + adag)


def poisson_weights(mean: float, n_max: int) -> np.ndarray:
    """p(n) = exp(-mean) mean^n / n! for n = 0..n_max.

    Uses the running-product recurrence, whose terms cannot overflow; falls
    back to the log domain (lgamma) when exp(-mean) would underflow.  Either
    way p(n) does not depend on ``n_max``.
    """
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if mean == 0.0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    if mean < 700.0:
        p = np.empty(n_max + 1)
        p[0] = math.exp(-mean)
        for n in range(n_max):
            p[n + 1] = p[n] * mean / (n + 1)
        return p
    ns = np.arange(n_max + 1, dtype=np.float64)
    logs = -mean + ns * math.log(mean) - np.array([math.lgamma(n + 1.0) for n in ns])
    return np.exp(logs)


def auto_n_max(mean: float, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest n_max whose Poisson tail mass beyond it is below ``tail_tol``.

    Candidates start at ceil(mean).  The tails of every n up to ``top`` come
    from one cumulative sum, and ``top`` doubles until a candidate meets the
    bound, so the work is linear in the answer.  Searches up to
    ``_AUTO_N_MAX_LIMIT``; a ValueError says that none there meets the bound.

    The closed forms' untruncated top sector differs from the truncated oracle
    by about |alpha| p(n_max - 1), so the CLI uses ``max(auto_n_max(mean), 8)``:
    at |alpha| = 1/64 this gives n_max 2 and an oracle gap of 4e-6 to 8e-6,
    above ``cli.CROSSCHECK_TOL``; at n_max 8 the gap is below 1e-12.
    """
    if not 0 <= mean < _AUTO_N_MAX_LIMIT:  # NaN and inf included
        raise ValueError(f"mean must be in [0, {_AUTO_N_MAX_LIMIT}), got {mean!r}")
    low = top = max(1, int(math.ceil(mean)))
    while True:
        top = min(2 * top, _AUTO_N_MAX_LIMIT)
        tails = 1.0 - np.cumsum(poisson_weights(mean, top))
        hits = np.flatnonzero(tails[low:] < tail_tol)
        if hits.size:
            return low + int(hits[0])
        if top == _AUTO_N_MAX_LIMIT:
            raise ValueError(f"no n_max up to {_AUTO_N_MAX_LIMIT} meets the tail bound "
                             f"{tail_tol:g} at mean {mean:g}")


@dataclass(frozen=True)
class CoherentState:
    """Truncated coherent state |alpha>, alpha = magnitude * exp(i phase).

    ``amplitudes[n] = exp(-|alpha|²/2) alpha^n / sqrt(n!)`` for n <= n_max;
    ``tail_mass`` is the probability weight lost to the truncation.
    """

    magnitude: float
    phase: float
    amplitudes: np.ndarray = field(repr=False)
    tail_mass: float

    @property
    def alpha(self) -> complex:
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))

    @property
    def mean_photons(self) -> float:
        return self.magnitude ** 2

    @property
    def n_max(self) -> int:
        return len(self.amplitudes) - 1

    def weights(self) -> np.ndarray:
        """Poisson weights p(n) = |amplitudes[n]|² recomputed analytically."""
        return poisson_weights(self.mean_photons, self.n_max)

    def density(self) -> np.ndarray:
        """|alpha><alpha| on the truncated space (trace = 1 - tail_mass)."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def coherent_state(magnitude: float, phase: float, space: FockSpace) -> CoherentState:
    if magnitude < 0:
        raise ValueError("magnitude must be >= 0")
    alpha = magnitude * complex(math.cos(phase), math.sin(phase))
    amps = np.empty(space.dim, dtype=np.complex128)
    mean = magnitude ** 2
    if mean < 1400.0:  # exp(-mean/2) stays normal
        amps[0] = math.exp(-mean / 2.0)
        for n in range(space.n_max):
            amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1.0)
    else:
        ns = np.arange(space.dim)
        logmag = -mean / 2.0 + np.where(ns > 0, ns * math.log(max(magnitude, 1e-300)), 0.0)
        logmag -= 0.5 * np.array([math.lgamma(n + 1.0) for n in ns])
        amps = np.exp(logmag) * np.exp(1j * phase * ns)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    return CoherentState(magnitude, phase, amps, tail)


# --- composite space -------------------------------------------------------

def embed_photon(op: np.ndarray) -> np.ndarray:
    """photon_op ⊗ I_atom on the composite space."""
    op = np.asarray(op, dtype=np.complex128)
    return np.kron(op, np.eye(ATOM_DIM, dtype=np.complex128))


def embed_atom(op: np.ndarray, space: FockSpace) -> np.ndarray:
    """I_photon ⊗ atom_op on the composite space."""
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (ATOM_DIM, ATOM_DIM):
        raise ValueError(f"atom operator must be 2x2, got {op.shape}")
    return np.kron(np.eye(space.dim, dtype=np.complex128), op)


def tensor_product(photon_op: np.ndarray, atom_op: np.ndarray) -> np.ndarray:
    """photon_op ⊗ atom_op with the photon-major index convention."""
    atom_op = np.asarray(atom_op, dtype=np.complex128)
    if atom_op.shape != (ATOM_DIM, ATOM_DIM):
        raise ValueError(f"atom operator must be 2x2, got {atom_op.shape}")
    return np.kron(np.asarray(photon_op, dtype=np.complex128), atom_op)


def partial_trace(rho: np.ndarray, over: str) -> np.ndarray:
    """Trace out one factor of a composite operator.

    ``over='photon'`` returns the 2x2 atom marginal; ``over='atom'`` returns
    the photon marginal.  The composite dimension must be even.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] % ATOM_DIM:
        raise ValueError(f"composite matrix of even square shape required, got {rho.shape}")
    nph = rho.shape[0] // ATOM_DIM
    blocks = rho.reshape(nph, ATOM_DIM, nph, ATOM_DIM)
    if over == "photon":
        return np.trace(blocks, axis1=0, axis2=2)
    if over == "atom":
        return np.trace(blocks, axis1=1, axis2=3)
    raise ValueError(f"over must be 'photon' or 'atom', got {over!r}")


# --- density-matrix validation --------------------------------------------

def require_density(rho: np.ndarray, what: str = "density matrix") -> np.ndarray:
    """Validate Hermiticity, unit trace and positive semidefiniteness."""
    rho = require_hermitian(np.asarray(rho, dtype=np.complex128), _DENSITY_TOL, what)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _DENSITY_TOL:
        raise ValueError(f"{what} trace {tr!r} deviates from 1 beyond {_DENSITY_TOL}")
    evals = np.linalg.eigvalsh(rho)
    if float(evals.min()) < -_DENSITY_TOL:
        raise ValueError(f"{what} has negative eigenvalue {evals.min():.3e}")
    return rho


def require_atom_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (ATOM_DIM, ATOM_DIM):
        raise ValueError(f"atom density matrix must be 2x2, got {rho.shape}")
    require_finite(rho, "atom density matrix")
    return require_density(rho, "atom density matrix")
