"""Closed-form solution of the resonant-exchange (rotating-wave) atom-field model.

The composite Hamiltonian

    H = omega (a†a + 1/2) ⊗ I  +  (omega0/2) I ⊗ sigma_z
        +  g (a ⊗ sigma_+ + a† ⊗ sigma_-)

couples only the pairs {|n, up>, |n+1, down>}, so the propagator factorizes
into 2x2 blocks parameterized by per-sector correlation factors

    lam_n   = sqrt((dw/2)² + g²(n+1)),        dw = omega - omega0
    v_n(t)  = cos(lam_n t) + i (dw/2)/lam_n · sin(lam_n t)
    w_n(t)  = g sqrt(n+1)/lam_n · sin(lam_n t)

with |v_n|² + w_n² = 1 identically.  The boundary sector n = -1 (needed by
every formula that references v_{n-1} or w_{n-1} at n = 0) is the
g·sqrt(n+1) -> 0 limit of the same expressions: v_{-1}(t) = exp(i dw t / 2),
w_{-1} = 0.  It reproduces the exact |0, down> phase for either detuning
sign; the brute-force engine in :mod:`jcsubdyn.subdyn` is the arbiter for
this and every other convention here.

Phase convention: sector n (the pair |n, up>, |n+1, down>) carries the
phase exp(-i omega t (n + 1)), the zero-point term of the field included, so
:func:`closed_evolve` equals exp(-i t H) for the Hamiltonian above.  See
docs/conventions.md.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .hilbert import (
    ATOM_DIM,
    DOWN,
    UP,
    CoherentState,
    FockSpace,
    annihilation,
    embed_atom,
    embed_photon,
    number_op,
    pauli_ops,
    poisson_weights,
    require_atom_density,
)
from .subdyn import (
    BipartiteHamiltonian,
    EffectiveOperator,
    KrausSet,
    kraus_extract,
)

__all__ = [
    "JcmParams",
    "CorrelationFactors",
    "correlation_factors",
    "hamiltonian_parts",
    "hamiltonian",
    "constant_of_motion",
    "closed_evolve",
    "closed_propagator",
    "closed_kraus",
    "closed_marginal",
    "PhotonDressing",
    "photon_dressing",
    "quasi_annihilation",
    "quasi_number",
    "SpinDressing",
    "spin_plus_series",
    "spin_z_series",
    "quasi_sigma_plus",
    "quasi_sigma_minus",
    "quasi_sigma_z",
]

#: Relative size of the last retained series term above which truncation is flagged.
SERIES_TAIL_RTOL = 1e-12


@dataclass(frozen=True)
class JcmParams:
    """Model parameters; energies in units with hbar = 1.

    The detuning omega - omega0 is always derived, never stored.
    """

    omega: float
    omega0: float
    g: float
    n_max: int

    def __post_init__(self):
        for name in ("omega", "omega0", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not math.isfinite(self.detuning):
            raise ValueError(f"detuning omega - omega0 must be finite, got {self.detuning!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        FockSpace(self.n_max)  # an integer >= 1
        if not math.isfinite(lam := self.sector_rate(self.n_max)):
            raise ValueError(f"half_detuning² + g²(n_max + 1), the top sector rate squared, "
                             f"must be finite, got {lam!r}")

    @property
    def detuning(self) -> float:
        return self.omega - self.omega0

    @property
    def half_detuning(self) -> float:
        return 0.5 * (self.omega - self.omega0)

    @property
    def space(self) -> FockSpace:
        return FockSpace(self.n_max)

    def sector_rate(self, n: int) -> float:
        """lam_n, the exchange rate of sector n >= -1: column n + 1 of the tables, bit for bit."""
        return float(_kernels.sector_rate(self.half_detuning, self.g * math.sqrt(n + 1.0)))


@dataclass(frozen=True)
class CorrelationFactors:
    """Per-sector correlation factors at one time."""

    n: int
    lam: float
    theta: float
    v: complex
    w: float


def correlation_factors(n: int, t: float, params: JcmParams) -> CorrelationFactors:
    """Sector factors (lam_n, theta_n, v_n(t), w_n(t)); n >= -1 allowed."""
    if n < -1:
        raise ValueError(f"sector index must be >= -1, got {n}")
    d = params.half_detuning
    kappa = params.g * math.sqrt(n + 1.0)
    lam = math.hypot(d, kappa)
    if kappa > 0.0:
        theta = math.atan2(kappa, d + lam)
    else:
        # kappa = 0: eigenvector-continuity branch of tan(theta) = kappa/(d+lam)
        theta = 0.0 if d >= 0.0 else 0.5 * math.pi
    if lam > 0.0:
        s = math.sin(lam * t)
        v = complex(math.cos(lam * t), (d / lam) * s)
        w = (kappa / lam) * s
    else:
        v, w = 1.0 + 0.0j, 0.0
    return CorrelationFactors(n, lam, theta, v, w)


def _corr_row(t: float, params: JcmParams, lo: int = 0, top: int | None = None):
    """(v, w) rows at one time, for sectors lo - 1..top (default: n_max)."""
    top = params.n_max if top is None else top
    v, w = _kernels.corr_tables(np.array([t], dtype=np.float64), params.half_detuning,
                                params.g, top + 2 - lo, lo)
    return v[0], w[0]


# --- Hamiltonian pieces ------------------------------------------------------

def hamiltonian_parts(params: JcmParams):
    """(photon, atom, coupling) pieces; the first two on their own spaces."""
    space = params.space
    a = annihilation(space)
    adag = a.conj().T
    pauli = pauli_ops()
    h_photon = params.omega * (adag @ a + 0.5 * np.eye(space.dim))
    h_atom = 0.5 * params.omega0 * pauli.z
    h_coupling = params.g * (np.kron(a, pauli.plus) + np.kron(adag, pauli.minus))
    return h_photon, h_atom, h_coupling


def hamiltonian(params: JcmParams) -> BipartiteHamiltonian:
    """Composite H written from its bands, photon-major (|n, s> -> 2n + s), no product formed:
    omega (n + 1/2) ± omega0/2 (up/down) on the diagonal, g sqrt(n+1) between |n, up> and
    |n+1, down>.  Bit for bit ``assemble_hamiltonian(*hamiltonian_parts(params), space)``."""
    n_max, half, d = params.n_max, 0.5 * params.omega0, ATOM_DIM * (params.n_max + 1)
    s = np.sqrt(np.arange(n_max + 1, dtype=np.float64))
    h = np.zeros((d, d), dtype=np.complex128)
    flat, step = h.reshape(-1), ATOM_DIM * (d + 1)  # one sector on: two rows, two columns
    flat[::d + 1] = (np.repeat(params.omega * (s * s + 0.5), ATOM_DIM)
                     + np.tile([half, -half], n_max + 1))  # (up, down)
    for first in (ATOM_DIM + DOWN, (ATOM_DIM + DOWN) * d):  # <0, up|H|1, down> and its mirror
        flat[first:first + n_max * step:step] = params.g * s[1:]
    return BipartiteHamiltonian(params.space, h)


def constant_of_motion(params: JcmParams) -> np.ndarray:
    """N ⊗ I + (1/2) I ⊗ sigma_z, which commutes with the full Hamiltonian."""
    space = params.space
    return embed_photon(number_op(space)) + 0.5 * embed_atom(pauli_ops().z, space)


# --- propagator --------------------------------------------------------------

def closed_evolve(ts, params: JcmParams, kets: np.ndarray) -> np.ndarray:
    """``out[t, k] = U(t) kets[k]``, shape (len(ts), len(kets), dim), from the sector blocks.

    The contract of :meth:`jcsubdyn.subdyn.SpectralPropagator.evolve`: sector
    n = -1..n_max - 1 maps (|n, up>, |n+1, down>) by exp(-i omega t (n + 1))
    [[v_n, -i w_n], [-i w_n, conj(v_n)]], and the dangling |n_max, up> keeps
    its free truncated phase.  Callers bound memory by passing ``ts`` in blocks.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    kets = np.asarray(kets, dtype=np.complex128)
    n_max = params.n_max
    if kets.ndim != 2 or kets.shape[1] != ATOM_DIM * (n_max + 1):
        raise ValueError(f"kets must be rows of the {ATOM_DIM * (n_max + 1)}-dim composite "
                         f"space, got shape {kets.shape}")
    kets = kets.reshape(len(kets), n_max + 1, ATOM_DIM)
    v, w = _kernels.corr_tables(ts, params.half_detuning, params.g, n_max + 2)
    # column j is sector n = j - 1 in both the tables and the padded pair legs
    phase = np.exp(-1j * params.omega * np.multiply.outer(ts, np.arange(n_max + 2)))
    diag_up, diag_dn, cross = (x[:, None, :] for x in (phase * v, phase * np.conj(v),
                                                       -1j * phase * w))
    zero = np.zeros((len(kets), 1), dtype=np.complex128)
    up = np.concatenate([zero, kets[..., UP]], axis=1)      # |n, up>, n = -1..n_max
    dn = np.concatenate([kets[..., DOWN], zero], axis=1)    # |n+1, down>
    out = np.empty((len(ts), len(kets), n_max + 1, ATOM_DIM), dtype=np.complex128)
    out[..., UP] = (diag_up * up + cross * dn)[..., 1:]
    out[..., DOWN] = (diag_dn * dn + cross * up)[..., :-1]
    # diagonal energy of the dangling |n_max, up> state under the truncated H
    e_top = params.omega * (n_max + 0.5) + 0.5 * params.omega0
    out[..., n_max, UP] = np.exp(-1j * e_top * ts)[:, None] * kets[:, n_max, UP]
    return out.reshape(len(ts), len(kets), -1)


def closed_propagator(t: float, params: JcmParams) -> np.ndarray:
    """exp(-i t H) on the truncated space: column k is :func:`closed_evolve` of |k>."""
    return closed_evolve(t, params, np.eye(2 * params.space.dim))[0].T


# --- closed-form Kraus families and marginals --------------------------------

def closed_kraus(side: str, coherent: CoherentState | None, t: float,
                 params: JcmParams) -> KrausSet:
    """Kraus family of the truncated closed-form propagator.

    :func:`jcsubdyn.subdyn.kraus_extract` applied to :func:`closed_propagator`:
    atom side, one 2x2 member <N|U|alpha> per photon number; photon side,
    the four <s|U|s'> operators.  ``coherent`` is needed on the atom side only.
    """
    return kraus_extract(closed_propagator(t, params), side, coherent)


def closed_marginal(side: str, atom_init: np.ndarray, coherent: CoherentState,
                    t: float, params: JcmParams) -> np.ndarray:
    """Reduced density matrix at time t from two closed-form evolved kets.

    The start is sum_{ss'} rho_ss' |alpha, s><alpha, s'|, so with
    psi_s = U(t)|alpha, s> (stored as psi[s, n, a]) the atom marginal is
    sum_{n,ss'} rho_ss' psi_s[n, :] psi_s'[n, :]^† and the photon marginal
    sum_{a,ss'} rho_ss' psi_s[:, a] psi_s'[:, a]^†.
    """
    atom_init = require_atom_density(atom_init)
    if side not in ("atom", "photon"):
        raise ValueError(f"side must be 'atom' or 'photon', got {side!r}")
    if coherent.n_max != params.n_max:
        raise ValueError("coherent state truncation does not match params")
    kets = np.kron(coherent.amplitudes, np.eye(ATOM_DIM))  # row s is |alpha, s>
    psi = closed_evolve(t, params, kets)[0].reshape(ATOM_DIM, params.space.dim, ATOM_DIM)
    if side == "atom":
        return np.einsum("st,sna,tnb->ab", atom_init, psi, psi.conj())
    return np.einsum("st,sna,tma->nm", atom_init, psi, psi.conj())


# --- dressed photon operators -------------------------------------------------

@dataclass(frozen=True)
class PhotonDressing:
    """Sector coefficients of the quasi-annihilation operator.

    ``a1`` dresses single-quantum annihilation |n><n+1|, ``c2`` the
    two-quantum channel |n-1><n+1|, ``d0`` the quantum-conserving diagonal
    |n><n|.  Pristine values are a1 = 1, c2 = d0 = 0.
    """

    n: int
    t: float
    a1: complex
    c2: complex
    d0: complex


def photon_dressing(n: int, t: float, atom_init: np.ndarray, params: JcmParams) -> PhotonDressing:
    """Dressing coefficients of sector n (n >= 0) at time t."""
    if n < 0:
        raise ValueError(f"sector index must be >= 0, got {n}")
    atom_init = require_atom_density(atom_init)
    v, w = _corr_row(t, params, n, n + 1)
    a = _kernels.dressing_a(v, w, n, n + 1, atom_init[UP, UP].real, atom_init[DOWN, DOWN].real)
    c = _kernels.dressing_c(v, w, n, n + 1, atom_init[DOWN, UP])
    d = _kernels.dressing_d(v, w, n, n + 1, atom_init[UP, DOWN])
    return PhotonDressing(n, t, complex(a[0]), complex(c[0]), complex(d[0]))


def _photon_coefficients(t: float, atom_init: np.ndarray, params: JcmParams):
    """A_n (n < n_max), C_n (0 < n < n_max) and D_n (n <= n_max) at time t, for a
    validated ``atom_init``: the sectors of the quasi-annihilation operator."""
    n_max = params.n_max
    v, w = _corr_row(t, params)
    return (_kernels.dressing_a(v, w, 0, n_max, atom_init[UP, UP].real, atom_init[DOWN, DOWN].real),
            _kernels.dressing_c(v[1:], w[1:], 1, n_max, atom_init[DOWN, UP]),
            _kernels.dressing_d(v, w, 0, n_max + 1, atom_init[UP, DOWN]))


def quasi_annihilation(t: float, atom_init: np.ndarray, params: JcmParams) -> EffectiveOperator:
    """Heisenberg-picture annihilation operator of the photon sub-dynamics.

    exp(-i omega t) [ sqrt(n+1) A_n |n><n+1| + C_n |n-1><n+1| + D_n |n><n| ]
    on the truncated window; entries touching photon level n_max reflect the
    exact (untruncated) coefficients.
    """
    atom_init = require_atom_density(atom_init)
    a, c, d = _photon_coefficients(t, atom_init, params)
    m = np.diag(np.sqrt(np.arange(1.0, params.n_max + 1)) * a, 1) + np.diag(c, 2) + np.diag(d)
    return EffectiveOperator("photon", t, cmath.exp(-1j * params.omega * t) * m, atom_init)


def quasi_number(t: float, atom_init: np.ndarray, params: JcmParams) -> EffectiveOperator:
    """Heisenberg-picture number operator of the photon sub-dynamics.

    Diagonal n + rho_uu w_n² - rho_dd w_{n-1}² plus the single off-diagonal
    coherence band; Hermitian whenever the atom start is.
    """
    atom_init = require_atom_density(atom_init)
    n_max = params.n_max
    v, w = _corr_row(t, params)
    diag, band = _kernels.dressing_n(v, w, 0, n_max + 1, atom_init[UP, UP].real,
                                     atom_init[DOWN, DOWN].real, atom_init[UP, DOWN])
    m = np.diag(diag) + np.diag(band[:-1], -1) + np.diag(band[:-1].conj(), 1)
    return EffectiveOperator("photon", t, m, atom_init)


# --- dressed spin operators ----------------------------------------------------

@dataclass(frozen=True)
class SpinDressing:
    """The four series coefficients of a dressed spin component.

    ``tail_ok`` is False when the last retained term of any series exceeds
    1e-12 of its partial sum, i.e. the truncation is suspect.
    """

    kind: str
    t: float
    s1: complex
    s2: complex
    s3: complex
    s4: complex
    tail_ok: bool = True


def _tail_ok(partials: list[tuple[complex, complex]]) -> bool:
    for total, last in partials:
        if abs(last) > SERIES_TAIL_RTOL * max(abs(total), 1.0):
            return False
    return True


def spin_plus_series(t: float, coherent: CoherentState, params: JcmParams) -> SpinDressing:
    """Series coefficients of the dressed raising operator (sums of ``spin_plus_terms``).

    The free limit g = 0 gives the bare Heisenberg phase e^{i omega0 t}, as
    the brute-force engine confirms.  Requires alpha != 0.
    """
    if coherent.magnitude == 0.0:
        raise ValueError("spin series are undefined at alpha = 0; use the "
                         "brute-force effective operator instead")
    if coherent.n_max != params.n_max:
        raise ValueError("coherent state truncation does not match params")
    v, w = _corr_row(t, params)
    terms = _kernels.spin_plus_terms(v, w, 0, params.n_max + 1, coherent.weights(),
                                     coherent.alpha)
    sums = [complex(x.sum()) for x in terms]
    ok = _tail_ok([(s, complex(x[-1])) for s, x in zip(sums, terms)])
    return SpinDressing("plus", t, *sums, tail_ok=ok)


def spin_z_series(t: float, coherent: CoherentState, params: JcmParams) -> SpinDressing:
    """Series coefficients of the dressed inversion operator (s4 = conj(s3)).

    The tail of each series is what dropping the last retained sector
    changes: sector n_max for s1 and s2, n_max - 1 for s3.
    """
    if coherent.n_max != params.n_max:
        raise ValueError("coherent state truncation does not match params")
    v, w = _corr_row(t, params)
    both = poisson_weights(coherent.mean_photons, params.n_max + 1)  # p(n) and p(n+1)
    full, short = ((s1, s2, -2j * coherent.alpha * t3) for _, s1, s2, t3 in
                   (_kernels.inversion_series(v, w, 0, hi, both[:-1], both[1:])
                    for hi in (params.n_max + 1, params.n_max)))
    ok = _tail_ok([(complex(s), complex(s - r)) for s, r in zip(full, short)])
    s1, s2, s3 = float(full[0]), float(full[1]), complex(full[2])
    return SpinDressing("z", t, s1, s2, s3, np.conj(s3), tail_ok=ok)


def quasi_sigma_plus(t: float, coherent: CoherentState, params: JcmParams) -> EffectiveOperator:
    """Heisenberg-picture raising operator of the atom sub-dynamics."""
    s = spin_plus_series(t, coherent, params)
    rot = cmath.exp(1j * params.omega * t)
    m = rot * np.array([[s.s3, s.s1], [s.s2, s.s4]], dtype=np.complex128)
    return EffectiveOperator("atom", t, m, coherent.density())


def quasi_sigma_minus(t: float, coherent: CoherentState, params: JcmParams) -> EffectiveOperator:
    """Adjoint of the dressed raising operator."""
    plus = quasi_sigma_plus(t, coherent, params)
    return EffectiveOperator("atom", t, plus.matrix.conj().T, plus.weighting_state)


def quasi_sigma_z(t: float, coherent: CoherentState, params: JcmParams) -> EffectiveOperator:
    """Heisenberg-picture inversion operator of the atom sub-dynamics; Hermitian."""
    s = spin_z_series(t, coherent, params)
    m = np.array([[s.s1, s.s3], [np.conj(s.s3), s.s2]], dtype=np.complex128)
    return EffectiveOperator("atom", t, m, coherent.density())
