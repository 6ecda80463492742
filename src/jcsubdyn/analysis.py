"""Physics diagnostics on top of the closed forms.

Time-series evaluation over a gt grid, the dressed-inversion spectrum
(offset and dispersion), the conservation (back-action) audit, the
quasi-particle-likeness metrics, and collapse/revival feature extraction.

Grid convention: grid values are in units of g*t when g > 0; for a free run
(g = 0) they are interpreted as plain times.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels, hilbert, jcm, subdyn
from .numerics import max_abs, require_hermitian

__all__ = [
    "Scenario",
    "TimeSeries",
    "DEFAULT_CHANNELS",
    "ORACLE_CHANNELS",
    "observable_series",
    "SigmaZSpectrum",
    "sigma_z_spectrum",
    "ConservationAudit",
    "conservation_audit",
    "QplMetrics",
    "qpl_dominance",
    "CollapseRevivalFeatures",
    "collapse_revival_features",
]

DEFAULT_CHANNELS = (
    "abs_quasi_a",
    "quasi_a_re",
    "quasi_a_im",
    "quasi_n",
    "sigma_z_mean",
    "sigma_z_offset",
    "sigma_z_dispersion",
    "sigma_z_upper",
    "sigma_z_lower",
    "conservation_residual",
    "qpl_ratio",
    "qpl_deviation",
)

#: Channels that also exist in brute-force form (prefixed ``oracle_``).
ORACLE_CHANNELS = (
    "abs_quasi_a",
    "quasi_n",
    "sigma_z_mean",
    "sigma_z_offset",
    "sigma_z_upper",
    "sigma_z_lower",
    "conservation_residual",
)


#: Largest phase rate x time a scenario may reach: there one ulp of the phase
#: (eps x phase) is 1e-6, the closed-vs-oracle tolerance ``cli.CROSSCHECK_TOL``,
#: so no channel keeps even that many digits beyond it.  About 4.5e9.
MAX_PHASE = 1e-6 / np.finfo(np.float64).eps
#: Largest dense work d³ + 2 d² steps (d = 2 (n_max + 1)) an oracle scenario may
#: ask for: one eigendecomposition, then two kets evolved over every step.
#: n_max 327 at 2000 points is 2.0e9 and takes about 1.6 s; at n_max 3000 one
#: dense matrix alone holds 576 MB.
MAX_ORACLE_WORK = 4e9
#: An oracle's ‖H‖ t, ‖H‖ <= omega (n_max + 1) + |omega0| + g sqrt(n_max + 1), may reach
#: MAX_PHASE / this: its channels drift by up to 1.5 eps ‖H‖ t (130 draws up to 4e9).
ORACLE_PHASE_SAFETY = 2.0
#: Most table cells steps x (n_max + 2) a scenario's closed path may reduce: about
#: 6.5 s at 65 ns a cell (n_max 300-3000, two block workers on a 2-vCPU Xeon).
MAX_TABLE_CELLS = 1e8
#: Most output values steps x (channels + oracle twins + gt) a scenario may ask for:
#: about 250 MB of JSON (25 B a value) or 190 MB of CSV (19 B), 80 MB as arrays.
MAX_OUTPUT_VALUES = 1e7


@dataclass(frozen=True)
class Scenario:
    """One fully specified run: model, initial states, grid and outputs."""

    params: jcm.JcmParams
    atom_init: np.ndarray = field(repr=False)
    magnitude: float = 0.0
    phase: float = 0.0
    grid: tuple[float, float, int] = (0.0, 50.0, 2000)
    channels: tuple[str, ...] = DEFAULT_CHANNELS
    oracle: bool = False

    def __post_init__(self):
        start, stop, steps = self.grid
        if not isinstance(steps, numbers.Integral) or isinstance(steps, bool):
            raise ValueError(f"grid steps must be an integer, got {steps!r}")
        if steps < 2:
            raise ValueError(f"grid needs at least 2 steps, got {steps}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"grid start and stop must be finite, got [{start}, {stop}]")
        if not stop > start:
            raise ValueError(f"grid stop must exceed start, got [{start}, {stop}]")
        p = self.params
        if not isinstance(self.oracle, bool):  # bool("false") is True
            raise ValueError(f"oracle must be true or false, got {self.oracle!r}")
        h_bound = p.omega * (p.n_max + 1) + abs(p.omega0) + p.g * math.sqrt(p.n_max + 1)
        if self.oracle and not math.isfinite(h_bound):
            raise ValueError("the oracle's truncated Hamiltonian overflows: "
                             "omega (n_max + 1) + |omega0| + g sqrt(n_max + 1) is not finite")
        d = hilbert.ATOM_DIM * (int(p.n_max) + 1)
        work = d ** 3 + 2 * d * d * int(steps)
        if self.oracle and not work <= MAX_ORACLE_WORK:
            raise ValueError(f"the oracle's dense work d³ + 2 d² steps is {work:.3g} at d = {d}, "
                             f"over {MAX_ORACLE_WORK:.3g} (lower n_max or the grid steps)")
        if not (cells := int(steps) * (int(p.n_max) + 2)) <= MAX_TABLE_CELLS:
            raise ValueError(f"the closed path's tables hold steps x (n_max + 2) = {cells:.3g} "
                             f"cells, over {MAX_TABLE_CELLS:.3g} (lower n_max or the grid steps)")
        rate = max(p.omega, abs(p.omega0), p.sector_rate(p.n_max))
        t_max = max(abs(start), abs(stop)) / (p.g if p.g > 0 else 1.0)
        if not rate * t_max <= MAX_PHASE:
            raise ValueError(f"phase rate x time {rate * t_max:.3g} exceeds {MAX_PHASE:.3g}: "
                             f"no phase keeps 1e-6 there (raise g or shorten the grid)")
        if self.oracle and not h_bound * t_max <= MAX_PHASE / ORACLE_PHASE_SAFETY:
            raise ValueError(f"the oracle's phase ‖H‖ x time {h_bound * t_max:.3g} exceeds "
                             f"MAX_PHASE / {ORACLE_PHASE_SAFETY:g} (shorten the grid)")
        hilbert.require_atom_density(self.atom_init)
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude!r}")
        if not math.isfinite(self.magnitude * self.magnitude):
            raise ValueError(f"magnitude squared (the mean photon number) must be finite, "
                             f"got {self.magnitude!r}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase!r}")
        if not self.channels or len(set(self.channels)) < len(self.channels):
            raise ValueError(f"channels must name one channel or more, each once, "
                             f"got {list(self.channels)}")
        unknown = set(self.channels) - set(DEFAULT_CHANNELS)
        if unknown:
            raise ValueError(f"unknown channels: {sorted(unknown)}")
        twins = len(set(self.channels) & set(ORACLE_CHANNELS)) if self.oracle else 0
        if not (values := int(steps) * (len(self.channels) + twins + 1)) <= MAX_OUTPUT_VALUES:
            raise ValueError(f"the output holds steps x (channels + oracle twins + gt) = "
                             f"{values:.3g} values, over {MAX_OUTPUT_VALUES:.3g} "
                             f"(lower the grid steps or the channels)")

    def gt_values(self) -> np.ndarray:
        start, stop, steps = self.grid
        return np.linspace(start, stop, steps)

    def times(self) -> np.ndarray:
        return _times(self.params, self.gt_values())

    def coherent(self) -> hilbert.CoherentState:
        return hilbert.coherent_state(self.magnitude, self.phase, self.params.space)


@dataclass(frozen=True)
class TimeSeries:
    """Channel values on a gt grid, with scenario provenance attached."""

    scenario: Scenario
    gt: np.ndarray = field(repr=False)
    channels: dict = field(repr=False)
    metadata: dict = field(default_factory=dict)

    def channel(self, name: str) -> np.ndarray:
        if name not in self.channels:
            raise KeyError(f"series has no channel {name!r}; have {sorted(self.channels)}")
        return self.channels[name]


def _times(p: jcm.JcmParams, gts: np.ndarray) -> np.ndarray:
    """Times of the grid values ``gts``: gt / g, or the values themselves at g = 0."""
    return gts / p.g if p.g > 0 else gts


def _spectrum(s1, s2, s3):
    """(offset, dispersion) of [[s1, s3], [conj(s3), s2]]: eigenvalues offset ± dispersion."""
    return 0.5 * (s1 + s2), np.hypot(0.5 * (s1 - s2), np.abs(s3))


def _conserved(mean_n, mean_z):
    """<N> + (1/2)<sigma_z>, the constant of motion, from <N> and <sigma_z>."""
    return mean_n + 0.5 * mean_z


#: Grid points per closed-path pass: a whole number of ``T_BLOCK`` rows.  The block and
#: lone-row heights of ``_kernels.channel_sums`` divide ``T_BLOCK``, so each pass's
#: blocks fall where a whole-grid call puts them.
_PASS_POINTS = 128 * _kernels.T_BLOCK


def _closed_channels(scenario: Scenario, coh: hilbert.CoherentState, lhs: float, gts: np.ndarray):
    """Every closed-form channel over the grid values ``gts``."""
    p = scenario.params
    both = hilbert.poisson_weights(coh.mean_photons, p.n_max + 1)  # p(n) and p(n+1)
    rho = scenario.atom_init
    s1z, s2z, s3z, quasi_a, quasi_n, qpl_dev, qpl_cd, qpl_abs_a = _kernels.channel_sums(
        _times(p, gts), p.n_max, p.half_detuning, p.g, p.omega, both[:-1], both[1:],
        coh.alpha, rho[0, 0].real, rho[1, 1].real, complex(rho[0, 1]))
    sigma_mean = (rho[0, 0].real * s1z + rho[1, 1].real * s2z
                  + 2.0 * (rho[1, 0] * s3z).real)
    offset, dispersion = _spectrum(s1z, s2z, s3z)
    return {
        "abs_quasi_a": np.abs(quasi_a),
        "quasi_a_re": quasi_a.real,
        "quasi_a_im": quasi_a.imag,
        "quasi_n": quasi_n,
        "sigma_z_mean": sigma_mean,
        "sigma_z_offset": offset,
        "sigma_z_dispersion": dispersion,
        "sigma_z_upper": offset + dispersion,
        "sigma_z_lower": offset - dispersion,
        "conservation_residual": np.abs(_conserved(quasi_n, sigma_mean) - lhs),
        "qpl_ratio": qpl_cd / np.maximum(qpl_abs_a, 1e-300),
        "qpl_deviation": qpl_dev,
    }


#: Per-point state check of the oracle: max gap of the evolved norms from
#: their t = 0 value and of the up/down overlap from 0.
_STATE_TOL = 1e-10
#: Grid indices at which the oracle also runs both Heisenberg routes: both ends.
_HEISENBERG_POINTS = (0, -1)


def _state_channels(psi: np.ndarray, rho_atom: np.ndarray, a_shift: np.ndarray,
                    n_diag: np.ndarray, z_diag: np.ndarray):
    """Oracle channel values from evolved states ``psi[t, s] = U(t)|alpha, s>``.

    With G_X[t, s, s'] = <psi_s|X|psi_s'>, a photon channel is
    <X>(t) = Tr(rho_atom G_X) and the dressed inversion is the 2x2 matrix
    G_{I⊗sigma_z}.  ``a_shift`` is the superdiagonal of a ⊗ I at offset
    ATOM_DIM, ``n_diag`` and ``z_diag`` the diagonals of N ⊗ I and I ⊗ sigma_z.
    Returns the rows (|<a>|, <N>, <sigma_z>, lower, upper) and the Gram
    matrices G_I.
    """
    shift = hilbert.ATOM_DIM
    ket = psi.transpose(0, 2, 1)
    bra = np.conjugate(psi)
    gram = bra @ ket
    # one scratch array holds each <psi_s|X in turn: every X here is diagonal,
    # or for a ⊗ I a superdiagonal ATOM_DIM indices off, so <psi_s|X is elementwise
    g_n = np.multiply(bra, n_diag, out=bra) @ ket
    g_z = np.multiply(np.conjugate(psi, out=bra), z_diag, out=bra) @ ket
    np.conjugate(psi, out=bra)
    bra[..., :-shift] *= a_shift
    g_a = bra[..., :-shift] @ ket[:, shift:]
    lower, upper = np.linalg.eigvalsh(g_z).T
    weigh = [(rho_atom.T * g).sum(axis=(1, 2)) for g in (g_a, g_n, g_z)]  # Tr(rho G)
    return np.array([np.abs(weigh[0]), weigh[1].real, weigh[2].real, lower, upper]), gram


def _photon_bands(dim: int):
    """Rows sqrt(n) and n of a = sum_n sqrt(n+1) |n><n+1| and N, and the actions
    x -> a x (row n is sqrt(n+1) x[n+1], the last row 0) and x -> N x on a leading leg."""
    n = np.arange(dim, dtype=np.float64)
    root_n = np.sqrt(n)
    return root_n, n, (lambda x: np.vstack((root_n[1:, None] * x[1:], np.zeros_like(x[:1]))),
                       lambda x: n[:, None] * x)


def _oracle_channels(scenario: Scenario, coh: hilbert.CoherentState, lhs: float, gts: np.ndarray):
    """Brute-force versions of the closed-form channels over ``gts``, from two evolved states.

    The composite start is sum_{ss'} rho_ss' |alpha, s><alpha, s'|, so every
    channel is an expectation value in psi_s(t) = U(t)|alpha, s>.  The
    scenario's one eigendecomposition, checked once, evolves both states a
    block of ``_kernels.T_BLOCK`` points at a time.  At every point their
    norms and overlap are checked (``_STATE_TOL``); at ``_HEISENBERG_POINTS``
    both effective-operator routes run as well and their channel values must
    match (``subdyn.ROUTE_TOL``, the gap the two routes keep between them).
    """
    p = scenario.params
    h = jcm.hamiltonian(p).total
    prop = subdyn.SpectralPropagator(h)
    prop.require_eigensystem(h)
    rho_atom = require_hermitian(scenario.atom_init, what="weighting state")
    root_n, n, bands = _photon_bands(p.space.dim)
    sigma_z = hilbert.pauli_ops().z
    # the diagonals of a ⊗ I (ATOM_DIM off), N ⊗ I and I ⊗ sigma_z, photon-major
    layout = (np.repeat(root_n[1:], hilbert.ATOM_DIM), np.repeat(n, hilbert.ATOM_DIM),
              np.tile(np.diagonal(sigma_z).real, p.space.dim))
    amps = coh.amplitudes
    kets = np.zeros((hilbert.ATOM_DIM, hilbert.ATOM_DIM * p.space.dim), dtype=np.complex128)
    for s in (hilbert.UP, hilbert.DOWN):
        kets[s, s::hilbert.ATOM_DIM] = amps  # |alpha, s>
    norm0 = float(np.vdot(amps, amps).real)
    ts = _times(p, gts)
    values = np.empty((5, len(ts)))
    for lo in range(0, len(ts), _kernels.T_BLOCK):
        block = slice(lo, lo + _kernels.T_BLOCK)
        values[:, block], gram = _state_channels(prop.evolve(kets, ts[block]), rho_atom,
                                                 *layout)
        defect = np.maximum(np.abs(np.diagonal(gram, axis1=1, axis2=2) - norm0).max(axis=1),
                            np.abs(gram[:, hilbert.UP, hilbert.DOWN]))
        worst = int(np.argmax(defect))
        if not defect[worst] <= _STATE_TOL:
            raise subdyn.CrossCheckError(
                f"evolved states lose norm or orthogonality at gt = {gts[lo + worst]:g}: "
                f"defect {defect[worst]:.3e} (> {_STATE_TOL:.1e})")

    rho_photon = require_hermitian(coh.density(), what="weighting state")
    atom_factors = subdyn._weight_factors(rho_atom)
    # |alpha><alpha| is pure: its one Kraus factor q chi is the amplitudes (q = 1 if all are 0)
    root = math.sqrt(norm0) or 1.0
    photon_factors = (np.array([root]), (amps / root)[:, None])
    for k in _HEISENBERG_POINTS:
        u = subdyn.require_unitary(prop(ts[k]), "propagator")
        eff_a, eff_n = subdyn._effective_matrices(u, "photon", bands, rho_atom, atom_factors)
        (eff_z,) = subdyn._effective_matrices(u, "atom", (lambda x: sigma_z @ x,),
                                              rho_photon, photon_factors)
        routes = (abs(amps.conj() @ eff_a @ amps), (amps.conj() @ eff_n @ amps).real,
                  np.trace(eff_z @ rho_atom).real, *np.linalg.eigvalsh(eff_z))
        gap = float(np.max(np.abs(np.array(routes) - values[:, k])))
        if not gap <= subdyn.ROUTE_TOL:
            raise subdyn.CrossCheckError(
                f"Heisenberg routes and evolved states disagree at gt = {gts[k]:g} "
                f"by {gap:.3e} (> {subdyn.ROUTE_TOL:.1e})")

    abs_a, quasi_n, mean_z, lower, upper = values
    return {
        "oracle_abs_quasi_a": abs_a,
        "oracle_quasi_n": quasi_n,
        "oracle_sigma_z_mean": mean_z,
        "oracle_sigma_z_offset": 0.5 * (upper + lower),
        "oracle_sigma_z_upper": upper,
        "oracle_sigma_z_lower": lower,
        "oracle_conservation_residual": np.abs(_conserved(quasi_n, mean_z) - lhs),
    }


def observable_series(scenario: Scenario, tail_tol: float = hilbert.DEFAULT_TAIL_TOL) -> TimeSeries:
    """Evaluate the requested channels over the scenario's gt grid.

    Closed forms always, ``_PASS_POINTS`` grid points at a time, kept only for the
    requested channels and the oracle's; brute-force twins as ``oracle_*`` channels
    when the scenario asks for them.  Metadata records the coherent tail mass (and
    flags it when it violates ``tail_tol``), the kernel lane, and, with the
    oracle on, the worst closed-vs-oracle deviation per channel.
    """
    gts, coh, rho = scenario.gt_values(), scenario.coherent(), scenario.atom_init
    lhs = _conserved(coh.mean_photons, rho[0, 0].real - rho[1, 1].real)
    keep = set(scenario.channels) | set(ORACLE_CHANNELS if scenario.oracle else ())
    worst = []
    for lo in range(0, len(gts), _PASS_POINTS):  # at least once: a grid has 2 steps or more
        out = _closed_channels(scenario, coh, lhs, gts[lo:lo + _PASS_POINTS])
        # the outputs come after the first pass's sums: allocated before them, they
        # slowed the `sweep` benchmark by about 10 % in 10 of 10 pairs
        if lo == 0:
            closed = {name: np.empty(len(gts)) for name in keep}
        worst.append(out["conservation_residual"].max())
        for name in keep:
            closed[name][lo:lo + _PASS_POINTS] = out[name]
        del out  # the next pass's sums take its place
    channels = {name: closed[name] for name in scenario.channels}
    metadata = {
        "tail_mass": coh.tail_mass,
        "tail_ok": bool(coh.tail_mass < tail_tol),
        "kernel_lane": _kernels.active_lane(),
        "conservation_lhs": lhs,
        "conservation_residual_max": float(np.max(worst)),  # np.max, unlike max, keeps a NaN
    }
    if scenario.oracle:
        oracle = _oracle_channels(scenario, coh, lhs, gts)
        channels.update({f"oracle_{n}": oracle[f"oracle_{n}"] for n in scenario.channels
                         if n in ORACLE_CHANNELS})
        deviations = {
            name: float(np.max(np.abs(closed[name] - oracle[f"oracle_{name}"])))
            for name in ORACLE_CHANNELS
        }
        metadata["oracle_deviation"] = deviations
        metadata["oracle_deviation_max"] = max(deviations.values())
    return TimeSeries(scenario, gts, channels, metadata)


# --- dressed-inversion spectrum ------------------------------------------------

@dataclass(frozen=True)
class SigmaZSpectrum:
    """Offset/dispersion form of the dressed inversion's two eigenvalues."""

    t: float
    offset: float
    dispersion: float

    @property
    def upper(self) -> float:
        return self.offset + self.dispersion

    @property
    def lower(self) -> float:
        return self.offset - self.dispersion


#: Largest gap :func:`sigma_z_spectrum` allows between its closed form and
#: the eigendecomposition.
_SPECTRUM_TOL = 1e-10


def sigma_z_spectrum(eff: subdyn.EffectiveOperator) -> SigmaZSpectrum:
    """Spectrum of a 2x2 dressed inversion operator: the channels' closed form on its
    entries, cross-checked against the eigendecomposition within ``_SPECTRUM_TOL``."""
    m = eff.matrix
    if m.shape != (2, 2):
        raise ValueError(f"2x2 operator required, got {m.shape}")
    offset, dispersion = _spectrum(m[0, 0].real, m[1, 1].real, m[0, 1])
    evals = np.linalg.eigvalsh(m)
    defect = max(abs(offset - dispersion - evals[0]), abs(offset + dispersion - evals[1]))
    if defect > _SPECTRUM_TOL:
        raise subdyn.CrossCheckError(
            f"spectrum formulas disagree with eigendecomposition by {defect:.3e}")
    return SigmaZSpectrum(eff.t, float(offset), float(dispersion))


# --- conservation (back-action) audit -------------------------------------------

@dataclass(frozen=True)
class ConservationAudit:
    """Constancy of <N_eff(t)> + (1/2)<sigma_z_eff(t)> against its t=0 value."""

    lhs: float
    max_residual: float
    residuals: np.ndarray = field(repr=False)


def conservation_audit(series: TimeSeries, atom_init: np.ndarray,
                       mean_photons: float) -> ConservationAudit:
    """Audit the back-action identity over a series.

    Needs the ``quasi_n`` and ``sigma_z_mean`` channels; the initial states
    must match the ones the series was run with.
    """
    atom_init = hilbert.require_atom_density(atom_init)
    if max_abs(atom_init - series.scenario.atom_init) > 1e-12:
        raise ValueError("atom_init does not match the series scenario")
    mean = series.scenario.magnitude ** 2
    if abs(mean_photons - mean) > 1e-12 * max(1.0, mean):  # sqrt(m) ** 2 may round off m
        raise ValueError("mean photon number does not match the series scenario")
    for name in ("quasi_n", "sigma_z_mean"):
        if name not in series.channels:
            raise ValueError(f"series lacks required channel {name!r}")
    lhs = _conserved(mean_photons, atom_init[0, 0].real - atom_init[1, 1].real)
    residuals = np.abs(_conserved(series.channel("quasi_n"), series.channel("sigma_z_mean")) - lhs)
    return ConservationAudit(lhs, float(residuals.max()), residuals)


# --- quasi-particle-likeness metrics ----------------------------------------------

@dataclass(frozen=True)
class QplMetrics:
    """How far the dressed annihilation sits from its pristine form.

    ``ratio`` is the Poisson-weighted (|C|+|D|)/|A| mass ratio (0 when the
    dressing is carried by A alone), ``weighted_deviation`` the Poisson-
    weighted |A_n - 1|.  The raw per-sector channels are exposed so callers
    are not bound to either aggregation: ``deviation_per_n`` = |A_n - 1| and
    ``rabi_over_detuning`` = 2 g sqrt(n+1) / |detuning| (quasi-particle-like
    behaviour needs this << 1).
    """

    t: float
    ratio: float
    weighted_deviation: float
    deviation_per_n: np.ndarray = field(repr=False)
    rabi_over_detuning: np.ndarray = field(repr=False)


def qpl_dominance(t: float, atom_init: np.ndarray, params: jcm.JcmParams,
                  weights: np.ndarray) -> QplMetrics:
    """Aggregate dressing metrics at one time, weighted by ``weights`` (p(n))."""
    atom_init = hilbert.require_atom_density(atom_init)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (params.n_max + 1,):
        raise ValueError("weights must have one entry per retained photon number")
    # the sectors of the qpl_ratio channel: A_n and C_n need sector n + 1 and
    # stop below n_max; D_n needs sectors n - 1 and n only and runs to n_max
    a, c, d = jcm._photon_coefficients(t, atom_init, params)
    ns = np.arange(params.n_max)
    dev = np.abs(a - 1.0)
    num = float(weights[1:-1] @ np.abs(c) + weights @ np.abs(d))
    den = float(weights[:-1] @ np.abs(a))
    half_det = abs(params.half_detuning)
    with np.errstate(divide="ignore"):
        rabi = np.where(half_det > 0,
                        params.g * np.sqrt(ns + 1.0) / max(half_det, 1e-300),
                        np.inf)
    return QplMetrics(t, num / max(den, 1e-300), float(weights[:-1] @ dev), dev, rabi)


# --- collapse / revival features -----------------------------------------------------

@dataclass(frozen=True)
class CollapseRevivalFeatures:
    """Detected quiet windows and rephasing peaks of an oscillating channel."""

    window_gt: float
    threshold: float
    collapse_detected: bool
    collapse_start: float
    collapse_end: float
    collapse_mid: float
    plateau: float
    collapse_floor: float
    revival_onsets: tuple
    revival_peaks: tuple
    photon_quiet_time: float
    photon_peak_time: float


#: Collapse: the rolling std stays below this fraction of the initial amplitude.
_QUIET_FRACTION = 0.05
#: Revival: the rolling envelope exceeds this multiple of the collapse floor.
_REVIVAL_FACTOR = 3.0
#: Window cells reduced at once by :func:`_rolling`.  Its temporaries stay
#: at 512 KB however dense the grid; unblocked they are steps x window width.
_WINDOW_CELLS = 1 << 16


def _moments(seg: np.ndarray, with_std: bool):
    """Mean, std (None unless ``with_std``) and max |seg - mean| over the last axis.

    ``seg - mean`` is formed once for both; the std takes the reductions
    ``np.std`` runs on it, so the values are those of ``seg.std(axis=-1)``.
    """
    m = seg.mean(axis=-1)
    d = seg - m[..., None]
    dev = np.abs(d).max(axis=-1)
    std = np.sqrt(np.multiply(d, d, out=d).sum(axis=-1) / d.shape[-1]) if with_std else None
    return m, std, dev


def _rolling(y: np.ndarray, half: int, with_std: bool = True):
    """Centered rolling mean / std / max-deviation with edge clamping.

    Interior points reduce rows of a sliding window view, a bounded number
    of rows at a time; the ``2 * half`` clamped edge windows are reduced one
    at a time.  Both use the same numpy reductions on the same segments, so
    the values do not depend on which branch a point falls in.  The std is
    None unless ``with_std``.
    """
    n = len(y)
    mean = np.empty(n)
    std = np.empty(n) if with_std else None
    dev = np.empty(n)
    if n > 2 * half:
        win = sliding_window_view(y, 2 * half + 1)
        rows = max(1, _WINDOW_CELLS // win.shape[1])
        for lo in range(0, len(win), rows):
            block = win[lo:lo + rows]
            out = slice(half + lo, half + lo + len(block))
            mean[out], sd, dev[out] = _moments(block, with_std)
            if with_std:
                std[out] = sd
    for i in itertools.chain(range(min(half, n)), range(max(half, n - half), n)):
        mean[i], sd, dev[i] = _moments(y[max(0, i - half):min(n, i + half + 1)], with_std)
        if with_std:
            std[i] = sd
    return mean, std, dev


def _runs(mask: np.ndarray):
    """Inclusive (start, end) index pairs of the True runs of ``mask``."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def collapse_revival_features(series: TimeSeries,
                              sigma_channel: str = "sigma_z_upper") -> CollapseRevivalFeatures:
    """Detect collapse windows and revival peaks on a dressed-inversion channel.

    Collapse: the centered rolling standard deviation (window of one mean
    exchange period) stays below ``_QUIET_FRACTION`` of the initial
    oscillation amplitude.  Revival: the rectified rolling envelope exceeds
    ``_REVIVAL_FACTOR`` times the collapse floor after the quiet window, with
    an interior local maximum.  ``quasi_n`` extremum times (quietest point
    inside the collapse window, strongest post-collapse deviation) are
    reported for the back-action alignment checks.
    """
    gt = series.gt
    y = series.channel(sigma_channel)
    if len(gt) < 16:
        raise ValueError("series too short for collapse/revival windowing")
    p = series.scenario.params
    mean_n = series.scenario.magnitude ** 2
    ratio = (p.half_detuning / p.g) if p.g > 0 else 0.0
    window_gt = float(math.pi / _kernels.sector_rate(ratio, math.sqrt(mean_n + 1.0)))  # pi g / lam
    dgt = gt[1] - gt[0]
    half = max(1, int(round(0.5 * window_gt / dgt)))
    if 2 * half + 1 >= len(gt):
        raise ValueError("series too short for the detection window")

    mean, std, dev = _rolling(y, half)
    first = y[: max(2 * (2 * half + 1), 8)]
    amp0 = 0.5 * (first.max() - first.min())
    threshold = _QUIET_FRACTION * amp0

    quiet = std < threshold
    runs = [r for r in _runs(quiet) if r[1] - r[0] + 1 >= 2 * half + 1]
    if not runs:
        nan = float("nan")
        return CollapseRevivalFeatures(window_gt, threshold, False, nan, nan, nan, nan,
                                       nan, (), (), nan, nan)
    i0, i1 = runs[0]
    plateau = float(y[i0:i1 + 1].mean())
    floor = float(np.median(dev[i0:i1 + 1]))

    onsets = []
    peaks = []
    post = dev > _REVIVAL_FACTOR * max(floor, 1e-300)
    post[: i1 + 1] = False
    for r0, r1 in _runs(post):
        onsets.append(float(gt[r0]))
        seg = dev[r0:r1 + 1]
        k = int(np.argmax(seg))
        # an envelope still rising at the end of the grid has no peak yet
        if r1 < len(gt) - 1 or (k < len(seg) - 1):
            peaks.append(float(gt[r0 + k]))

    z = series.channel("quasi_n")
    _, _, zdev = _rolling(z, half, with_std=False)
    quiet_k = i0 + int(np.argmin(zdev[i0:i1 + 1]))
    photon_quiet = float(gt[quiet_k])
    photon_peak = float("nan")
    if np.any(post):
        idx = np.flatnonzero(post)
        photon_peak = float(gt[idx[np.argmax(zdev[idx])]])

    return CollapseRevivalFeatures(window_gt, threshold, True, float(gt[i0]), float(gt[i1]),
                                   float(0.5 * (gt[i0] + gt[i1])), plateau, floor,
                                   tuple(onsets), tuple(peaks), photon_quiet, photon_peak)
