"""Brute-force sub-dynamics of a bipartite photon-atom system.

Given any composite Hamiltonian H = H_photon + H_atom + H_coupling this
module evolves product initial states unitarily, reduces to the marginals,
extracts Kraus families from matrix elements of U, and builds effective
(Heisenberg-picture) subsystem operators defined by the trace duality

    Tr[O rho_sub(t)] = Tr[O_eff(t) rho_sub(0)].

Every effective operator is computed by two independent routes (direct
partial contraction of U† (O ⊗ I) U against the other side's initial state,
and an explicit Kraus-member sum) and the two must agree; a discrepancy is
an internal error, not a result.

Truncation caveat: the truncated creation operator annihilates |n_max>, so
the composite state |n_max, up> is dynamically unphysical.  Comparisons of
truncated results against closed forms are meaningful only on the validated
subspace spanned by {|n, down>} ∪ {|n, up>: n < n_max}; see
:func:`composite_validated_indices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    ATOM_DIM,
    DOWN,
    UP,
    CoherentState,
    FockSpace,
    embed_atom,
    embed_photon,
    partial_trace,
    require_atom_density,
    require_density,
)
from .numerics import (UNITARY_TOL, eigh_hermitian, max_abs, require_hermitian, require_unitary,
                       unitarity_defect)

__all__ = [
    "CrossCheckError",
    "BipartiteHamiltonian",
    "assemble_hamiltonian",
    "SpectralPropagator",
    "EvolvedState",
    "evolve_and_reduce",
    "KrausSet",
    "kraus_extract",
    "apply_atom_kraus",
    "apply_photon_kraus",
    "EffectiveOperator",
    "effective_operator",
    "algebra_deviation",
    "composite_validated_indices",
    "validated_defect",
]


#: Largest gap allowed between the two effective-operator routes, and between
#: the Heisenberg routes and the evolved states of the oracle.
ROUTE_TOL = 1e-9


class CrossCheckError(RuntimeError):
    """Two supposedly equivalent computation routes disagreed."""


@dataclass(frozen=True)
class BipartiteHamiltonian:
    """Composite Hamiltonian: the embedded photon and atom parts plus the coupling."""

    space: FockSpace
    total: np.ndarray = field(repr=False)


def assemble_hamiltonian(h_photon: np.ndarray, h_atom: np.ndarray,
                         h_coupling: np.ndarray, space: FockSpace) -> BipartiteHamiltonian:
    """Embed subsystem terms and sum with the composite coupling.

    ``h_photon`` lives on the photon space, ``h_atom`` on the atom space,
    ``h_coupling`` on the composite space; each must be Hermitian.
    """
    h_photon = require_hermitian(h_photon, "photon part")
    h_atom = require_hermitian(h_atom, "atom part")
    h_coupling = require_hermitian(h_coupling, "coupling part")
    if h_photon.shape != (space.dim, space.dim):
        raise ValueError(f"photon part must be {space.dim}x{space.dim}, got {h_photon.shape}")
    if h_atom.shape != (ATOM_DIM, ATOM_DIM):
        raise ValueError(f"atom part must be 2x2, got {h_atom.shape}")
    d = ATOM_DIM * space.dim
    if h_coupling.shape != (d, d):
        raise ValueError(f"coupling must be {d}x{d}, got {h_coupling.shape}")
    return BipartiteHamiltonian(
        space, embed_photon(h_photon) + embed_atom(h_atom, space) + h_coupling)


class SpectralPropagator:
    """exp(-i t H) for many times from a single eigendecomposition H = V E V†.

    Calling it builds the dense propagator at one time; :meth:`evolve`
    propagates a few kets over many times from the same E and V without
    forming any propagator.
    """

    def __init__(self, h: np.ndarray):
        self.evals, self.evecs = eigh_hermitian(h)

    def __call__(self, t: float) -> np.ndarray:
        return (self.evecs * np.exp(-1j * t * self.evals)) @ self.evecs.conj().T

    def evolve(self, kets: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """exp(-i t H)|k> = V (e^{-iEt} ⊙ V†|k>) for every t in ``ts`` and row k of ``kets``.

        Returns shape (len(ts), len(kets), dim).  The cost is one matrix
        product, O(dim²) per state and time; memory is len(ts) x len(kets)
        x dim complex entries, so callers bound it by passing ``ts`` in blocks.
        """
        kets = np.asarray(kets, dtype=np.complex128)
        ts = np.asarray(ts, dtype=np.float64)
        coeffs = kets @ self.evecs.conj()  # row j holds (V†|k_j>)^T
        spectral = np.exp(-1j * np.multiply.outer(ts, self.evals))[:, None, :] * coeffs
        dim = self.evecs.shape[0]
        return (spectral.reshape(-1, dim) @ self.evecs.T).reshape(len(ts), len(kets), dim)

    def require_eigensystem(self, h: np.ndarray) -> None:
        """Check the held decomposition of ``h``; :class:`CrossCheckError` if it is off.

        Checks max|HV - VE| relative to max|H|, and max|V†V - I|, against
        :data:`~jcsubdyn.numerics.UNITARY_TOL`.
        """
        h = np.asarray(h, dtype=np.complex128)
        scale = max_abs(h)
        residual = max_abs(h @ self.evecs - self.evecs * self.evals)
        if scale > 0.0:
            residual /= scale
        defect = unitarity_defect(self.evecs)
        if not (residual <= UNITARY_TOL and defect <= UNITARY_TOL):
            raise CrossCheckError(
                f"eigendecomposition is off: relative |HV - VE| {residual:.3e}, "
                f"|V†V - I| {defect:.3e} (> {UNITARY_TOL:.1e})")


@dataclass(frozen=True)
class EvolvedState:
    t: float
    composite: np.ndarray = field(repr=False)
    atom: np.ndarray = field(repr=False)
    photon: np.ndarray = field(repr=False)


def evolve_and_reduce(ham: BipartiteHamiltonian, rho_photon0: np.ndarray,
                      rho_atom0: np.ndarray, t: float,
                      propagator: SpectralPropagator | None = None) -> EvolvedState:
    """Evolve the product state rho_photon0 ⊗ rho_atom0 and reduce.

    Only product initial states are accepted (the Kraus construction this
    module cross-checks requires them); each factor is validated as a
    density matrix.  Pass a precomputed ``propagator`` when sweeping t.
    """
    rho_photon0 = require_density(rho_photon0, "photon density matrix")
    rho_atom0 = require_atom_density(rho_atom0)
    if rho_photon0.shape != (ham.space.dim, ham.space.dim):
        raise ValueError("photon density matrix does not match the Fock space")
    if propagator is None:
        propagator = SpectralPropagator(ham.total)
    u = propagator(t)
    rho = u @ np.kron(rho_photon0, rho_atom0) @ u.conj().T
    return EvolvedState(t, rho, partial_trace(rho, "photon"), partial_trace(rho, "atom"))


# --- Kraus families ---------------------------------------------------------

@dataclass(frozen=True)
class KrausSet:
    """Indexed family of subsystem matrices extracted from a propagator.

    ``side='atom'``: members[N] is the 2x2 operator <N|U|alpha>, one per
    retained photon number.  ``side='photon'``: members[s, s'] is the
    photon-space operator <s|U|s'> for atomic indices s, s' in (up, down).

    ``completeness_residual`` is the max-abs defect of the completeness sum:
    sum_N W†W vs I_atom on the atom side (equals the coherent tail mass), and
    max over s' of sum_s V†_{ss'} V_{ss'} vs I_photon on the photon side.
    """

    side: str
    members: np.ndarray = field(repr=False)
    completeness_residual: float


def kraus_extract(u: np.ndarray, side: str, coherent: CoherentState | None = None) -> KrausSet:
    """Kraus family from matrix elements of a composite propagator.

    Atom side contracts the photon input leg with the coherent amplitudes
    (pure photon start); photon side uses the atomic basis.
    """
    u = require_unitary(u, "propagator")
    if u.shape[0] % ATOM_DIM:
        raise ValueError("composite dimension must be even")
    nph = u.shape[0] // ATOM_DIM
    u4 = u.reshape(nph, ATOM_DIM, nph, ATOM_DIM)
    if side == "atom":
        if coherent is None:
            raise ValueError("atom-side extraction needs the initial coherent state")
        if coherent.n_max + 1 != nph:
            raise ValueError("coherent state truncation does not match the propagator")
        members = np.einsum("nsmp,m->nsp", u4, coherent.amplitudes)
        gram = np.einsum("nsp,nsq->pq", members.conj(), members)
        residual = max_abs(gram - np.eye(ATOM_DIM))
        return KrausSet("atom", members, float(residual))
    if side == "photon":
        members = np.transpose(u4, (1, 3, 0, 2))  # [s, s', n, m]
        stacked = np.transpose(u4, (3, 1, 0, 2)).reshape(ATOM_DIM, -1, nph)  # [s', (s, n), m]
        gram = stacked.conj().transpose(0, 2, 1) @ stacked  # sum_s V†V for each s'
        return KrausSet("photon", members, float(max_abs(gram - np.eye(nph))))
    raise ValueError(f"side must be 'atom' or 'photon', got {side!r}")


def apply_atom_kraus(kset: KrausSet, rho_atom0: np.ndarray) -> np.ndarray:
    """Atom marginal sum_N W rho W†."""
    if kset.side != "atom":
        raise ValueError("atom-side Kraus set required")
    return np.einsum("nsp,pq,ntq->st", kset.members, rho_atom0, kset.members.conj())


def apply_photon_kraus(kset: KrausSet, rho_photon0: np.ndarray,
                       atom_init: np.ndarray) -> np.ndarray:
    """Photon marginal sum_{s,s1,s2} (rho_atom)_{s2 s1} V_{s s2} rho V†_{s1 s}."""
    if kset.side != "photon":
        raise ValueError("photon-side Kraus set required")
    out = np.zeros_like(rho_photon0, dtype=np.complex128)
    for s in (UP, DOWN):
        for s1 in (UP, DOWN):
            for s2 in (UP, DOWN):
                out += atom_init[s2, s1] * (kset.members[s, s2] @ rho_photon0
                                            @ kset.members[s, s1].conj().T)
    return out


# --- effective (Heisenberg sub-dynamic) operators ---------------------------

@dataclass(frozen=True)
class EffectiveOperator:
    """Heisenberg-picture subsystem operator at a fixed time.

    Satisfies Tr[O rho_sub(t)] = Tr[matrix rho_sub(0)] with the weighting
    state (the other side's initial density matrix) recorded alongside.
    """

    side: str
    t: float
    matrix: np.ndarray = field(repr=False)
    weighting_state: np.ndarray = field(repr=False)


def _weight_factors(weight: np.ndarray):
    """Roots and eigenvectors of a weighting state's eigenvalues above 1e-15 x max(1, largest)."""
    evals, evecs = np.linalg.eigh(weight)
    keep = evals > 1e-15 * max(1.0, float(evals.max(initial=0.0)))
    return np.sqrt(evals[keep]), evecs[:, keep]


def _effective_matrices(u: np.ndarray, side: str, actions, weight: np.ndarray,
                        factors) -> list[np.ndarray]:
    """Direct-route effective matrices on ``side``, each checked against the Kraus route.

    Each of ``actions`` maps x of shape (dim, k), acted-on leg first, to O x:
    ``op @ x`` for a dense ``op``, a shifted or scaled copy for a band one.  ``u``
    is checked unitary and ``weight``, the other side's start, Hermitian; its
    ``factors`` (roots, vecs) give it as (vecs roots)(vecs roots)†.  The atom side
    is the photon side of U with its tensor legs swapped.  Raises
    :class:`CrossCheckError` if the routes disagree beyond :data:`ROUTE_TOL`.
    """
    if u.shape[0] % ATOM_DIM:
        raise ValueError("composite dimension must be even")
    nph = u.shape[0] // ATOM_DIM
    if side == "photon":
        dim, other = nph, ATOM_DIM
    elif side == "atom":
        dim, other = ATOM_DIM, nph
        u = u.reshape(nph, ATOM_DIM, nph, ATOM_DIM).transpose(1, 0, 3, 2).reshape(u.shape)
    else:
        raise ValueError(f"side must be 'atom' or 'photon', got {side!r}")
    if weight.shape != (other, other):
        raise ValueError(f"{side}-side weighting state must be {other}x{other}, got {weight.shape}")
    roots, vecs = factors

    def legs(x):  # [(n, s), (m, c)] -> [n, (s, c, m)], n the acted-on leg
        return x.reshape(dim, other, dim, -1).transpose(0, 1, 3, 2).reshape(dim, -1)

    # the rows of ``act(x).reshape(-1, dim)`` are the summed indices (n, s, c)
    # direct, Tr_other[U†(O⊗I)U(I⊗rho)]: ket = U(I⊗rho), bra = conj U
    ket = legs(u.reshape(-1, other) @ weight)
    bra = legs(u)  # always a copy (other, dim >= 2), so conjugated in place
    bra = np.conjugate(bra, out=bra).reshape(-1, dim).T
    # Kraus: K_{s,j}[n, m] = q_j <n, s|U|m, chi_j>, stored as members[n, (s, j, m)]
    members = legs(u.reshape(-1, other) @ (vecs * roots))
    members_bra = members.reshape(-1, dim).conj().T

    out = []
    for act in actions:
        direct = bra @ act(ket).reshape(-1, dim)
        via_kraus = members_bra @ act(members).reshape(-1, dim)
        defect = max_abs(direct - via_kraus)
        if not defect <= ROUTE_TOL:
            raise CrossCheckError(f"{side}-side effective-operator routes disagree by "
                                  f"{defect:.3e} (> {ROUTE_TOL:.1e})")
        out.append(direct)
    return out


def effective_operator(u: np.ndarray, op: np.ndarray, side: str,
                       other_initial: np.ndarray, t: float = 0.0) -> EffectiveOperator:
    """Effective operator of ``op`` on ``side``, weighted by the other side's start.

    Computes both the direct contraction Tr_other[U†(O⊗I)U (I⊗rho_other)]
    and the Kraus-member sum, and raises :class:`CrossCheckError` if they
    disagree beyond :data:`ROUTE_TOL`.
    """
    other_initial = require_hermitian(other_initial, "weighting state")
    u = require_unitary(u, "propagator")
    op = np.asarray(op, dtype=np.complex128)
    dim = ATOM_DIM if side == "atom" else len(u) // ATOM_DIM
    if op.shape != (dim, dim):
        raise ValueError(f"{side}-side operator must be {dim}x{dim}, got {op.shape}")
    (matrix,) = _effective_matrices(u, side, (lambda x: op @ x,), other_initial,
                                    _weight_factors(other_initial))
    return EffectiveOperator(side, t, matrix, other_initial)


def algebra_deviation(e1: EffectiveOperator, e2: EffectiveOperator,
                      combined: EffectiveOperator, valid_dim: int | None = None) -> float:
    """max |O1_eff O2_eff - (O1 O2)_eff|, the non-preservation of products.

    ``valid_dim`` restricts the comparison to the leading block, masking
    truncation-corrupted rows/columns.
    """
    if not (e1.side == e2.side == combined.side):
        raise ValueError("effective operators live on different sides")
    if not (e1.t == e2.t == combined.t):
        raise ValueError("effective operators taken at different times")
    dev = e1.matrix @ e2.matrix - combined.matrix
    if valid_dim is not None:
        dev = dev[:valid_dim, :valid_dim]
    return max_abs(dev)


# --- validated-subspace helpers ---------------------------------------------

def composite_validated_indices(n_max: int) -> np.ndarray:
    """Composite indices spanning the truncation-faithful subspace.

    Keeps every |n, down> and |n, up> with n < n_max; drops the dangling
    |n_max, up> state whose exchange partner |n_max+1, down> is truncated.
    """
    keep = np.ones(ATOM_DIM * (n_max + 1), dtype=bool)
    keep[2 * n_max + UP] = False
    return np.flatnonzero(keep)


def validated_defect(a: np.ndarray, b: np.ndarray, n_max: int) -> float:
    """max |a - b| over the validated composite subspace."""
    idx = composite_validated_indices(n_max)
    diff = (a - b)[np.ix_(idx, idx)]
    return max_abs(diff)
