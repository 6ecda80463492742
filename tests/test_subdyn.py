import math

import numpy as np
import pytest

from jcsubdyn import analysis, jcm, subdyn
from jcsubdyn.hilbert import (FockSpace, annihilation, coherent_state, number_op,
                              partial_trace, pauli_ops, require_atom_density)
from jcsubdyn.numerics import max_abs

from conftest import random_density, random_hermitian

EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


@pytest.fixture(scope="module")
def scenario():
    """Entangling exchange scenario: M=10, detuning/g = 10, modest truncation."""
    params = jcm.JcmParams(omega=1.0, omega0=0.8, g=0.02, n_max=45)
    coh = coherent_state(math.sqrt(10.0), 0.0, params.space)
    ham = jcm.hamiltonian(params)
    prop = subdyn.SpectralPropagator(ham.total)
    return params, coh, ham, prop


class TestAssembly:
    def test_noninteracting_spectrum_is_sum_of_parts(self, rng):
        space = FockSpace(4)
        h_ph = random_hermitian(rng, space.dim)
        h_at = random_hermitian(rng, 2)
        ham = subdyn.assemble_hamiltonian(h_ph, h_at, np.zeros((2 * space.dim, 2 * space.dim)),
                                          space)
        got = np.linalg.eigvalsh(ham.total)
        sums = sorted(ep + ea for ep in np.linalg.eigvalsh(h_ph) for ea in np.linalg.eigvalsh(h_at))
        np.testing.assert_allclose(got, sums, atol=1e-12)

    def test_constant_of_motion_commutes(self, scenario):
        params, _, ham, _ = scenario
        c = jcm.constant_of_motion(params)
        assert max_abs(c @ ham.total - ham.total @ c) < 1e-12

    def test_coupling_scaling_only_changes_interaction_block(self, scenario):
        params, _, ham, _ = scenario
        h_ph, h_at, h_c = jcm.hamiltonian_parts(params)
        half = subdyn.assemble_hamiltonian(h_ph, h_at, 0.5 * h_c, params.space)
        np.testing.assert_allclose(ham.total - half.total, 0.5 * h_c, atol=1e-14)

    def test_banded_hamiltonian_equals_assembled_parts_bitwise(self, rng):
        # jcm.hamiltonian writes H from its bands; signed zeros of omega0 included
        draws = np.rint(np.exp(rng.uniform(0.0, math.log(330.0), 21)))  # log-uniform n_max
        for k, n_max in enumerate((1, 2, 330, *draws)):
            omega0 = (0.0, -0.0, rng.uniform(-3.0, 3.0), -(10.0 ** rng.uniform(-6, 3)))[k % 4]
            g = 0.0 if k % 3 == 0 else 10.0 ** rng.uniform(-5, 1)
            p = jcm.JcmParams(10.0 ** rng.uniform(-3, 3), omega0, g, int(n_max))
            ref = subdyn.assemble_hamiltonian(*jcm.hamiltonian_parts(p), p.space).total
            got = jcm.hamiltonian(p).total
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64),
                                          err_msg=repr(p))

    def test_non_hermitian_part_rejected(self):
        space = FockSpace(3)
        bad = np.zeros((space.dim, space.dim), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            subdyn.assemble_hamiltonian(bad, np.eye(2), np.zeros((2 * space.dim, 2 * space.dim)),
                                        space)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subdyn.assemble_hamiltonian(np.eye(3, dtype=complex), np.eye(2, dtype=complex),
                                        np.zeros((8, 8)), FockSpace(3))


class TestEvolveAndReduce:
    def test_zero_time_returns_inputs(self, scenario, rng):
        params, coh, ham, prop = scenario
        rho_at = random_density(rng, 2)
        state = subdyn.evolve_and_reduce(ham, coh.density(), rho_at, 0.0, prop)
        np.testing.assert_allclose(state.atom, rho_at * (1 - coh.tail_mass), atol=1e-10)
        np.testing.assert_allclose(state.photon, coh.density(), atol=1e-12)

    def test_factorized_evolution_without_coupling(self, rng):
        space = FockSpace(6)
        h_ph = random_hermitian(rng, space.dim)
        h_at = random_hermitian(rng, 2)
        ham = subdyn.assemble_hamiltonian(h_ph, h_at, np.zeros((2 * space.dim, 2 * space.dim)),
                                          space)
        rho_ph = random_density(rng, space.dim)
        rho_at = random_density(rng, 2)
        t = 2.3
        state = subdyn.evolve_and_reduce(ham, rho_ph, rho_at, t)
        u_at = subdyn.SpectralPropagator(h_at)(t)
        np.testing.assert_allclose(state.atom, u_at @ rho_at @ u_at.conj().T, atol=1e-10)

    def test_marginals_are_densities(self, scenario):
        params, coh, ham, prop = scenario
        state = subdyn.evolve_and_reduce(ham, coh.density(), EXCITED, 900.0, prop)
        for rho in (state.composite, state.atom, state.photon):
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_interaction_entangles_the_marginal(self, scenario):
        params, coh, ham, prop = scenario
        state = subdyn.evolve_and_reduce(ham, coh.density(), EXCITED, 300.0, prop)
        purity = np.trace(state.atom @ state.atom).real
        assert purity < 0.999
        # consistency with the closed-form dressed inversion
        mean_z = np.trace(pauli_ops().z @ state.atom).real
        closed = jcm.quasi_sigma_z(300.0, coh, params).matrix
        assert abs(mean_z - np.trace(closed @ EXCITED).real) < 1e-9

    def test_correlated_input_impossible_by_construction(self, scenario):
        params, coh, ham, _ = scenario
        with pytest.raises(ValueError):
            subdyn.evolve_and_reduce(ham, coh.density() * 2.0, EXCITED, 1.0)


class TestKrausExtract:
    def test_identity_atom_side(self, scenario):
        params, coh, _, _ = scenario
        eye = np.eye(2 * params.space.dim, dtype=complex)
        kset = subdyn.kraus_extract(eye, "atom", coh)
        for n in range(params.n_max + 1):
            np.testing.assert_allclose(kset.members[n], coh.amplitudes[n] * np.eye(2), atol=1e-15)
        assert abs(kset.completeness_residual - coh.tail_mass) < 1e-12

    def test_identity_photon_side(self, scenario):
        params, _, _, _ = scenario
        dim = params.space.dim
        kset = subdyn.kraus_extract(np.eye(2 * dim, dtype=complex), "photon")
        np.testing.assert_array_equal(kset.members[0, 0], np.eye(dim))
        np.testing.assert_array_equal(kset.members[1, 1], np.eye(dim))
        assert max_abs(kset.members[0, 1]) == 0.0
        assert max_abs(kset.members[1, 0]) == 0.0

    @pytest.mark.parametrize("t", [7.0, 310.0, 1444.0])
    def test_completeness_residual_bounded_by_tail(self, scenario, t):
        params, coh, _, prop = scenario
        u = prop(t)
        atom = subdyn.kraus_extract(u, "atom", coh)
        photon = subdyn.kraus_extract(u, "photon")
        assert atom.completeness_residual <= coh.tail_mass + 1e-10
        assert photon.completeness_residual <= coh.tail_mass + 1e-10

    def test_channel_action_matches_partial_trace(self, scenario, rng):
        params, coh, ham, prop = scenario
        t = 212.0
        u = prop(t)
        rho_at = random_density(rng, 2)
        state = subdyn.evolve_and_reduce(ham, coh.density(), rho_at, t, prop)
        atom_channel = subdyn.apply_atom_kraus(subdyn.kraus_extract(u, "atom", coh), rho_at)
        photon_channel = subdyn.apply_photon_kraus(subdyn.kraus_extract(u, "photon"),
                                                   coh.density(), rho_at)
        np.testing.assert_allclose(atom_channel, state.atom, atol=1e-10)
        np.testing.assert_allclose(photon_channel, state.photon, atol=1e-10)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            subdyn.kraus_extract(np.diag([1.0, 1.0, 0.5, 1.0]).astype(complex), "photon")


class TestEffectiveOperator:
    def test_identity_leaves_operator_alone(self, scenario, rng):
        params, _, _, _ = scenario
        dim = params.space.dim
        op = annihilation(params.space)
        rho_at = random_density(rng, 2)
        eff = subdyn.effective_operator(np.eye(2 * dim, dtype=complex), op, "photon", rho_at)
        np.testing.assert_allclose(eff.matrix, op, atol=1e-13)

    @pytest.mark.parametrize("which", ["a", "n", "plus", "z"])
    def test_trace_duality_against_brute_force(self, scenario, rng, which):
        params, coh, ham, prop = scenario
        rho_at = random_density(rng, 2)
        t = 777.0
        u = prop(t)
        state = subdyn.evolve_and_reduce(ham, coh.density(), rho_at, t, prop)
        pauli = pauli_ops()
        if which in ("a", "n"):
            op = annihilation(params.space) if which == "a" else number_op(params.space)
            eff = subdyn.effective_operator(u, op, "photon", rho_at, t)
            lhs = np.trace(op @ state.photon)
            rhs = np.trace(eff.matrix @ coh.density())
        else:
            op = pauli.plus if which == "plus" else pauli.z
            eff = subdyn.effective_operator(u, op, "atom", coh.density(), t)
            lhs = np.trace(op @ state.atom)
            rhs = np.trace(eff.matrix @ rho_at)
        assert abs(lhs - rhs) < 1e-10

    def test_free_photon_phase(self, scenario):
        params, _, _, _ = scenario
        free = jcm.JcmParams(params.omega, params.omega0, 0.0, params.n_max)
        t = 5.5
        u = subdyn.SpectralPropagator(jcm.hamiltonian(free).total)(t)
        eff = subdyn.effective_operator(u, annihilation(free.space), "photon", EXCITED, t)
        expected = np.exp(-1j * free.omega * t) * annihilation(free.space)
        np.testing.assert_allclose(eff.matrix, expected, atol=1e-12)

    def test_crosscheck_guard_trips_on_impossible_tolerance(self, scenario, rng, monkeypatch):
        params, _, _, prop = scenario
        u = prop(3.0)
        monkeypatch.setattr(subdyn, "ROUTE_TOL", 0.0)
        with pytest.raises(subdyn.CrossCheckError):
            subdyn.effective_operator(u, number_op(params.space), "photon",
                                      random_density(rng, 2), 3.0)

    @pytest.mark.parametrize("side", ["photon", "atom"])
    def test_odd_composite_dimension_refused(self, side):
        with pytest.raises(ValueError, match="^composite dimension must be even$"):
            subdyn.effective_operator(np.eye(5), np.eye(2), side, np.eye(2) / 2)


def mixed_density(rng, dim, rank):
    """Density matrix of exactly ``rank`` with eigenvalues bounded away from 0."""
    m = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    vecs, _ = np.linalg.qr(m)
    probs = rng.uniform(0.2, 1.0, rank)
    probs /= probs.sum()
    return (vecs * probs) @ vecs.conj().T


@pytest.mark.parametrize("defect", [0.0, 5e-13, 1e-11, 5e-11])
def test_one_admission_rule_for_densities(defect):
    """The library, the effective-operator API and the oracle admit the same starts."""
    rho = EXCITED.copy()
    rho[1, 0] = defect  # the (down, up) entry
    params = jcm.JcmParams(1.0, 1.0, 0.02, 10)
    admitters = {
        "require_atom_density": lambda: require_atom_density(rho),
        "effective_operator": lambda: subdyn.effective_operator(
            np.eye(2 * params.space.dim), annihilation(params.space), "photon", rho),
        **{f"Scenario(oracle={oracle})": (lambda oracle=oracle: analysis.Scenario(
            params=params, atom_init=rho, magnitude=1.0, grid=(0.0, 1.0, 3), oracle=oracle))
           for oracle in (False, True)},
    }
    refusals = {}
    for name, admit in admitters.items():
        try:
            admit()
        except ValueError as err:
            refusals[name] = str(err)
    assert len(refusals) in (0, len(admitters)), refusals
    assert bool(refusals) == (defect > 1e-12), refusals
    assert all("\n" not in message for message in refusals.values())


class TestMixedWeightings:
    """Multi-root weightings, which the pure starts of the CLI never produce."""

    @pytest.fixture
    def system(self, rng):
        space = FockSpace(5)
        t = rng.uniform(0.5, 20.0)
        u = subdyn.SpectralPropagator(random_hermitian(rng, 2 * space.dim))(t)
        return space, u, t

    def _ops(self, space, rng):
        pauli = pauli_ops()
        return {
            "photon": [annihilation(space), number_op(space), random_hermitian(rng, space.dim)],
            "atom": [pauli.z, pauli.plus, random_hermitian(rng, 2)],
        }

    @pytest.mark.parametrize("photon_rank", [2, 6])
    def test_both_sides_match_partial_trace_reference(self, system, rng, photon_rank):
        space, u, t = system
        eye_ph, eye_at = np.eye(space.dim), np.eye(2)
        weights = {"photon": mixed_density(rng, 2, 2),
                   "atom": mixed_density(rng, space.dim, photon_rank)}
        for side, ops in self._ops(space, rng).items():
            weight = weights[side]
            assert len(subdyn._weight_factors(weight)[0]) == np.linalg.matrix_rank(weight) >= 2
            for op in ops:
                if side == "photon":
                    dressed = u.conj().T @ np.kron(op, eye_at) @ u
                    ref = partial_trace(dressed @ np.kron(eye_ph, weight), "atom")
                else:
                    dressed = u.conj().T @ np.kron(eye_ph, op) @ u
                    ref = partial_trace(dressed @ np.kron(weight, eye_at), "photon")
                eff = subdyn.effective_operator(u, op, side, weight, t)
                np.testing.assert_allclose(eff.matrix, ref, rtol=0, atol=1e-12)

    def test_multi_operator_core_matches_single_calls(self, system, rng):
        space, u, t = system
        weights = {"photon": mixed_density(rng, 2, 2), "atom": mixed_density(rng, space.dim, 3)}
        for side, ops in self._ops(space, rng).items():
            weight = weights[side]
            actions = [lambda x, op=op: op @ x for op in ops]
            if side == "photon":  # and the oracle's band actions of a and N
                actions += analysis._photon_bands(space.dim)[2]
                ops += ops[:2]
            together = subdyn._effective_matrices(u, side, actions, weight,
                                                  subdyn._weight_factors(weight))
            assert len(together) == len(ops)
            for op, matrix in zip(ops, together):
                single = subdyn.effective_operator(u, op, side, weight, t).matrix
                np.testing.assert_allclose(matrix, single, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("side", ["photon", "atom"])
    def test_dropped_weight_root_trips_crosscheck(self, system, rng, monkeypatch, side):
        space, u, t = system
        weight = mixed_density(rng, 2 if side == "photon" else space.dim, 2)
        op = self._ops(space, rng)[side][0]
        subdyn.effective_operator(u, op, side, weight, t)  # intact factors agree
        factors = subdyn._weight_factors

        def drop_smallest_root(w):
            roots, vecs = factors(w)
            return roots[1:], vecs[:, 1:]

        monkeypatch.setattr(subdyn, "_weight_factors", drop_smallest_root)
        with pytest.raises(subdyn.CrossCheckError):
            subdyn.effective_operator(u, op, side, weight, t)


class TestAlgebraDeviation:
    def _pair(self, params, u, rho_at, t):
        space = params.space
        a = annihilation(space)
        ea = subdyn.effective_operator(u, a, "photon", rho_at, t)
        ead = subdyn.effective_operator(u, a.conj().T, "photon", rho_at, t)
        eaad = subdyn.effective_operator(u, a @ a.conj().T, "photon", rho_at, t)
        return ea, ead, eaad

    def test_identity_propagator_preserves_products(self, scenario):
        params, _, _, _ = scenario
        eye = np.eye(2 * params.space.dim, dtype=complex)
        ea, ead, eaad = self._pair(params, eye, EXCITED, 0.0)
        assert subdyn.algebra_deviation(ea, ead, eaad,
                                        params.n_max - 1) < 1e-12

    def test_free_evolution_preserves_products(self, scenario):
        params, _, _, _ = scenario
        free = jcm.JcmParams(params.omega, params.omega0, 0.0, params.n_max)
        t = 4.2
        u = subdyn.SpectralPropagator(jcm.hamiltonian(free).total)(t)
        ea, ead, eaad = self._pair(free, u, EXCITED, t)
        assert subdyn.algebra_deviation(ea, ead, eaad, free.n_max - 1) < 1e-11

    def test_interaction_breaks_products(self, scenario):
        params, _, _, prop = scenario
        t = 300.0
        ea, ead, eaad = self._pair(params, prop(t), EXCITED, t)
        assert subdyn.algebra_deviation(ea, ead, eaad, params.n_max - 1) > 1e-6

    def test_mismatched_times_rejected(self, scenario):
        params, _, _, prop = scenario
        ea, ead, eaad = self._pair(params, prop(1.0), EXCITED, 1.0)
        other = subdyn.EffectiveOperator(ea.side, 2.0, ea.matrix, ea.weighting_state)
        with pytest.raises(ValueError, match="different times"):
            subdyn.algebra_deviation(other, ead, eaad)


class TestValidatedSubspace:
    def test_dangling_state_excluded(self):
        idx = subdyn.composite_validated_indices(5)
        assert 2 * 5 + 0 not in idx
        assert len(idx) == 11

    def test_validated_defect_masks_top_sector(self):
        n_max = 4
        a = np.zeros((10, 10), dtype=complex)
        b = a.copy()
        b[8, 8] = 7.0  # |n_max, up> diagonal
        assert subdyn.validated_defect(a, b, n_max) == 0.0
        b[0, 0] = 0.5
        assert subdyn.validated_defect(a, b, n_max) == 0.5


def _identity_kraus(side):
    """A Kraus set of the identity propagator on the n_max = 2 composite space."""
    return subdyn.kraus_extract(np.eye(6), side, coherent_state(1.0, 0.0, FockSpace(2)))


#: (call, exception type, message needle) of a one-line refusal, on the
#: n_max = 2 space (composite dimension 6) unless a case says otherwise
REFUSALS = {
    "assemble-atom-shape": (lambda: subdyn.assemble_hamiltonian(
        np.eye(3), np.eye(3), np.zeros((6, 6)), FockSpace(2)), ValueError, "atom part must be 2x2"),
    "assemble-coupling-shape": (lambda: subdyn.assemble_hamiltonian(
        np.eye(3), np.eye(2), np.zeros((4, 4)), FockSpace(2)), ValueError, "coupling must be 6x6"),
    "evolve-photon-space": (lambda: subdyn.evolve_and_reduce(
        subdyn.assemble_hamiltonian(np.eye(3), np.eye(2), np.zeros((6, 6)), FockSpace(2)),
        np.eye(2) / 2, EXCITED, 1.0), ValueError, "does not match the Fock space"),
    "kraus-odd-dimension": (lambda: subdyn.kraus_extract(np.eye(5), "photon"),
                            ValueError, "composite dimension must be even"),
    "kraus-no-coherent-state": (lambda: subdyn.kraus_extract(np.eye(6), "atom"),
                                ValueError, "needs the initial coherent state"),
    "kraus-truncation": (lambda: subdyn.kraus_extract(
        np.eye(6), "atom", coherent_state(1.0, 0.0, FockSpace(3))),
        ValueError, "truncation does not match the propagator"),
    "kraus-bad-side": (lambda: subdyn.kraus_extract(np.eye(6), "field"),
                       ValueError, "side must be 'atom' or 'photon'"),
    "apply-atom-kraus-photon-set": (lambda: subdyn.apply_atom_kraus(
        _identity_kraus("photon"), EXCITED), ValueError, "atom-side Kraus set required"),
    "apply-photon-kraus-atom-set": (lambda: subdyn.apply_photon_kraus(
        _identity_kraus("atom"), np.eye(3) / 3, EXCITED),
        ValueError, "photon-side Kraus set required"),
    "effective-bad-side": (lambda: subdyn.effective_operator(
        np.eye(6), np.eye(3), "field", EXCITED), ValueError, "side must be 'atom' or 'photon'"),
    "effective-weight-shape": (lambda: subdyn.effective_operator(
        np.eye(6), np.eye(3), "photon", np.eye(3) / 3),
        ValueError, "photon-side weighting state must be 2x2"),
    "effective-operator-shape": (lambda: subdyn.effective_operator(
        np.eye(6), np.eye(2), "photon", EXCITED), ValueError, "photon-side operator must be 3x3"),
    "algebra-mixed-sides": (lambda: subdyn.algebra_deviation(
        subdyn.EffectiveOperator("atom", 0.0, np.eye(2), np.eye(3) / 3),
        subdyn.EffectiveOperator("photon", 0.0, np.eye(3), EXCITED),
        subdyn.EffectiveOperator("atom", 0.0, np.eye(2), np.eye(3) / 3)),
        ValueError, "live on different sides"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    call, exc, needle = REFUSALS[case]
    with pytest.raises(exc, match=needle):
        call()
