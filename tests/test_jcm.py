import cmath
import math

import numpy as np
import pytest

from jcsubdyn import _kernels, jcm, subdyn
from jcsubdyn.hilbert import annihilation, coherent_state, number_op, pauli_ops
from jcsubdyn.jcm import JcmParams, correlation_factors
from jcsubdyn.numerics import max_abs

from conftest import random_density

EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


@pytest.fixture(scope="module")
def params():
    return JcmParams(omega=1.0, omega0=0.8, g=0.02, n_max=60)


@pytest.fixture(scope="module")
def coh(params):
    return coherent_state(math.sqrt(10.0), 0.0, params.space)


@pytest.fixture(scope="module")
def propagator(params):
    return subdyn.SpectralPropagator(jcm.hamiltonian(params).total)


class TestCorrelationFactors:
    def test_zero_time(self, params):
        for n in (-1, 0, 3, 17):
            f = correlation_factors(n, 0.0, params)
            assert f.v == 1.0 and f.w == 0.0

    def test_resonance(self):
        p = JcmParams(1.0, 1.0, 0.05, 10)
        t, n = 13.0, 4
        f = correlation_factors(n, t, p)
        rabi = p.g * math.sqrt(n + 1)
        assert abs(f.theta - math.pi / 4) < 1e-14
        assert abs(f.v - math.cos(rabi * t)) < 1e-14
        assert abs(f.w - math.sin(rabi * t)) < 1e-14

    def test_free_limit_positive_detuning(self):
        p = JcmParams(1.0, 0.7, 0.0, 10)
        f = correlation_factors(5, 3.0, p)
        assert f.theta == 0.0
        assert abs(f.v - cmath.exp(1j * p.detuning * 3.0 / 2)) < 1e-14
        assert f.w == 0.0

    def test_free_limit_negative_detuning(self):
        p = JcmParams(1.0, 1.4, 0.0, 10)
        f = correlation_factors(5, 3.0, p)
        assert abs(f.theta - math.pi / 2) < 1e-14
        assert abs(f.v - cmath.exp(1j * p.detuning * 3.0 / 2)) < 1e-14

    def test_rate_floor(self):
        p = JcmParams(1.0, 0.3, 0.04, 10)
        for n in range(-1, 10):
            assert p.sector_rate(n) >= abs(p.detuning) / 2

    @pytest.mark.parametrize("omega0, g", [(0.8, 0.07), (1.2, 0.07), (1.0, 0.07),
                                           (0.8, 0.0), (1.0, 0.0)])
    def test_kernel_tables_match_scalar_factors(self, omega0, g):
        """Column j of the kernel tables is correlation_factors(j - 1, t) for every t."""
        p = JcmParams(1.0, omega0, g, 30)
        ts = np.linspace(0.0, 200.0, 41)
        v, w = _kernels.corr_tables(ts, p.half_detuning, p.g, p.n_max + 2)
        for n in range(-1, p.n_max + 1):
            ref = [correlation_factors(n, t, p) for t in ts]
            np.testing.assert_allclose(v[:, n + 1], [f.v for f in ref], rtol=0, atol=1e-13)
            np.testing.assert_allclose(w[:, n + 1], [f.w for f in ref], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_block_unitarity_identity(self, seed):
        """|v|² + w² = 1 over randomized sectors, times and couplings."""
        rng = np.random.default_rng(seed)
        p = JcmParams(1.0, rng.uniform(0.2, 1.8), rng.uniform(0.0, 0.2), 60)
        for _ in range(40):
            n = int(rng.integers(-1, 61))
            gt = rng.uniform(0.0, 100.0)
            t = gt / p.g if p.g > 0 else gt
            f = correlation_factors(n, t, p)
            assert abs(abs(f.v) ** 2 + f.w ** 2 - 1.0) < 1e-12

    def test_below_boundary_rejected(self, params):
        with pytest.raises(ValueError):
            correlation_factors(-2, 0.0, params)


class TestClosedPropagator:
    def test_zero_time_is_identity(self, params):
        np.testing.assert_allclose(jcm.closed_propagator(0.0, params),
                                   np.eye(2 * params.space.dim), atol=1e-14)

    def test_free_limit_matches_exponential(self):
        p = JcmParams(1.0, 0.75, 0.0, 12)
        t = 9.1
        u_closed = jcm.closed_propagator(t, p)
        u_oracle = subdyn.SpectralPropagator(jcm.hamiltonian(p).total)(t)
        assert max_abs(u_closed - u_oracle) < 1e-12

    @pytest.mark.parametrize("gt", [1.0, 5.0, 20.0])
    def test_matches_spectral_oracle_on_validated_subspace(self, gt):
        p = JcmParams(1.0, 0.9, 0.05, 30)
        prop = subdyn.SpectralPropagator(jcm.hamiltonian(p).total)
        t = gt / p.g
        assert subdyn.validated_defect(jcm.closed_propagator(t, p), prop(t), p.n_max) < 1e-9

    def test_exactly_unitary(self, params):
        u = jcm.closed_propagator(917.0, params)
        assert max_abs(u.conj().T @ u - np.eye(u.shape[0])) < 1e-12

    def test_phase_reconciliation_regression(self, params, propagator):
        """closed = exp(-i t H) on the whole space, the dangling |n_max, up> included.

        The sector phases exp(-i omega t (n + 1)) carry the zero-point term of
        the field; the dangling state keeps its free truncated phase, so its
        diagonal entry has modulus 1 (a sector-phase v_{n_max} there would not).
        """
        t = 333.0
        closed = jcm.closed_propagator(t, params)
        assert max_abs(closed - propagator(t)) < 1e-9
        top = 2 * params.n_max
        assert abs(abs(closed[top, top]) - 1.0) < 1e-12


class TestClosedEvolve:
    def test_rows_are_propagator_columns(self, params, coh, rng):
        ts = np.array([0.0, 42.0, 917.0])
        kets = np.vstack([np.kron(coh.amplitudes, [1.0, 0.0]),
                          rng.standard_normal(2 * params.space.dim)])
        out = jcm.closed_evolve(ts, params, kets)
        assert out.shape == (3, 2, 2 * params.space.dim)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(out[i], kets @ jcm.closed_propagator(t, params).T,
                                       rtol=0, atol=1e-14)

    def test_rejects_kets_of_another_space(self, params):
        with pytest.raises(ValueError, match="composite space"):
            jcm.closed_evolve([1.0], params, np.eye(2 * params.n_max))


class TestClosedKraus:
    def test_zero_time_atom_members(self, params, coh):
        kset = jcm.closed_kraus("atom", coh, 0.0, params)
        for n in (0, 7, params.n_max):
            np.testing.assert_allclose(kset.members[n], coh.amplitudes[n] * np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("t", [42.0, 613.0])
    def test_completeness_within_tail(self, params, coh, t):
        atom = jcm.closed_kraus("atom", coh, t, params)
        photon = jcm.closed_kraus("photon", None, t, params)
        assert atom.completeness_residual <= coh.tail_mass + 1e-10
        assert photon.completeness_residual <= coh.tail_mass + 1e-10

    def test_free_limit_photon_members(self):
        p = JcmParams(1.0, 0.9, 0.0, 8)
        kset = jcm.closed_kraus("photon", None, 4.0, p)
        assert max_abs(kset.members[0, 1]) == 0.0
        assert max_abs(kset.members[1, 0]) == 0.0
        for s in (0, 1):
            diag = np.diag(kset.members[s, s])
            np.testing.assert_allclose(np.abs(diag), 1.0, atol=1e-14)
            assert max_abs(kset.members[s, s] - np.diag(diag)) == 0.0

    @pytest.mark.parametrize("t", [17.0, 951.0])
    def test_agrees_with_extraction_from_closed_propagator(self, params, coh, propagator, t):
        """The closed family matches the one extracted from the spectral propagator."""
        u = propagator(t)
        for side, arg in (("atom", coh), ("photon", None)):
            built = jcm.closed_kraus(side, arg, t, params)
            extracted = subdyn.kraus_extract(u, side, arg)
            assert max_abs(built.members - extracted.members) < 1e-10


class TestClosedMarginal:
    def test_zero_time_returns_inputs(self, params, coh, rng):
        rho_at = random_density(rng, 2)
        np.testing.assert_allclose(jcm.closed_marginal("atom", rho_at, coh, 0.0, params),
                                   rho_at, atol=1e-12)
        np.testing.assert_allclose(jcm.closed_marginal("photon", rho_at, coh, 0.0, params),
                                   coh.density(), atol=1e-14)

    def test_free_limit_populations_static_coherences_rotating(self, coh):
        p = JcmParams(1.0, 0.8, 0.0, 60)
        rho_at = np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex)
        t = 6.0
        rho_t = jcm.closed_marginal("atom", rho_at, coh, t, p)
        assert abs(rho_t[0, 0] - 0.7) < 1e-12
        assert abs(abs(rho_t[0, 1]) - 0.3) < 1e-12
        assert abs(rho_t[0, 1] - 0.3 * cmath.exp(-1j * p.omega0 * t)) < 1e-12

    @pytest.mark.parametrize("gt", [3.0, 11.0, 29.0])
    def test_matches_brute_force(self, params, coh, propagator, rng, gt):
        rho_at = random_density(rng, 2)
        t = gt / params.g
        state = subdyn.evolve_and_reduce(jcm.hamiltonian(params), coh.density(), rho_at, t,
                                         propagator)
        np.testing.assert_allclose(jcm.closed_marginal("atom", rho_at, coh, t, params),
                                   state.atom, atol=1e-9)
        np.testing.assert_allclose(jcm.closed_marginal("photon", rho_at, coh, t, params),
                                   state.photon, atol=1e-9)
        # the public Kraus route reaches the same marginals
        via_kraus_atom = subdyn.apply_atom_kraus(jcm.closed_kraus("atom", coh, t, params), rho_at)
        via_kraus_photon = subdyn.apply_photon_kraus(jcm.closed_kraus("photon", None, t, params),
                                                     coh.density(), rho_at)
        np.testing.assert_allclose(via_kraus_atom, state.atom, atol=1e-9)
        np.testing.assert_allclose(via_kraus_photon, state.photon, atol=1e-9)

    def test_marginals_stay_physical(self, params, coh):
        rho_t = jcm.closed_marginal("atom", EXCITED, coh, 512.0, params)
        assert abs(np.trace(rho_t).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho_t).min() > -1e-10


class TestPhotonDressing:
    def test_pristine_at_zero_time(self, params, rng):
        rho_at = random_density(rng, 2)
        for n in (0, 5, 33):
            d = jcm.photon_dressing(n, 0.0, rho_at, params)
            assert abs(d.a1 - 1.0) < 1e-12
            assert d.c2 == 0.0 and d.d0 == 0.0

    def test_pristine_when_uncoupled(self, rng):
        p = JcmParams(1.0, 0.8, 0.0, 20)
        rho_at = random_density(rng, 2)
        d = jcm.photon_dressing(4, 37.0, rho_at, p)
        assert abs(d.a1 - 1.0) < 1e-12
        assert abs(d.c2) < 1e-15 and abs(d.d0) < 1e-15

    def test_diagonal_atom_start_kills_two_quantum_channels(self, params):
        for n in (0, 2, 9):
            d = jcm.photon_dressing(n, 250.0, EXCITED, params)
            assert d.c2 == 0.0 and d.d0 == 0.0
            assert abs(d.a1 - 1.0) > 1e-3  # dressing carried by the band coefficient

    def test_negative_sector_rejected(self, params):
        with pytest.raises(ValueError):
            jcm.photon_dressing(-1, 0.0, EXCITED, params)


class TestQuasiAnnihilation:
    def test_exact_at_zero_time(self, params):
        qa = jcm.quasi_annihilation(0.0, EXCITED, params)
        assert max_abs(qa.matrix - annihilation(params.space)) < 1e-14

    def test_free_heisenberg_phase(self):
        p = JcmParams(1.0, 0.8, 0.0, 30)
        t = 12.0
        qa = jcm.quasi_annihilation(t, EXCITED, p)
        np.testing.assert_allclose(qa.matrix, cmath.exp(-1j * p.omega * t) * annihilation(p.space),
                                   atol=1e-13)

    @pytest.mark.parametrize("gt", [4.0, 23.0])
    def test_matches_brute_force_on_validated_window(self, params, propagator, rng, gt):
        rho_at = random_density(rng, 2)
        t = gt / params.g
        eff = subdyn.effective_operator(propagator(t), annihilation(params.space), "photon",
                                        rho_at, t)
        qa = jcm.quasi_annihilation(t, rho_at, params)
        d = params.n_max
        assert max_abs((qa.matrix - eff.matrix)[:d, :d]) < 1e-9


class TestQuasiNumber:
    def test_exact_at_zero_time(self, params):
        qn = jcm.quasi_number(0.0, EXCITED, params)
        assert max_abs(qn.matrix - number_op(params.space)) < 1e-14

    def test_free_limit_mean_is_poisson_mean(self, coh):
        p = JcmParams(1.0, 0.8, 0.0, 60)
        qn = jcm.quasi_number(33.0, EXCITED, p)
        mean = (coh.amplitudes.conj() @ qn.matrix @ coh.amplitudes).real
        assert abs(mean - coh.mean_photons) < coh.mean_photons * coh.tail_mass + 1e-12

    def test_hermitian_for_hermitian_atom_start(self, params, rng):
        rho_at = random_density(rng, 2)
        qn = jcm.quasi_number(431.0, rho_at, params)
        assert max_abs(qn.matrix - qn.matrix.conj().T) < 1e-12

    def test_not_a_product_of_quasi_operators(self, params):
        t = 17.0 / params.g
        qa = jcm.quasi_annihilation(t, EXCITED, params).matrix
        qn = jcm.quasi_number(t, EXCITED, params).matrix
        d = params.n_max - 1
        assert max_abs((qn - qa.conj().T @ qa)[:d, :d]) > 1e-6

    @pytest.mark.parametrize("gt", [4.0, 23.0])
    def test_matches_brute_force_on_validated_window(self, params, propagator, rng, gt):
        rho_at = random_density(rng, 2)
        t = gt / params.g
        eff = subdyn.effective_operator(propagator(t), number_op(params.space), "photon",
                                        rho_at, t)
        qn = jcm.quasi_number(t, rho_at, params)
        d = params.n_max
        assert max_abs((qn.matrix - eff.matrix)[:d, :d]) < 1e-9


class TestQuasiSpin:
    def test_plus_reduces_to_bare_at_zero_time(self, params, coh):
        qp = jcm.quasi_sigma_plus(0.0, coh, params)
        series = jcm.spin_plus_series(0.0, coh, params)
        assert abs(series.s1 - (1.0 - coh.tail_mass)) < 1e-12
        assert series.s2 == 0.0 and series.s3 == 0.0 and series.s4 == 0.0
        assert max_abs(qp.matrix - (1.0 - coh.tail_mass) * pauli_ops().plus) < 1e-12

    def test_plus_free_phase(self, coh):
        p = JcmParams(1.0, 0.8, 0.0, 60)
        t = 21.0
        qp = jcm.quasi_sigma_plus(t, coh, p)
        expected = cmath.exp(1j * p.omega0 * t) * (1.0 - coh.tail_mass) * pauli_ops().plus
        assert max_abs(qp.matrix - expected) < 1e-12

    def test_minus_is_adjoint_of_plus(self, params, coh):
        t = 512.0
        qp = jcm.quasi_sigma_plus(t, coh, params)
        qm = jcm.quasi_sigma_minus(t, coh, params)
        np.testing.assert_array_equal(qm.matrix, qp.matrix.conj().T)

    def test_plus_requires_nonzero_amplitude(self, params):
        vac = coherent_state(0.0, 0.0, params.space)
        with pytest.raises(ValueError, match="alpha = 0"):
            jcm.quasi_sigma_plus(1.0, vac, params)

    def test_plus_trace_duality(self, params, coh, rng):
        rho_at = random_density(rng, 2)
        t = 10.0 / params.g
        lhs = np.trace(pauli_ops().plus @ jcm.closed_marginal("atom", rho_at, coh, t, params))
        rhs = np.trace(jcm.quasi_sigma_plus(t, coh, params).matrix @ rho_at)
        assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("gt", [6.5, 18.0])
    def test_plus_matches_brute_force(self, params, coh, propagator, gt):
        t = gt / params.g
        eff = subdyn.effective_operator(propagator(t), pauli_ops().plus, "atom",
                                        coh.density(), t)
        assert max_abs(jcm.quasi_sigma_plus(t, coh, params).matrix - eff.matrix) < 1e-8

    def test_z_exact_at_zero_time(self, params, coh):
        qz = jcm.quasi_sigma_z(0.0, coh, params)
        assert max_abs(qz.matrix - pauli_ops().z) < 1e-14
        series = jcm.spin_z_series(0.0, coh, params)
        assert series.s1 == 1.0 and series.s2 == -1.0 and series.s3 == 0.0

    def test_z_free_limit_spectrum(self, coh):
        p = JcmParams(1.0, 0.8, 0.0, 60)
        qz = jcm.quasi_sigma_z(44.0, coh, p)
        np.testing.assert_allclose(np.linalg.eigvalsh(qz.matrix), [-1.0, 1.0], atol=1e-12)

    def test_z_is_hermitian_with_conjugate_series(self, params, coh):
        series = jcm.spin_z_series(712.0, coh, params)
        assert series.s4 == np.conj(series.s3)
        qz = jcm.quasi_sigma_z(712.0, coh, params)
        assert max_abs(qz.matrix - qz.matrix.conj().T) < 1e-12

    def test_z_trace_duality(self, params, coh, rng):
        rho_at = random_density(rng, 2)
        t = 14.0 / params.g
        lhs = np.trace(pauli_ops().z @ jcm.closed_marginal("atom", rho_at, coh, t, params))
        rhs = np.trace(jcm.quasi_sigma_z(t, coh, params).matrix @ rho_at)
        assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("gt", [6.5, 18.0])
    def test_z_matches_brute_force(self, params, coh, propagator, gt):
        t = gt / params.g
        eff = subdyn.effective_operator(propagator(t), pauli_ops().z, "atom", coh.density(), t)
        assert max_abs(jcm.quasi_sigma_z(t, coh, params).matrix - eff.matrix) < 1e-8

    def test_series_tail_flag_ok_for_adequate_truncation(self, params, coh):
        assert jcm.spin_plus_series(100.0, coh, params).tail_ok
        assert jcm.spin_z_series(100.0, coh, params).tail_ok

    def test_series_tail_flag_trips_for_starved_truncation(self):
        p = JcmParams(1.0, 0.8, 0.02, 12)
        starved = coherent_state(math.sqrt(10.0), 0.0, p.space)
        assert not jcm.spin_z_series(80.0, starved, p).tail_ok


class TestParamValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            JcmParams(0.0, 1.0, 0.1, 10)
        with pytest.raises(ValueError):
            JcmParams(1.0, 1.0, -0.1, 10)
        with pytest.raises(ValueError):
            JcmParams(1.0, 1.0, 0.1, 0)

    @pytest.mark.parametrize("n_max", [12.0, 12.7, True, "12", None])
    def test_rejects_non_integer_n_max(self, n_max):
        # numpy would raise a TypeError later, in observable_series; True would run as 1
        with pytest.raises(ValueError, match="n_max must be an integer"):
            JcmParams(1.0, 0.8, 0.02, n_max)

    def test_numpy_integer_n_max_accepted(self):
        assert JcmParams(1.0, 0.8, 0.02, np.int64(12)).space.dim == 13

    def test_rejects_overflowing_sector_rate(self):
        # each input and the detuning are finite; half_det² or g²(n_max + 1) is not
        for args in ((1e308, -7e307, 0.02, 5), (1.0, 1.0, 1e154, 10)):
            with pytest.raises(ValueError, match=r"top sector rate squared, must be finite"):
                JcmParams(*args)

    def test_accepted_sector_rates_keep_tables_finite(self):
        # just inside the bound the correlation tables are finite at every column
        for p in (JcmParams(1.2e154, -1.2e154, 0.02, 5), JcmParams(1.0, 1.0, 1e153, 10)):
            v, w = _kernels.corr_tables([0.0, 1e-300], p.half_detuning, p.g, p.n_max + 2)
            assert np.all(np.isfinite(v)) and np.all(np.isfinite(w))

    def test_detuning_is_derived(self):
        p = JcmParams(1.0, 0.85, 0.1, 10)
        assert p.detuning == 1.0 - 0.85
        assert p.half_detuning == p.detuning / 2
