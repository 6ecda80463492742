import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from jcsubdyn.hilbert import (
    DOWN,
    UP,
    FockSpace,
    annihilation,
    auto_n_max,
    coherent_state,
    embed_atom,
    embed_photon,
    ladder_ops,
    number_op,
    partial_trace,
    pauli_ops,
    poisson_weights,
    quadrature_ops,
    require_atom_density,
    tensor_product,
)

from conftest import random_density


def decimal_poisson(mean, n_max):
    """p(0..n_max) of a Poisson law and its tail P(n > n_max), to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        m = Decimal(mean)
        weights = [(-m).exp()]
        for n in range(n_max):
            weights.append(weights[-1] * m / (n + 1))
        return weights, 1 - sum(weights)


def poisson_sf(n, mean):
    """P(N > n) for N ~ Poisson(mean), from the 60-digit reference."""
    return float(decimal_poisson(mean, n)[1])


def poisson_mean_oracle(mean, n_max):
    """Independent Sum n p(n) with explicit factorials."""
    total = 0.0
    for n in range(n_max + 1):
        total += n * math.exp(-mean) * mean ** n / math.factorial(n)
    return total


class TestLadder:
    def test_annihilation_lowers_one_quantum(self):
        a = annihilation(FockSpace(3))
        ket1 = np.zeros(4, dtype=complex)
        ket1[1] = 1.0
        ket0 = np.zeros(4, dtype=complex)
        ket0[0] = 1.0
        np.testing.assert_allclose(a @ ket1, ket0, atol=1e-15)

    def test_commutator_truncation_artifact(self):
        space = FockSpace(5)
        a, adag, _ = ladder_ops(space)
        comm = a @ adag - adag @ a
        expected = np.eye(space.dim, dtype=complex)
        expected[-1, -1] = -space.n_max
        np.testing.assert_allclose(comm, expected, atol=1e-13)

    def test_coherent_number_expectation_matches_poisson_mean(self):
        space = FockSpace(60)
        _, _, n_op = ladder_ops(space)
        coh = coherent_state(math.sqrt(10.0), 0.0, space)
        mean = (coh.amplitudes.conj() @ n_op @ coh.amplitudes).real
        assert abs(mean - 10.0) < 1e-9
        assert abs(mean - poisson_mean_oracle(10.0, 60)) < 1e-11


class TestPauli:
    def test_sigma_z_convention(self):
        assert pauli_ops().z[UP, UP] == 1.0

    def test_raising_lowering_anticommutator(self):
        p = pauli_ops()
        np.testing.assert_allclose(p.plus @ p.minus + p.minus @ p.plus, np.eye(2), atol=1e-15)

    def test_xy_commutator(self):
        p = pauli_ops()
        np.testing.assert_allclose(p.x @ p.y - p.y @ p.x, 2j * p.z, atol=1e-15)


class TestQuadratures:
    def test_energy_identity_on_interior_block(self):
        space = FockSpace(12)
        omega = 0.7
        electric, magnetic = quadrature_ops(space, omega)
        lhs = (electric @ electric + magnetic @ magnetic) / 2
        rhs = omega * (number_op(space) + 0.5 * np.eye(space.dim))
        interior = slice(0, space.n_max)  # truncated a a† breaks the top entry
        np.testing.assert_allclose(lhs[interior, interior], rhs[interior, interior], atol=1e-13)

    def test_quadratures_hermitian(self):
        for q in quadrature_ops(FockSpace(6), 1.3):
            assert np.max(np.abs(q - q.conj().T)) < 1e-14

    def test_vacuum_expectation_vanishes(self):
        electric, _ = quadrature_ops(FockSpace(6), 1.0)
        vac = np.zeros(7, dtype=complex)
        vac[0] = 1.0
        assert abs(vac.conj() @ electric @ vac) == 0.0

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            quadrature_ops(FockSpace(4), 0.0)


class TestCoherent:
    def test_vacuum_state(self):
        coh = coherent_state(0.0, 0.0, FockSpace(5))
        np.testing.assert_allclose(coh.amplitudes, np.eye(6, dtype=complex)[0], atol=1e-16)
        assert poisson_weights(0.0, 5)[0] == 1.0

    def test_tail_mass_below_1e12_for_m10_nmax60(self):
        coh = coherent_state(math.sqrt(10.0), 0.0, FockSpace(60))
        assert coh.tail_mass < 1e-12
        # independent tail oracle
        assert poisson_sf(60, 10.0) < 1e-12

    def test_weights_plus_tail_normalize(self):
        space = FockSpace(25)
        coh = coherent_state(2.0, 0.4, space)
        total = float(np.sum(np.abs(coh.amplitudes) ** 2)) + coh.tail_mass
        assert abs(total - 1.0) < 1e-14
        w = poisson_weights(4.0, 25)
        assert abs(float(w.sum()) + poisson_sf(25, 4.0) - 1.0) < 1e-14

    def test_weights_match_amplitudes(self):
        coh = coherent_state(1.7, 2.1, FockSpace(30))
        np.testing.assert_allclose(np.abs(coh.amplitudes) ** 2, coh.weights(), atol=1e-15)

    def test_phase_enters_amplitudes(self):
        coh = coherent_state(1.0, np.pi / 3, FockSpace(10))
        ratio = coh.amplitudes[1] / coh.amplitudes[0]
        assert abs(ratio - coh.alpha) < 1e-15

    def test_log_domain_amplitudes_match_the_weights(self):
        # mean >= 1400: exp(-mean/2) underflows, so the amplitudes come from lgamma
        phase, space = 0.7, FockSpace(1753)
        coh = coherent_state(math.sqrt(1500.0), phase, space)
        p = poisson_weights(1500.0, space.n_max)
        normal = p >= np.finfo(np.float64).tiny
        expected = np.sqrt(p) * np.exp(1j * phase * np.arange(space.dim))
        np.testing.assert_allclose(coh.amplitudes[normal], expected[normal], rtol=1e-10, atol=0)
        assert np.abs(coh.amplitudes[~normal]).max() <= math.sqrt(np.finfo(np.float64).tiny)

    def test_tail_mass_agrees_across_the_log_domain_switch(self):
        above = math.sqrt(1400.0)
        below = math.nextafter(above, 0.0)
        assert below * below < 1400.0 <= above * above
        space = FockSpace(1500)
        assert coherent_state(below, 0.0, space).tail_mass == pytest.approx(
            coherent_state(above, 0.0, space).tail_mass, rel=1e-9)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            coherent_state(-1.0, 0.0, FockSpace(4))


def stepwise_auto_n_max(mean, tail_tol):
    """The former search: one sector more per step, all weights rebuilt each step."""
    n = max(1, int(math.ceil(mean)))
    while 1.0 - float(np.sum(poisson_weights(mean, n))) >= tail_tol:
        n += 1
    return n


class TestAutoTruncation:
    def test_auto_n_max_meets_and_is_minimal(self):
        n = auto_n_max(10.0, 1e-10)
        assert poisson_sf(n, 10.0) < 1e-10
        assert poisson_sf(n - 1, 10.0) >= 1e-10
        # the windowed search picks the stepwise answer
        for tail_tol in (1e-6, 1e-10, 1e-13):
            for mean in np.linspace(0.0, 180.0, 41):
                assert auto_n_max(mean, tail_tol) == stepwise_auto_n_max(mean, tail_tol), \
                    (mean, tail_tol)
        # large means, where the stepwise search takes seconds: its answers
        assert [auto_n_max(m) for m in (1000.0, 5000.0, 20000.0)] == [1208, 5456, 20910]

    def test_log_domain_weights_agree_with_recurrence(self):
        direct = poisson_weights(30.0, 120)
        ns = np.arange(121)
        logs = -30.0 + ns * math.log(30.0) - np.array([math.lgamma(n + 1.0) for n in ns])
        np.testing.assert_allclose(direct, np.exp(logs), rtol=1e-12)

    @pytest.mark.parametrize("mean", [0.5, 40.0, 150.0, 650.0])
    def test_weights_match_a_decimal_reference(self, mean):
        n_max = auto_n_max(mean, 1e-13) + 20
        ref, _ = decimal_poisson(mean, n_max)
        got = poisson_weights(mean, n_max)
        worst = max(abs(Decimal(float(x)) - r) / r for x, r in zip(got, ref)
                    if r > Decimal("1e-300"))
        assert worst < Decimal("1e-14")

    @pytest.mark.parametrize("mean", [40.0, 149.5, 650.0, 1500.0])
    def test_weights_do_not_depend_on_n_max(self, mean):
        shorter, longer = poisson_weights(mean, 150), poisson_weights(mean, 151)
        assert shorter.tobytes() == longer[:151].tobytes()


class TestComposite:
    def test_identity_embedding(self):
        space = FockSpace(7)
        np.testing.assert_array_equal(
            embed_photon(np.eye(space.dim)) @ embed_atom(np.eye(2), space),
            np.eye(2 * space.dim))

    def test_disjoint_supports_commute(self):
        space = FockSpace(6)
        n_emb = embed_photon(number_op(space))
        z_emb = embed_atom(pauli_ops().z, space)
        np.testing.assert_allclose(n_emb @ z_emb, z_emb @ n_emb, atol=1e-14)
        np.testing.assert_allclose(n_emb @ z_emb,
                                   tensor_product(number_op(space), pauli_ops().z), atol=1e-14)

    def test_matrix_element_bookkeeping(self):
        space = FockSpace(9)
        op = tensor_product(annihilation(space), pauli_ops().z)
        for n in range(space.n_max):
            row = 2 * n + UP
            col = 2 * (n + 1) + UP
            assert abs(op[row, col] - math.sqrt(n + 1)) < 1e-14

    def test_embedding_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed_atom(np.eye(3), FockSpace(4))


class TestPartialTrace:
    def test_product_state_recovery(self, rng):
        space = FockSpace(5)
        rho_ph = random_density(rng, space.dim)
        rho_at = random_density(rng, 2)
        rho = np.kron(rho_ph, rho_at)
        np.testing.assert_allclose(partial_trace(rho, "photon"), rho_at, atol=1e-13)
        np.testing.assert_allclose(partial_trace(rho, "atom"), rho_ph, atol=1e-13)

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 12)
        for over in ("photon", "atom"):
            assert abs(np.trace(partial_trace(rho, over)) - np.trace(rho)) < 1e-13

    def test_bell_like_state_maximally_mixed_marginals(self):
        space = FockSpace(1)
        psi = np.zeros(4, dtype=complex)
        psi[2 * 0 + UP] = 1 / math.sqrt(2)
        psi[2 * 1 + DOWN] = 1 / math.sqrt(2)
        rho = np.outer(psi, psi.conj())
        half = np.eye(2) / 2
        np.testing.assert_allclose(partial_trace(rho, "photon"), half, atol=1e-15)
        np.testing.assert_allclose(partial_trace(rho, "atom"), half, atol=1e-15)

    def test_embed_then_trace_recovers_factor(self, rng):
        space = FockSpace(4)
        op = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal((space.dim, space.dim))
        rho_at = random_density(rng, 2)
        composite = tensor_product(op, rho_at)
        np.testing.assert_allclose(partial_trace(composite, "atom"), op * np.trace(rho_at),
                                   atol=1e-13)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5, dtype=complex), "atom")


class TestDensityValidation:
    def test_valid_density_passes(self):
        require_atom_density(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            require_atom_density(np.array([[0.9, 0.0], [0.0, 0.2]], dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            require_atom_density(np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            require_atom_density(np.eye(3, dtype=complex))


#: (call, exception type, message needle) of a one-line refusal
REFUSALS = {
    "coherent-nan-magnitude": (lambda: coherent_state(math.nan, 0.0, FockSpace(5)),
                               ValueError, "magnitude and its square must be finite"),
    "coherent-inf-magnitude": (lambda: coherent_state(math.inf, 0.0, FockSpace(5)),
                               ValueError, "magnitude and its square must be finite"),
    "coherent-magnitude-squared-overflows": (lambda: coherent_state(1e200, 0.0, FockSpace(5)),
                                             ValueError, "magnitude and its square must be finite"),
    "coherent-inf-phase": (lambda: coherent_state(1.0, math.inf, FockSpace(5)),
                           ValueError, "phase must be finite"),
    "coherent-nan-phase": (lambda: coherent_state(1.0, math.nan, FockSpace(5)),
                           ValueError, "phase must be finite"),
    "poisson-nan-mean": (lambda: poisson_weights(math.nan, 3), ValueError, "mean must be finite"),
    "poisson-inf-mean": (lambda: poisson_weights(math.inf, 3), ValueError, "mean must be finite"),
    "poisson-negative-mean": (lambda: poisson_weights(-1.0, 3), ValueError, "mean must be >= 0"),
    "auto-n-max-beyond-limit": (lambda: auto_n_max(99999.0), ValueError, "no n_max up to 100000"),
    "tensor-atom-not-2x2": (lambda: tensor_product(np.eye(3), np.eye(3)),
                            ValueError, "atom operator must be 2x2"),
    "partial-trace-bad-over": (lambda: partial_trace(np.eye(4, dtype=complex), "field"),
                               ValueError, "over must be 'photon' or 'atom'"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    call, exc, needle = REFUSALS[case]
    with pytest.raises(exc, match=needle):
        call()
