import math
import tracemalloc

import numpy as np
import pytest

from jcsubdyn import analysis, jcm, subdyn
from jcsubdyn.analysis import (
    Scenario,
    collapse_revival_features,
    conservation_audit,
    observable_series,
    qpl_dominance,
    sigma_z_spectrum,
)
from jcsubdyn.hilbert import (annihilation, auto_n_max, coherent_state, number_op, pauli_ops,
                              poisson_weights)
from jcsubdyn.jcm import JcmParams

EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
ROOT10 = math.sqrt(10.0)


def fig_scenario(ratio, g=0.02, n_max=60, grid=(0.0, 50.0, 2000), atom_init=EXCITED, **kw):
    params = JcmParams(1.0, 1.0 - ratio * g, g, n_max)
    return Scenario(params=params, atom_init=atom_init, magnitude=ROOT10, phase=0.0,
                    grid=grid, **kw)


@pytest.fixture(scope="module")
def fig10_series():
    return observable_series(fig_scenario(10.0))


class TestSigmaZSpectrum:
    def test_zero_time(self):
        p = JcmParams(1.0, 0.8, 0.02, 60)
        coh = coherent_state(ROOT10, 0.0, p.space)
        spec = sigma_z_spectrum(jcm.quasi_sigma_z(0.0, coh, p))
        assert abs(spec.offset) < 1e-14
        assert abs(spec.upper - 1.0) < 1e-14 and abs(spec.lower + 1.0) < 1e-14

    def test_free_limit_offset_vanishes(self):
        p = JcmParams(1.0, 0.8, 0.0, 60)
        coh = coherent_state(ROOT10, 0.0, p.space)
        for t in (3.0, 29.0, 77.0):
            spec = sigma_z_spectrum(jcm.quasi_sigma_z(t, coh, p))
            assert abs(spec.offset) < 1e-13

    @pytest.mark.parametrize("gt", [3.0, 9.5, 21.0, 40.0])
    def test_formulas_agree_with_eigendecomposition(self, gt):
        p = JcmParams(1.0, 0.8, 0.02, 60)
        coh = coherent_state(ROOT10, 0.0, p.space)
        eff = jcm.quasi_sigma_z(gt / p.g, coh, p)
        spec = sigma_z_spectrum(eff)
        evals = np.linalg.eigvalsh(eff.matrix)
        assert abs(spec.lower - evals[0]) < 1e-10
        assert abs(spec.upper - evals[1]) < 1e-10
        assert spec.dispersion >= 0.0

    def test_disagreeing_eigendecomposition_raises(self, monkeypatch):
        p = JcmParams(1.0, 0.8, 0.02, 60)
        eff = jcm.quasi_sigma_z(9.5 / p.g, coherent_state(ROOT10, 0.0, p.space), p)
        sigma_z_spectrum(eff)  # the intact eigenvalues agree
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigvalsh(m) + 2e-10)
        with pytest.raises(subdyn.CrossCheckError, match="spectrum formulas disagree"):
            sigma_z_spectrum(eff)

    def test_non_2x2_rejected(self):
        eff = subdyn.EffectiveOperator("photon", 0.0, np.eye(3, dtype=complex), EXCITED)
        with pytest.raises(ValueError):
            sigma_z_spectrum(eff)

    def test_nan_entry_fails_the_cross_check(self):
        m = np.array([[math.nan, 0.0], [0.0, -1.0]], dtype=complex)
        with pytest.raises(subdyn.CrossCheckError, match="spectrum formulas disagree"):
            sigma_z_spectrum(subdyn.EffectiveOperator("atom", 0.0, m, EXCITED))


class TestObservableSeries:
    def test_free_run_photon_channel_constant(self):
        sc = fig_scenario(0.0, g=0.0, grid=(0.0, 30.0, 200))
        series = observable_series(sc)
        np.testing.assert_allclose(series.channel("abs_quasi_a"), ROOT10,
                                   atol=1e-9)
        np.testing.assert_allclose(series.channel("quasi_n"), 10.0, atol=1e-8)

    def test_revival_onset_grows_with_detuning(self):
        onsets = []
        for ratio in (7.5, 10.0):
            feats = collapse_revival_features(observable_series(fig_scenario(ratio)))
            assert feats.revival_onsets
            onsets.append(feats.revival_onsets[0])
        assert onsets[0] < onsets[1]

    def test_back_action_anti_correlation(self, fig10_series):
        """d<N_eff>/dt and (1/2) d<sigma_z_eff>/dt cancel pointwise."""
        n = fig10_series.channel("quasi_n")
        z = fig10_series.channel("sigma_z_mean")
        dn = np.diff(n)
        dz = np.diff(z)
        np.testing.assert_allclose(dn + 0.5 * dz, 0.0, atol=1e-8)
        moving = np.abs(dn) > 1e-6
        assert np.all(np.sign(dn[moving]) == -np.sign(0.5 * dz[moving]))

    def test_metadata_reports_lane_and_tail(self, fig10_series):
        md = fig10_series.metadata
        assert md["kernel_lane"] == "numpy"
        assert md["tail_ok"] and md["tail_mass"] < 1e-12

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown channels"):
            fig_scenario(10.0, channels=("no_such_channel",))

    @pytest.mark.parametrize("channels", [(), ("quasi_n", "sigma_z_mean", "quasi_n")])
    def test_empty_or_repeated_channels_rejected(self, channels):
        with pytest.raises(ValueError, match="channels must name one channel or more, each once"):
            fig_scenario(10.0, channels=channels)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            fig_scenario(10.0, grid=(0.0, 0.0, 2))
        with pytest.raises(ValueError):
            fig_scenario(10.0, grid=(0.0, 10.0, 1))

    @pytest.mark.parametrize("steps", [2.5, 40.0, True, "40"])
    def test_non_integer_grid_steps_rejected(self, steps):
        # np.linspace would raise TypeError later, in observable_series
        with pytest.raises(ValueError, match="grid steps must be an integer"):
            Scenario(params=JcmParams(1.0, 0.8, 0.02, 10), atom_init=np.diag([1.0, 0.0]),
                     magnitude=1.0, grid=(0, 1, steps))

    def test_numpy_integer_grid_steps_accepted(self):
        assert len(fig_scenario(10.0, grid=(0.0, 1.0, np.int64(3))).gt_values()) == 3

    @pytest.mark.parametrize("magnitude", [-1.0, -1e-300])
    def test_negative_magnitude_rejected(self, magnitude):
        # coherent_state would refuse it later, in observable_series
        with pytest.raises(ValueError, match="magnitude must be >= 0"):
            Scenario(params=JcmParams(1.0, 0.8, 0.02, 10), atom_init=EXCITED,
                     magnitude=magnitude)

    def test_phase_budget_is_one_ulp_at_crosscheck_tol(self):
        from jcsubdyn import cli

        assert analysis.MAX_PHASE == cli.CROSSCHECK_TOL / np.finfo(np.float64).eps

    def test_phase_budget_rejects_vanishing_coupling(self):
        # gt up to 30 at g = 1e-300 means t = 3e301: no phase omega t keeps a digit
        with pytest.raises(ValueError, match="phase rate x time 3e\\+301 exceeds"):
            Scenario(params=JcmParams(1.0, 1.0, 1e-300, 12), atom_init=EXCITED, magnitude=1.0,
                     grid=(0.0, 30.0, 200))

    def test_phase_budget_counts_the_top_sector_rate(self):
        # omega and omega0 are 1, but lam_{n_max} = g sqrt(n_max + 1) = 1e5
        params = JcmParams(1.0, 1.0, 1e5 / math.sqrt(1e6 + 1), 10 ** 6)
        with pytest.raises(ValueError, match="phase rate x time"):
            Scenario(params=params, atom_init=EXCITED, grid=(0.0, 5e4 * params.g, 2))
        Scenario(params=params, atom_init=EXCITED, grid=(0.0, 4e4 * params.g, 2))

    @pytest.mark.parametrize("n_max, channels, oracle, per_step, limit, needle", [
        # steps x (n_max + 2) table cells
        (3000, analysis.DEFAULT_CHANNELS, False, 3002, analysis.MAX_TABLE_CELLS, "tables hold"),
        # steps x (12 channels + gt), then x (12 + 7 oracle twins + gt) output values
        (1, analysis.DEFAULT_CHANNELS, False, 13, analysis.MAX_OUTPUT_VALUES, "output holds"),
        (1, analysis.DEFAULT_CHANNELS, True, 20, analysis.MAX_OUTPUT_VALUES, "output holds"),
        (1, ("quasi_n", "qpl_ratio"), True, 4, analysis.MAX_OUTPUT_VALUES, "output holds"),
    ])
    def test_work_budgets_refuse_one_step_past_them(self, n_max, channels, oracle, per_step,
                                                    limit, needle):
        # built, never run: just under the budget the scenario is accepted
        steps = int(limit // per_step)
        sc = dict(params=JcmParams(1.0, 0.8, 0.02, n_max), atom_init=EXCITED, magnitude=1.0,
                  channels=channels, oracle=oracle)
        Scenario(grid=(0.0, 50.0, steps), **sc)
        with pytest.raises(ValueError, match=needle) as err:
            Scenario(grid=(0.0, 50.0, steps + 1), **sc)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("gt, refused", [(5e4, True), (2e4, False)])
    def test_oracle_phase_budget_counts_the_hamiltonian_norm(self, gt, refused):
        # ‖H‖ ≈ omega (n_max + 1) = 87: at gt 5e4 (‖H‖ t = 4.4e9, under MAX_PHASE) the
        # oracle drifts 1.11e-6 from the closed forms; at 2e4 (1.7e9) it keeps 1e-6
        from jcsubdyn import cli

        sc = dict(params=JcmParams(1.0, 0.99, 0.001, auto_n_max(40.0)), atom_init=EXCITED,
                  magnitude=math.sqrt(40.0), grid=(0.0, gt, 40), oracle=True)
        Scenario(**{**sc, "oracle": False})  # the closed path alone keeps its phases
        if refused:
            with pytest.raises(ValueError, match="the oracle's phase ‖H‖ x time 4.4e\\+09"):
                Scenario(**sc)
        else:
            series = observable_series(Scenario(**sc))
            assert series.metadata["oracle_deviation_max"] <= cli.CROSSCHECK_TOL

    def test_oracle_channels_track_closed_forms(self):
        sc = fig_scenario(10.0, n_max=40, grid=(0.0, 18.0, 25), oracle=True)
        series = observable_series(sc)
        assert series.metadata["oracle_deviation_max"] < 1e-6
        np.testing.assert_allclose(series.channel("oracle_sigma_z_mean"),
                                   series.channel("sigma_z_mean"), atol=1e-7)

    def test_oracle_channels_track_closed_forms_from_mixed_atom_start(self):
        # a rank-2 atom weighting puts two roots through the photon-side Kraus route
        mixed = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
        sc = Scenario(params=JcmParams(1.0, 0.8, 0.02, 40), atom_init=mixed, magnitude=ROOT10,
                      grid=(0.0, 12.0, 10), oracle=True)
        series = observable_series(sc)
        assert series.metadata["oracle_deviation_max"] < 1e-6


MIXED = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])


def _heisenberg_loop(scenario):
    """Per-t reference for ``analysis._oracle_channels``: both routes of
    ``effective_operator`` on one propagator per point."""
    p = scenario.params
    coh = scenario.coherent()
    amps, rho = coh.amplitudes, scenario.atom_init
    prop = subdyn.SpectralPropagator(jcm.hamiltonian(p).total)
    a_op, n_op = annihilation(p.space), number_op(p.space)
    rows = []
    for t in scenario.times():
        u = prop(t)
        eff_a = subdyn.effective_operator(u, a_op, "photon", rho, t).matrix
        eff_n = subdyn.effective_operator(u, n_op, "photon", rho, t).matrix
        eff_z = subdyn.effective_operator(u, pauli_ops().z, "atom", coh.density(), t).matrix
        lower, upper = np.linalg.eigvalsh(eff_z)
        rows.append((abs(amps.conj() @ eff_a @ amps), (amps.conj() @ eff_n @ amps).real,
                     np.trace(eff_z @ rho).real, lower, upper))
    return dict(zip(("oracle_abs_quasi_a", "oracle_quasi_n", "oracle_sigma_z_mean",
                     "oracle_sigma_z_lower", "oracle_sigma_z_upper"), np.array(rows).T))


class TestSchrodingerOracle:
    """The oracle's channels come from two evolved states; its checks must trip."""

    def _scenario(self, rho):
        params = JcmParams(1.0, 0.8, 0.02, 40)
        return Scenario(params=params, atom_init=rho, magnitude=ROOT10,
                        grid=(0.0, 40.0, 23), oracle=True)

    def _run(self, scenario):
        coh = scenario.coherent()
        lhs = coh.mean_photons + 0.5 * (scenario.atom_init[0, 0].real
                                        - scenario.atom_init[1, 1].real)
        return analysis._oracle_channels(scenario, coh, lhs, scenario.gt_values())

    @pytest.mark.parametrize("rho", [EXCITED, MIXED], ids=["pure", "mixed"])
    def test_matches_heisenberg_loop(self, monkeypatch, rho):
        # blocks of 5 points: several full blocks and a short last one
        monkeypatch.setattr(analysis._kernels, "T_BLOCK", 5)
        sc = self._scenario(rho)
        got = self._run(sc)
        ref = _heisenberg_loop(sc)
        for name, want in ref.items():
            np.testing.assert_allclose(got[name], want, rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(got["oracle_sigma_z_offset"],
                                   0.5 * (ref["oracle_sigma_z_upper"]
                                          + ref["oracle_sigma_z_lower"]), rtol=0, atol=1e-12)

    def _perturb_eigenvector(self, monkeypatch, scale):
        init = subdyn.SpectralPropagator.__init__

        def perturbed(prop, h):
            init(prop, h)
            prop.evecs = prop.evecs.copy()
            prop.evecs[:, 3] *= 1.0 + scale

        monkeypatch.setattr(subdyn.SpectralPropagator, "__init__", perturbed)

    def test_perturbed_eigenvector_fails_scenario_check(self, monkeypatch):
        self._perturb_eigenvector(monkeypatch, 1e-6)
        with pytest.raises(subdyn.CrossCheckError, match="eigendecomposition"):
            self._run(self._scenario(MIXED))

    def test_perturbed_eigenvector_fails_state_check(self, monkeypatch):
        self._perturb_eigenvector(monkeypatch, 1e-6)
        monkeypatch.setattr(subdyn.SpectralPropagator, "require_eigensystem",
                            lambda prop, h: None)
        with pytest.raises(subdyn.CrossCheckError, match="norm or orthogonality"):
            self._run(self._scenario(MIXED))

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, math.nan])
    def test_scaled_coherent_factor_trips_route_check(self, monkeypatch, scale):
        effective = subdyn._effective_matrices

        def scaled(u, side, actions, weight, factors):
            if side == "atom":  # the Kraus factor of |alpha><alpha|
                factors = (factors[0] * scale, factors[1])
            return effective(u, side, actions, weight, factors)

        sc = self._scenario(MIXED)
        self._run(sc)  # the intact factor agrees
        monkeypatch.setattr(subdyn, "_effective_matrices", scaled)
        with pytest.raises(subdyn.CrossCheckError, match="atom-side effective-operator routes"):
            self._run(sc)

    def test_coherent_factor_carries_a_truncated_norm(self):
        # n_max 12 at mean 10 leaves a tail mass of about 0.2, so the Kraus factor
        # must carry Tr|alpha><alpha| = 1 - tail_mass exactly as the dense weight does
        sc = Scenario(params=JcmParams(1.0, 0.8, 0.02, 12), atom_init=MIXED, magnitude=ROOT10,
                      grid=(0.0, 40.0, 5), oracle=True)
        assert sc.coherent().tail_mass > 0.1
        self._run(sc)

    def test_all_zero_coherent_amplitudes_keep_both_routes(self):
        # mean 1e4 at n_max 5: every retained amplitude underflows to 0, so the
        # coherent factor is a zero vector, as the dense weight is a zero matrix
        sc = Scenario(params=JcmParams(1.0, 0.9, 0.01, 5), atom_init=MIXED, magnitude=100.0,
                      grid=(0.0, 10.0, 5), oracle=True)
        assert not sc.coherent().amplitudes.any()
        got = self._run(sc)
        assert not got["oracle_quasi_n"].any()

    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    def test_heisenberg_points_catch_a_perturbed_state_value(self, monkeypatch, end):
        state_channels = analysis._state_channels

        def perturbed(*args):
            values, gram = state_channels(*args)
            values[1, end] += 1e-7  # quasi_n, below cli.CROSSCHECK_TOL
            return values, gram

        sc = self._scenario(MIXED)
        self._run(sc)  # intact states agree with the routes
        monkeypatch.setattr(analysis, "_state_channels", perturbed)
        with pytest.raises(subdyn.CrossCheckError, match="Heisenberg routes"):
            self._run(sc)


#: (n_max, grid steps): at n_max 8 blocks and lone rows are 512 rows and 4097 points
#: end in a lone row; at n_max 40 they are 512 and 256 rows, and 1100 points end in a
#: partial pass of 76 points
PASS_GRIDS = [(8, 4097), (40, 1100)]


def _pass_scenario(n_max, steps, **kw):
    return Scenario(params=JcmParams(1.0, 0.8, 0.02, n_max), atom_init=MIXED,
                    magnitude=1.0 if n_max < 20 else ROOT10, grid=(0.0, 60.0, steps), **kw)


@pytest.fixture(scope="module")
def one_pass_series():
    """grid -> the one-pass series of every channel, with the oracle on."""
    return {grid: observable_series(_pass_scenario(*grid, oracle=True)) for grid in PASS_GRIDS}


class TestGridPasses:
    """The closed path evaluates the grid one pass at a time and keeps what was asked for."""

    @pytest.mark.parametrize("n_max, steps", PASS_GRIDS)
    @pytest.mark.parametrize("points", [512, 1024, 4096])
    def test_passes_and_channel_subsets_move_no_byte(self, monkeypatch, one_pass_series,
                                                     n_max, steps, points):
        # the block and lone-row heights of channel_sums divide T_BLOCK
        assert analysis._PASS_POINTS % analysis._kernels.T_BLOCK == 0
        whole = one_pass_series[n_max, steps]
        monkeypatch.setattr(analysis, "_PASS_POINTS", points)
        rng = np.random.default_rng([n_max, points])
        for oracle in (False, True):
            k = rng.integers(1, len(analysis.DEFAULT_CHANNELS) + 1)
            names = tuple(rng.permutation(analysis.DEFAULT_CHANNELS)[:k].tolist())
            got = observable_series(_pass_scenario(n_max, steps, channels=names, oracle=oracle))
            want_names = names + tuple(f"oracle_{n}" for n in names
                                       if oracle and n in analysis.ORACLE_CHANNELS)
            assert list(got.channels) == list(want_names)
            for name in want_names:
                assert got.channel(name).tobytes() == whole.channel(name).tobytes(), name
            for key in ("conservation_residual_max",) + ("oracle_deviation",) * oracle:
                assert repr(got.metadata[key]) == repr(whole.metadata[key]), key

    def test_memory_is_the_outputs_plus_one_pass(self, monkeypatch):
        """40 passes of 1024 points at n_max 8, one channel: the series keeps 8 B a point
        for gt, quasi_n and, with the oracle on, oracle_quasi_n (0.66 or 0.98 MB), and one
        pass of sums, channels and oracle states, with the block workers' workspaces, takes
        about 1.1 MB closed and 1.3 MB with the oracle; every channel and sum of the grid
        kept at once would peak at about 6.6 MB, and the oracle's channels over the whole
        grid at about 5.7 MB."""
        monkeypatch.setattr(analysis, "_PASS_POINTS", 1024)
        steps = 40 * 1024
        for oracle in (False, True):
            sc = _pass_scenario(8, steps, channels=("quasi_n",), oracle=oracle)
            tracemalloc.start()
            try:
                series = observable_series(sc)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert list(series.channels) == ["quasi_n"] + ["oracle_quasi_n"] * oracle
            assert len(series.channel("quasi_n")) == steps
            outputs = (2 + oracle) * 8 * steps
            assert peak < outputs + 2e6, f"oracle {oracle}: peak traced {peak / 1e6:.2f} MB"

    def test_each_pass_checks_its_ends(self, monkeypatch):
        """Two passes of 512 points: the last point of the first pass is a pass end,
        so a state value off there by less than the cross-check tolerance is caught."""
        state_channels = analysis._state_channels
        calls = []

        def perturbed(*args):
            values, gram = state_channels(*args)
            if not calls:  # the first block of 512 points: the first pass
                values[1, -1] += 1e-7  # quasi_n, below cli.CROSSCHECK_TOL
            calls.append(len(values[1]))
            return values, gram

        monkeypatch.setattr(analysis, "_PASS_POINTS", 512)
        sc = _pass_scenario(8, 1024, channels=("quasi_n",), oracle=True)
        monkeypatch.setattr(analysis, "_state_channels", perturbed)
        with pytest.raises(subdyn.CrossCheckError, match="Heisenberg routes"):
            observable_series(sc)
        assert calls == [512]


class TestConservationAudit:
    def test_identity_holds_over_grid(self, fig10_series):
        audit = conservation_audit(fig10_series, EXCITED, 10.0)
        assert audit.lhs == 10.5
        assert audit.max_residual < 1e-8

    def test_free_run_residual_tiny(self):
        series = observable_series(fig_scenario(0.0, g=0.0, grid=(0.0, 30.0, 100)))
        audit = conservation_audit(series, EXCITED, 10.0)
        assert audit.max_residual < 1e-12

    def test_mismatched_inputs_rejected(self, fig10_series):
        with pytest.raises(ValueError, match="atom_init"):
            conservation_audit(fig10_series, np.array([[0.5, 0], [0, 0.5]], dtype=complex), 10.0)
        with pytest.raises(ValueError, match="mean photon"):
            conservation_audit(fig10_series, EXCITED, 9.0)
        with pytest.raises(ValueError, match="mean photon"):
            conservation_audit(fig10_series, EXCITED, math.nan)

    def test_scenario_mean_accepted_at_any_size(self):
        # sqrt(mean) ** 2 misses this mean by 1.8e-12, beyond an absolute 1e-12
        mean = 13302.925802883608
        sc = Scenario(params=JcmParams(1.0, 0.8, 0.02, auto_n_max(mean)), atom_init=EXCITED,
                      magnitude=math.sqrt(mean), grid=(0.0, 1.0, 2))
        series = observable_series(sc)
        assert conservation_audit(series, EXCITED, mean).max_residual < 1e-8 * mean
        with pytest.raises(ValueError, match="mean photon"):
            conservation_audit(series, EXCITED, mean * (1.0 + 1e-9))

    def test_list_atom_start_runs_as_its_array(self):
        grid = (0.0, 5.0, 20)
        listed = observable_series(fig_scenario(10.0, grid=grid,
                                                atom_init=[[1.0, 0.0], [0.0, 0.0]]))
        array = observable_series(fig_scenario(10.0, grid=grid))
        for name, values in array.channels.items():
            assert listed.channels[name].tobytes() == values.tobytes()
        assert conservation_audit(listed, EXCITED, 10.0).max_residual < 1e-8

    def test_missing_channel_rejected(self):
        series = observable_series(fig_scenario(10.0, grid=(0.0, 5.0, 20),
                                                channels=("abs_quasi_a",)))
        with pytest.raises(ValueError, match="lacks required channel"):
            conservation_audit(series, EXCITED, 10.0)


class TestQplDominance:
    def test_zero_time_pristine(self):
        p = JcmParams(1.0, 0.8, 0.02, 60)
        m = qpl_dominance(0.0, EXCITED, p, poisson_weights(10.0, p.n_max))
        assert m.ratio == 0.0
        np.testing.assert_allclose(m.deviation_per_n, 0.0, atol=1e-14)

    def test_diagonal_atom_start_gives_zero_ratio(self):
        p = JcmParams(1.0, 0.8, 0.02, 60)
        m = qpl_dominance(400.0, EXCITED, p, poisson_weights(10.0, p.n_max))
        assert m.ratio == 0.0
        assert m.weighted_deviation > 1e-3

    def test_coherent_atom_start_activates_extra_channels(self, rng):
        p = JcmParams(1.0, 0.8, 0.02, 60)
        rho = np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex)
        m = qpl_dominance(400.0, rho, p, poisson_weights(10.0, p.n_max))
        assert m.ratio > 1e-4

    @pytest.mark.parametrize("gt", [2.0, 5.0, 10.0])
    def test_deviation_falls_with_detuning_at_matched_gt(self, gt):
        devs = []
        for ratio in (7.5, 10.0, 20.0):
            p = JcmParams(1.0, 1.0 - ratio * 0.02, 0.02, 60)
            m = qpl_dominance(gt / p.g, EXCITED, p, poisson_weights(10.0, p.n_max))
            devs.append(m.weighted_deviation)
        assert devs[0] > devs[1] > devs[2]

    def test_per_sector_criterion_exposed(self):
        p = JcmParams(1.0, 0.8, 0.02, 20)
        m = qpl_dominance(1.0, EXCITED, p, poisson_weights(4.0, p.n_max))
        expected = p.g * np.sqrt(np.arange(1, p.n_max + 1)) / abs(p.half_detuning)
        np.testing.assert_allclose(m.rabi_over_detuning, expected, atol=1e-14)

    def test_ratio_matches_qpl_ratio_channel(self):
        # a short truncation makes the top-sector D term p(n_max)|D_{n_max}| visible
        sc = Scenario(params=JcmParams(1.0, 0.8, 0.02, 12), atom_init=MIXED, magnitude=3.0,
                      grid=(0.0, 20.0, 41))
        channel = observable_series(sc).channel("qpl_ratio")
        weights = sc.coherent().weights()
        ratios = [qpl_dominance(t, MIXED, sc.params, weights).ratio for t in sc.times()]
        assert channel[-1] > 0.9
        np.testing.assert_allclose(ratios, channel, rtol=0, atol=1e-12)

    def test_weight_shape_validated(self):
        p = JcmParams(1.0, 0.8, 0.02, 20)
        with pytest.raises(ValueError, match="weights"):
            qpl_dominance(1.0, EXCITED, p, poisson_weights(4.0, 5))


class TestChannelsMatchOperators:
    """Each closed-form channel equals the <alpha|...|alpha> value of its per-t operator."""

    @pytest.mark.parametrize("n_max, mean", [(12, 9.0), (36, 10.0)])
    def test_channels_equal_per_t_operators(self, n_max, mean):
        # a short truncation makes the range of every series visible
        sc = Scenario(params=JcmParams(1.0, 0.8, 0.02, n_max), atom_init=MIXED,
                      magnitude=math.sqrt(mean), phase=0.3, grid=(0.0, 40.0, 41))
        channels = observable_series(sc).channels
        coh = sc.coherent()
        amps = coh.amplitudes
        weights = coh.weights()
        rows = []
        for t in sc.times():
            qa = amps.conj() @ jcm.quasi_annihilation(t, MIXED, sc.params).matrix @ amps
            qn = amps.conj() @ jcm.quasi_number(t, MIXED, sc.params).matrix @ amps
            spec = sigma_z_spectrum(jcm.quasi_sigma_z(t, coh, sc.params))
            rows.append((qa.real, qa.imag, qn.real, spec.offset, spec.dispersion,
                         qpl_dominance(t, MIXED, sc.params, weights).ratio))
        names = ("quasi_a_re", "quasi_a_im", "quasi_n", "sigma_z_offset",
                 "sigma_z_dispersion", "qpl_ratio")
        for name, got in zip(names, np.array(rows).T):
            rtol, atol = (1e-12, 0.0) if name == "quasi_n" else (0.0, 1e-12)
            np.testing.assert_allclose(got, channels[name], rtol=rtol, atol=atol, err_msg=name)


class TestCollapseRevival:
    def test_free_run_has_no_features(self):
        series = observable_series(fig_scenario(0.0, g=0.0, grid=(0.0, 30.0, 400)))
        feats = collapse_revival_features(series)
        assert not feats.collapse_detected
        assert feats.revival_peaks == ()

    def test_detuned_run_collapses_then_revives(self, fig10_series):
        feats = collapse_revival_features(fig10_series)
        assert feats.collapse_detected
        assert feats.revival_peaks
        assert feats.collapse_end < feats.revival_peaks[0] <= 50.0
        assert -1.0 < feats.plateau < 1.0

    def test_plateau_strictly_inside_unit_interval(self):
        for ratio in (7.5, 20.0):
            feats = collapse_revival_features(observable_series(fig_scenario(ratio)))
            assert feats.collapse_detected
            assert -1.0 + 1e-6 < feats.plateau < 1.0 - 1e-6

    def test_photon_alignment_through_conservation(self, fig10_series):
        feats = collapse_revival_features(fig10_series, sigma_channel="sigma_z_mean")
        assert feats.collapse_start <= feats.photon_quiet_time <= feats.collapse_end
        assert feats.revival_peaks
        nearest = min(abs(feats.photon_peak_time - pk) for pk in feats.revival_peaks)
        assert nearest <= feats.window_gt

    def test_too_short_series_rejected(self):
        series = observable_series(fig_scenario(10.0, grid=(0.0, 1.0, 10)))
        with pytest.raises(ValueError, match="too short"):
            collapse_revival_features(series)


def _rolling_loop(y, half):
    """Per-index reference for ``analysis._rolling``."""
    n = len(y)
    mean, std, dev = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        seg = y[max(0, i - half):min(n, i + half + 1)]
        m = seg.mean()
        mean[i] = m
        std[i] = seg.std()
        dev[i] = np.abs(seg - m).max()
    return mean, std, dev


def _rolling_edge_inputs(rng, half):
    """Series whose envelope rests on ties and signs: windows of signed zeros only
    (all +0, all -0, mixed), a constant, runs that repeat each window's extremes,
    subnormals beside zeros and the smallest normals, and series no longer than
    one window (n <= 2 * half)."""
    n = 5 * half + 7
    zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    runs = np.repeat(rng.integers(-2, 3, n).astype(float), rng.integers(1, 2 * half + 3, n))[:n]
    tiny = rng.integers(-40, 41, n) * 5e-324
    tiny[rng.random(n) < 0.2] = 2.2250738585072014e-308
    return [np.zeros(n), -np.zeros(n), zeros, np.full(n, 0.1), runs, -runs, tiny, tiny * 0.5,
            np.full(2 * half, -0.0), zeros[:half + 1], runs[:2 * half], rng.standard_normal(1)]


def _runs_loop(mask):
    """Per-index reference for ``analysis._runs``."""
    runs, start = [], None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(mask) - 1))
    return runs


class TestWindowHelpers:
    """The vectorised window helpers must reproduce their loop references exactly."""

    @pytest.mark.parametrize("half", [1, 3, 15, 22, 7, 19, 40])
    def test_rolling_bit_identical_to_loop(self, rng, half):
        # 2*half + 2 points: the two clamped edge ranges overlap in their windows;
        # 4000 points span several row blocks of the window view.  Compared as
        # raw bytes, so a signed zero counts; without the std (the photon
        # channel's path) the mean and deviation bytes must not change.  The edge
        # inputs follow the random ones.
        def raw(a):
            return a.view(np.uint64)

        series = [rng.standard_normal(n) * rng.uniform(0.1, 10.0) + rng.uniform(-1.0, 1.0)
                  for n in (2 * half, 2 * half + 1, 2 * half + 2, 5 * half + 7, 400, 4000)]
        for y in series + _rolling_edge_inputs(rng, half):
            want = _rolling_loop(y, half)
            for got, ref in zip(analysis._rolling(y, half), want):
                assert np.array_equal(raw(got), raw(ref))
            mean, std, dev = analysis._rolling(y, half, with_std=False)
            assert std is None
            assert np.array_equal(raw(mean), raw(want[0]))
            assert np.array_equal(raw(dev), raw(want[2]))

    @pytest.mark.parametrize("cells", [8, 64, 1000])
    def test_rolling_blocks_move_no_bit(self, rng, monkeypatch, cells):
        # envelope blocks of 1, 8 and 125 points; mean blocks of one row up to a few dozen
        monkeypatch.setattr(analysis, "_WINDOW_CELLS", cells)
        for half in (1, 7, 40):
            for n in (2 * half, 2 * half + 1, 300):
                y = rng.standard_normal(n)
                for got, ref in zip(analysis._rolling(y, half), _rolling_loop(y, half)):
                    assert got.tobytes() == ref.tobytes()

    def test_rolling_nan_matches_loop(self, rng):
        # a window holding a NaN gives NaN in all three; every other window keeps its bytes
        half = 5
        y = rng.standard_normal(200)
        y[[0, 37, 38, 120, 199]] = np.nan
        want = _rolling_loop(y, half)
        assert np.isnan(want[0]).sum() == 35  # 6 + 12 + 11 + 6 windows
        for with_std in (True, False):
            got = analysis._rolling(y, half, with_std)
            for g, ref in zip(got, want):
                if g is None:
                    continue
                assert np.array_equal(np.isnan(g), np.isnan(ref))
                ok = ~np.isnan(ref)
                assert np.array_equal(g[ok].view(np.uint64), ref[ok].view(np.uint64))

    def test_runs_match_loop(self, rng):
        masks = [np.ones(17, bool), np.zeros(17, bool), np.zeros(0, bool),
                 np.array([False, True, True]), np.array([True]), np.array([False])]
        masks += [rng.random(n) < q for n in (1, 2, 9, 64, 501) for q in (0.2, 0.5, 0.9)]
        masks += [np.concatenate([rng.random(40) < 0.5, np.ones(5, bool)]) for _ in range(3)]
        for mask in masks:
            got = analysis._runs(mask)
            assert got == _runs_loop(mask)
            assert all(type(i) is int for pair in got for i in pair)


#: (call, exception type, message needle) of a one-line refusal
REFUSALS = {
    "unknown-channel": (lambda: observable_series(fig_scenario(10.0, grid=(0.0, 1.0, 16)))
                        .channel("sigma_x"), KeyError, "series has no channel 'sigma_x'"),
    # at ratio 0 and mean 0 the detection window is pi, 49 points of this grid
    "detection-window": (lambda: collapse_revival_features(observable_series(Scenario(
        params=JcmParams(1.0, 1.0, 0.02, 8), atom_init=EXCITED, magnitude=0.0,
        grid=(0.0, 1.0, 16)))), ValueError, "too short for the detection window"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    call, exc, needle = REFUSALS[case]
    with pytest.raises(exc, match=needle):
        call()
