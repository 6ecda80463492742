import math

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


def fig_scenario(ratio, g=0.02, n_max=60, grid=(0.0, 50.0, 2000), **kw):
    params = JcmParams(1.0, 1.0 - ratio * g, g, n_max)
    return Scenario(params=params, atom_init=EXCITED, magnitude=ROOT10, phase=0.0,
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

    def test_non_2x2_rejected(self):
        eff = subdyn.EffectiveOperator("photon", 0.0, np.eye(3, dtype=complex), EXCITED)
        with pytest.raises(ValueError):
            sigma_z_spectrum(eff)


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
        return analysis._oracle_channels(scenario, coh, lhs)

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

    def test_scenario_mean_accepted_at_any_size(self):
        # sqrt(mean) ** 2 misses this mean by 1.8e-12, beyond an absolute 1e-12
        mean = 13302.925802883608
        sc = Scenario(params=JcmParams(1.0, 0.8, 0.02, auto_n_max(mean)), atom_init=EXCITED,
                      magnitude=math.sqrt(mean), grid=(0.0, 1.0, 2))
        series = observable_series(sc)
        assert conservation_audit(series, EXCITED, mean).max_residual < 1e-8 * mean
        with pytest.raises(ValueError, match="mean photon"):
            conservation_audit(series, EXCITED, mean * (1.0 + 1e-9))

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
        # channel's path) the mean and deviation bytes must not change.
        def raw(a):
            return a.view(np.uint64)

        for n in (2 * half, 2 * half + 1, 2 * half + 2, 5 * half + 7, 400, 4000):
            y = rng.standard_normal(n) * rng.uniform(0.1, 10.0) + rng.uniform(-1.0, 1.0)
            want = _rolling_loop(y, half)
            for got, ref in zip(analysis._rolling(y, half), want):
                assert np.array_equal(raw(got), raw(ref))
            mean, std, dev = analysis._rolling(y, half, with_std=False)
            assert std is None
            assert np.array_equal(raw(mean), raw(want[0]))
            assert np.array_equal(raw(dev), raw(want[2]))

    def test_runs_match_loop(self, rng):
        masks = [np.ones(17, bool), np.zeros(17, bool), np.zeros(0, bool),
                 np.array([False, True, True]), np.array([True]), np.array([False])]
        masks += [rng.random(n) < q for n in (1, 2, 9, 64, 501) for q in (0.2, 0.5, 0.9)]
        masks += [np.concatenate([rng.random(40) < 0.5, np.ones(5, bool)]) for _ in range(3)]
        for mask in masks:
            got = analysis._runs(mask)
            assert got == _runs_loop(mask)
            assert all(type(i) is int for pair in got for i in pair)
