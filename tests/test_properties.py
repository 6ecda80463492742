"""Invariants on random parameters, checked against the brute-force oracle, the
effective operators and the pristine limits; the channel sums of zero-weight
starts, checked bitwise against every term evaluated; the CSV number text on
random doubles, checked against ``'%.17g'``; and the rolling window statistics
on random doubles, checked bitwise against their per-index loop.

Examples are drawn by Hypothesis under a derandomised profile, so every run
draws the same ones.  Without Hypothesis installed the module is skipped.
"""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import percent_17g, text_mismatch
from jcsubdyn import _kernels, analysis, cli, jcm, subdyn
from jcsubdyn._csvtext import format_json, format_rows
from jcsubdyn.analysis import ORACLE_CHANNELS, Scenario, observable_series
from jcsubdyn.hilbert import (_lower_cut, annihilation, auto_n_max, number_op, pauli_ops,
                              poisson_weights)
from test_analysis import _rolling_loop

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("tier1")


@st.composite
def atom_densities(draw):
    """A 2x2 density in the (up, down) basis: from a Bloch vector of length <= 1,
    or exactly |up>, |down> or diagonal, whose zero weights the kernels skip."""
    if draw(st.booleans()):
        uu = draw(st.one_of(st.sampled_from([1.0, 0.0]), st.floats(0.0, 1.0)))
        return np.diag([uu, 1.0 - uu]).astype(np.complex128)
    length = draw(st.floats(0.0, 1.0))
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    x, y, z = (length * math.sin(theta) * math.cos(phi), length * math.sin(theta) * math.sin(phi),
               length * math.cos(theta))
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


@st.composite
def scenarios(draw, oracle=True):
    magnitude = draw(st.floats(0.0, 2.0))
    # the grid is in g*t units, so a g near 0 stretches it to times where no
    # double-precision phase is meaningful; a free run (g = 0) uses plain times
    g = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.1)))
    # the CLI's truncation rule: below n_max 8 the closed forms' untruncated top
    # sector differs from the truncated engine by about |alpha| p(n_max - 1)
    n_max = max(auto_n_max(magnitude ** 2), 8)
    params = jcm.JcmParams(1.0, draw(st.floats(0.5, 1.5)), g, n_max)
    return Scenario(params=params, atom_init=draw(atom_densities()), magnitude=magnitude,
                    phase=draw(st.floats(-math.pi, math.pi)), grid=(0.0, 30.0, 16), oracle=oracle)


@given(scenarios())
def test_closed_channels_match_oracle(scenario):
    series = observable_series(scenario)
    deviations = series.metadata["oracle_deviation"]
    assert set(deviations) == set(ORACLE_CHANNELS)
    assert max(deviations.values()) <= cli.CROSSCHECK_TOL


def _windowed_scenario(mean, g, ratio, rho, phase, gt_stop):
    """An oracle scenario at mean photon number ``mean`` and auto n_max, with
    (omega - omega0) / g = ``ratio``, 24 points over gt in [0, gt_stop]."""
    params = jcm.JcmParams(1.0, 1.0 - ratio * g, g, auto_n_max(mean))
    return Scenario(params=params, atom_init=rho, magnitude=math.sqrt(mean), phase=phase,
                    grid=(0.0, gt_stop, 24), oracle=True)


@st.composite
def windowed_scenarios(draw):
    """Means log-uniform in [25, 150], where the closed sums' sector window starts
    above sector 0: auto n_max <= 234, so the oracle's d <= 470."""
    return _windowed_scenario(
        math.exp(draw(st.floats(math.log(25.0), math.log(150.0)))), draw(st.floats(1e-3, 0.1)),
        draw(st.floats(-30.0, 30.0)), draw(atom_densities()), draw(st.floats(-math.pi, math.pi)),
        draw(st.floats(1.0, 100.0)))


@settings(max_examples=8)
@example(_windowed_scenario(150.0, 0.02, 30.0, np.array([[0.6, 0.2 - 0.3j], [0.2 + 0.3j, 0.4]]),
                            0.3, 100.0))
@given(windowed_scenarios())
def test_sector_window_matches_oracle(scenario):
    """The oracle keeps every sector, so it checks the sectors the window drops."""
    assert _lower_cut(scenario.magnitude ** 2) > 0
    md = observable_series(scenario).metadata
    assert md["oracle_deviation_max"] <= cli.CROSSCHECK_TOL
    assert md["conservation_residual_max"] / max(1.0, abs(md["conservation_lhs"])) <= 1e-8


@given(scenarios())
def test_block_unitarity(scenario):
    p = scenario.params
    v, w = _kernels.corr_tables(scenario.times(), p.half_detuning, p.g, p.n_max + 2)
    assert np.max(np.abs(np.abs(v) ** 2 + w ** 2 - 1.0)) <= 1e-12


@given(scenarios())
def test_closed_evolve_matches_spectral_evolve(scenario):
    """closed_evolve of each basis ket matches the spectral one on the validated subspace."""
    p = scenario.params
    ts = scenario.times()
    eye = np.eye(2 * p.space.dim)
    diff = (jcm.closed_evolve(ts, p, eye)
            - subdyn.SpectralPropagator(jcm.hamiltonian(p).total).evolve(eye, ts))
    keep = subdyn.composite_validated_indices(p.n_max)
    assert np.max(np.abs(diff[:, keep][:, :, keep])) <= 1e-9


#: Absolute tolerance of the pristine limits; they hold to about 1e-15.
PRISTINE_TOL = 1e-12


def _pristine_values(scenario):
    """quasi_a, quasi_n and sigma_z_mean at t = 0: alpha sum_{n<n_max} p(n),
    sum n p(n) and rho_uu - rho_dd."""
    coh = scenario.coherent()
    p = coh.weights()
    rho = scenario.atom_init
    return coh.alpha * p[:-1].sum(), np.arange(len(p)) @ p, (rho[0, 0] - rho[1, 1]).real


@given(scenarios(oracle=False))
def test_pristine_limit_at_t0(scenario):
    channels = observable_series(scenario).channels
    quasi_a, quasi_n, inversion = _pristine_values(scenario)
    assert abs(channels["quasi_a_re"][0] + 1j * channels["quasi_a_im"][0] - quasi_a) <= PRISTINE_TOL
    assert abs(channels["quasi_n"][0] - quasi_n) <= PRISTINE_TOL
    assert abs(channels["sigma_z_mean"][0] - inversion) <= PRISTINE_TOL
    assert abs(channels["qpl_ratio"][0]) <= PRISTINE_TOL
    assert abs(channels["qpl_deviation"][0]) <= PRISTINE_TOL


@given(scenarios(oracle=False))
def test_pristine_values_hold_at_every_t_without_coupling(scenario):
    p = scenario.params
    free = dataclasses.replace(scenario, params=jcm.JcmParams(p.omega, p.omega0, 0.0, p.n_max))
    channels = observable_series(free).channels
    quasi_a, quasi_n, inversion = _pristine_values(free)
    assert np.max(np.abs(channels["quasi_n"] - quasi_n)) <= PRISTINE_TOL
    assert np.max(np.abs(channels["sigma_z_mean"] - inversion)) <= PRISTINE_TOL
    assert np.max(np.abs(channels["abs_quasi_a"] - abs(quasi_a))) <= PRISTINE_TOL


@st.composite
def scenario_times(draw):
    """A scenario without the oracle, one of its grid times and U at that time."""
    scenario = draw(scenarios(oracle=False))
    t = float(scenario.times()[draw(st.integers(0, scenario.grid[2] - 1))])
    return scenario, t, subdyn.SpectralPropagator(jcm.hamiltonian(scenario.params).total)(t)


@given(scenario_times())
def test_dressed_photon_operators_match_effective_operator(point):
    """On the validated window [:n_max, :n_max], within the route tolerance."""
    scenario, t, u = point
    p, rho = scenario.params, scenario.atom_init
    for dressed, op in ((jcm.quasi_annihilation, annihilation), (jcm.quasi_number, number_op)):
        eff = subdyn.effective_operator(u, op(p.space), "photon", rho, t).matrix
        gap = dressed(t, rho, p).matrix - eff
        assert np.max(np.abs(gap[:p.n_max, :p.n_max])) <= subdyn.ROUTE_TOL, dressed.__name__


@given(scenario_times())
def test_dressed_inversion_matches_effective_operator(point):
    scenario, t, u = point
    coh = scenario.coherent()
    eff = subdyn.effective_operator(u, pauli_ops().z, "atom", coh.density(), t).matrix
    assert np.max(np.abs(jcm.quasi_sigma_z(t, coh, scenario.params).matrix - eff)) <= 1e-8


@given(scenarios(oracle=False))
def test_conservation_residual_relative_to_lhs(scenario):
    md = observable_series(scenario).metadata
    assert md["conservation_residual_max"] / max(1.0, abs(md["conservation_lhs"])) <= 1e-8


def _every_term_block(ts, n_max, half_det, g, omega, p, p1, alpha, rho_uu, rho_dd, rho_ud):
    """One block of channel sums that evaluates every term, whatever its weight."""
    v, w = _kernels.corr_tables(ts, half_det, g, n_max + 2)
    ns = np.arange(n_max + 1, dtype=np.float64)
    vn, wn, wm = v[:, 1:], w[:, 1:], w[:, :-1]
    _, s1z, s2z, t3 = _kernels.inversion_series(v, w, 0, n_max + 1, p, p1)
    s3z = -2j * alpha * t3
    root = 1.0 / np.sqrt(ns[:-1] + 1.0)
    quasi_n = (_kernels._matvec(wn ** 2, p * rho_uu) - _kernels._matvec(wm ** 2, p * rho_dd)
               + float(ns @ p))
    cross = -1j * rho_ud * np.conj(alpha) * ((p[:-1] * root) * (wn[:, :-1] * vn[:, :-1])).sum(axis=1)
    quasi_n = quasi_n + 2.0 * cross.real
    va, wa = v[:, 1:n_max + 1], w[:, 1:n_max + 1]
    n = ns[:-1]
    a_up = np.conj(va) * v[:, 2:] + wa * w[:, 2:] * np.sqrt((n + 2.0) / (n + 1.0))
    a_dn = np.conj(va) * v[:, :n_max] + wa * w[:, :n_max] * np.sqrt(n / (n + 1.0))
    a_coef = rho_uu * a_up + rho_dd * a_dn
    a_sum = _kernels._matvec(a_coef, p[:-1])
    qpl_dev = _kernels._matvec(np.abs(a_coef - 1.0), p[:-1])
    qpl_abs_a = _kernels._matvec(np.abs(a_coef), p[:-1])
    d_coef = _kernels.dressing_d(v, w, 0, n_max + 1, rho_ud)
    d_sum = _kernels._matvec(d_coef, p)
    qpl_cd = _kernels._matvec(np.abs(d_coef), p)
    c_coef = _kernels.dressing_c(v[:, 1:], w[:, 1:], 1, n_max, np.conj(rho_ud))
    c_sum = _kernels._matvec(c_coef, p[:-2] / np.sqrt(n[1:] * (n[1:] + 1.0)))
    qpl_cd = qpl_cd + _kernels._matvec(np.abs(c_coef), p[1:-1])
    quasi_a = np.exp(-1j * omega * ts) * (alpha * a_sum + alpha * alpha * c_sum + d_sum)
    return s1z, s2z, s3z, quasi_a, quasi_n, qpl_dev, qpl_cd, qpl_abs_a


def _sums_args(n_max, magnitude, phase, g, gt_stop, steps, half_det, rho_uu, rho_dd, rho_ud):
    """channel_sums arguments for a start alpha = magnitude e^{i phase} on a gt grid."""
    p = poisson_weights(magnitude ** 2, n_max)
    p1 = poisson_weights(magnitude ** 2, n_max + 1)[1:]
    ts = np.linspace(0.0, gt_stop / (g or 1.0), steps)
    alpha = magnitude * complex(math.cos(phase), math.sin(phase))
    return ts, n_max, half_det, g, 1.0, p, p1, alpha, rho_uu, rho_dd, rho_ud


@st.composite
def zero_weight_sums_args(draw):
    """channel_sums arguments whose density weights are often an exact (signed)
    zero.  The weights need not form a density: the comparison is of bytes.
    A subnormal |alpha| makes alpha * a_sum underflow to signed zeros."""
    weight = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
    return _sums_args(
        draw(st.integers(1, 40)), draw(st.one_of(st.sampled_from([0.0, 1e-323]), st.floats(0.0, 3.0))),
        draw(st.floats(-math.pi, math.pi)), draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.1))),
        draw(st.floats(1.0, 100.0)), draw(st.integers(2, 700)),
        draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.3, 0.3))), draw(weight), draw(weight),
        draw(st.one_of(st.sampled_from([0j, complex(-0.0, -0.0)]), st.complex_numbers(max_magnitude=0.5))))


# alpha * a_sum has -0 parts: the vacuum |up> start (alpha = 0) and, from
# |down>, a subnormal alpha whose products with a_sum underflow
@example(_sums_args(12, 0.0, 0.0, 0.05, 100.0, 600, -0.0, 1.0, 0.0, 0j))
@example(_sums_args(12, 1e-323, math.pi, 0.05, 100.0, 600, 0.1, 0.0, 1.0, 0j))
# a lone last row after one 256-row block, in a grid of one 512-row block
@example(_sums_args(40, 2.0, 0.4, 0.05, 100.0, 257, 0.1, 0.7, 0.3, 0j))
@given(zero_weight_sums_args())
def test_skipped_terms_leave_the_sums_bitwise(args):
    ts, n_max = args[0], args[1]
    # channel_sums reduces a last row alone exactly where these blocks leave it
    # alone, and no temporary of the reference's operator chains reaches the
    # 256 KiB at which numpy would reuse it in place
    rows = _kernels.block_rows(n_max + 2, _kernels.LONE_ROW_CELLS)
    blocks = [_every_term_block(ts[k:k + rows], *args[1:]) for k in range(0, len(ts), rows)]
    for got, want in zip(_kernels.channel_sums(*args), zip(*blocks)):
        assert got.tobytes() == np.concatenate(want).tobytes()


@st.composite
def raw_double_blocks(draw):
    """A block of finite doubles from raw bit fields: mixed signs, every exponent field."""
    cols = draw(st.integers(1, 6))
    fields = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 2046),
                                     st.integers(0, 2 ** 52 - 1)), min_size=cols, max_size=120))
    bits = [(sign << 63) | (exponent << 52) | mantissa for sign, exponent, mantissa in fields]
    bits = bits[:len(bits) // cols * cols]
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, cols)


@given(raw_double_blocks())
def test_csv_text_is_percent_17g_on_raw_bit_patterns(block):
    assert text_mismatch(format_rows(block).decode(), percent_17g(block)) is None


@given(raw_double_blocks().map(np.ravel))
def test_json_text_is_repr_on_raw_bit_patterns(values):
    kinds = np.arange(len(values), dtype=np.uint8) % 3  # in channels, in gt, an array's end
    want = b"".join(float.__repr__(v).encode() + cli._JSON_SEPS[k]
                    for v, k in zip(values.tolist(), kinds.tolist()))
    assert format_json(values, kinds, cli._JSON_SEPS) == want


@given(raw_double_blocks().map(np.ravel), st.integers(1, 40))
def test_rolling_is_its_loop_on_raw_bit_patterns(y, half):
    # huge values overflow the window sums to ±inf or NaN in both, with the same bits
    with np.errstate(over="ignore", invalid="ignore"):
        want = _rolling_loop(y, half)
        for with_std in (True, False):
            for got, ref in zip(analysis._rolling(y, half, with_std), want):
                assert got is None or got.tobytes() == ref.tobytes()
