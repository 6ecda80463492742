"""Invariants on random parameters, checked against the brute-force oracle,
and the CSV number text on random doubles, checked against ``'%.17g'``.

Examples are drawn by Hypothesis under a derandomised profile, so every run
draws the same ones.  Without Hypothesis installed the module is skipped.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import percent_17g, text_mismatch
from jcsubdyn import _kernels, cli, jcm, subdyn
from jcsubdyn._csvtext import format_rows
from jcsubdyn.analysis import ORACLE_CHANNELS, Scenario, observable_series
from jcsubdyn.hilbert import auto_n_max

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("tier1")


@st.composite
def atom_densities(draw):
    """A 2x2 density from a Bloch vector of length <= 1, in the (up, down) basis."""
    length = draw(st.floats(0.0, 1.0))
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    x, y, z = (length * math.sin(theta) * math.cos(phi), length * math.sin(theta) * math.sin(phi),
               length * math.cos(theta))
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


@st.composite
def scenarios(draw):
    magnitude = draw(st.floats(0.0, 2.0))
    # the grid is in g*t units, so a g near 0 stretches it to times where no
    # double-precision phase is meaningful; a free run (g = 0) uses plain times
    g = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.1)))
    # the CLI's truncation rule: below n_max 8 the closed forms' untruncated top
    # sector differs from the truncated engine by about |alpha| p(n_max - 1)
    n_max = max(auto_n_max(magnitude ** 2), 8)
    params = jcm.JcmParams(1.0, draw(st.floats(0.5, 1.5)), g, n_max)
    return Scenario(params=params, atom_init=draw(atom_densities()), magnitude=magnitude,
                    phase=draw(st.floats(-math.pi, math.pi)), grid=(0.0, 30.0, 16), oracle=True)


@given(scenarios())
def test_closed_channels_match_oracle(scenario):
    series = observable_series(scenario)
    deviations = series.metadata["oracle_deviation"]
    assert set(deviations) == set(ORACLE_CHANNELS)
    assert max(deviations.values()) <= cli.CROSSCHECK_TOL


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
    assert text_mismatch(format_rows(block), percent_17g(block)) is None
