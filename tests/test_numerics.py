import math

import numpy as np
import pytest

from jcsubdyn import numerics
from jcsubdyn.hilbert import pauli_ops
from jcsubdyn.subdyn import SpectralPropagator

from conftest import random_hermitian


def taylor_expm(h, t, terms=60):
    """Independent matrix-exponential oracle: truncated power series."""
    acc = np.eye(h.shape[0], dtype=np.complex128)
    term = np.eye(h.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ (-1j * t * h) / k
        acc = acc + term
    return acc


def test_pauli_x_squares_to_identity():
    sx = pauli_ops().x
    np.testing.assert_allclose(sx @ sx, np.eye(2), atol=1e-15)


def test_eigh_spectrum_of_pauli_x():
    evals, _ = numerics.eigh_hermitian(pauli_ops().x)
    np.testing.assert_allclose(evals, [-1.0, 1.0], atol=1e-14)


def test_eigh_orders_ascending():
    evals, _ = numerics.eigh_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(evals, [1.0, 2.0, 3.0], atol=1e-14)


def test_eigh_reconstructs_random_hermitian(rng):
    h = random_hermitian(rng, 6)
    evals, evecs = numerics.eigh_hermitian(h)
    rebuilt = (evecs * evals) @ evecs.conj().T
    assert numerics.max_abs(rebuilt - h) < 1e-10
    assert numerics.unitarity_defect(evecs) < 1e-10


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        numerics.eigh_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_evolution_operator_diagonal_generator():
    u = SpectralPropagator(pauli_ops().z)(math.pi)
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-14)


def test_evolution_operator_at_zero_time(rng):
    h = random_hermitian(rng, 5)
    np.testing.assert_allclose(SpectralPropagator(h)(0.0), np.eye(5), atol=1e-14)


def test_evolution_operator_against_taylor_series(rng):
    h = random_hermitian(rng, 5)
    h /= numerics.max_abs(h)
    u = SpectralPropagator(h)(0.7)
    assert numerics.max_abs(u - taylor_expm(h, 0.7)) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_generated_evolution_is_unitary(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 7)
    u = SpectralPropagator(h)(rng.uniform(0.0, 10.0))
    assert numerics.unitarity_defect(u) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_evolution_group_property(seed):
    rng = np.random.default_rng(1000 + seed)
    h = random_hermitian(rng, 6)
    t1, t2 = rng.uniform(0.0, 5.0, size=2)
    prop = SpectralPropagator(h)
    assert numerics.max_abs(prop(t1) @ prop(t2) - prop(t1 + t2)) < 1e-9


def test_require_finite_rejects_nan():
    m = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        numerics.require_finite(m)


def test_require_unitary_rejects_nan():
    with pytest.raises(ValueError, match="is not unitary: defect nan"):
        numerics.require_unitary(np.full((4, 4), np.nan, dtype=complex))


def test_hermitian_tolerance_is_relative():
    h = 1e6 * np.eye(3, dtype=complex)
    h[0, 1] = 1e-8  # below 1e-12 * 1e6
    numerics.require_hermitian(h)
    h[0, 1] = 1e-4
    with pytest.raises(ValueError):
        numerics.require_hermitian(h)


#: (call, exception type, message needle) of a one-line refusal
REFUSALS = {
    "hermitian-not-square": (lambda: numerics.require_hermitian(np.zeros((2, 3))),
                             ValueError, "must be square"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    call, exc, needle = REFUSALS[case]
    with pytest.raises(exc, match=needle):
        call()
