"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.

Criterion 6 contains a sub-check that the physics cannot satisfy: with a
mean of 10 quanta, the first rephasing (revival) of the largest-detuning run
(detuning/g = 20) peaks near gt ~ 66-70, outside the required gt <= 50
window (the two smaller detunings revive near 33 and 40, inside it).  The
sub-check is asserted verbatim anyway and the test prints the measured
revival time found on an extended grid, so the failure is an honest,
diagnosed red rather than a hidden one.
"""

import math

import numpy as np
import pytest

from jcsubdyn import _kernels, analysis, jcm, subdyn
from jcsubdyn.analysis import Scenario, collapse_revival_features, observable_series
from jcsubdyn.hilbert import annihilation, coherent_state, number_op, pauli_ops, poisson_weights
from jcsubdyn.jcm import JcmParams
from jcsubdyn.numerics import max_abs

EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
ROOT10 = math.sqrt(10.0)
FIG_G = 0.02
FIG_RATIOS = (7.5, 10.0, 20.0)


def fig_params(ratio, n_max=60):
    return JcmParams(1.0, 1.0 - ratio * FIG_G, FIG_G, n_max)


def report(num, title, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {title}{tail}")
    return ok


@pytest.fixture(scope="module")
def fig_series():
    series = {}
    for ratio in FIG_RATIOS:
        sc = Scenario(params=fig_params(ratio), atom_init=EXCITED, magnitude=ROOT10,
                      phase=0.0, grid=(0.0, 50.0, 2000))
        series[ratio] = observable_series(sc)
    return series


def test_criterion_1_propagator_oracle_equivalence():
    """Closed propagator equals the spectral exponential on the validated subspace."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for omega0 in (0.8, 0.9, 0.95):
        for g in (0.02, 0.05, 0.1):
            p = JcmParams(1.0, omega0, g, 30)
            prop = subdyn.SpectralPropagator(jcm.hamiltonian(p).total)
            ts = rng.uniform(0.0, 50.0, size=50) / g
            eye = np.eye(2 * p.space.dim)
            # row k of closed_evolve(...)[i] is U(t_i)|k>, column k of U(t_i)
            diff = jcm.closed_evolve(ts, p, eye) - prop.evolve(eye, ts)
            keep = subdyn.composite_validated_indices(p.n_max)
            worst = max(worst, max_abs(diff[:, keep][:, :, keep]))
    ok = worst < 1e-9
    assert report(1, "closed-form propagator vs spectral oracle", ok,
                  f"max validated deviation {worst:.3e}, tolerance 1e-9")


def test_criterion_2_kraus_completeness():
    """Completeness residual bounded by the coherent tail mass, both sides."""
    rng = np.random.default_rng(11)
    worst_excess = -np.inf
    for ratio in FIG_RATIOS:
        p = fig_params(ratio)
        coh = coherent_state(ROOT10, 0.0, p.space)
        for gt in rng.uniform(0.0, 50.0, size=8):
            t = gt / p.g
            atom = jcm.closed_kraus("atom", coh, t, p)
            photon = jcm.closed_kraus("photon", None, t, p)
            for kset in (atom, photon):
                worst_excess = max(worst_excess,
                                   kset.completeness_residual - coh.tail_mass)
    ok = worst_excess <= 1e-10
    assert report(2, "Kraus completeness residual <= tail mass + 1e-10", ok,
                  f"max residual excess over tail {worst_excess:.3e}")


def _per_t_duality(t, p, coh):
    """(lhs, rhs) of each operator at one time, from closed_marginal and the quasi_* operators."""
    rho_rt = jcm.closed_marginal("photon", EXCITED, coh, t, p)
    rho_at = jcm.closed_marginal("atom", EXCITED, coh, t, p)
    rho_r0 = coh.density()
    pauli = pauli_ops()
    return {
        "a": (np.trace(annihilation(p.space) @ rho_rt),
              np.trace(jcm.quasi_annihilation(t, EXCITED, p).matrix @ rho_r0)),
        "n": (np.trace(number_op(p.space) @ rho_rt),
              np.trace(jcm.quasi_number(t, EXCITED, p).matrix @ rho_r0)),
        "plus": (np.trace(pauli.plus @ rho_at),
                 np.trace(jcm.quasi_sigma_plus(t, coh, p).matrix @ EXCITED)),
        "z": (np.trace(pauli.z @ rho_at), np.trace(jcm.quasi_sigma_z(t, coh, p).matrix @ EXCITED)),
    }


def _batched_duality(ts, p, coh, rho):
    """(lhs, rhs) of each operator over the times ``ts``, from batched closed forms.

    lhs: Tr[O rho_sub(t)] = sum_ss' rho_ss' <psi_s'|O|psi_s> in the closed_evolve
    states psi_s = U(t)|alpha, s>.  rhs: Tr[O_eff(t) rho_sub(0)] from the
    _kernels dressing coefficients over the t axis.
    """
    n_max = p.n_max
    amps = coh.amplitudes
    kets = np.kron(amps, np.eye(2))  # row s is |alpha, s>
    psi = jcm.closed_evolve(ts, p, kets).reshape(len(ts), 2, n_max + 1, 2)
    pauli = pauli_ops()
    eye_ph, eye_at = np.eye(n_max + 1), np.eye(2)

    def lhs(photon_op, atom_op):
        o_psi = np.einsum("mn,ab,xsnb->xsma", photon_op, atom_op, psi, optimize=True)
        return np.einsum("st,xtma,xsma->x", rho, psi.conj(), o_psi)

    v, w = _kernels.corr_tables(ts, p.half_detuning, p.g, n_max + 2)
    rho_uu, rho_dd, rho_ud = rho[0, 0].real, rho[1, 1].real, rho[0, 1]
    a_coef = _kernels.dressing_a(v, w, 0, n_max, rho_uu, rho_dd)
    c_coef = _kernels.dressing_c(v[:, 1:], w[:, 1:], 1, n_max, rho[1, 0])
    d_coef = _kernels.dressing_d(v, w, 0, n_max + 1, rho_ud)
    near = amps[:-1].conj() * amps[1:]  # conj(alpha_n) alpha_{n+1}
    rhs_a = np.exp(-1j * p.omega * ts) * (
        a_coef @ (near * np.sqrt(np.arange(1.0, n_max + 1)))
        + c_coef @ (amps[:-2].conj() * amps[2:])
        + d_coef @ np.abs(amps) ** 2)
    n_diag, n_band = _kernels.dressing_n(v, w, 0, n_max + 1, rho_uu, rho_dd, rho_ud)
    rhs_n = n_diag @ np.abs(amps) ** 2 + 2.0 * (n_band[:, :-1] @ near.conj()).real
    p_n = coh.weights()
    s1p, s2p, s3p, s4p = (x.sum(axis=-1) for x in
                          _kernels.spin_plus_terms(v, w, 0, n_max + 1, p_n, coh.alpha))
    rhs_plus = np.exp(1j * p.omega * ts) * (s3p * rho[0, 0] + s1p * rho[1, 0]
                                            + s2p * rho[0, 1] + s4p * rho[1, 1])
    p_next = poisson_weights(coh.mean_photons, n_max + 1)[1:]
    _, s1z, s2z, t3 = _kernels.inversion_series(v, w, 0, n_max + 1, p_n, p_next)
    s3z = -2j * coh.alpha * t3
    rhs_z = s1z * rho[0, 0] + s3z * rho[1, 0] + np.conj(s3z) * rho[0, 1] + s2z * rho[1, 1]
    return {
        "a": (lhs(annihilation(p.space), eye_at), rhs_a),
        "n": (lhs(number_op(p.space), eye_at), rhs_n),
        "plus": (lhs(eye_ph, pauli.plus), rhs_plus),
        "z": (lhs(eye_ph, pauli.z), rhs_z),
    }


def test_criterion_3_trace_duality():
    """Tr[O rho_sub(t)] equals Tr[O_eff(t) rho_sub(0)] for a, N, sigma_+, sigma_z.

    Both sides run batched over the whole grid; the per-t route (closed_marginal
    and the quasi_* operators) is the reference at the first, an interior and
    the last grid point.
    """
    p = fig_params(10.0)
    coh = coherent_state(ROOT10, 0.0, p.space)
    ts = np.linspace(0.0, 50.0, 2000) / p.g
    worst = {"a": 0.0, "n": 0.0, "plus": 0.0, "z": 0.0}
    batched = {key: ([], []) for key in worst}
    for lo in range(0, len(ts), _kernels.T_BLOCK):
        for key, (lhs, rhs) in _batched_duality(ts[lo:lo + _kernels.T_BLOCK], p, coh,
                                                EXCITED).items():
            worst[key] = max(worst[key], float(np.max(np.abs(lhs - rhs))))
            batched[key][0].append(lhs)
            batched[key][1].append(rhs)
    for k in (0, len(ts) // 2, len(ts) - 1):
        for key, (lhs, rhs) in _per_t_duality(ts[k], p, coh).items():
            lhs_b, rhs_b = (np.concatenate(side)[k] for side in batched[key])
            worst[key] = max(worst[key], abs(lhs - rhs), abs(lhs - lhs_b), abs(rhs - rhs_b))
    overall = max(worst.values())
    ok = overall < 1e-9
    assert report(3, "trace duality for {a, N, sigma_+, sigma_z} over the gt grid", ok,
                  "worst residuals " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_4_pristine_limits():
    """t=0 recovers the bare operators exactly; g=0 keeps them pristine forever."""
    p = fig_params(10.0)
    coh = coherent_state(ROOT10, 0.0, p.space)
    d0_a = max_abs(jcm.quasi_annihilation(0.0, EXCITED, p).matrix - annihilation(p.space))
    d0_n = max_abs(jcm.quasi_number(0.0, EXCITED, p).matrix - number_op(p.space))
    d0_z = max_abs(jcm.quasi_sigma_z(0.0, coh, p).matrix - pauli_ops().z)
    zero_ok = max(d0_a, d0_n, d0_z) < 1e-14

    free = JcmParams(p.omega, p.omega0, 0.0, p.n_max)
    free_ok = True
    worst_mean = 0.0
    worst_eig = 0.0
    for t in (3.0, 170.0, 1099.0):
        qn = jcm.quasi_number(t, EXCITED, free)
        mean = (coh.amplitudes.conj() @ qn.matrix @ coh.amplitudes).real
        worst_mean = max(worst_mean, abs(mean - coh.mean_photons))
        spec = analysis.sigma_z_spectrum(jcm.quasi_sigma_z(t, coh, free))
        worst_eig = max(worst_eig, abs(spec.upper - 1.0), abs(spec.lower + 1.0),
                        abs(spec.offset))
        free_ok = free_ok and worst_mean <= coh.mean_photons * coh.tail_mass + 1e-12 \
            and worst_eig < 1e-12
    ok = zero_ok and free_ok
    assert report(4, "pristine limits at t=0 and g=0", ok,
                  f"t=0 worst {max(d0_a, d0_n, d0_z):.2e}; g=0 mean dev {worst_mean:.2e}, "
                  f"eigenvalue dev {worst_eig:.2e}")


def test_criterion_5_conservation_identity(fig_series):
    """<N_eff(t)> + (1/2)<sigma_z_eff(t)> stays at 10.5 for the mean-10 excited start."""
    audit = analysis.conservation_audit(fig_series[10.0], EXCITED, 10.0)
    ok = audit.lhs == 10.5 and audit.max_residual < 1e-8
    assert report(5, "back-action conservation identity over gt in [0, 50]", ok,
                  f"lhs {audit.lhs}, max residual {audit.max_residual:.3e}")


def test_criterion_6_collapse_revival_structure(fig_series):
    """Collapse/revival structure for detuning/g in {7.5, 10, 20} within gt <= 50."""
    problems = []
    details = []
    onsets = {}
    for ratio in FIG_RATIOS:
        series = fig_series[ratio]
        feats = collapse_revival_features(series)
        if not feats.collapse_detected:
            problems.append(f"ratio {ratio}: no collapse window detected")
            continue
        if not (-1.0 < feats.plateau < 1.0):
            problems.append(f"ratio {ratio}: plateau {feats.plateau} not inside (-1, 1)")
        if feats.revival_peaks:
            onsets[ratio] = feats.revival_onsets[0]
            details.append(f"ratio {ratio}: collapse [{feats.collapse_start:.1f}, "
                           f"{feats.collapse_end:.1f}], plateau {feats.plateau:.3f}, "
                           f"revival peak {feats.revival_peaks[0]:.1f}")
        else:
            # diagnose on an extended grid before failing the verbatim window check
            wide = observable_series(Scenario(params=series.scenario.params,
                                              atom_init=EXCITED, magnitude=ROOT10,
                                              grid=(0.0, 90.0, 3600)))
            wide_feats = collapse_revival_features(wide)
            late = (f"first revival at gt ~ {wide_feats.revival_peaks[0]:.1f}"
                    if wide_feats.revival_peaks else "no revival even by gt = 90")
            problems.append(f"ratio {ratio}: no revival peak within gt <= 50 ({late})")
            details.append(f"ratio {ratio}: collapse [{feats.collapse_start:.1f}, "
                           f"{feats.collapse_end:.1f}], plateau {feats.plateau:.3f}, {late}")

        aligned = collapse_revival_features(series, sigma_channel="sigma_z_mean")
        if aligned.collapse_detected:
            if not (aligned.collapse_start <= aligned.photon_quiet_time <= aligned.collapse_end):
                problems.append(f"ratio {ratio}: photon quiet point outside the collapse window")
            if aligned.revival_peaks:
                gap = min(abs(aligned.photon_peak_time - pk) for pk in aligned.revival_peaks)
                if gap > aligned.window_gt:
                    problems.append(f"ratio {ratio}: photon envelope peak misaligned by {gap:.2f}")

    ordered = [onsets[r] for r in FIG_RATIOS if r in onsets]
    if ordered != sorted(ordered):
        problems.append(f"revival onsets not increasing with detuning: {onsets}")

    ok = not problems
    assert report(6, "collapse/revival structure of the dressed inversion", ok,
                  "; ".join(details + problems)), "; ".join(problems)


def test_criterion_7_non_preservation_witnesses():
    """[a_eff, a_eff†] leaves I and N_eff leaves a_eff† a_eff once coupled, not at t=0."""
    p = fig_params(10.0)
    d = p.n_max - 1  # product entries need one more level
    eye = np.eye(p.n_max + 1)

    def witnesses(t):
        qa = jcm.quasi_annihilation(t, EXCITED, p).matrix
        qn = jcm.quasi_number(t, EXCITED, p).matrix
        comm = qa @ qa.conj().T - qa.conj().T @ qa
        return (max_abs((comm - eye)[:d, :d]), max_abs((qn - qa.conj().T @ qa)[:d, :d]))

    at_zero = witnesses(0.0)
    sampled = [witnesses(gt / p.g) for gt in (5.0, 12.5, 25.0, 37.5)]
    worst_comm = max(s[0] for s in sampled)
    worst_prod = max(s[1] for s in sampled)
    ok = worst_comm > 1e-6 and worst_prod > 1e-6 and max(at_zero) < 1e-12
    assert report(7, "non-preservation witnesses vanish at t=0 and grow with coupling", ok,
                  f"t=0 {max(at_zero):.2e}; sampled [a,a†] defect {worst_comm:.3f}, "
                  f"N vs a†a defect {worst_prod:.3f}")


def test_criterion_8_qpl_detuning_monotonicity(fig_series):
    """Poisson-weighted |A_n - 1| falls as detuning grows, at matched gt.

    Asserted pointwise at matched early-era probes (before the dressing
    phase drift wraps through pi for the small detunings) and, grid-wide,
    as the time-averaged metric attaining its minimum at the largest
    detuning.
    """
    probes = (2.0, 5.0, 10.0)
    weights = poisson_weights(10.0, 60)
    chains_ok = True
    chain_detail = []
    for gt in probes:
        devs = []
        for ratio in FIG_RATIOS:
            p = fig_params(ratio)
            devs.append(analysis.qpl_dominance(gt / p.g, EXCITED, p, weights).weighted_deviation)
        chains_ok = chains_ok and devs[0] > devs[1] > devs[2]
        chain_detail.append(f"gt={gt}: " + " > ".join(f"{d:.3f}" for d in devs))
    averages = {r: float(fig_series[r].channel("qpl_deviation").mean()) for r in FIG_RATIOS}
    argmin_ok = min(averages, key=averages.get) == 20.0
    ok = chains_ok and argmin_ok
    assert report(8, "quasi-particle-likeness improves with detuning", ok,
                  "; ".join(chain_detail) + f"; grid averages {averages}")


def test_criterion_9_block_unitarity_identity():
    """|v_n|² + w_n² = 1 over randomized sectors, couplings and times."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(40):
        p = JcmParams(1.0, rng.uniform(0.1, 1.9), rng.uniform(0.0, 0.25), 60)
        for _ in range(25):
            n = int(rng.integers(-1, 61))
            gt = rng.uniform(0.0, 100.0)
            t = gt / p.g if p.g > 0 else gt
            f = jcm.correlation_factors(n, t, p)
            worst = max(worst, abs(abs(f.v) ** 2 + f.w ** 2 - 1.0))
    ok = worst < 1e-12
    assert report(9, "correlation-factor identity |v|² + w² = 1", ok,
                  f"max deviation {worst:.3e} over randomized sweeps")
