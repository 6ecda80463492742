"""The benchmark's three workloads.

Each workload draws its inputs from the seed once per run, exposes one
closed-loop unit of user work as ``op()`` and a correctness gate as
``check(result)``.  ``check`` runs outside the timed region and returns
True or False; it prints the reason for a failure to stderr.  ``points`` is
the number of grid points one op completes, ``drawn`` the drawn inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys

import numpy as np

from jcsubdyn import analysis, cli, hilbert, jcm, subdyn

#: SHA-256 of the bundled figure1 CSVs as the package wrote them when this
#: benchmark was introduced.  Any byte change in the outputs fails the gate.
FIGURE1_SHA256 = {
    "figure1_detuning_7p5.csv": "d1d44afe4326dd15e2854ec0a374577978705d07cd2977b5bfec187da289b21c",
    "figure1_detuning_10.csv": "07ddfad562c94d9478125aa511045f8a17155edccd8beb79170d979020318c07",
    "figure1_detuning_20.csv": "63a88679e4afb634adc3720010981daeffbb163ab2b0307e3565b71e40236b3e",
}

OMEGA = 1.0
G = 0.02
#: Closed form against the brute-force engine at the sweep's check points.
SWEEP_BRUTE_TOL = 1e-6
#: Conservation residual, relative to max(1, lhs).
SWEEP_CONSERVATION_RTOL = 1e-8


def _fail(workload: str, reason: str) -> bool:
    print(f"perfbench: {workload} op failed its check: {reason}", file=sys.stderr)
    return False


def _bloch_start(rng: random.Random) -> dict:
    """Pure atom start cos(θ/2)|up> + e^{iφ} sin(θ/2)|down>, θ in [0, π/3]."""
    theta = rng.uniform(0.0, math.pi / 3.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return {"theta": theta, "phi": phi, "uu": c * c, "dd": s * s,
            "ud_re": c * s * math.cos(phi), "ud_im": -c * s * math.sin(phi)}


def _atom_density(start: dict) -> np.ndarray:
    ud = complex(start["ud_re"], start["ud_im"])
    return np.array([[start["uu"], ud], [ud.conjugate(), start["dd"]]], dtype=np.complex128)


class Figure1:
    """The bundled command: three detunings × 2000 points, CSV output."""

    def __init__(self, root: str, seed: int):
        self.config = os.path.join(root, "configs", "figure1.json")
        with open(self.config, encoding="utf-8") as fh:
            scenarios = json.load(fh)["scenarios"]
        self.points = sum(int(s["grid"]["steps"]) for s in scenarios)
        self.drawn = {"config": "configs/figure1.json", "seeded": False}
        self.oracle_dev_max = 0.0

    def op(self):
        return cli.main(["--config", self.config])

    def check(self, code) -> bool:
        if code != 0:
            return _fail("figure1", f"exit code {code}")
        ok = True
        for name, expected in FIGURE1_SHA256.items():
            try:
                with open(name, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                os.unlink(name)
            except OSError as exc:
                ok = _fail("figure1", str(exc))
                continue
            if digest != expected:
                ok = _fail("figure1", f"{name} sha256 {digest} != {expected}")
        return ok


class Oracle:
    """One scenario through the CLI with the brute-force cross-check on."""

    OUTPUT = "oracle.json"

    def __init__(self, root: str, seed: int):
        rng = random.Random(seed)
        ratio = rng.uniform(5.0, 20.0)
        start = _bloch_start(rng)
        self.drawn = {"detuning_over_g": ratio, "omega": OMEGA, "omega0": OMEGA - ratio * G,
                      "g": G, "mean_photons": 10.0, "atom_start": start,
                      "grid": [0.0, 50.0, 50]}
        self.points = 50
        self.argv = [
            "--omega", repr(OMEGA), "--omega0", repr(OMEGA - ratio * G), "--g", repr(G),
            "--alpha-mag", repr(math.sqrt(10.0)),
            "--atom-uu", repr(start["uu"]), "--atom-ud-re", repr(start["ud_re"]),
            "--atom-ud-im", repr(start["ud_im"]), "--atom-dd", repr(start["dd"]),
            "--grid", "0", "50", "50", "--oracle", "on", "--format", "json",
            "--output", self.OUTPUT,
        ]
        self.oracle_dev_max = 0.0

    def op(self):
        return cli.main(self.argv)

    def check(self, code) -> bool:
        if code != 0:
            return _fail("oracle", f"exit code {code}")
        try:
            with open(self.OUTPUT, encoding="utf-8") as fh:
                meta = json.load(fh)["metadata"]
            os.unlink(self.OUTPUT)
            deviations = meta["oracle_deviation"]
        except (OSError, ValueError, KeyError) as exc:
            return _fail("oracle", f"unreadable output: {exc!r}")
        worst = max(deviations.values())
        self.oracle_dev_max = max(self.oracle_dev_max, worst)
        if not worst <= cli.CROSSCHECK_TOL:
            return _fail("oracle", f"oracle deviation {worst:.3e} > {cli.CROSSCHECK_TOL:g}")
        return True


class Sweep:
    """The README library pipeline on one long-grid scenario, nothing serialised."""

    MEAN_PHOTONS = 40.0
    STEPS = 20000
    CHANNELS = ("abs_quasi_a", "quasi_n", "sigma_z_mean", "sigma_z_upper", "sigma_z_lower")

    def __init__(self, root: str, seed: int):
        rng = random.Random(seed)
        ratio = rng.uniform(5.0, 15.0)
        start = _bloch_start(rng)
        check_idx = sorted(rng.sample(range(1, self.STEPS), 2))
        n_max = hilbert.auto_n_max(self.MEAN_PHOTONS)
        self.rho = _atom_density(start)
        self.scenario = analysis.Scenario(
            params=jcm.JcmParams(OMEGA, OMEGA - ratio * G, G, n_max), atom_init=self.rho,
            magnitude=math.sqrt(self.MEAN_PHOTONS), grid=(0.0, 200.0, self.STEPS))
        self.drawn = {"detuning_over_g": ratio, "omega": OMEGA, "omega0": OMEGA - ratio * G,
                      "g": G, "mean_photons": self.MEAN_PHOTONS, "n_max": n_max,
                      "atom_start": start, "grid": [0.0, 200.0, self.STEPS],
                      "check_indices": check_idx}
        self.points = self.STEPS
        self.reference = {i: self._brute_force(i) for i in check_idx}
        self.oracle_dev_max = 0.0

    def _brute_force(self, idx: int) -> dict:
        """Channel values at one grid point from the brute-force engine."""
        p = self.scenario.params
        coh = self.scenario.coherent()
        amps = coh.amplitudes
        t = float(self.scenario.times()[idx])
        u = subdyn.SpectralPropagator(jcm.hamiltonian(p).total)(t)
        eff_a = subdyn.effective_operator(u, hilbert.annihilation(p.space), "photon", self.rho, t)
        eff_n = subdyn.effective_operator(u, hilbert.number_op(p.space), "photon", self.rho, t)
        eff_z = subdyn.effective_operator(u, hilbert.pauli_ops().z, "atom", coh.density(), t)
        lower, upper = np.linalg.eigvalsh(eff_z.matrix)
        return {
            "abs_quasi_a": abs(amps.conj() @ eff_a.matrix @ amps),
            "quasi_n": (amps.conj() @ eff_n.matrix @ amps).real,
            "sigma_z_mean": np.trace(eff_z.matrix @ self.rho).real,
            "sigma_z_upper": float(upper),
            "sigma_z_lower": float(lower),
        }

    def op(self):
        series = analysis.observable_series(self.scenario)
        features = analysis.collapse_revival_features(series)
        audit = analysis.conservation_audit(series, self.rho, self.scenario.magnitude ** 2)
        return series, features, audit

    def check(self, result) -> bool:
        series, _features, audit = result
        limit = SWEEP_CONSERVATION_RTOL * max(1.0, audit.lhs)
        if not audit.max_residual <= limit:
            return _fail("sweep", f"conservation residual {audit.max_residual:.3e} > {limit:.3e}")
        for idx, expected in self.reference.items():
            for name in self.CHANNELS:
                dev = abs(float(series.channel(name)[idx]) - expected[name])
                self.oracle_dev_max = max(self.oracle_dev_max, dev)
                if not dev <= SWEEP_BRUTE_TOL:
                    return _fail("sweep", f"{name} at grid index {idx} deviates by {dev:.3e} "
                                          f"from the brute-force engine")
        return True


WORKLOADS = {"figure1": Figure1, "oracle": Oracle, "sweep": Sweep}
