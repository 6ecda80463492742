import ast
import hashlib
import json
import math
import os
import resource
import stat
import subprocess
import sys

import numpy as np
import pytest

from conftest import json_reference, percent_17g, text_mismatch
from jcsubdyn import _csvtext, analysis, cli, hilbert

ROOT10 = math.sqrt(10.0)


def base_config(path, **overrides):
    cfg = {
        "omega": 1.0, "omega0": 0.8, "g": 0.02,
        "alpha_mag": ROOT10, "alpha_phase": 0.0,
        "n_max": 45,
        "atom_init": {"uu": 1.0, "ud_re": 0.0, "ud_im": 0.0, "dd": 0.0},
        "grid": {"start": 0.0, "stop": 10.0, "steps": 40},
        "oracle": False,
        "output": {"format": "csv", "path": str(path)},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def load_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data_lines = [ln for ln in lines if not ln.startswith("#")]
    header = data_lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in data_lines[1:]])
    return comments, header, rows


#: (config file, extra flags, stderr needle) that exit 2 before anything is written
BAD_CONFIGS = [
    (None, [], "cannot read config"),
    ({"scenarios": []}, [], "'scenarios' must be a non-empty list"),
    ([{"omega": 1.0}], [], "config must be a JSON object"),
    ({"grid": 5}, [], "config key 'grid' must be an object"),
    ({"grid": {"bogus": 1}}, [], "unknown keys under 'grid'"),
    ({"alpha_mag": -1.0}, [], "alpha_mag must be >= 0"),
    ({"grid": {"steps": 2.5}}, [], "grid steps must be an integer"),
    ({"output": {"format": "xml"}}, [], "output format must be 'csv' or 'json'"),
    ({"atom_init": 5}, ["--atom-uu", "1"], "config key 'atom_init' must be an object"),
    ({"output": "x.csv"}, ["--format", "json"], "config key 'output' must be an object"),
    ({"scenarios": [5]}, [], "each scenario must be a JSON object"),
    ({"scenarios": [{"g": 0.02}], "omega": 2}, [],
     "a 'scenarios' wrapper holds nothing else, got ['omega']"),
    ({"output": {"path": 5}}, [], "output path must be a string, got 5"),
    ({"channels": 5}, [], "channels must be a list of channel names, got 5"),
    ({"g": True}, [], "g must be a number, got True"),
    ({"n_max": 12.7}, [], "n_max must be an integer, got 12.7"),
    ({"channels": [["quasi_n"]]}, [], "channels must be a list of channel names"),
    ({"g": 10 ** 400}, [], "g must be a number, got 1000"),
    # an empty path would put the temporary file in the parent directory
    ({"output": {"path": ""}}, [], "output path must not be empty"),
    ({}, ["--output", ""], "output path must not be empty"),
    ({"channels": []}, [], "channels must name one channel or more, each once, got []"),
    ({}, ["--channels", ","], "channels must name one channel or more, each once, got []"),
    ({}, ["--channels", "quasi_n,quasi_n"], "each once, got ['quasi_n', 'quasi_n']"),
    # a directory would be found only by os.replace, after all the work
    ({}, ["--output", "."], "output path '.' is a directory"),
]


class TestExitCodes:
    def test_success(self, tmp_path):
        out = tmp_path / "ok.csv"
        cfg = write_config(tmp_path, base_config(out))
        assert cli.main(["--config", cfg]) == 0
        assert out.exists()

    def test_degenerate_grid_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["--grid", "0", "0", "2", "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"omega": 1.0,\n  "oops": }\n')
        assert cli.main(["--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**base_config(tmp_path / "x.csv"), "bogus": 1})
        assert cli.main(["--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unwritable_path_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config("/nonexistent-dir/deep/out.csv"))
        assert cli.main(["--config", cfg]) == 4

    @pytest.mark.parametrize("parent", ["nodir", "file.txt"])
    def test_missing_output_directory_exits_4_before_any_work(self, tmp_path, monkeypatch,
                                                              capsys, parent):
        def fail(*args, **kwargs):
            raise AssertionError("observable_series ran")

        monkeypatch.setattr(analysis, "observable_series", fail)
        (tmp_path / "file.txt").write_text("")
        out = tmp_path / parent / "x.csv"
        assert cli.main(["--output", str(out)]) == 4
        assert capsys.readouterr().err == (f"output error: cannot write {out}: "
                                           f"no directory {tmp_path / parent}\n")

    def test_invalid_atom_density_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "x.csv",
                          atom_init={"uu": 0.9, "ud_re": 0.0, "ud_im": 0.0, "dd": 0.9})
        assert cli.main(["--config", write_config(tmp_path, cfg)]) == 2
        assert "density" in capsys.readouterr().err


class TestInputHardening:
    """Bad values exit 2 with one line on stderr, never a traceback or a NaN file."""

    def _rejects(self, argv, tmp_path, capsys, needle):
        out = tmp_path / "x.csv"
        assert cli.main(argv + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert needle in err
        assert not out.exists()

    def test_nan_coupling_rejected(self, tmp_path, capsys):
        self._rejects(["--g", "nan"], tmp_path, capsys, "g must be finite")

    def test_infinite_frequency_rejected(self, tmp_path, capsys):
        self._rejects(["--omega", "inf"], tmp_path, capsys, "omega must be finite")

    def test_non_numeric_grid_steps_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "x.csv", grid={"start": 0.0, "stop": 1.0, "steps": "abc"})
        self._rejects(["--config", write_config(tmp_path, cfg)], tmp_path, capsys, "grid steps")

    def test_non_numeric_atom_entry_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "x.csv",
                          atom_init={"uu": "x", "ud_re": 0.0, "ud_im": 0.0, "dd": 0.0})
        self._rejects(["--config", write_config(tmp_path, cfg)], tmp_path, capsys,
                      "atom_init.uu")

    def test_infinite_n_max_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "x.csv", n_max=float("inf"))
        self._rejects(["--config", write_config(tmp_path, cfg)], tmp_path, capsys, "n_max")

    def test_non_boolean_oracle_rejected(self, tmp_path, capsys):
        # bool("false") is True: a string must not switch the brute-force oracle on
        cfg = base_config(tmp_path / "x.csv", oracle="false")
        self._rejects(["--config", write_config(tmp_path, cfg)], tmp_path, capsys,
                      "oracle must be true or false")

    def test_nan_tail_tolerance_rejected(self, tmp_path, capsys):
        # with n_max "auto" a NaN bound never stops the truncation search
        self._rejects(["--alpha-mag", "1", "--tail-tol", "nan"], tmp_path, capsys,
                      "tail tolerance")

    def test_overflowing_detuning_rejected(self, tmp_path, capsys):
        # each input is finite, but omega - omega0 is not
        self._rejects(["--omega", "1e308", "--omega0=-1e308", "--g", "0.02", "--alpha-mag", "1",
                       "--grid", "0", "1", "3", "--format", "json"], tmp_path, capsys,
                      "detuning omega - omega0 must be finite")

    def test_overflowing_magnitude_rejected_with_auto_n_max(self, tmp_path, capsys):
        # 1e200 is finite, but its square, the mean photon number, is not
        self._rejects(["--alpha-mag", "1e200", "--grid", "0", "1", "3"], tmp_path, capsys,
                      "alpha_mag squared")

    def test_overflowing_magnitude_rejected_with_fixed_n_max(self, tmp_path, capsys):
        self._rejects(["--alpha-mag", "1e200", "--n-max", "10", "--grid", "0", "1", "3"],
                      tmp_path, capsys, "alpha_mag squared")

    def test_overflowing_oracle_hamiltonian_rejected(self, tmp_path, capsys):
        # each frequency and the detuning are finite; omega (n_max + 1/2) is not
        self._rejects(["--omega", "1e308", "--omega0", "1e308", "--g", "0.02", "--alpha-mag", "1",
                       "--grid", "0", "1", "3", "--oracle", "on"], tmp_path, capsys,
                      "truncated Hamiltonian overflows")

    def test_auto_n_max_beyond_search_limit_rejected(self, tmp_path, capsys):
        self._rejects(["--alpha-mag", "1000", "--grid", "0", "1", "3"], tmp_path, capsys,
                      "n_max 'auto'")

    def test_library_scenario_rejects_overflowing_magnitude(self):
        from jcsubdyn.analysis import Scenario
        from jcsubdyn.jcm import JcmParams

        params, atom = JcmParams(1.0, 1.0, 0.02, 10), np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="magnitude squared"):
            Scenario(params=params, atom_init=atom, magnitude=1e200)
        # a non-finite phase or grid end would otherwise give NaN channels silently
        for kwargs, needle in (({"phase": math.nan}, "phase must be finite"),
                               ({"grid": (0.0, math.inf, 10)}, "grid start and stop"),
                               ({"grid": (-math.inf, 5.0, 10)}, "grid start and stop")):
            with pytest.raises(ValueError, match=needle) as err:
                Scenario(params=params, atom_init=atom, magnitude=1.0, **kwargs)
            assert "\n" not in str(err.value)

    def test_library_scenario_owns_the_oracle_checks(self):
        from jcsubdyn.analysis import Scenario
        from jcsubdyn.jcm import JcmParams

        atom = np.diag([1.0, 0.0]).astype(complex)
        for params, oracle, needle in (
                (JcmParams(1.0, 1.0, 0.02, 10), "false", "oracle must be true or false"),
                (JcmParams(1e308, 1e308, 0.02, 10), True, "truncated Hamiltonian overflows"),
                (JcmParams(1.0, 1.0, 0.02, 3000), True, "oracle's dense work")):
            with pytest.raises(ValueError, match=needle) as err:
                Scenario(params=params, atom_init=atom, magnitude=1.0, grid=(0.0, 1.0, 3),
                         oracle=oracle)
            assert "\n" not in str(err.value)

    def test_oracle_over_work_budget_exits_2_within_a_second(self, tmp_path):
        # a child capped at 1 GiB: without the check it would build dense d = 6002
        # matrices (576 MB each), so it fails at once instead of running for minutes
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        timed = ("import sys, time; from jcsubdyn import cli; t0 = time.perf_counter(); "
                 "code = cli.main(sys.argv[1:]); print(time.perf_counter() - t0); sys.exit(code)")
        proc = subprocess.run(
            [sys.executable, "-c", timed, "--n-max", "3000", "--grid", "0", "50", "20",
             "--oracle", "on"], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: the oracle's dense work")
        assert proc.stderr.count("\n") == 1
        assert float(proc.stdout) < 1.0

    def test_library_params_must_be_finite(self):
        from jcsubdyn.jcm import JcmParams

        for args in ((math.nan, 1.0, 0.02, 5), (1.0, math.inf, 0.02, 5), (1.0, 1.0, math.nan, 5),
                     (1e308, -1e308, 0.02, 5)):
            with pytest.raises(ValueError, match="must be finite"):
                JcmParams(*args)

    def test_overflowing_sector_rate_rejected(self, tmp_path, capsys):
        # every input and the phase budget are finite, but the square of half the
        # detuning overflows, and with it lam_n in the correlation tables
        self._rejects(["--omega", "1e308", "--omega0=-7e307", "--g", "0.02", "--alpha-mag", "1",
                       "--grid", "0", "1e-301", "3", "--format", "json"], tmp_path, capsys,
                      "half_detuning² + g²(n_max + 1), the top sector rate squared, "
                      "must be finite, got inf")

    def test_non_finite_output_refused(self, tmp_path, capsys, monkeypatch):
        # the input checks keep every known overflow out, so a NaN channel is
        # injected behind them: the run must still refuse to write it
        real = analysis.observable_series

        def poisoned(*args, **kwargs):
            series = real(*args, **kwargs)
            series.channels["abs_quasi_a"][:] = math.nan
            return series

        monkeypatch.setattr(analysis, "observable_series", poisoned)
        self._rejects(["--alpha-mag", "1", "--grid", "0", "1", "3", "--format", "json"],
                      tmp_path, capsys, "abs_quasi_a is not finite at 3 of 3 grid points")

    def test_overflowing_phase_rejected_before_any_work(self, tmp_path, capsys):
        # omega * t overflows to inf
        self._rejects(["--omega", "1e308", "--omega0", "1e308", "--g", "0.02", "--alpha-mag", "1",
                       "--grid", "0", "1", "3", "--format", "json"], tmp_path, capsys,
                      "phase rate x time inf exceeds")

    def test_vanishing_coupling_rejected_by_phase_budget(self, tmp_path, capsys):
        # gt 0..30 at g = 1e-300 reaches t = 3e301, where no phase keeps a digit
        self._rejects(["--omega", "1", "--omega0", "1", "--g", "1e-300", "--alpha-mag", "1",
                       "--n-max", "12", "--grid", "0", "30", "200"], tmp_path, capsys,
                      "phase rate x time 3e+301 exceeds")

    # ids as before the flags column joined, so each row keeps its name
    @pytest.mark.parametrize("doc, argv, needle", BAD_CONFIGS, ids=[
        f"{'None' if doc is None else f'doc{i}'}-{needle}"
        for i, (doc, _, needle) in enumerate(BAD_CONFIGS)])
    def test_bad_config_file_rejected(self, tmp_path, capsys, doc, argv, needle):
        config = tmp_path / "cfg.json"
        if doc is not None:
            if (isinstance(doc, dict) and "scenarios" not in doc
                    and isinstance(doc.get("output", {}), dict)):
                doc = {**doc, "output": {"path": str(tmp_path / "x.csv"),
                                         **doc.get("output", {})}}
            config.write_text(json.dumps(doc))
        before = sorted(os.listdir(tmp_path))
        assert cli.main(["--config", str(config)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert needle in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_json_output_never_holds_nan(self, tmp_path):
        from jcsubdyn.jcm import JcmParams

        scenario = analysis.Scenario(params=JcmParams(1.0, 0.8, 0.02, 5),
                                     atom_init=np.diag([1.0, 0.0]).astype(complex))
        out = tmp_path / "nan.json"
        # the channels come before gt in the file, so sigma_z_mean is named first
        for gt, channels, name in (
                ([0.0, 1.0], {"quasi_n": [0.0, math.nan]}, "quasi_n"),
                ([0.0, math.inf], {"quasi_n": [0.0, 1.0], "sigma_z_mean": [math.inf, math.nan]},
                 "sigma_z_mean")):
            series = analysis.TimeSeries(scenario, np.array(gt),
                                         {n: np.array(v) for n, v in channels.items()}, {})
            with pytest.raises(ValueError, match="JSON") as err:
                cli.emit_output(series, "json", str(out), {})
            assert str(err.value) == f"JSON output needs finite values; {name} is not finite"
            assert not out.exists()

    def test_csv_output_never_holds_nan(self, tmp_path):
        from jcsubdyn.jcm import JcmParams

        scenario = analysis.Scenario(params=JcmParams(1.0, 0.8, 0.02, 5),
                                     atom_init=np.diag([1.0, 0.0]).astype(complex))
        series = analysis.TimeSeries(scenario, np.array([0.0, 1.0]),
                                     {"quasi_n": np.array([0.0, 1.0]),
                                      "sigma_z_mean": np.array([math.inf, math.nan])}, {})
        out = tmp_path / "nan.csv"
        with pytest.raises(ValueError, match="sigma_z_mean is not finite") as err:
            cli.emit_output(series, "csv", str(out), {})
        assert "\n" not in str(err.value)
        assert not out.exists()


class TestAtomicWrite:
    def test_chunks_raising_mid_write_leave_no_file(self, tmp_path):
        def chunks():
            yield "first line\n"
            raise RuntimeError("raised mid-write")

        with pytest.raises(RuntimeError, match="raised mid-write"):
            cli._atomic_write(str(tmp_path / "out.csv"), chunks())
        assert os.listdir(tmp_path) == []

    @pytest.fixture
    def umask_027(self):
        old = os.umask(0o027)
        yield
        os.umask(old)

    def test_new_file_gets_open_mode(self, tmp_path, umask_027):
        # the mode open(path, "w") gives: 0o666 less the umask, not mkstemp's 0o600
        out = tmp_path / "x.csv"
        assert cli.main(["--grid", "0", "1", "3", "--output", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_existing_file_keeps_its_mode(self, tmp_path, umask_027):
        out = tmp_path / "x.csv"
        out.write_text("old\n")
        out.chmod(0o604)
        cli._atomic_write(str(out), ["new\n"])
        assert out.read_text() == "new\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o604


class TestOutputs:
    def test_csv_shape_three_points_two_channels(self, tmp_path):
        out = tmp_path / "small.csv"
        cfg = base_config(out, grid={"start": 0.0, "stop": 1.0, "steps": 3},
                          channels=["abs_quasi_a", "quasi_n"])
        assert cli.main(["--config", write_config(tmp_path, cfg)]) == 0
        comments, header, rows = load_csv(out)
        assert header == ["gt", "abs_quasi_a", "quasi_n"]
        assert rows.shape == (3, 3)
        assert any(ln.startswith("# scenario:") for ln in comments)

    def test_csv_embeds_full_scenario(self, tmp_path):
        out = tmp_path / "embed.csv"
        cfg = base_config(out)
        assert cli.main(["--config", write_config(tmp_path, cfg)]) == 0
        comments, _, _ = load_csv(out)
        scenario_line = next(ln for ln in comments if ln.startswith("# scenario: "))
        echo = json.loads(scenario_line[len("# scenario: "):])
        assert echo["omega"] == 1.0 and echo["n_max"] == 45
        assert echo["atom_init"]["uu"] == 1.0
        assert echo["grid"]["steps"] == 40

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "series.json"
        cfg = base_config(out, output={"format": "json", "path": str(out)})
        assert cli.main(["--config", write_config(tmp_path, cfg)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"scenario", "gt", "channels", "metadata"}
        assert len(doc["gt"]) == 40
        assert doc["metadata"]["version"]
        assert doc["scenario"]["g"] == 0.02
        for values in doc["channels"].values():
            assert len(values) == 40

    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = write_config(tmp_path, base_config(out))
        assert cli.main(["--config", cfg]) == 0
        first = out.read_bytes()
        assert cli.main(["--config", cfg]) == 0
        assert out.read_bytes() == first

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "o.json"
        cfg = write_config(tmp_path, base_config(out, output={"format": "json",
                                                              "path": str(out)}))
        assert cli.main(["--config", cfg, "--omega0", "0.9", "--channels",
                         "quasi_n,sigma_z_mean"]) == 0
        doc = json.loads(out.read_text())
        assert doc["scenario"]["omega0"] == 0.9
        assert sorted(doc["channels"]) == ["quasi_n", "sigma_z_mean"]


def _edge_doubles():
    """Doubles at the edges of the '%.17g' layout and of its rounding."""
    tiny = 2.2250738585072014e-308
    values = [0.0, 5e-324, tiny, np.nextafter(tiny, 0.0), np.nextafter(tiny, 1.0),
              1.7976931348623157e308,
              # exact ties at the 18th digit whose 17th digit is odd: they round up
              0.00010061264038085938, 1.0251998901367188e-05, 1.3113021850585938e-06]
    for k in range(-20, 21):  # crosses the fixed/scientific switches at 1e-4/1e-5 and 1e16/1e17
        values += [10.0 ** k, np.nextafter(10.0 ** k, 0.0), np.nextafter(10.0 ** k, math.inf)]
    values += [2.0 ** k for k in range(-1074, 1024)]
    return np.array(values + [-v for v in values])


class TestCsvText:
    """The CSV number text is '%.17g' to the byte, whatever path gives a value its digits."""

    def test_edge_values(self):
        values = _edge_doubles()
        for cols in (1, 7):
            block = values[:len(values) // cols * cols].reshape(-1, cols)
            assert text_mismatch(_csvtext.format_rows(block), percent_17g(block)) is None

    def test_scaled_random_values(self):
        rng = np.random.default_rng(17)
        block = rng.standard_normal((3000, 7)) * 10.0 ** rng.integers(-30, 30, (3000, 7))
        assert text_mismatch(_csvtext.format_rows(block), percent_17g(block)) is None

    def test_exact_path_alone_gives_the_same_bytes(self, monkeypatch):
        monkeypatch.setattr(_csvtext, "_WINDOW", np.full_like(_csvtext._WINDOW, np.inf))
        block = _edge_doubles().reshape(-1, 10)
        assert text_mismatch(_csvtext.format_rows(block), percent_17g(block)) is None

    def test_bytes_do_not_depend_on_chunk_rows(self, tmp_path, monkeypatch):
        from jcsubdyn.jcm import JcmParams

        values = _edge_doubles()[:3 * 600].reshape(3, 600)
        scenario = analysis.Scenario(params=JcmParams(1.0, 0.8, 0.02, 5),
                                     atom_init=np.diag([1.0, 0.0]).astype(complex))
        series = analysis.TimeSeries(scenario, values[0],
                                     {"quasi_n": values[1], "sigma_z_mean": values[2]}, {})
        texts = []
        for rows in (1, 7, 256):
            monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", rows)
            cli.emit_output(series, "csv", str(tmp_path / "out.csv"), {})
            texts.append((tmp_path / "out.csv").read_text())
        want = percent_17g(values.T)
        for text in texts:
            assert text_mismatch(text[-len(want):], want) is None
        assert len({text[:-len(want)] for text in texts}) == 1


#: Output file name -> (CLI flags, SHA-256 of the file as one json.dumps of the
#: document wrote it): the benchmark's oracle workload at seed 1, and a
#: 2000-point oracle run from a mixed atom start at alpha phase 0.3.  Like the
#: figure1 digests they depend on libm and the BLAS kernels.
JSON_RUNS = {
    "oracle.json": (
        ["--omega", "1.0", "--omega0", "0.8596907267662797", "--g", "0.02",
         "--alpha-mag", "3.1622776601683795", "--atom-uu", "0.8157033029899695",
         "--atom-ud-re", "0.03351521603971697", "--atom-ud-im", "0.38627471412847425",
         "--atom-dd", "0.18429669701003043", "--grid", "0", "50", "50", "--oracle", "on",
         "--format", "json"],
        "01158e4096c4026fffd2583e00f9827852fd1ec2980944cf711419efc060b378"),
    "mixed.json": (
        ["--omega", "1", "--omega0", "0.8", "--g", "0.02", "--alpha-mag", "3.1622776601683795",
         "--alpha-phase", "0.3", "--atom-uu", "0.6", "--atom-ud-re", "-0.3",
         "--atom-ud-im", "0.35", "--atom-dd", "0.4", "--grid", "0", "50", "2000",
         "--oracle", "on", "--format", "json"],
        "d6713facfbd27631a48a3dfe66054d061cea14221e52a2e660f660138a7fd6c6"),
}


class TestJsonText:
    """The JSON file is json.dumps(doc, sort_keys=True, indent=2) plus a newline, to the byte."""

    @staticmethod
    def _mismatch(series, echo, path):
        cli.emit_output(series, "json", str(path), echo)
        return text_mismatch(path.read_text(encoding="utf-8"), json_reference(series, echo))

    def test_seeded_mixed_start_oracle_series(self, tmp_path, rng):
        theta, phi = rng.uniform(0.3, 1.2), rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
        out = tmp_path / "o.json"
        cfg = base_config(out, alpha_phase=rng.uniform(-math.pi, math.pi), oracle=True,
                          atom_init={"uu": c * c, "ud_re": c * s * math.cos(phi),
                                     "ud_im": -c * s * math.sin(phi), "dd": s * s},
                          output={"format": "json", "path": str(out)})
        scenario, echo = cli._resolve(cfg, hilbert.DEFAULT_TAIL_TOL)
        series = analysis.observable_series(scenario)
        assert "oracle_deviation" in series.metadata and "oracle_quasi_n" in series.channels
        assert self._mismatch(series, echo, out) is None

    @pytest.mark.parametrize("gt, channels", [
        (np.arange(12) * 0.5,
         {"quasi_n": np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308, 1e16,
                               9999999999999998.0, 1e-5, 1e-4, 0.1]),
          "counts": np.arange(-3, 9, dtype=np.int64)}),
        (np.array([2.5]), {"quasi_n": np.array([-0.0])}),
        (np.array([0.0, 1.0]), {}),
    ], ids=["edge-values", "one-point", "no-channels"])
    def test_hand_built_series(self, tmp_path, gt, channels):
        from jcsubdyn.jcm import JcmParams

        scenario = analysis.Scenario(params=JcmParams(1.0, 0.8, 0.02, 5),
                                     atom_init=np.diag([1.0, 0.0]).astype(complex))
        series = analysis.TimeSeries(scenario, gt, channels, {"tail_ok": True, "lhs": -0.0})
        echo = {"grid": {"steps": len(gt)}, "empty": {}, "list": [1, 2.5]}
        assert self._mismatch(series, echo, tmp_path / "h.json") is None

    def test_echo_path_with_quote_and_non_ascii(self, tmp_path):
        out = tmp_path / 'say "hi" \u03c8.json'
        cfg = base_config(out, output={"format": "json", "path": str(out)})
        scenario, echo = cli._resolve(cfg, hilbert.DEFAULT_TAIL_TOL)
        assert self._mismatch(analysis.observable_series(scenario), echo, out) is None
        assert '\\"hi\\" \\u03c8.json' in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(JSON_RUNS))
    def test_cli_digest(self, tmp_path, monkeypatch, name):
        argv, digest = JSON_RUNS[name]
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv + ["--output", name]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestOracleMode:
    def test_free_run_channels_identical_after_rounding(self, tmp_path):
        out = tmp_path / "free.json"
        cfg = base_config(out, g=0.0, grid={"start": 0.0, "stop": 5.0, "steps": 25},
                          oracle=True, output={"format": "json", "path": str(out)})
        assert cli.main(["--config", write_config(tmp_path, cfg)]) == 0
        doc = json.loads(out.read_text())
        for name in ("abs_quasi_a", "quasi_n", "sigma_z_mean", "sigma_z_upper"):
            closed = np.round(np.array(doc["channels"][name]), 12)
            oracle = np.round(np.array(doc["channels"][f"oracle_{name}"]), 12)
            np.testing.assert_array_equal(closed, oracle)

    def test_interacting_run_cross_checks(self, tmp_path):
        out = tmp_path / "xc.json"
        cfg = base_config(out, grid={"start": 0.0, "stop": 8.0, "steps": 12}, oracle=True,
                          output={"format": "json", "path": str(out)})
        assert cli.main(["--config", write_config(tmp_path, cfg)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["oracle_deviation_max"] < 1e-6

    def test_divergence_beyond_tolerance_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "CROSSCHECK_TOL", 0.0)  # make roundoff a "divergence"
        out = tmp_path / "fail.json"
        cfg = base_config(out, grid={"start": 0.0, "stop": 4.0, "steps": 6}, oracle=True,
                          output={"format": "json", "path": str(out)})
        assert cli.main(["--config", write_config(tmp_path, cfg)]) == 3
        assert "cross-check" in capsys.readouterr().err
        assert not out.exists()

    def test_cross_check_error_inside_a_run_exits_3(self, tmp_path, monkeypatch, capsys):
        from jcsubdyn import analysis, subdyn

        def diverging(*args, **kwargs):
            raise subdyn.CrossCheckError("routes disagree")

        monkeypatch.setattr(analysis, "observable_series", diverging)
        out = tmp_path / "fail.json"
        assert cli.main(["--alpha-mag", "1", "--grid", "0", "1", "3", "--oracle", "on",
                         "--output", str(out)]) == 3
        assert capsys.readouterr().err == "cross-check failure: routes disagree\n"
        assert not out.exists()


class TestMultiScenario:
    def test_bundled_style_config_emits_one_file_per_scenario(self, tmp_path):
        cfgs = [base_config(tmp_path / f"run{i}.csv", omega0=w0)
                for i, w0 in enumerate((0.85, 0.8, 0.6))]
        path = write_config(tmp_path, {"scenarios": cfgs})
        assert cli.main(["--config", path]) == 0
        for i in range(3):
            assert (tmp_path / f"run{i}.csv").exists()

    def test_output_flag_conflicts_with_multi(self, tmp_path, capsys):
        cfgs = [base_config(tmp_path / "a.csv"), base_config(tmp_path / "b.csv")]
        path = write_config(tmp_path, {"scenarios": cfgs})
        assert cli.main(["--config", path, "--output", str(tmp_path / "c.csv")]) == 2
        assert "multi-scenario" in capsys.readouterr().err


class TestTruncationWarning:
    def test_starved_n_max_warns_but_runs(self, tmp_path, capsys):
        out = tmp_path / "warn.csv"
        cfg = base_config(out, n_max=15)  # far too small for M = 10
        assert cli.main(["--config", write_config(tmp_path, cfg)]) == 0
        assert "tail mass" in capsys.readouterr().err
        assert out.exists()

    def test_tail_warning_is_one_line_and_output_is_written(self, tmp_path, capsys):
        out = tmp_path / "warn.csv"
        assert cli.main(["--n-max", "5", "--alpha-mag", "3", "--grid", "0", "1", "3",
                         "--output", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: coherent tail mass exceeds 1e-10 at n_max=5;")
        assert err.count("\n") == 1
        assert out.exists()

    def test_auto_n_max_resolves(self, tmp_path):
        out = tmp_path / "auto.json"
        cfg = base_config(out, n_max="auto", output={"format": "json", "path": str(out)})
        assert cli.main(["--config", write_config(tmp_path, cfg)]) == 0
        doc = json.loads(out.read_text())
        assert doc["scenario"]["n_max"] >= 36
        assert doc["metadata"]["tail_ok"] is True


def test_console_entry_point_runs():
    # the child finds the package where this process does, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "jcsubdyn", "--help"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gt grid" in proc.stdout


def test_public_names_are_pinned():
    """Dropping a public name is a recorded decision: it fails here first."""
    import jcsubdyn

    assert sorted(jcsubdyn.__all__) == [
        "BipartiteHamiltonian", "CoherentState", "CollapseRevivalFeatures", "ConservationAudit",
        "CorrelationFactors", "CrossCheckError", "EffectiveOperator", "FockSpace", "JcmParams",
        "KrausSet", "PhotonDressing", "QplMetrics", "Scenario", "SigmaZSpectrum",
        "SpectralPropagator", "SpinDressing", "TimeSeries", "active_lane", "algebra_deviation",
        "analysis", "assemble_hamiltonian", "auto_n_max", "closed_kraus", "closed_marginal",
        "closed_propagator", "coherent_state", "collapse_revival_features", "conservation_audit",
        "constant_of_motion", "correlation_factors", "effective_operator", "evolve_and_reduce",
        "hamiltonian", "hilbert", "jcm", "kraus_extract", "ladder_ops", "numerics",
        "observable_series", "partial_trace", "pauli_ops", "photon_dressing", "poisson_weights",
        "qpl_dominance", "quadrature_ops", "quasi_annihilation", "quasi_number",
        "quasi_sigma_minus", "quasi_sigma_plus", "quasi_sigma_z", "sigma_z_spectrum", "subdyn",
        "tensor_product",
    ]


def _figure1_digests():
    """FIGURE1_SHA256 as perfbench/workloads.py pins it, read from its source."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FIGURE1_SHA256"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no FIGURE1_SHA256")


def _per_t_channels(scenario):
    """Every default channel from the per-t operators in jcm, one grid point at a time."""
    from jcsubdyn import analysis, jcm

    p, rho, coh = scenario.params, scenario.atom_init, scenario.coherent()
    amps, weights = coh.amplitudes, coh.weights()
    lhs = coh.mean_photons + 0.5 * (rho[0, 0].real - rho[1, 1].real)
    rows = []
    for t in scenario.times():
        qa = amps.conj() @ jcm.quasi_annihilation(t, rho, p).matrix @ amps
        qn = (amps.conj() @ jcm.quasi_number(t, rho, p).matrix @ amps).real
        qz = jcm.quasi_sigma_z(t, coh, p)
        spec = analysis.sigma_z_spectrum(qz)
        mean_z = np.trace(qz.matrix @ rho).real
        qpl = analysis.qpl_dominance(t, rho, p, weights)
        rows.append((abs(qa), qa.real, qa.imag, qn, mean_z, spec.offset, spec.dispersion,
                     spec.upper, spec.lower, abs(qn + 0.5 * mean_z - lhs), qpl.ratio,
                     qpl.weighted_deviation))
    return dict(zip(analysis.DEFAULT_CHANNELS, np.array(rows).T))


class TestBundledFigureConfig:
    def _series_from_csv(self, path):
        """Rebuild an analysis series from an emitted CSV (plot-tool viewpoint)."""
        from jcsubdyn.jcm import JcmParams

        comments, header, rows = load_csv(path)
        echo = json.loads(next(ln for ln in comments if ln.startswith("# scenario: "))
                          [len("# scenario: "):])
        atom = echo["atom_init"]
        rho = np.array([[atom["uu"], atom["ud_re"] + 1j * atom["ud_im"]],
                        [atom["ud_re"] - 1j * atom["ud_im"], atom["dd"]]], dtype=complex)
        scenario = analysis.Scenario(
            params=JcmParams(echo["omega"], echo["omega0"], echo["g"], echo["n_max"]),
            atom_init=rho, magnitude=echo["alpha_mag"], phase=echo["alpha_phase"],
            grid=(echo["grid"]["start"], echo["grid"]["stop"], echo["grid"]["steps"]),
            channels=tuple(echo["channels"]), oracle=echo["oracle"])
        channels = {name: rows[:, i] for i, name in enumerate(header) if name != "gt"}
        return analysis.TimeSeries(scenario, rows[:, 0], channels, {})

    def _describe_drift(self, series, path):
        """First row and worst gap per channel against the per-t operators.

        A libm or BLAS difference between platforms moves every channel by
        roundoff only; a regression moves some channel by much more.  A
        formatter fault moves no number: it shows as a line whose text is not
        '%.17g' of the values parsed from it.
        """
        reference = _per_t_channels(series.scenario)
        gaps = {name: np.abs(series.channels[name] - reference[name])
                for name in series.channels}
        beyond = np.flatnonzero(np.max(list(gaps.values()), axis=0) > 1e-9)
        first = (f"first row beyond 1e-9: gt = {series.gt[beyond[0]]:.17g} (row {beyond[0]})"
                 if beyond.size else "no row beyond 1e-9 (a roundoff-level difference)")
        return first + "; max |csv - per-t| " + ", ".join(
            f"{name}={gap.max():.2e}" for name, gap in gaps.items()) + "; " + self._text_drift(path)

    @staticmethod
    def _text_drift(path):
        """The first data line that '%.17g' of its own parsed values does not give back."""
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")][1:]
        for i, line in enumerate(lines):
            again = ",".join("%.17g" % float(v) for v in line.split(","))
            if again != line:
                return f"data line {i + 1} is not '%.17g' text: {line!r} != {again!r}"
        return "every data line is '%.17g' text of its values"

    def test_figure1_with_oracle_cross_checks_every_point(self, tmp_path, monkeypatch):
        repo_config = os.path.join(os.path.dirname(__file__), "..", "configs", "figure1.json")
        with open(repo_config, encoding="utf-8") as fh:
            doc = json.load(fh)
        for scenario in doc["scenarios"]:
            scenario["oracle"] = True
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--config", write_config(tmp_path, doc, "figure1_oracle.json")]) == 0
        for scenario in doc["scenarios"]:
            comments, header, rows = load_csv(tmp_path / scenario["output"]["path"])
            meta = json.loads(next(ln for ln in comments if ln.startswith("# metadata: "))
                              [len("# metadata: "):])
            assert rows.shape[0] == scenario["grid"]["steps"]
            assert "oracle_sigma_z_upper" in header
            deviations = meta["oracle_deviation"]
            assert set(deviations) == {"abs_quasi_a", "quasi_n", "sigma_z_mean", "sigma_z_offset",
                                       "sigma_z_upper", "sigma_z_lower", "conservation_residual"}
            assert max(deviations.values()) <= cli.CROSSCHECK_TOL

    def test_three_series_files_with_features(self, tmp_path, monkeypatch):
        repo_config = os.path.join(os.path.dirname(__file__), "..", "configs", "figure1.json")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--config", os.path.abspath(repo_config)]) == 0
        names = ["figure1_detuning_7p5.csv", "figure1_detuning_10.csv",
                 "figure1_detuning_20.csv"]
        expected = _figure1_digests()
        assert sorted(expected) == sorted(names)
        revived = 0
        for name in names:
            assert (tmp_path / name).exists()
            series = self._series_from_csv(tmp_path / name)
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            if digest != expected[name]:
                pytest.fail(f"{name}: sha256 {digest} != {expected[name]}; "
                            + self._describe_drift(series, tmp_path / name))
            feats = analysis.collapse_revival_features(series)
            assert feats.collapse_detected
            assert -1.0 < feats.plateau < 1.0
            revived += bool(feats.revival_peaks)
        # the two smaller detunings revive within the bundled gt window
        assert revived >= 2
