"""Scenario-driven command line front end.

Reads a JSON config (or pure flags), evaluates the requested observable
channels over a gt grid, and writes plot-ready CSV or JSON.  Output is
deterministic for a fixed config and package version, and written
atomically (temp file + rename).

Config schema (each flag overrides the key its argparse ``dest`` names:
``--atom-uu`` sets ``atom_init.uu``, ``--format`` sets ``output.format``)::

    {
      "omega": 1.0, "omega0": 0.8, "g": 0.02,
      "alpha_mag": 3.1622776601683795, "alpha_phase": 0.0,
      "n_max": "auto",                       # or an integer
      "atom_init": {"uu": 1.0, "ud_re": 0.0, "ud_im": 0.0, "dd": 0.0},
      "grid": {"start": 0.0, "stop": 50.0, "steps": 2000},
      "channels": ["abs_quasi_a", ...],      # optional, default: all
      "oracle": false,
      "output": {"format": "csv", "path": "series.csv"}
    }

A top-level ``{"scenarios": [...]}`` wrapper, holding nothing else, runs
several scenarios in one invocation; each is an object in the schema above.

Exit codes: 0 success, 2 invalid config, 3 closed-form/brute-force
cross-check failure, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, analysis, hilbert
from ._csvtext import format_rows
from .jcm import JcmParams
from .subdyn import CrossCheckError

__all__ = ["main", "run_scenario", "emit_output"]

#: Worst tolerated closed-vs-brute-force channel deviation before exit 3.
CROSSCHECK_TOL = 1e-6
#: CSV rows formatted per string handed to the file: the text of a long grid
#: is never held whole.
CSV_CHUNK_ROWS = 256


class ConfigError(ValueError):
    pass


class OutputError(OSError):
    pass


@functools.lru_cache(maxsize=None)  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jcsubdyn",
        description="Evaluate sub-dynamics observables of a driven two-level "
                    "atom / single-mode field over a gt grid.")
    p.add_argument("--config", help="JSON scenario file (flags override its keys)")
    p.add_argument("--omega", type=float, help="field mode frequency (> 0)")
    p.add_argument("--omega0", type=float, help="atomic splitting")
    p.add_argument("--g", type=float, help="coupling strength (>= 0)")
    p.add_argument("--alpha-mag", type=float, help="coherent amplitude magnitude")
    p.add_argument("--alpha-phase", type=float, help="coherent amplitude phase (rad)")
    p.add_argument("--n-max", help="photon truncation: integer or 'auto'")
    p.add_argument("--atom-uu", dest="atom_init.uu", type=float,
                   help="initial atom population of |up>")
    p.add_argument("--atom-ud-re", dest="atom_init.ud_re", type=float,
                   help="Re of the initial up-down coherence")
    p.add_argument("--atom-ud-im", dest="atom_init.ud_im", type=float,
                   help="Im of the initial up-down coherence")
    p.add_argument("--atom-dd", dest="atom_init.dd", type=float,
                   help="initial atom population of |down>")
    p.add_argument("--grid", nargs=3, type=float, metavar=("START", "STOP", "STEPS"),
                   help="gt grid: start stop steps")
    p.add_argument("--channels", help="comma-separated channel list (default: all)",
                   type=lambda text: [c.strip() for c in text.split(",") if c.strip()])
    p.add_argument("--oracle", choices=["on", "off"],
                   help="also run the brute-force engine and cross-check")
    p.add_argument("--format", choices=["csv", "json"], dest="output.format",
                   help="output format")
    p.add_argument("--output", dest="output.path", help="output file path")
    p.add_argument("--tail-tol", type=float, default=hilbert.DEFAULT_TAIL_TOL,
                   help="coherent tail bound for n_max=auto and truncation warnings")
    return p


_DEFAULTS = {
    "omega": 1.0,
    "omega0": 1.0,
    "g": 0.0,
    "alpha_mag": 0.0,
    "alpha_phase": 0.0,
    "n_max": "auto",
    "atom_init": {"uu": 1.0, "ud_re": 0.0, "ud_im": 0.0, "dd": 0.0},
    "grid": {"start": 0.0, "stop": 50.0, "steps": 2000},
    "channels": list(analysis.DEFAULT_CHANNELS),
    "oracle": False,
    "output": {"format": "csv", "path": "series.csv"},
}


def _load_config(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "scenarios" not in data:
        return [data]
    scenarios = data.pop("scenarios")
    if data:
        raise ConfigError(f"a 'scenarios' wrapper holds nothing else, got {sorted(data)}")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigError("'scenarios' must be a non-empty list")
    if not all(isinstance(scenario, dict) for scenario in scenarios):
        raise ConfigError("each scenario must be a JSON object")
    return scenarios


def _apply_flags(cfg: dict, flags: dict) -> dict:
    """``cfg`` with each flag written under the config key it is named by."""
    for key, val in flags.items():
        section, _, name = key.rpartition(".")
        target = cfg.setdefault(section, {}) if section else cfg
        if isinstance(target, dict):  # _resolve refuses a section that is not an object
            target[name] = val
    return cfg


def _finite(value, name: str) -> float:
    """``value`` as a finite float, or a :class:`ConfigError` naming ``name``."""
    try:
        if isinstance(value, bool):  # a JSON true is not the number 1
            raise TypeError(value)
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def _integer(value, name: str) -> int:
    x = _finite(value, name)
    if not x.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(x)


def _resolve(cfg: dict, tail_tol: float):
    """Validate a raw config dict into (Scenario, echo).

    The echo is the config merged over the defaults, each value converted in
    place: it records what ran.
    """
    if not (math.isfinite(tail_tol) and tail_tol > 0):
        raise ConfigError(f"tail tolerance must be finite and > 0, got {tail_tol!r}")
    merged = json.loads(json.dumps(_DEFAULTS))
    for key, val in cfg.items():
        if key not in merged:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(merged[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            unknown = set(val) - set(merged[key])
            if unknown:
                raise ConfigError(f"unknown keys under {key!r}: {sorted(unknown)}")
            merged[key].update(val)
        else:
            merged[key] = val

    for key in ("omega", "omega0", "g", "alpha_mag", "alpha_phase"):
        merged[key] = _finite(merged[key], key)
    mag = merged["alpha_mag"]
    if mag < 0:
        raise ConfigError("alpha_mag must be >= 0")
    if not math.isfinite(mag * mag):
        raise ConfigError(f"alpha_mag squared (the mean photon number) must be finite, got {mag!r}")
    if merged["n_max"] == "auto":
        try:
            merged["n_max"] = max(hilbert.auto_n_max(mag * mag, tail_tol), 8)
        except ValueError as exc:
            raise ConfigError(f"n_max 'auto': {exc}") from exc
    else:
        merged["n_max"] = _integer(merged["n_max"], "n_max")
    atom, grid, out = merged["atom_init"], merged["grid"], merged["output"]
    for key in atom:
        atom[key] = _finite(atom[key], f"atom_init.{key}")
    for key in ("start", "stop"):
        grid[key] = _finite(grid[key], f"grid {key}")
    grid["steps"] = _integer(grid["steps"], "grid steps")
    channels = merged["channels"]
    if not (isinstance(channels, list) and all(isinstance(c, str) for c in channels)):
        raise ConfigError(f"channels must be a list of channel names, got {channels!r}")
    if out["format"] not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {out['format']!r}")
    if not isinstance(out["path"], str):
        raise ConfigError(f"output path must be a string, got {out['path']!r}")
    if not out["path"]:
        raise ConfigError("output path must not be empty")
    if os.path.isdir(out["path"]):
        raise ConfigError(f"output path {out['path']!r} is a directory")
    # exit 4 as the write would give, but before the work instead of after it
    if not os.path.isdir(parent := os.path.dirname(os.path.abspath(out["path"]))):
        raise OutputError(f"cannot write {out['path']}: no directory {parent}")

    rho = np.array([[atom["uu"], atom["ud_re"] + 1j * atom["ud_im"]],
                    [atom["ud_re"] - 1j * atom["ud_im"], atom["dd"]]],
                   dtype=np.complex128)
    try:
        scenario = analysis.Scenario(
            params=JcmParams(merged["omega"], merged["omega0"], merged["g"], merged["n_max"]),
            atom_init=rho, magnitude=mag, phase=merged["alpha_phase"],
            grid=(grid["start"], grid["stop"], grid["steps"]),
            channels=tuple(channels), oracle=merged["oracle"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scenario, merged


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` through a temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        try:  # the mode open(path, "w") gives: the file's own, or 0o666 less the umask
            mode = os.stat(path).st_mode & 0o7777
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jcsubdyn-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _csv_chunks(head: str, table: np.ndarray):
    """``head``, then the table as ``'%.17g'`` CSV text, ``CSV_CHUNK_ROWS`` rows per string."""
    yield head
    for start in range(0, len(table), CSV_CHUNK_ROWS):
        yield format_rows(table[start:start + CSV_CHUNK_ROWS])


def _require_finite(fmt: str, columns) -> None:
    """A one-line ValueError naming the first (name, values) column, in file order, not finite."""
    for name, values in columns:
        if not np.isfinite(values).all():
            raise ValueError(f"{fmt} output needs finite values; {name} is not finite")


def _json_array(values, pad: str) -> str:
    """A float array as json.dumps(indent=2) writes it ``pad`` deep: ``repr`` per value."""
    text = f",\n{pad}  ".join(map(float.__repr__, np.asarray(values, dtype=np.float64).tolist()))
    return f"[\n{pad}  {text}\n{pad}]" if text else "[]"


def _json_nested(obj) -> str:
    """A small object as json.dumps(indent=2) writes it one level deep."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False).replace("\n", "\n  ")


def emit_output(series: analysis.TimeSeries, fmt: str, path: str, echo: dict) -> None:
    """Serialize a series deterministically; CSV embeds the scenario as '#' comments."""
    meta = dict(series.metadata)
    meta["version"] = __version__
    names = sorted(series.channels)
    if fmt == "csv":
        head = [
            "# scenario: " + json.dumps(echo, sort_keys=True, separators=(",", ":")),
            "# metadata: " + json.dumps(meta, sort_keys=True, separators=(",", ":")),
            "gt," + ",".join(names),
        ]
        _require_finite("CSV", [("gt", series.gt)] + [(n, series.channels[n]) for n in names])
        table = np.column_stack([series.gt] + [series.channels[n] for n in names])
        _atomic_write(path, _csv_chunks("".join(line + "\n" for line in head), table))
    elif fmt == "json":  # json.dumps(doc, sort_keys=True, indent=2) + "\n", keys in its order
        _require_finite("JSON", [(n, series.channels[n]) for n in names] + [("gt", series.gt)])
        channels = ",\n".join(f"    {json.dumps(n)}: {_json_array(series.channels[n], '    ')}"
                               for n in names)
        _atomic_write(path, ['{\n  "channels": ' + ("{\n" + channels + "\n  }" if names else "{}"),
                             ',\n  "gt": ' + _json_array(series.gt, "  "),
                             ',\n  "metadata": ' + _json_nested(meta),
                             ',\n  "scenario": ' + _json_nested(echo) + "\n}\n"])
    else:
        raise OutputError(f"unknown output format {fmt!r}")


def run_scenario(cfg: dict, tail_tol: float = hilbert.DEFAULT_TAIL_TOL) -> int:
    """Run one scenario dict; returns a process exit code."""
    scenario, echo = _resolve(cfg, tail_tol)
    with np.errstate(all="ignore"):  # a non-finite result is refused below, in one line
        series = analysis.observable_series(scenario, tail_tol)
    for name, values in {"gt": series.gt, **series.channels}.items():
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise ConfigError(f"{name} is not finite at {bad} of {len(values)} grid points; "
                              "nothing written")
    if not series.metadata["tail_ok"]:
        print(f"warning: coherent tail mass exceeds {tail_tol:g} at n_max={scenario.params.n_max}; "
              "results include truncation error", file=sys.stderr)
    if scenario.oracle:
        worst = series.metadata.get("oracle_deviation_max", 0.0)
        if worst > CROSSCHECK_TOL:
            print(f"cross-check failure: closed form and brute force diverge by "
                  f"{worst:.3e} (> {CROSSCHECK_TOL:g})", file=sys.stderr)
            return 3
    emit_output(series, echo["output"]["format"], echo["output"]["path"], echo)
    return 0


def main(argv: list[str] | None = None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    config, tail_tol = flags.pop("config"), flags.pop("tail_tol")
    flags = {key: val for key, val in flags.items() if val is not None}
    if "grid" in flags:
        flags["grid"] = dict(zip(("start", "stop", "steps"), flags["grid"]))
    if "oracle" in flags:
        flags["oracle"] = flags["oracle"] == "on"
    try:
        configs = [_apply_flags(cfg, flags) for cfg in (_load_config(config) if config else [{}])]
        if len(configs) > 1 and "output.path" in flags:
            raise ConfigError("--output cannot override a multi-scenario config")
        for cfg in configs:
            code = run_scenario(cfg, tail_tol)
            if code != 0:
                return code
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
