"""Scenario-driven command line front end.

Reads a JSON config (or pure flags), evaluates the requested observable
channels over a gt grid, and writes plot-ready CSV or JSON.  Output is
deterministic for a fixed config and package version, and written
atomically (temp file + rename).

Config schema (flags mirror the keys; flags override the file)::

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

A top-level ``{"scenarios": [...]}`` wrapper runs several scenarios (each in
the schema above) in one invocation.

Exit codes: 0 success, 2 invalid config, 3 closed-form/brute-force
cross-check failure, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, analysis, hilbert
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
    p.add_argument("--atom-uu", type=float, help="initial atom population of |up>")
    p.add_argument("--atom-ud-re", type=float, help="Re of the initial up-down coherence")
    p.add_argument("--atom-ud-im", type=float, help="Im of the initial up-down coherence")
    p.add_argument("--atom-dd", type=float, help="initial atom population of |down>")
    p.add_argument("--grid", nargs=3, type=float, metavar=("START", "STOP", "STEPS"),
                   help="gt grid: start stop steps")
    p.add_argument("--channels", help="comma-separated channel list (default: all)")
    p.add_argument("--oracle", choices=["on", "off"],
                   help="also run the brute-force engine and cross-check")
    p.add_argument("--format", choices=["csv", "json"], dest="fmt", help="output format")
    p.add_argument("--output", help="output file path")
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
    if isinstance(data, dict) and "scenarios" in data:
        scenarios = data["scenarios"]
        if not isinstance(scenarios, list) or not scenarios:
            raise ConfigError("'scenarios' must be a non-empty list")
        return [dict(s) for s in scenarios]
    if isinstance(data, dict):
        return [data]
    raise ConfigError("config must be a JSON object")


def _apply_flags(cfg: dict, args: argparse.Namespace) -> dict:
    cfg = json.loads(json.dumps(cfg))  # deep copy, JSON types only
    for key in ("omega", "omega0", "g"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if args.alpha_mag is not None:
        cfg["alpha_mag"] = args.alpha_mag
    if args.alpha_phase is not None:
        cfg["alpha_phase"] = args.alpha_phase
    if args.n_max is not None:
        cfg["n_max"] = args.n_max
    atom = cfg.setdefault("atom_init", dict(_DEFAULTS["atom_init"]))
    for flag, key in (("atom_uu", "uu"), ("atom_ud_re", "ud_re"),
                      ("atom_ud_im", "ud_im"), ("atom_dd", "dd")):
        val = getattr(args, flag)
        if val is not None:
            atom[key] = val
    if args.grid is not None:
        cfg["grid"] = {"start": args.grid[0], "stop": args.grid[1], "steps": args.grid[2]}
    if args.channels is not None:
        cfg["channels"] = [c.strip() for c in args.channels.split(",") if c.strip()]
    if args.oracle is not None:
        cfg["oracle"] = args.oracle == "on"
    out = cfg.setdefault("output", dict(_DEFAULTS["output"]))
    if args.fmt is not None:
        out["format"] = args.fmt
    if args.output is not None:
        out["path"] = args.output
    return cfg


def _finite(value, name: str) -> float:
    """``value`` as a finite float, or a :class:`ConfigError` naming ``name``."""
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def _resolve(cfg: dict, tail_tol: float):
    """Validate a raw config dict into (Scenario, output settings, canonical echo)."""
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

    omega = _finite(merged["omega"], "omega")
    omega0 = _finite(merged["omega0"], "omega0")
    g = _finite(merged["g"], "g")
    mag = _finite(merged["alpha_mag"], "alpha_mag")
    phase = _finite(merged["alpha_phase"], "alpha_phase")
    if mag < 0:
        raise ConfigError("alpha_mag must be >= 0")
    if not math.isfinite(mag * mag):
        raise ConfigError(f"alpha_mag squared (the mean photon number) must be finite, got {mag!r}")

    n_max_cfg = merged["n_max"]
    if n_max_cfg == "auto":
        try:
            n_max = max(hilbert.auto_n_max(mag * mag, tail_tol), 8)
        except ValueError as exc:
            raise ConfigError(f"n_max 'auto': {exc}") from exc
    else:
        try:
            n_max = int(n_max_cfg)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"n_max must be an integer or 'auto', got {n_max_cfg!r}") from exc

    atom = {key: _finite(val, f"atom_init.{key}") for key, val in merged["atom_init"].items()}
    rho = np.array([[atom["uu"], atom["ud_re"] + 1j * atom["ud_im"]],
                    [atom["ud_re"] - 1j * atom["ud_im"], atom["dd"]]],
                   dtype=np.complex128)

    grid_cfg = merged["grid"]
    steps = _finite(grid_cfg["steps"], "grid steps")
    if not steps.is_integer():
        raise ConfigError(f"grid steps must be an integer, got {grid_cfg['steps']!r}")
    grid = (_finite(grid_cfg["start"], "grid start"), _finite(grid_cfg["stop"], "grid stop"),
            int(steps))

    if not isinstance(merged["oracle"], bool):
        raise ConfigError(f"oracle must be true or false, got {merged['oracle']!r}")
    if merged["oracle"] and not math.isfinite(omega * (n_max + 1) + abs(omega0)
                                              + g * math.sqrt(n_max + 1)):
        raise ConfigError("the oracle's truncated Hamiltonian overflows: "
                          "omega (n_max + 1) + |omega0| + g sqrt(n_max + 1) is not finite")

    fmt = merged["output"]["format"]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {fmt!r}")

    try:
        params = JcmParams(omega, omega0, g, n_max)
        scenario = analysis.Scenario(
            params=params, atom_init=rho, magnitude=mag, phase=phase, grid=grid,
            channels=tuple(merged["channels"]), oracle=merged["oracle"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    echo = {
        "omega": omega, "omega0": omega0, "g": g,
        "alpha_mag": mag, "alpha_phase": phase, "n_max": n_max,
        "atom_init": {"uu": float(rho[0, 0].real), "ud_re": float(rho[0, 1].real),
                      "ud_im": float(rho[0, 1].imag), "dd": float(rho[1, 1].real)},
        "grid": {"start": grid[0], "stop": grid[1], "steps": grid[2]},
        "channels": list(scenario.channels),
        "oracle": scenario.oracle,
        "output": {"format": fmt, "path": merged["output"]["path"]},
    }
    return scenario, (fmt, merged["output"]["path"]), echo


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` through a temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jcsubdyn-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _csv_chunks(head: str, row: str, table: np.ndarray):
    """``head``, then the table formatted ``row`` by row, ``CSV_CHUNK_ROWS`` rows per string."""
    yield head
    for start in range(0, len(table), CSV_CHUNK_ROWS):
        chunk = table[start:start + CSV_CHUNK_ROWS].tolist()
        yield "".join(row % tuple(values) for values in chunk)


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
        row = ",".join(["%.17g"] * (1 + len(names))) + "\n"
        table = np.column_stack([series.gt] + [series.channels[n] for n in names])
        _atomic_write(path, _csv_chunks("".join(line + "\n" for line in head), row, table))
    elif fmt == "json":
        doc = {
            "scenario": echo,
            "gt": [float(x) for x in series.gt],
            "channels": {n: [float(x) for x in series.channels[n]] for n in names},
            "metadata": meta,
        }
        _atomic_write(path, [json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"])
    else:
        raise OutputError(f"unknown output format {fmt!r}")


def run_scenario(cfg: dict, tail_tol: float = hilbert.DEFAULT_TAIL_TOL) -> int:
    """Run one resolved scenario dict; returns a process exit code."""
    scenario, (fmt, path), echo = _resolve(cfg, tail_tol)
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
    emit_output(series, fmt, path, echo)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            configs = _load_config(args.config)
        else:
            configs = [{}]
        if len(configs) > 1 and args.output is not None:
            raise ConfigError("--output cannot override a multi-scenario config")
        configs = [_apply_flags(cfg, args) for cfg in configs]
        for cfg in configs:
            code = run_scenario(cfg, args.tail_tol)
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
