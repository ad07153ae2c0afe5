"""Command-line front end: flat key=value configs, subcommands, CSV output.

The CLI parses a config and hands it to the experiment driver of the
subcommand; the drivers decide which cells a table holds and which configs
it cannot use (raising ConfigError or InfeasibleLoadError), so every
subcommand is one entry in SUBCOMMANDS.

Exit codes: 0 success, 1 library error (a PowerGameError, e.g. no feasible
draw, or a non-finite table cell), 2 configuration error (including a load
grid on which no tabulated cell is feasible), 3 output I/O error, 4 solver
non-convergence when --strict is given. All randomness is controlled by the
seed key (default 0); identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields as dataclass_fields
from enum import Enum

import numpy as np

from . import experiments
from .efficiency import EfficiencyKind, EfficiencyModel, solve_gamma_star
from .exceptions import ConfigError, InfeasibleLoadError, PowerGameError
from .experiments import ScenarioConfig, SweepMode
from .system import ReceiverKind, SystemParams

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NOCONV = 4

KIND_NAMES = {"MF": ReceiverKind.MATCHED_FILTER,
              "DE": ReceiverKind.DECORRELATOR,
              "MMSE": ReceiverKind.MMSE}


def _parse_int(key, text, minimum=None):
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {value}")
    return value


def _parse_float(key, text, positive=False):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {text!r}")
    if positive and value <= 0:
        raise ConfigError(key, f"must be positive, got {value}")
    return value


def _parse_choice(key, text, choices):
    if text not in choices:
        raise ConfigError(key, f"expected one of {sorted(choices)}, got {text!r}")
    return text


def _parse_counts(key, text):
    try:
        counts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(key, f"expected comma-separated integers, got {text!r}") from None
    if any(c < 1 for c in counts):
        raise ConfigError(key, f"expected positive integers, got {text!r}")
    if len(set(counts)) != len(counts):
        raise ConfigError(key, f"repeated value in {text!r}")
    return counts


def _parse_alpha_range(key, text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(key, f"expected START:STOP:STEP, got {text!r}")
    start, stop, step = (_parse_float(key, tok) for tok in parts)
    if start <= 0 or step <= 0 or stop < start:
        raise ConfigError(key, "need 0 < START <= STOP and STEP > 0")
    count = int(round((stop - start) / step)) + 1
    grid = tuple(round(start + i * step, 12) for i in range(count)
                 if start + i * step <= stop + 1e-12)
    return grid


# key -> parser; unknown keys are rejected with this list in the message
CONFIG_KEYS = {
    "K": lambda t: _parse_int("K", t, 1),
    "N": lambda t: _parse_int("N", t, 1),
    "L": lambda t: _parse_int("L", t, 1),
    "M": lambda t: _parse_int("M", t, 1),
    "sigma2": lambda t: _parse_float("sigma2", t, positive=True),
    "R": lambda t: _parse_float("R", t, positive=True),
    "Pmax": lambda t: _parse_float("Pmax", t, positive=True),
    "distance": lambda t: _parse_float("distance", t, positive=True),
    "d_min": lambda t: _parse_float("d_min", t, positive=True),
    "d_max": lambda t: _parse_float("d_max", t, positive=True),
    "trials": lambda t: _parse_int("trials", t, 1),
    "seed": lambda t: _parse_int("seed", t, 0),
    "eff": lambda t: _parse_choice("eff", t, {"exp", "bpsk"}),
    "receiver": lambda t: _parse_choice("receiver", t, set(KIND_NAMES) | {"all"}),
    "antennas": lambda t: _parse_counts("antennas", t),
    "alpha": lambda t: _parse_float("alpha", t, positive=True),
    "alpha_range": lambda t: _parse_alpha_range("alpha_range", t),
    "mode": lambda t: _parse_choice("mode", t, {"noncoop", "pareto", "both"}),
    "gain_mean_semantics": lambda t: _parse_choice(
        "gain_mean_semantics", t, {"amplitude", "mean_square"}),
    "n_grid": lambda t: _parse_counts("n_grid", t),
    "max_iter": lambda t: _parse_int("max_iter", t, 1),
}

# the published baseline parameter set; L = None tracks M unless set
DEFAULTS = {
    "K": 30, "N": 100, "L": None, "M": 100,
    "sigma2": 5e-16, "R": 1e5, "Pmax": 1.0,
    "distance": 100.0, "d_min": 10.0, "d_max": 1000.0,
    "trials": 500, "seed": 0, "eff": "exp", "receiver": "all",
    "antennas": (1,), "alpha": None, "alpha_range": None,
    "mode": "noncoop", "gain_mean_semantics": "amplitude",
    "n_grid": (25, 50, 100), "max_iter": 500,
}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{lineno}: expected key = value")
        key, _, text = line.partition("=")
        values[key.strip()] = text.strip()
    return values


def _apply(settings: dict, key: str, text) -> None:
    if key not in CONFIG_KEYS:
        raise ConfigError(key, f"unknown key; valid keys: {', '.join(sorted(CONFIG_KEYS))}")
    settings[key] = CONFIG_KEYS[key](text) if isinstance(text, str) else text
    # a single load and a load range are alternatives: last writer wins
    if key == "alpha":
        settings["alpha_range"] = None
    elif key == "alpha_range":
        settings["alpha"] = None


def parse_config(path: str | None, overrides, subcommand_defaults=None) -> ScenarioConfig:
    """Build a ScenarioConfig from defaults, an optional file, and overrides.

    Precedence: built-in defaults, then per-subcommand defaults, then the
    config file, then the overrides in order.
    """
    settings = dict(DEFAULTS)
    for key, text in (subcommand_defaults or {}).items():
        _apply(settings, key, text)
    if path is not None:
        for key, text in _read_config_file(path).items():
            _apply(settings, key, text)
    for key, text in overrides:
        _apply(settings, key, text)

    model = EfficiencyModel(
        kind=EfficiencyKind.EXP_APPROX if settings["eff"] == "exp"
        else EfficiencyKind.BPSK_AWGN,
        M=settings["M"])
    L = settings["L"] if settings["L"] is not None else settings["M"]
    try:
        params = SystemParams(K=settings["K"], N=settings["N"],
                              sigma2=settings["sigma2"], R=settings["R"],
                              L=L, M=settings["M"],
                              Pmax=settings["Pmax"])
    except ValueError as exc:
        raise ConfigError("params", str(exc)) from None
    kinds = (tuple(KIND_NAMES.values()) if settings["receiver"] == "all"
             else (KIND_NAMES[settings["receiver"]],))
    if settings["alpha"] is not None:
        alpha_grid = (settings["alpha"],)
    elif settings["alpha_range"] is not None:
        alpha_grid = settings["alpha_range"]
    else:
        alpha_grid = ()
    try:
        return ScenarioConfig(params=params, model=model, kinds=kinds,
                              alpha_grid=alpha_grid, trials=settings["trials"],
                              master_seed=settings["seed"],
                              distance=settings["distance"],
                              antennas=settings["antennas"],
                              mode=SweepMode(settings["mode"]),
                              d_min=settings["d_min"], d_max=settings["d_max"],
                              gain_mean_semantics=settings["gain_mean_semantics"],
                              n_grid=settings["n_grid"],
                              max_iter=settings["max_iter"])
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from None


def _format_cell(name: str, value) -> str:
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # Python float arithmetic overflows to inf without raising
        if not math.isfinite(value):
            raise PowerGameError(f"{name} is {value!r}; a config value is "
                                 "outside the float range")
        return repr(value)  # shortest exact round-trip, locale independent
    return str(value)


def emit_csv(rows, output_path: str) -> None:
    """Write dataclass rows as CSV with a single header line and LF endings.

    A non-finite float cell raises PowerGameError before anything is written.
    """
    if not rows:
        text = ""
    else:
        names = [f.name for f in dataclass_fields(rows[0])]
        lines = [",".join(names)]
        for row in rows:
            lines.append(",".join(_format_cell(n, getattr(row, n))
                                  for n in names))
        text = "\n".join(lines) + "\n"
    _write_text(text, output_path)


def _write_text(text: str, output_path: str) -> None:
    """Write text to a file with LF endings, or to stdout for '-'."""
    if output_path == "-":
        sys.stdout.write(text)
        return
    with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gamma_star(config, args):
    gstar = solve_gamma_star(config.model)
    db = 10.0 * math.log10(gstar)
    _write_text(f"gamma-star: {gstar:.2f} ({db:.1f} dB)\n"
                f"exact: {gstar!r} linear, {db!r} dB\n", args.output)
    return 0


def _table(run):
    """Handler writing the rows run(config) returns."""
    def handler(config, args):
        emit_csv(run(config), args.output)
        return 0
    return handler


def _checked_table(run):
    """Handler writing the rows of run(config) -> (rows, converged); under
    --strict it exits 4 when the solve did not converge."""
    def handler(config, args):
        rows, converged = run(config)
        emit_csv(rows, args.output)
        return 0 if (converged or not args.strict) else EXIT_NOCONV
    return handler


# subcommand -> (handler(config, args) -> exit code, config defaults)
SUBCOMMANDS = {
    "gamma-star": (_cmd_gamma_star, {}),
    "equilibrium": (_checked_table(experiments.run_equilibria),
                    {"receiver": "MMSE"}),
    "sweep": (_table(experiments.run_load_sweep),
              {"alpha_range": "0.05:1.15:0.05"}),
    "pareto": (_table(experiments.run_load_sweep),
               {"alpha_range": "0.05:1.15:0.05", "mode": "both"}),
    "sir-compare": (_table(experiments.run_target_sir_comparison),
                    {"alpha_range": "0.05:1.0:0.05"}),
    "antennas": (_table(experiments.run_load_sweep),
                 {"alpha_range": "0.05:1.15:0.05", "antennas": "1,2"}),
    "admission": (_table(experiments.run_admission_curve),
                  {"receiver": "MMSE", "alpha_range": "0.01:1.15:0.01"}),
    "curve-utility": (_checked_table(experiments.run_utility_power_curve),
                      {"receiver": "MMSE"}),
    "curve-efficiency": (_table(lambda config: experiments.run_efficiency_curve(
        config.model, np.linspace(0.0, 20.0, 201))), {}),
    "validate-asymptotic": (_table(experiments.run_finite_vs_asymptotic),
                            {"alpha": "0.07"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powergame",
        description="Energy-efficiency power control simulator for the "
                    "DS-CDMA uplink (bits per joule).")
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", metavar="PATH",
                        help="key = value file, # comments allowed")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    parser.add_argument("--output", default="-", metavar="PATH",
                        help="output destination, '-' for stdout")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="master seed (default 0)")
    parser.add_argument("--trials", type=int, metavar="N")
    parser.add_argument("--strict", action="store_true",
                        help="exit 4 when a solver fails to converge")
    parser.add_argument("--receiver", choices=["MF", "DE", "MMSE", "all"])
    parser.add_argument("--antennas", metavar="LIST",
                        help="comma-separated antenna counts")
    parser.add_argument("--alpha-range", metavar="START:STOP:STEP")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, sub_defaults = SUBCOMMANDS[args.subcommand]
    overrides = []
    for item in args.sets:
        key, sep, text = item.partition("=")
        if not sep:
            sys.stderr.write(f"config error: --set expects KEY=VALUE, got {item!r}\n")
            return EXIT_CONFIG
        overrides.append((key.strip(), text.strip()))
    for key in ("seed", "trials", "receiver", "antennas", "alpha_range"):
        if getattr(args, key) is not None:
            overrides.append((key, str(getattr(args, key))))
    try:
        # an overflow, division by zero or NaN anywhere in numpy would
        # otherwise end in an inf or nan table with exit 0; Python floats
        # raise their own ArithmeticError subclasses
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            config = parse_config(args.config, overrides, sub_defaults)
            return handler(config, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except InfeasibleLoadError as exc:
        sys.stderr.write(f"config error: alpha: {exc}\n")
        return EXIT_CONFIG
    except (PowerGameError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
