"""Command-line front end: flat key=value configs, subcommands, CSV output.

The CLI parses a config and hands it to the experiment driver of the
subcommand; the drivers decide which cells a table holds and which configs
it cannot use (raising ConfigError), so every subcommand is one entry in
SUBCOMMANDS.

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

from .config import ReceiverKind, ScenarioConfig, SweepMode, SystemParams
from .efficiency import EfficiencyKind, EfficiencyModel, solve_gamma_star
from .exceptions import ConfigError, PowerGameError, check_value

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NOCONV = 4


def _converter(convert, expected):
    """Parser of text that convert turns into a value, naming what it expected."""
    def parse(key, text):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(key, f"expected {expected}, got {text!r}") from None
    return parse


_parse_int = _converter(int, "an integer")
_parse_float = _converter(float, "a number")
_parse_counts = _converter(lambda text: tuple(int(tok) for tok in text.split(",")),
                           "comma-separated integers")


def _choice(choices):
    """Parser of a name in choices, giving the value the name maps to."""
    def parse(key, text):
        if text not in choices:
            raise ConfigError(key, f"expected one of {sorted(choices)}, got {text!r}")
        return choices[text]
    return parse


# the most loads one grid may hold; the largest README grid holds 115
_MAX_LOADS = 10_000


def _parse_alpha_range(key, text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(key, f"expected START:STOP:STEP, got {text!r}")
    start, stop, step = bounds = [_parse_float(key, tok) for tok in parts]
    if not all(map(math.isfinite, bounds)) or step <= 0 or stop < start:
        raise ConfigError(key, "need finite START <= STOP and STEP > 0")
    # counted before the grid is built; a tiny STEP makes the ratio inf
    count = int(round(min((stop - start) / step, _MAX_LOADS))) + 1
    if count > _MAX_LOADS:
        raise ConfigError(key, f"{text!r} holds more than {_MAX_LOADS} loads")
    return tuple(round(start + i * step, 12) for i in range(count)
                 if start + i * step <= stop + 1e-12)


# receiver name -> the receivers a table holds
RECEIVERS = {**{kind.value: (kind,) for kind in ReceiverKind},
             "all": tuple(ReceiverKind)}

# key -> (parser(key, text), default): text to values only, which
# exceptions.check_value, also run by the config dataclasses, checks. The
# defaults are the published baseline set; L = None tracks M. Unknown keys
# are rejected with this list.
CONFIG_KEYS = {
    "K": (_parse_int, 30),
    "N": (_parse_int, 100),
    "L": (_parse_int, None),
    "M": (_parse_int, 100),
    "sigma2": (_parse_float, 5e-16),
    "R": (_parse_float, 1e5),
    "Pmax": (_parse_float, 1.0),
    "distance": (_parse_float, 100.0),
    "d_min": (_parse_float, 10.0),
    "d_max": (_parse_float, 1000.0),
    "trials": (_parse_int, 500),
    "seed": (_parse_int, 0),
    "eff": (_choice({kind.value: kind for kind in EfficiencyKind}),
            EfficiencyKind.EXP_APPROX),
    "receiver": (_choice(RECEIVERS), RECEIVERS["all"]),
    "antennas": (_parse_counts, (1,)),
    # stored as a one-load alpha_range, so the last load key given wins
    "alpha": (lambda key, text: (_parse_float(key, text),), None),
    "alpha_range": (_parse_alpha_range, ()),
    "mode": (_choice({mode.value: mode for mode in SweepMode}),
             SweepMode.NONCOOPERATIVE),
    "n_grid": (_parse_counts, (25, 50, 100)),
    "max_iter": (_parse_int, 500),
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


def _apply(settings: dict, key: str, text: str) -> None:
    if key not in CONFIG_KEYS:
        raise ConfigError(key, f"unknown key; valid keys: {', '.join(sorted(CONFIG_KEYS))}")
    parse, _ = CONFIG_KEYS[key]
    value = parse(key, text)
    key = "alpha_range" if key == "alpha" else key
    check_value(key, value)  # also a value a later setting replaces
    settings[key] = value


def parse_config(path: str | None, overrides, subcommand_defaults=None) -> ScenarioConfig:
    """Build a ScenarioConfig from defaults, an optional file, and overrides.

    Precedence: built-in defaults, then per-subcommand defaults, then the
    config file, then the overrides in order. Every value but the built-in
    defaults is text.
    """
    settings = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    for key, text in (subcommand_defaults or {}).items():
        _apply(settings, key, text)
    if path is not None:
        for key, text in _read_config_file(path).items():
            _apply(settings, key, text)
    for key, text in overrides:
        _apply(settings, key, text)

    model = EfficiencyModel(kind=settings["eff"], M=settings["M"])
    L = settings["L"] if settings["L"] is not None else settings["M"]
    params = SystemParams(K=settings["K"], N=settings["N"],
                          sigma2=settings["sigma2"], R=settings["R"],
                          L=L, M=settings["M"], Pmax=settings["Pmax"])
    return ScenarioConfig(params=params, model=model,
                          kinds=settings["receiver"],
                          alpha_grid=settings["alpha_range"],
                          trials=settings["trials"],
                          master_seed=settings["seed"],
                          distance=settings["distance"],
                          antennas=settings["antennas"],
                          mode=settings["mode"],
                          d_min=settings["d_min"], d_max=settings["d_max"],
                          n_grid=settings["n_grid"],
                          max_iter=settings["max_iter"])


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


def _run(driver: str, *args):
    """experiments.<driver>(*args). The drivers load numpy, so the import
    waits until a table runs and gamma-star never pays for it. An overflow,
    division by zero or NaN anywhere in numpy would otherwise end in an inf
    or nan table with exit 0; Python floats raise their own ArithmeticError
    subclasses."""
    import numpy as np

    from . import experiments
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return getattr(experiments, driver)(*args)


def _table(driver: str):
    """Handler writing the rows the experiments driver returns."""
    def handler(config, args):
        emit_csv(_run(driver, config), args.output)
        return 0
    return handler


def _checked_table(driver: str):
    """Handler writing the rows of a driver returning (rows, converged);
    under --strict it exits 4 when the solve did not converge."""
    def handler(config, args):
        rows, converged = _run(driver, config)
        emit_csv(rows, args.output)
        return 0 if (converged or not args.strict) else EXIT_NOCONV
    return handler


def _cmd_curve_efficiency(config, args):
    # numpy.linspace(0, 20, 201): i * 0.1, whose last point rounds to 20.0
    emit_csv(_run("run_efficiency_curve", config.model,
                  [i * 0.1 for i in range(201)]), args.output)
    return 0


# subcommand -> (handler(config, args) -> exit code, config defaults)
SUBCOMMANDS = {
    "gamma-star": (_cmd_gamma_star, {}),
    "equilibrium": (_checked_table("run_equilibria"), {"receiver": "MMSE"}),
    "sweep": (_table("run_load_sweep"), {"alpha_range": "0.05:1.15:0.05"}),
    "pareto": (_table("run_load_sweep"),
               {"alpha_range": "0.05:1.15:0.05", "mode": "both"}),
    "sir-compare": (_table("run_target_sir_comparison"),
                    {"alpha_range": "0.05:1.0:0.05"}),
    "antennas": (_table("run_load_sweep"),
                 {"alpha_range": "0.05:1.15:0.05", "antennas": "1,2"}),
    "admission": (_table("run_admission_curve"),
                  {"receiver": "MMSE", "alpha_range": "0.01:1.15:0.01"}),
    "curve-utility": (_checked_table("run_utility_power_curve"),
                      {"receiver": "MMSE"}),
    "curve-efficiency": (_cmd_curve_efficiency, {}),
    "validate-asymptotic": (_table("run_finite_vs_asymptotic"),
                            {"alpha": "0.07"}),
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises ConfigError where it would print its usage block
    and exit, so a malformed command line is one config error line (exit 2);
    --help still prints the help and exits 0."""

    def error(self, message):
        key, _, detail = message.partition(": ")
        raise ConfigError(key, detail)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    parser.add_argument("--seed", metavar="U64",
                        help="master seed (default 0)")
    parser.add_argument("--trials", metavar="N")
    parser.add_argument("--strict", action="store_true",
                        help="exit 4 when a solver fails to converge")
    parser.add_argument("--receiver", metavar="{MF|DE|MMSE|all}")
    parser.add_argument("--antennas", metavar="LIST",
                        help="comma-separated antenna counts")
    parser.add_argument("--alpha-range", metavar="START:STOP:STEP")
    return parser


# the config keys with a flag of their own, --alpha-range for alpha_range
SHORTCUT_KEYS = ("seed", "trials", "receiver", "antennas", "alpha_range")


def _attach_values(argv):
    """argv with each shortcut flag and a following value that starts with a
    single '-' joined as --flag=value. argparse takes a separate '-1,2' or
    '-0.5:0.5:0.1' for an option; attached, it reaches the config checks,
    which name the key."""
    flags = {"--" + key.replace("_", "-") for key in SHORTCUT_KEYS}
    joined = []
    for token in argv:
        if (joined and joined[-1] in flags and token.startswith("-")
                and not token.startswith("--")):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(
            _attach_values(sys.argv[1:] if argv is None else argv))
        handler, sub_defaults = SUBCOMMANDS[args.subcommand]
        overrides = []
        for item in args.sets:
            key, sep, text = item.partition("=")
            if not sep:
                raise ConfigError("--set", f"expects KEY=VALUE, got {item!r}")
            overrides.append((key.strip(), text.strip()))
        # the shortcut flags are text for the config key of the same name
        overrides += [(key, getattr(args, key)) for key in SHORTCUT_KEYS
                      if getattr(args, key) is not None]
        return handler(parse_config(args.config, overrides, sub_defaults),
                       args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except (PowerGameError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

