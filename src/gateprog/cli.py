"""Command-line frontend: bounds, protocol, sweep, phase, table1, verify.

Configuration comes from flags or a flat key=value file (flags win).  All
floating output is printed with 12 significant digits, so identical
configurations produce byte-identical output.  Exit codes: 0 success,
1 validation error or an eigensolver that did not converge, 2 internal
verification failure.

Each configuration key's type and default are declared once, in ``_KEYS``, and
each command's flags, handler and help line once, in ``_COMMANDS``; the parser,
the config-file reader and the dispatch are built from these two tables.  Handlers
return their report's fields, which ``_output_text`` alone rounds and renders.  CSV
values are quoted where they hold a comma, a quote or a newline.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from . import bounds as bounds_mod
from . import verify as verify_mod
from .phase import phase_report
from .reporting import (
    csv_text,
    format_float,
    protocol_report,
    report_to_dict,
    reports_to_csv,
    round_floats,
    sweep,
    sweep_to_dict,
    write_text_atomic,
)
from .scoring import ConvergenceError


class CliError(ValueError):
    """Bad flags or configuration."""


FORMATS = ("json", "csv", "table")

# key -> (type, default when neither a flag nor the config file sets it);
# the flag of key n_min is --n-min
_KEYS = {
    "d": (int, None),
    "n": (int, None),
    "n_min": (int, None),
    "n_max": (int, None),
    "n_step": (int, None),
    "eps": (float, None),
    "delta": (float, None),
    "K": (float, 1.0),
    "dp": (int, None),
    "seed": (int, 0),
    "samples": (int, 10**6),
    "format": (str, "table"),
    "output": (str, None),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); validation errors are exit 1
        raise CliError(message)


def _add_flag(parser: argparse.ArgumentParser, key: str, **kwargs) -> None:
    parser.add_argument(f"--{key.replace('_', '-')}", type=_KEYS[key][0], default=None, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged and
    returns a fresh namespace each call."""
    # --help shows the docstring without its last paragraph, which is for readers of the code
    parser = _Parser(prog="gateprog", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (flags, _, help_line) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for key in flags:
            _add_flag(p, key)
        p.add_argument("--config", help="flat key=value configuration file")
        _add_flag(p, "format", choices=FORMATS)
        _add_flag(p, "output", help="write here atomically instead of stdout")
    return parser


def _parse_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc.strerror}") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _KEYS[key][0]
        try:
            values[key] = kind(value)
        except ValueError:
            raise CliError(
                f"{path}:{lineno}: key {key!r} expects {kind.__name__}, got {value!r}"
            ) from None
    return values


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Set every key of ``_KEYS`` on args: its flag, else its config-file value, else its
    default."""
    file_values = _parse_config_file(args.config) if args.config else {}
    for key, (_, default) in _KEYS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_values.get(key, default))
    if args.format not in FORMATS:
        raise CliError(f"unknown format {args.format!r}")
    return args


def _require(config: argparse.Namespace, *keys: str) -> None:
    for key in keys:
        if getattr(config, key) is None:
            raise CliError(f"{config.command} requires --{key.replace('_', '-')}")


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, list):
            for idx, item in enumerate(value):
                rows.extend(_flatten(item, prefix=f"{name}[{idx}]."))
        else:
            rows.append((name, value))
    return rows


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    rows = [
        (key, format_float(value) if isinstance(value, float) else str(value))
        for key, value in _flatten(payload)
    ]
    if fmt == "csv":
        return csv_text(("key", "value"), rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{key:<{width}}  {text}\n" for key, text in rows)


def _cmd_bounds(config: argparse.Namespace) -> tuple[dict, int]:
    _require(config, "d", "eps")
    return asdict(bounds_mod.bound_report(config.d, config.eps, config.delta, config.K)), 0


def _cmd_protocol(config: argparse.Namespace) -> tuple[dict, int]:
    _require(config, "d", "n")
    report = protocol_report(config.n, config.d)
    return report_to_dict(report), 0 if all(report.pass_flags.values()) else 2


def _cmd_sweep(config: argparse.Namespace) -> tuple[dict, int]:
    _require(config, "d", "n_min", "n_max")
    step = 1 if config.n_step is None else config.n_step
    if step < 1:
        raise CliError(f"n-step must be positive, got {step}")
    result = sweep(config.d, list(range(config.n_min, config.n_max + 1, step)))
    code = 0 if all(all(r.pass_flags.values()) for r in result.reports) else 2
    return sweep_to_dict(result), code


def _cmd_phase(config: argparse.Namespace) -> tuple[dict, int]:
    _require(config, "dp")
    return asdict(phase_report(config.dp)), 0


def _cmd_table1(config: argparse.Namespace) -> tuple[dict, int]:
    _require(config, "d", "eps")
    return {
        "d": config.d,
        "epsilon": config.eps,
        "K": config.K,
        "prior_work": bounds_mod.table1_rows(config.d, config.eps, config.K),
        "this_work_upper_bits": bounds_mod.upper_bound_cost(config.d, config.eps),
        "this_work_upper_bits_simplified": bounds_mod.upper_bound_cost(
            config.d, config.eps, simplified=True
        ),
    }, 0


def _cmd_verify(config: argparse.Namespace) -> tuple[dict, int]:
    results = verify_mod.run_all(samples=config.samples, seed=config.seed)
    passed = all(r.passed for r in results)
    return {"checks": [asdict(r) for r in results], "all_passed": passed}, 0 if passed else 2


# command -> (its own flags, handler, help line); every command also takes
# --config, --format and --output
_COMMANDS = {
    "bounds": (("d", "eps", "delta", "K"), _cmd_bounds,
               "lower/upper cost bounds at one (d, eps) point"),
    "protocol": (("d", "n"), _cmd_protocol, "full protocol report at one (d, n) point"),
    "sweep": (("d", "n_min", "n_max", "n_step"), _cmd_sweep,
              "protocol reports over an n range plus the error slope"),
    "phase": (("dp",), _cmd_phase, "phase-gate comparison at one program dimension"),
    "table1": (("d", "eps", "K"), _cmd_table1,
               "prior-work cost rows next to this protocol's bounds"),
    "verify": (("seed", "samples"), _cmd_verify, "run the full verification battery"),
}


def _output_text(payload: dict, config: argparse.Namespace) -> str:
    """The one place a payload becomes text: floats at 12 digits, then its schema: a CSV
    row per report for protocol and sweep, the verify table, or key, value JSON, CSV or table."""
    payload = round_floats(payload)
    if config.format == "csv" and config.command in ("protocol", "sweep"):
        return reports_to_csv(payload["reports"] if config.command == "sweep" else [payload])
    if config.command == "verify" and config.format == "table":
        lines = [
            ("PASS " if check["passed"] else "FAIL ") + f"{check['name']}: {check['detail']}"
            for check in payload["checks"]
        ]
        lines.append("all passed" if payload["all_passed"] else "FAILURES present")
        return "\n".join(lines) + "\n"
    return _render(payload, config.format)


def _emit(text: str, config: argparse.Namespace) -> None:
    if not config.output:
        sys.stdout.write(text)
        return
    try:
        write_text_atomic(text, config.output)
    except OSError as exc:
        raise CliError(f"cannot write {config.output}: {exc.strerror}") from exc


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _merge_config(args)
        payload, code = _COMMANDS[config.command][1](config)
        _emit(_output_text(payload, config), config)
    except ValueError as exc:  # CliError and ProtocolError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: eigensolver did not converge: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
