"""Command-line frontend: bounds, protocol, sweep, phase, table1, verify.

Configuration comes from flags or a flat key=value file (flags win).  All
floating output is printed with 12 significant digits, so identical
configurations produce byte-identical output.  Exit codes: 0 success,
1 validation error or an eigensolver that did not converge, 2 internal
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass

from . import bounds as bounds_mod
from . import verify as verify_mod
from .phase import phase_report
from .protocol import ProtocolError
from .reporting import (
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


COMMANDS = ("bounds", "protocol", "sweep", "phase", "table1", "verify")
FORMATS = ("json", "csv", "table")

_INT_KEYS = ("d", "n", "n_min", "n_max", "n_step", "dp", "seed", "samples")
_FLOAT_KEYS = ("eps", "delta", "K")
_STR_KEYS = ("format", "output")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _STR_KEYS


@dataclass
class RunConfig:
    command: str
    d: int | None = None
    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    n_step: int | None = None
    eps: float | None = None
    delta: float | None = None
    K: float = 1.0
    dp: int | None = None
    seed: int = 0
    samples: int = 10**6
    format: str = "table"
    output: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); validation errors are exit 1
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged and
    returns a fresh namespace each call."""
    parser = _Parser(prog="gateprog", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--output", default=None, help="write here atomically instead of stdout")

    p = sub.add_parser("bounds", help="lower/upper cost bounds at one (d, eps) point")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--K", type=float, default=None)
    common(p)

    p = sub.add_parser("protocol", help="full protocol report at one (d, n) point")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    common(p)

    p = sub.add_parser("sweep", help="protocol reports over an n range plus the error slope")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n-min", type=int, default=None, dest="n_min")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--n-step", type=int, default=None, dest="n_step")
    common(p)

    p = sub.add_parser("phase", help="phase-gate comparison at one program dimension")
    p.add_argument("--dp", type=int, default=None)
    common(p)

    p = sub.add_parser("table1", help="prior-work cost rows next to this protocol's bounds")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--K", type=float, default=None)
    common(p)

    p = sub.add_parser("verify", help="run the full verification battery")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)

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
        if key not in _ALL_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        kind = int if key in _INT_KEYS else float if key in _FLOAT_KEYS else str
        try:
            values[key] = kind(value)
        except ValueError:
            raise CliError(
                f"{path}:{lineno}: key {key!r} expects {kind.__name__}, got {value!r}"
            ) from None
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    file_values = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _ALL_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            setattr(config, key, flag_value)
        elif key in file_values:
            setattr(config, key, file_values[key])
    if config.format not in FORMATS:
        raise CliError(f"unknown format {config.format!r}")
    return config


def _require(config: RunConfig, *keys: str) -> None:
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
                if isinstance(item, dict):
                    rows.extend(_flatten(item, prefix=f"{name}[{idx}]."))
                else:
                    rows.append((f"{name}[{idx}]", item))
        else:
            rows.append((name, value))
    return rows


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    rows = _flatten(payload)
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in rows:
            text = format_float(value) if isinstance(value, float) else str(value)
            lines.append(f"{key},{text}")
        return "\n".join(lines) + "\n"
    width = max((len(k) for k, _ in rows), default=0)
    lines = []
    for key, value in rows:
        text = format_float(value) if isinstance(value, float) else str(value)
        lines.append(f"{key:<{width}}  {text}")
    return "\n".join(lines) + "\n"


def _cmd_bounds(config: RunConfig) -> tuple[dict, int, list | None]:
    _require(config, "d", "eps")
    report = bounds_mod.bound_report(config.d, config.eps, config.delta, config.K)
    payload = {
        "d": report.d,
        "epsilon": report.epsilon,
        "delta": report.delta,
        "delta_optimized": report.delta_optimized,
        "lower_bits": report.lower_bits,
        "lower_dimension_log2": report.lower_dimension_log2,
        "upper_bits": report.upper_bits,
        "upper_bits_simplified": report.upper_bits_simplified,
        "K": report.big_k,
        "table1": {label: bits for label, bits in report.table1},
        "vacuous_flags": report.vacuous_flags,
    }
    return round_floats(payload), 0, None


def _cmd_protocol(config: RunConfig) -> tuple[dict, int, list | None]:
    _require(config, "d", "n")
    report = protocol_report(config.n, config.d)
    code = 0 if all(report.pass_flags.values()) else 2
    return report_to_dict(report), code, [report]


def _cmd_sweep(config: RunConfig) -> tuple[dict, int, list | None]:
    _require(config, "d", "n_min", "n_max")
    step = 1 if config.n_step is None else config.n_step
    if step < 1:
        raise CliError(f"n-step must be positive, got {step}")
    n_values = list(range(config.n_min, config.n_max + 1, step))
    result = sweep(config.d, n_values)
    code = 0 if all(all(r.pass_flags.values()) for r in result.reports) else 2
    return sweep_to_dict(result), code, result.reports


def _cmd_phase(config: RunConfig) -> tuple[dict, int, list | None]:
    _require(config, "dp")
    return round_floats(asdict(phase_report(config.dp))), 0, None


def _cmd_table1(config: RunConfig) -> tuple[dict, int, list | None]:
    _require(config, "d", "eps")
    rows = bounds_mod.table1_rows(config.d, config.eps, config.K)
    payload = {
        "d": config.d,
        "epsilon": config.eps,
        "K": config.K,
        "prior_work": {label: bits for label, bits in rows},
        "this_work_upper_bits": bounds_mod.upper_bound_cost(config.d, config.eps),
        "this_work_upper_bits_simplified": bounds_mod.upper_bound_cost(
            config.d, config.eps, simplified=True
        ),
    }
    return round_floats(payload), 0, None


def _cmd_verify(config: RunConfig) -> tuple[dict, int, list | None]:
    results = verify_mod.run_all(samples=config.samples, seed=config.seed)
    payload = {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return payload, 0 if payload["all_passed"] else 2, None


_DISPATCH = {
    "bounds": _cmd_bounds,
    "protocol": _cmd_protocol,
    "sweep": _cmd_sweep,
    "phase": _cmd_phase,
    "table1": _cmd_table1,
    "verify": _cmd_verify,
}


def _output_text(payload: dict, reports: list | None, config: RunConfig) -> str:
    # protocol/sweep hand back their reports for a dedicated row-per-report CSV schema
    if reports is not None and config.format == "csv":
        return reports_to_csv(reports)
    if config.command == "verify" and config.format == "table":
        lines = [
            ("PASS " if check["passed"] else "FAIL ") + f"{check['name']}: {check['detail']}"
            for check in payload["checks"]
        ]
        lines.append("all passed" if payload["all_passed"] else "FAILURES present")
        return "\n".join(lines) + "\n"
    return _render(payload, config.format)


def _emit(text: str, config: RunConfig) -> None:
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
        payload, code, reports = _DISPATCH[config.command](config)
        _emit(_output_text(payload, reports, config), config)
    except (CliError, ProtocolError, ValueError) as exc:
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
