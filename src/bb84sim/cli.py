"""Command-line front end.

Two subcommands: ``run`` executes an experiment and writes its report,
``detect-curve`` sweeps the parity-verification round count and reports
detection rates.  Exit codes: 0 success, 2 invalid configuration
(including an ``--out`` in which no file can be created, checked before
any session runs), 3 runtime failure (including a failed report write).
"""

import argparse
import math
import os
import sys
from pathlib import Path

from .adversary import EVE_KINDS, RESEND_RULES
from .errors import InvalidConfigError
from .harness import (
    OUTPUT_FORMATS,
    ExperimentConfig,
    curve_to_csv,
    curve_to_json,
    detection_rate_curve,
    run_experiment,
)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pulses", type=int, default=10_000,
                        help="pulses per session (default %(default)s)")
    parser.add_argument("--sessions", type=int, default=100,
                        help="independent sessions (default %(default)s)")
    parser.add_argument("--efficiency", type=float, default=1.0,
                        help="detector efficiency in (0, 1] (default %(default)s)")
    parser.add_argument("--eve", choices=EVE_KINDS, default="none",
                        help="adversary strategy (default %(default)s)")
    parser.add_argument("--ancilla-angle", type=float, default=math.pi / 6,
                        help="ancilla angle in radians for the indirect-copy "
                             "strategies (default pi/6)")
    parser.add_argument("--resend-rule", choices=RESEND_RULES,
                        default="max-posterior",
                        help="resend rule for indirect-physical "
                             "(default %(default)s)")
    parser.add_argument("--attack-fraction", type=float, default=1.0,
                        help="fraction of pulses the adversary attacks "
                             "(default %(default)s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="64-bit master seed (default %(default)s)")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default="json",
                        help="report format (default %(default)s)")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bb84sim",
        description="BB84 key-distribution simulator with pluggable "
                    "eavesdropper strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and report it")
    _add_common_options(run)
    run.add_argument("--parity-rounds", type=int, default=0,
                     help="parity verification rounds per session "
                          "(default %(default)s)")
    run.add_argument("--pa-t", type=int, default=None,
                     help="privacy amplification: assumed adversary bits t "
                          "(omit to skip amplification)")
    run.add_argument("--pa-s", type=int, default=None,
                     help="privacy amplification: security margin s")

    curve = sub.add_parser(
        "detect-curve",
        help="detection rate of parity verification vs round count",
    )
    _add_common_options(curve)
    curve.add_argument("--k-values", default="1,2,3,4,5,6,7,8",
                       help="comma-separated parity round counts "
                            "(default %(default)s)")
    curve.add_argument("--force-differ", action="store_true",
                       help="flip one random sifted bit of the receiver "
                            "before verification")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        n_pulses=args.pulses,
        n_sessions=args.sessions,
        efficiency=args.efficiency,
        parity_rounds=getattr(args, "parity_rounds", 0),
        eve_kind=args.eve,
        ancilla_angle=args.ancilla_angle,
        resend_rule=args.resend_rule,
        attack_fraction=args.attack_fraction,
        pa_leak_bits=getattr(args, "pa_t", None),
        pa_margin_bits=getattr(args, "pa_s", None),
        master_seed=args.seed,
        output_format=args.format,
    )


def _k_values(text: str) -> list[int]:
    k_values = []
    for entry in filter(str.strip, text.split(",")):
        try:
            k_values.append(int(entry))
        except ValueError:
            raise InvalidConfigError(
                f"--k-values entry {entry.strip()!r} is not an integer"
            ) from None
    if not k_values:
        raise InvalidConfigError("--k-values must name at least one k")
    return k_values


def _to_stdout(out: str | None) -> bool:
    return out is None or out == "-"


def _in_place(out: str) -> bool:
    """Whether ``out`` names, once links are followed, something that exists
    but is not a regular file: a FIFO or a device, which is opened and
    written because it cannot be renamed over."""
    path = Path(out)
    return path.exists() and not path.is_file()


def _temp_sibling(target: Path) -> Path:
    """The temporary file ``_emit`` writes before renaming it over
    ``target``."""
    return target.with_name(f".{target.name}.{os.getpid()}.tmp")


def _check_out(out: str | None) -> None:
    """Reject an output path that cannot be written, before any work, by
    creating and removing the temporary file ``_emit`` will write."""
    if _to_stdout(out):
        return
    if Path(out).is_dir():
        raise InvalidConfigError(f"--out {out!r} is a directory")
    if _in_place(out):
        return
    temp = _temp_sibling(Path(os.path.realpath(out)))
    directory = temp.parent
    if directory.exists() and not directory.is_dir():
        raise InvalidConfigError(f"--out parent {directory} is not a directory")
    if not directory.is_dir():
        raise InvalidConfigError(f"--out directory {directory} does not exist")
    try:
        with open(temp, "w"):
            pass
    except OSError as exc:
        raise InvalidConfigError(
            f"cannot create a file in --out directory {directory}: "
            f"{exc.strerror or exc}"
        ) from exc
    temp.unlink(missing_ok=True)


def _emit(text: str, out: str | None) -> None:
    """Write the report.  A FIFO or a device is opened and written.  Any
    other target is found by following symbolic links, written to a
    temporary sibling and renamed over, so a link survives and a failed
    write leaves no partial report."""
    if _to_stdout(out):
        sys.stdout.write(text)
        return
    if _in_place(out):
        with open(out, "w") as handle:
            handle.write(text)
        return
    target = Path(os.path.realpath(out))
    temp = _temp_sibling(target)
    try:
        with open(temp, "w") as handle:
            handle.write(text)
        os.replace(temp, target)
    finally:
        temp.unlink(missing_ok=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        _check_out(args.out)
        if args.command == "run":
            report = run_experiment(config)
            text = (
                report.to_json()
                if config.output_format == "json"
                else report.to_csv()
            )
        else:
            curve = detection_rate_curve(
                config, _k_values(args.k_values),
                force_differ=args.force_differ
            )
            text = (
                curve_to_json(config, curve)
                if config.output_format == "json"
                else curve_to_csv(curve)
            )
    except ValueError as exc:  # every configuration error is a ValueError
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure inside the simulation
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(text, args.out)
    except OSError as exc:  # name the user's path, not the temporary file
        target = "standard output" if _to_stdout(args.out) else args.out
        print(f"error: cannot write report to {target}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
