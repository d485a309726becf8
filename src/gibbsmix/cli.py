"""Command-line interface: one subcommand per experiment.

Configuration can come from a strict JSON document (--config) with flags
overriding individual fields, or entirely from flags for simple runs. The
subcommand is authoritative: a config whose "experiment" field disagrees is
rejected. Exit codes are those of ``harness.run``: 0 success, 1 a
configuration error, 2 any other failure. Every subcommand is listed, but
only the one a command line names gets its options built.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional

from .errors import ConfigError
from .harness import _READS, _RUNNERS, ORACLE_SUITES, ExperimentConfig, run

_GROUP_HELP = (
    "group shorthand: cyclic:<n>[:pm1|complete|g1,g2,...], hypercube:<k>, "
    "dihedral:<k>, file:<path>"
)


def parse_group_shorthand(text: str) -> dict:
    parts = text.split(":")
    family = parts[0]
    try:
        if family == "cyclic":
            if len(parts) not in (2, 3):
                raise ConfigError(f"bad cyclic spec {text!r}; {_GROUP_HELP}")
            spec = {"family": "cyclic", "n": int(parts[1])}
            if len(parts) == 3:
                token = parts[2]
                if token in ("pm1", "complete"):
                    spec["gens"] = token
                else:
                    spec["gens"] = [int(x) for x in token.split(",")]
            return spec
        if family in ("hypercube", "dihedral"):
            if len(parts) != 2:
                raise ConfigError(f"bad {family} spec {text!r}; {_GROUP_HELP}")
            return {"family": family, "k": int(parts[1])}
        if family == "file":
            if len(parts) < 2:
                raise ConfigError(f"bad file spec {text!r}; {_GROUP_HELP}")
            return {"family": "file", "path": ":".join(parts[1:])}
    except ValueError as exc:
        raise ConfigError(f"bad group spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown group family {family!r}; {_GROUP_HELP}")


class _Parser(argparse.ArgumentParser):
    """Maps command-line usage errors to the config-error exit code."""

    def error(self, message):
        raise ConfigError(message)


def _threshold_help(experiment: str) -> str:
    reads = [f"{name.removeprefix('thresholds.')} on --{names.split()[0]}"
             for names in _READS[experiment] for name in names.split()
             if name.startswith("thresholds.")]
    return f"lemma constant; {experiment} reads {' or '.join(reads) or 'none'}; repeatable"


def build_parser(argv: Optional[list] = None) -> argparse.ArgumentParser:
    """The parser, with each subcommand's help its runner's docstring. Only
    the subcommand argv names (its first argument not an option) gets its
    options; with argv None, or naming none, every subcommand gets them."""
    parser = _Parser(prog="gibbsmix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="EXPERIMENT")
    named = next((arg for arg in argv or () if not arg.startswith("-")), None)
    for name, runner in _RUNNERS.items():
        sp = sub.add_parser(name, help=runner.__doc__)
        if named in _RUNNERS and name != named:
            continue
        sp.add_argument("--config", help="path to a strict JSON config")
        sp.add_argument("--seed", type=int, help="base seed (64-bit)")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--format", choices=["csv", "jsonl"], help="tabular artifact format")
        sp.add_argument("--replicas", type=int, help="replica / sample count")
        sp.add_argument("--group", help=_GROUP_HELP)
        sp.add_argument("--n", type=int, help="matrix-chain size")
        sp.add_argument("--T", type=int, help="horizon / window length")
        sp.add_argument("--T1", type=int, help="phase-1 horizon")
        sp.add_argument("--T2", type=int, help="phase-2 horizon")
        sp.add_argument("--suite", choices=ORACLE_SUITES, help="oracle suite name")
        sp.add_argument(
            "--threshold", action="append", default=[], metavar="KEY=VALUE",
            help=_threshold_help(name),
        )
    return parser


def _build_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json_file(args.config)
        if config.experiment != args.experiment:
            raise ConfigError(
                f"config declares experiment {config.experiment!r} but the "
                f"subcommand is {args.experiment!r}"
            )
    else:
        config = ExperimentConfig(experiment=args.experiment)
    updates = {}
    for name in ("seed", "replicas", "n", "T", "T1", "T2", "suite"):
        value = getattr(args, name)
        if value is not None:
            updates[name] = value
    if args.group is not None:
        updates["group"] = parse_group_shorthand(args.group)
    if args.threshold:
        thresholds = dict(config.thresholds)
        for item in args.threshold:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--threshold expects KEY=VALUE, got {item!r}")
            try:
                thresholds[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"threshold {key} value {value!r} is not a number") from exc
        updates["thresholds"] = thresholds
    return replace(config, **updates) if updates else config


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        config = _build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run(config, out_dir=args.out, fmt=args.format)


if __name__ == "__main__":
    sys.exit(main())
