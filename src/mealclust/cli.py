"""Command-line driver.

Subcommands:
    mealclust run       full pipeline: ingest/generate -> segment -> sweeps
    mealclust generate  synthetic trace + planted-truth sidecar

Exit codes: 0 success, 1 usage, 2 input error, 3 pipeline error.
Seed fallback: MEALCLUST_SEED environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from mealclust import features as features_mod
from mealclust import pipeline
from mealclust.events import SchemaError


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(pipeline.EXIT_USAGE)


def _parse_range(text: str) -> range:
    try:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None
    return range(lo, hi + 1)


def _parse_eps_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from None


def _parse_locations(text: str) -> frozenset[str]:
    return frozenset(loc.strip() for loc in text.split(",") if loc.strip())


def _default_seed(parser: argparse.ArgumentParser) -> int:
    text = os.environ.get("MEALCLUST_SEED", "0")
    try:
        return int(text)
    except ValueError:
        parser.error(f"MEALCLUST_SEED must be an integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mealclust", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each flag's dest is the RunConfig field it sets; a flag left out
    # leaves the namespace without it, so RunConfig keeps its default.
    run = sub.add_parser("run", help="run the full clustering pipeline", argument_default=argparse.SUPPRESS)
    src = run.add_mutually_exclusive_group(required=True)
    actions = [
        src.add_argument("--input", dest="input_path", type=Path, metavar="INPUT", help="sensor-log CSV to ingest"),
        src.add_argument("--synth-profile", dest="synth_profile_path", type=Path, metavar="SYNTH_PROFILE",
                         help="synthetic profile to generate and analyze"),
        run.add_argument("--locations", type=_parse_locations,
                         help="comma-separated meal locations (default: dining_room,kitchen)"),
        run.add_argument("--gap-min", dest="gap_threshold_min", type=float, metavar="GAP_MIN",
                         help="episode gap threshold in minutes"),
        run.add_argument("--min-duration-min", type=float),
        run.add_argument("--min-events", type=int),
        run.add_argument("--features", dest="feature_mode",
                         choices=[features_mod.MODE_DURATION_ONLY, features_mod.MODE_DURATION_AND_START_HOUR]),
        run.add_argument("--scale", dest="scaling", choices=[features_mod.SCALING_NONE, features_mod.SCALING_ZSCORE]),
        run.add_argument("--k-range", type=_parse_range, metavar="A..B"),
        run.add_argument("--g-range", type=_parse_range, metavar="A..B"),
        run.add_argument("--eps", dest="eps_values", type=_parse_eps_list, metavar="LIST",
                         help="comma-separated eps values for the DBSCAN sweep"),
        run.add_argument("--min-pts", type=int),
        run.add_argument("--seed", type=int, help="fit seed (fallback: MEALCLUST_SEED, then 0)"),
        run.add_argument("--out", dest="out_dir", type=Path, required=True, metavar="OUT", help="output directory"),
    ]
    run.set_defaults(subparser=run, actions=actions)

    gen = sub.add_parser("generate", help="write a synthetic trace CSV plus planted-truth sidecar")
    gen.add_argument("--profile", type=Path, default=None, help="profile file (default: bundled profile)")
    gen.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _cmd_run(args) -> int:
    parser = args.subparser
    flags = {action.dest: action.option_strings[0] for action in args.actions}
    fields = {dest: getattr(args, dest) for dest in flags if hasattr(args, dest)}
    if "seed" not in fields:
        fields["seed"] = _default_seed(parser)
        flags["seed"] = "MEALCLUST_SEED"
    config = pipeline.RunConfig(**fields)
    try:
        config.validate()
    except ValueError as exc:
        # the message starts with the field it is about; the DBSCAN check
        # names a single value "eps"
        message = str(exc)
        field = message.split(" ", 1)[0]
        flag = flags.get("eps_values" if field == "eps" else field)
        parser.error(f"argument {flag}: {message}" if flag else message)
    try:
        result = pipeline.run_pipeline(config)
    except (SchemaError, OSError, ValueError) as exc:
        print(f"mealclust: input error: {exc}", file=sys.stderr)
        return pipeline.EXIT_INPUT_ERROR
    for failure in result.failures:
        print(f"mealclust: pipeline error: {failure}", file=sys.stderr)
    for household_id in result.households:
        print(f"wrote {config.out_dir / household_id}/summary.json")
    return result.exit_code


def _cmd_generate(args) -> int:
    try:
        trace_path, truth_path = pipeline.generate_files(args.profile, args.out)
    except (OSError, ValueError) as exc:
        print(f"mealclust: input error: {exc}", file=sys.stderr)
        return pipeline.EXIT_INPUT_ERROR
    print(f"wrote {trace_path}")
    print(f"wrote {truth_path}")
    return pipeline.EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_generate(args)


if __name__ == "__main__":
    sys.exit(main())
