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
from mealclust.events import SchemaError, DEFAULT_MEAL_LOCATIONS
from mealclust.episodes import DEFAULT_GAP_THRESHOLD_MIN, DEFAULT_MIN_DURATION_MIN, DEFAULT_MIN_EVENTS
from mealclust.dbscan import DEFAULT_MIN_PTS

FEATURE_MODES = {
    "duration": features_mod.MODE_DURATION_ONLY,
    "duration+hour": features_mod.MODE_DURATION_AND_START_HOUR,
}


# A rejected run parameter's message starts with the RunConfig field it is
# about (the DBSCAN check names a single value "eps").
FIELD_FLAGS = {
    "locations": "--locations",
    "gap_threshold_min": "--gap-min",
    "min_duration_min": "--min-duration-min",
    "min_events": "--min-events",
    "k_range": "--k-range",
    "g_range": "--g-range",
    "eps_values": "--eps",
    "eps": "--eps",
    "min_pts": "--min-pts",
    "seed": "--seed",
}


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


def _default_seed(parser: argparse.ArgumentParser) -> int:
    text = os.environ.get("MEALCLUST_SEED", "0")
    try:
        return int(text)
    except ValueError:
        parser.error(f"MEALCLUST_SEED must be an integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mealclust", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full clustering pipeline")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", type=Path, help="sensor-log CSV to ingest")
    src.add_argument("--synth-profile", type=Path, help="synthetic profile to generate and analyze")
    run.add_argument("--locations", default=",".join(sorted(DEFAULT_MEAL_LOCATIONS)),
                     help="comma-separated meal locations (default: dining_room,kitchen)")
    run.add_argument("--gap-min", type=float, default=DEFAULT_GAP_THRESHOLD_MIN,
                     help="episode gap threshold in minutes")
    run.add_argument("--min-duration-min", type=float, default=DEFAULT_MIN_DURATION_MIN)
    run.add_argument("--min-events", type=int, default=DEFAULT_MIN_EVENTS)
    run.add_argument("--features", choices=sorted(FEATURE_MODES), default="duration+hour")
    run.add_argument("--scale", choices=["none", "zscore"], default="none")
    run.add_argument("--k-range", type=_parse_range, default=pipeline.DEFAULT_K_RANGE, metavar="A..B")
    run.add_argument("--g-range", type=_parse_range, default=pipeline.DEFAULT_G_RANGE, metavar="A..B")
    run.add_argument("--eps", type=_parse_eps_list, default=list(pipeline.DEFAULT_EPS_VALUES),
                     metavar="LIST", help="comma-separated eps values for the DBSCAN sweep")
    run.add_argument("--min-pts", type=int, default=DEFAULT_MIN_PTS)
    run.add_argument("--seed", type=int, default=None, help="fit seed (fallback: MEALCLUST_SEED, then 0)")
    run.add_argument("--out", type=Path, required=True, help="output directory")
    run.set_defaults(subparser=run)

    gen = sub.add_parser("generate", help="write a synthetic trace CSV plus planted-truth sidecar")
    gen.add_argument("--profile", type=Path, default=None, help="profile file (default: bundled profile)")
    gen.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _cmd_run(args) -> int:
    parser = args.subparser
    config = pipeline.RunConfig(
        input_path=args.input,
        synth_profile_path=args.synth_profile,
        locations=frozenset(loc.strip() for loc in args.locations.split(",") if loc.strip()),
        gap_threshold_min=args.gap_min,
        min_duration_min=args.min_duration_min,
        min_events=args.min_events,
        feature_mode=FEATURE_MODES[args.features],
        scaling=args.scale,
        k_range=args.k_range,
        g_range=args.g_range,
        eps_values=args.eps,
        min_pts=args.min_pts,
        seed=args.seed if args.seed is not None else _default_seed(parser),
        out_dir=args.out,
    )
    try:
        config.validate()
    except ValueError as exc:
        message = str(exc)
        flag = FIELD_FLAGS.get(message.split(" ", 1)[0])
        if flag == "--seed" and args.seed is None:
            flag = "MEALCLUST_SEED"
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
