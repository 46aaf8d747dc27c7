"""End-to-end pipeline: ingest -> filter -> segment -> featurize ->
three-algorithm DBI sweeps -> per-household reports on disk.

Households are processed independently; a failure in one (no episodes,
a GMM numerical collapse, all-undefined DBSCAN sweep) is reported but
never aborts the others.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

from mealclust import events as events_mod
from mealclust import dbscan as dbscan_mod
from mealclust import episodes as episodes_mod
from mealclust import features as features_mod
from mealclust import synth as synth_mod
from mealclust.events import SchemaError, csv_text
from mealclust.gmm import FitError, category_summary
from mealclust.validation import (
    DEFAULT_EPS_VALUES,
    DEFAULT_G_RANGE,
    DEFAULT_K_RANGE,
    SweepError,
    check_param_range,
    sweep_dbscan,
    sweep_gmm,
    sweep_kmeans,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT_ERROR = 2
EXIT_PIPELINE_ERROR = 3

CATEGORY_CSV_COLUMNS = ("category", "mean_duration_min", "weight", "count")


@dataclass
class RunConfig:
    input_path: Path | None = None
    synth_profile_path: Path | None = None
    locations: frozenset[str] = events_mod.DEFAULT_MEAL_LOCATIONS
    gap_threshold_min: float = episodes_mod.DEFAULT_GAP_THRESHOLD_MIN
    min_duration_min: float = episodes_mod.DEFAULT_MIN_DURATION_MIN
    min_events: int = episodes_mod.DEFAULT_MIN_EVENTS
    feature_mode: str = features_mod.MODE_DURATION_AND_START_HOUR
    scaling: str = features_mod.SCALING_NONE
    k_range: range = DEFAULT_K_RANGE
    g_range: range = DEFAULT_G_RANGE
    eps_values: list[float] = field(default_factory=lambda: list(DEFAULT_EPS_VALUES))
    min_pts: int = dbscan_mod.DEFAULT_MIN_PTS
    seed: int = 0
    out_dir: Path = Path("out")

    def validate(self) -> None:
        """Raise ValueError for any value that is wrong whatever the data;
        the modules that use the parameters own the rules."""
        if (self.input_path is None) == (self.synth_profile_path is None):
            raise ValueError("exactly one of input_path or synth_profile_path is required")
        events_mod.check_locations(self.locations)
        episodes_mod.check_thresholds(self.gap_threshold_min, self.min_duration_min, self.min_events)
        check_param_range(self.k_range, "k_range")
        check_param_range(self.g_range, "g_range")
        dbscan_mod.check_params(self.eps_values, self.min_pts)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class PipelineResult:
    exit_code: int
    failures: list[str]  # single-line reasons
    households: list[str]  # successfully processed household ids


def _json_bytes(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _utf8_error(path, exc: UnicodeDecodeError) -> SchemaError:
    """A SchemaError naming the first line of `path` that is not valid UTF-8;
    the decoder's own position is an offset into its read buffer."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                byte = line[bad.start]
                return SchemaError(f"line {line_no}: not valid UTF-8: byte 0x{byte:02x} at offset {bad.start} of the line")
    return SchemaError(f"not valid UTF-8: {exc.reason}")


def _load_events(config: RunConfig):
    if config.input_path is not None:
        try:
            with open(config.input_path, "rb") as fh:
                return events_mod.parse_events(fh)
        except OSError as exc:
            raise SchemaError(f"unreadable input: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _utf8_error(config.input_path, exc) from None
    try:
        profile = synth_mod.load_profile(config.synth_profile_path)
    except OSError as exc:
        raise SchemaError(f"unreadable input: {exc}") from exc
    return synth_mod.generate_trace(profile), []


def _process_household(household_id: str, hh_events, config: RunConfig, out_dir: Path) -> dict:
    """Run one household end to end; returns its summary dict.

    Raises SweepError / FitError / ValueError upward for per-household
    failures, among them an id that is not a plain directory name, so no
    household writes outside --out.
    """
    if household_id in ("", ".", "..") or any(sep and sep in household_id for sep in (os.sep, os.altsep)):
        raise ValueError(f"household id {household_id!r} is not a plain directory name")
    episodes = episodes_mod.segment_episodes(
        hh_events,
        gap_threshold_min=config.gap_threshold_min,
        min_duration_min=config.min_duration_min,
        min_events=config.min_events,
    )
    if not episodes:
        raise ValueError("no episodes")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "episodes.csv").write_text(episodes_mod.episodes_to_csv(episodes))

    matrix = features_mod.build_features(episodes, mode=config.feature_mode)
    matrix = features_mod.scale_features(matrix, method=config.scaling)

    km_report = sweep_kmeans(matrix, k_range=config.k_range, seed=config.seed, household_id=household_id)
    gm_report = sweep_gmm(
        matrix, g_range=config.g_range, seed=config.seed, household_id=household_id, kmeans_models=km_report.models
    )
    for name, report in (("kmeans", km_report), ("gmm", gm_report)):
        (out_dir / f"sweep_{name}.json").write_text(_json_bytes(report.to_dict()))
        (out_dir / f"{name}_dbi.csv").write_text(report.plot_csv())

    categories = category_summary(gm_report.best_model, matrix)
    (out_dir / "categories.csv").write_text(csv_text(CATEGORY_CSV_COLUMNS, map(astuple, categories)))

    summary: dict = {
        "household_id": household_id,
        "n_episodes": len(episodes),
        "algorithms": {
            "kmeans": {"best_param": int(km_report.best.param), "dbi": km_report.best.dbi},
            "gmm": {
                "best_param": int(gm_report.best.param),
                "dbi": gm_report.best.dbi,
                "categories": [asdict(row) for row in categories],
            },
        },
    }

    try:
        db_report = sweep_dbscan(
            matrix, eps_values=config.eps_values, min_pts=config.min_pts, household_id=household_id
        )
    except SweepError:
        # keep the kmeans/gmm artifacts; caller records the failure
        summary["algorithms"]["dbscan"] = None
        (out_dir / "summary.json").write_text(_json_bytes(summary))
        raise
    (out_dir / "sweep_dbscan.json").write_text(_json_bytes(db_report.to_dict()))
    (out_dir / "dbscan_dbi.csv").write_text(db_report.plot_csv())
    summary["algorithms"]["dbscan"] = {
        "best_param": db_report.best.param,
        "dbi": db_report.best.dbi,
        "n_noise": db_report.best.n_noise,
    }
    (out_dir / "summary.json").write_text(_json_bytes(summary))
    return summary


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run the full pipeline, writing per-household artifact directories."""
    config.validate()
    all_events, rejections = _load_events(config)
    out_root = Path(config.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    if rejections:
        (out_root / "rejections.csv").write_text(events_mod.rejections_to_csv(rejections))

    meal_events = events_mod.filter_meal_locations(all_events, config.locations)
    groups = events_mod.group_by_household(meal_events)
    if not groups:
        return PipelineResult(exit_code=EXIT_PIPELINE_ERROR, failures=["no episodes"], households=[])

    failures: list[str] = []
    processed: list[str] = []
    for household_id in sorted(groups):
        try:
            _process_household(household_id, groups[household_id], config, out_root / household_id)
            processed.append(household_id)
        except (SweepError, FitError, ValueError) as exc:
            failures.append(f"{household_id}: {exc}")

    exit_code = EXIT_OK if not failures else EXIT_PIPELINE_ERROR
    return PipelineResult(exit_code=exit_code, failures=failures, households=processed)


def generate_files(profile_path: Path | None, out_dir: Path) -> tuple[Path, Path]:
    """Write a synthetic trace CSV plus its planted-truth sidecar."""
    profile = synth_mod.load_profile(profile_path) if profile_path else synth_mod.default_profile()
    events, planted = synth_mod.generate_with_truth(profile)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.csv"
    truth_path = out_dir / "planted.csv"
    trace_path.write_text(events_mod.events_to_csv(events))
    truth_path.write_text(synth_mod.planted_to_csv(planted))
    return trace_path, truth_path
