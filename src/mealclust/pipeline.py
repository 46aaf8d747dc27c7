"""End-to-end pipeline: ingest -> filter -> segment -> featurize ->
three-algorithm DBI sweeps -> per-household reports on disk.

Households are processed independently; a failure in one (no episodes,
a GMM numerical collapse, all-undefined DBSCAN sweep) is reported but
never aborts the others.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from mealclust import events as events_mod
from mealclust import episodes as episodes_mod
from mealclust import features as features_mod
from mealclust import synth as synth_mod
from mealclust.events import SchemaError
from mealclust.gmm import FitError, gmm_fit, category_summary
from mealclust.validation import (
    DEFAULT_EPS_VALUES,
    DEFAULT_G_RANGE,
    DEFAULT_K_RANGE,
    SweepError,
    sweep_dbscan,
    sweep_gmm,
    sweep_kmeans,
)
from mealclust.dbscan import DEFAULT_MIN_PTS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT_ERROR = 2
EXIT_PIPELINE_ERROR = 3


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
    min_pts: int = DEFAULT_MIN_PTS
    seed: int = 0
    out_dir: Path = Path("out")

    def validate(self) -> None:
        if (self.input_path is None) == (self.synth_profile_path is None):
            raise ValueError("exactly one of input_path or synth_profile_path is required")
        if not self.locations:
            raise ValueError("locations set must be non-empty")


@dataclass
class PipelineResult:
    exit_code: int
    failures: list[str]  # single-line reasons
    households: list[str]  # successfully processed household ids


def _json_bytes(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_events(config: RunConfig):
    if config.input_path is not None:
        try:
            with open(config.input_path, "r", encoding="utf-8") as fh:
                return events_mod.parse_events(fh)
        except OSError as exc:
            raise SchemaError(f"unreadable input: {exc}") from exc
    profile = synth_mod.load_profile(config.synth_profile_path)
    return synth_mod.generate_trace(profile), []


def _process_household(household_id: str, hh_events, config: RunConfig, out_dir: Path) -> dict:
    """Run one household end to end; returns its summary dict.

    Raises SweepError / FitError / ValueError upward for per-household
    failures.
    """
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
    gm_report = sweep_gmm(matrix, g_range=config.g_range, seed=config.seed, household_id=household_id)
    for name, report in (("kmeans", km_report), ("gmm", gm_report)):
        (out_dir / f"sweep_{name}.json").write_text(_json_bytes(report.to_dict()))
        (out_dir / f"{name}_dbi.csv").write_text(report.plot_csv())

    best_g = int(gm_report.best.param)
    gm_model = gmm_fit(matrix, g=best_g, seed=config.seed)
    categories = category_summary(gm_model, matrix)
    cat_lines = ["category,mean_duration_min,weight,count"]
    for row in categories:
        cat_lines.append(f"{row.category},{row.mean_duration_min!r},{row.weight!r},{row.count}")
    (out_dir / "categories.csv").write_text("\n".join(cat_lines) + "\n")

    summary: dict = {
        "household_id": household_id,
        "n_episodes": len(episodes),
        "algorithms": {
            "kmeans": {"best_param": int(km_report.best.param), "dbi": km_report.best.dbi},
            "gmm": {
                "best_param": best_g,
                "dbi": gm_report.best.dbi,
                "categories": [
                    {
                        "category": row.category,
                        "mean_duration_min": row.mean_duration_min,
                        "weight": row.weight,
                        "count": row.count,
                    }
                    for row in categories
                ],
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
    out_root = Path(config.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    all_events, rejections = _load_events(config)
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
