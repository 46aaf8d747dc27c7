"""End-to-end pipeline: ingest -> segment -> featurize ->
three-algorithm DBI sweeps -> per-household reports on disk.

A run keeps only the events at `RunConfig.locations` from the parse on,
while its rejection report still covers every row. Each household takes
its own rows from that one table in the process that runs it; a
household that holds every event uses the table as is.

Households are processed independently; a failure in one (no episodes,
a GMM numerical collapse, all-undefined DBSCAN sweep, an artifact that
cannot be written, a worker process that dies) is reported but never
aborts the others. With more than one usable CPU and household, they run
in forked children, one per CPU up to one per household, that pull
household after household (`parallel.fork_each`), each child given the
run's CPUs divided by the children; the artifacts, messages and exit
code are those of running them one after another in this process.

A household sweeps K-Means, DBSCAN, then GMM, through `parallel.fork_map`,
which keeps at most `parallel.cpu_budget()` processes busy: with a spare
CPU the DBSCAN sweep runs in one forked child beside K-Means and is
collected before the GMM sweep forks its g range over every CPU.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from mealclust import events as events_mod
from mealclust import dbscan as dbscan_mod
from mealclust import episodes as episodes_mod
from mealclust import features as features_mod
from mealclust import synth as synth_mod
from mealclust.events import SchemaError, SensorEvent, records_to_csv
from mealclust.gmm import CategoryRow, FitError, category_summary
from mealclust.parallel import fork_each, fork_map
from mealclust.validation import (
    DEFAULT_EPS_VALUES,
    DEFAULT_G_RANGE,
    DEFAULT_K_RANGE,
    SweepEntry,
    SweepError,
    SweepReport,
    check_param_range,
    sweep_dbscan,
    sweep_gmm,
    sweep_kmeans,
)

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
        features_mod.check_options(self.feature_mode, self.scaling)
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


def _load_events(config: RunConfig):
    """The events at `config.locations` and the rejections of every row."""
    try:
        if config.input_path is not None:
            with open(config.input_path, "rb") as fh:
                return events_mod.parse_events(fh, config.locations)
        profile = synth_mod.load_profile(config.synth_profile_path)
    except OSError as exc:
        raise SchemaError(f"unreadable input: {exc}") from exc
    return events_mod.filter_meal_locations(synth_mod.generate_trace(profile), config.locations), []


def _process_household(household_id: str, hh_events, config: RunConfig, out_dir: Path) -> None:
    """Run one household end to end, writing its artifacts to `out_dir`.

    Raises SweepError / FitError / ValueError / OSError upward for
    per-household failures, among them an id that is not a plain directory
    name, so no household writes outside --out, and artifacts that cannot
    be written.
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
    (out_dir / "episodes.csv").write_text(records_to_csv(episodes_mod.ActivityEpisode, episodes))

    matrix = features_mod.build_features(episodes, mode=config.feature_mode)
    matrix = features_mod.scale_features(matrix, method=config.scaling)

    def kmeans():
        return sweep_kmeans(matrix, k_range=config.k_range, seed=config.seed, household_id=household_id)

    def dbscan() -> SweepReport | SweepError:
        try:
            return sweep_dbscan(matrix, eps_values=config.eps_values, min_pts=config.min_pts,
                                household_id=household_id)
        except SweepError as exc:
            return exc  # a value, so fork_map does not sweep again in this process

    # K-Means here, so the matrix keeps its fits; with a spare CPU DBSCAN
    # in a child that ends before the GMM shares fork
    km_report, db_report = fork_map(lambda sweep: sweep(), [kmeans, dbscan])
    gm_report = sweep_gmm(matrix, g_range=config.g_range, seed=config.seed, household_id=household_id)
    for name, report in (("kmeans", km_report), ("gmm", gm_report), ("dbscan", db_report)):
        if isinstance(report, SweepReport):
            (out_dir / f"sweep_{name}.json").write_text(_json_bytes(report.to_dict()))
            (out_dir / f"{name}_dbi.csv").write_text(records_to_csv(SweepEntry, report.entries))

    categories = category_summary(gm_report.best_model, matrix)
    (out_dir / "categories.csv").write_text(records_to_csv(CategoryRow, categories))

    summary = {
        "household_id": household_id,
        "n_episodes": len(episodes),
        "algorithms": {
            "kmeans": {"best_param": int(km_report.best.param), "dbi": km_report.best.dbi},
            "gmm": {
                "best_param": int(gm_report.best.param),
                "dbi": gm_report.best.dbi,
                "categories": [asdict(row) for row in categories],
            },
            # null for a failed DBSCAN sweep, whose error is raised once the rest is written
            "dbscan": None if isinstance(db_report, SweepError) else {
                "best_param": db_report.best.param,
                "dbi": db_report.best.dbi,
                "n_noise": db_report.best.n_noise,
            },
        },
    }
    (out_dir / "summary.json").write_text(_json_bytes(summary))
    if isinstance(db_report, SweepError):
        raise db_report


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run the full pipeline, writing per-household artifact directories."""
    config.validate()
    events, rejections = _load_events(config)
    out_root = Path(config.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    if rejections:
        (out_root / "rejections.csv").write_text(records_to_csv(events_mod.Rejection, rejections))
    del rejections
    households = events_mod.household_codes(events)
    if not households:
        return PipelineResult(exit_code=EXIT_PIPELINE_ERROR, failures=["no episodes"], households=[])

    def outcome(household_id: str) -> str | None:
        """None if the household succeeded, else its one-line failure; its
        events are taken in the process that runs it."""
        try:
            _process_household(household_id, events_mod.household_events(events, households[household_id]),
                               config, out_root / household_id)
        except (SweepError, FitError, ValueError, OSError) as exc:
            return f"{household_id}: {exc}"
        return None

    outcomes = fork_each(outcome, list(households), lambda household_id: f"{household_id}: worker process died")
    failures = [outcome for outcome in outcomes if outcome is not None]
    processed = [hid for hid, outcome in zip(households, outcomes) if outcome is None]
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
    trace_path.write_text(records_to_csv(SensorEvent, events))
    truth_path.write_text(records_to_csv(synth_mod.PlantedEpisode, planted))
    return trace_path, truth_path
