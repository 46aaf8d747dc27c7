"""End-to-end pipeline: ingest -> filter -> segment -> featurize ->
three-algorithm DBI sweeps -> per-household reports on disk.

Households are processed independently; a failure in one (no episodes,
a GMM numerical collapse, all-undefined DBSCAN sweep, an artifact that
cannot be written, a worker process that dies) is reported but never
aborts the others. With more than one usable CPU and household, the
households run in forked worker processes, one per CPU; the artifacts,
messages and exit code are those of running them one after another.

`parallel.cpu_budget` owns the CPU count: a pool worker gets the run's
CPUs divided by the pool's size, so with no more CPUs than households it
sweeps in one process, while a household run in this process spreads its
GMM sweep's g range over every CPU (see `validation.sweep_gmm`). With a
budget above one CPU, a household sweeps DBSCAN in one forked child
beside its K-Means sweep and collects it before the GMM sweep forks, so
no more processes than the budget are busy at once; with one CPU the
sweeps run one after another.
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
from mealclust.parallel import cpu_budget, fork_map, set_cpu_budget
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
    try:
        if config.input_path is not None:
            with open(config.input_path, "rb") as fh:
                return events_mod.parse_events(fh)
        profile = synth_mod.load_profile(config.synth_profile_path)
    except OSError as exc:
        raise SchemaError(f"unreadable input: {exc}") from exc
    return synth_mod.generate_trace(profile), []


def _process_household(household_id: str, hh_events, config: RunConfig, out_dir: Path) -> dict:
    """Run one household end to end; returns its summary dict.

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

    if cpu_budget() > 1:
        # K-Means here, so the matrix keeps its fits; DBSCAN collected before the GMM shares fork
        km_report, db_report = fork_map(lambda sweep: sweep(), [kmeans, dbscan])
    else:
        km_report, db_report = kmeans(), None
    gm_report = sweep_gmm(matrix, g_range=config.g_range, seed=config.seed, household_id=household_id)
    for name, report in (("kmeans", km_report), ("gmm", gm_report)):
        (out_dir / f"sweep_{name}.json").write_text(_json_bytes(report.to_dict()))
        (out_dir / f"{name}_dbi.csv").write_text(records_to_csv(SweepEntry, report.entries))

    categories = category_summary(gm_report.best_model, matrix)
    (out_dir / "categories.csv").write_text(records_to_csv(CategoryRow, categories))

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

    if db_report is None:
        db_report = dbscan()
    if isinstance(db_report, SweepError):
        # keep the kmeans/gmm artifacts; caller records the failure
        summary["algorithms"]["dbscan"] = None
        (out_dir / "summary.json").write_text(_json_bytes(summary))
        raise db_report
    (out_dir / "sweep_dbscan.json").write_text(_json_bytes(db_report.to_dict()))
    (out_dir / "dbscan_dbi.csv").write_text(records_to_csv(SweepEntry, db_report.entries))
    summary["algorithms"]["dbscan"] = {
        "best_param": db_report.best.param,
        "dbi": db_report.best.dbi,
        "n_noise": db_report.best.n_noise,
    }
    (out_dir / "summary.json").write_text(_json_bytes(summary))
    return summary


def _household_outcome(household_id: str, hh_events, config: RunConfig, out_dir: Path) -> str | None:
    """Run one household: None if it succeeded, else its one-line failure."""
    try:
        _process_household(household_id, hh_events, config, out_dir)
    except (SweepError, FitError, ValueError, OSError) as exc:
        return f"{household_id}: {exc}"
    return None


_DIED = object()  # the outcome of a household whose worker pool broke


def _in_pool(jobs: list[tuple], workers: int) -> list:
    """The `_household_outcome` of each job, from `workers` forked processes.

    A job reads `_DIED` when a worker died before it finished, its own or
    another: a broken pool fails every unfinished job. Each worker may use
    its share of this process's CPUs. The pool is shut down, its workers
    joined, before this returns or raises.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # The start method is explicit: Python 3.14 moves the Linux default
    # away from fork, and spawn would re-import numpy in every worker.
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=set_cpu_budget, initargs=(cpu_budget() // workers,))
    try:
        futures = [pool.submit(_household_outcome, *job) for job in jobs]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except BrokenProcessPool:
                outcomes.append(_DIED)
        return outcomes
    finally:
        pool.shutdown(cancel_futures=True)


def _run_households(jobs: list[tuple]) -> list[str | None]:
    """The `_household_outcome` of each job, in order.

    Jobs run in this process when there is one CPU or one job, else in a
    pool of one worker per CPU, at most one per job. Each job whose pool
    broke runs again alone in a fresh worker, so a worker that dies fails
    only its own household.
    """
    workers = min(cpu_budget(), len(jobs))
    if workers < 2:
        return [_household_outcome(*job) for job in jobs]
    outcomes = _in_pool(jobs, workers)
    for i, job in enumerate(jobs):
        if outcomes[i] is _DIED:
            [outcomes[i]] = _in_pool([job], 1)
            if outcomes[i] is _DIED:
                outcomes[i] = f"{job[0]}: worker process died"
    return outcomes


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run the full pipeline, writing per-household artifact directories."""
    config.validate()
    all_events, rejections = _load_events(config)
    out_root = Path(config.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    if rejections:
        (out_root / "rejections.csv").write_text(records_to_csv(events_mod.Rejection, rejections))

    meal_events = events_mod.filter_meal_locations(all_events, config.locations)
    groups = events_mod.group_by_household(meal_events)
    if not groups:
        return PipelineResult(exit_code=EXIT_PIPELINE_ERROR, failures=["no episodes"], households=[])

    household_ids = sorted(groups)
    outcomes = _run_households([(hid, groups[hid], config, out_root / hid) for hid in household_ids])
    failures = [outcome for outcome in outcomes if outcome is not None]
    processed = [hid for hid, outcome in zip(household_ids, outcomes) if outcome is None]
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
