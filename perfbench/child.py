"""The timed process of one benchmark run.

Usage: python3 perfbench/child.py JOB.json RESULT.json  (PYTHONPATH=src)

Imports mealclust once, then runs passes of the workload until the time
budget in the job is spent, writing each pass's artifacts to its own
directory. The inputs were generated by the parent before this process
started, so its peak RSS holds only the program's own memory. An
untraced pass runs the host-speed gauge from a timer signal (see
gauge.py). In a traced run, traced and untraced passes alternate; a
traced pass records spans around the program's public functions (see
spans.py).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from pathlib import Path

from mealclust import cli, episodes, events, features, synth, validation

import gauge
import spans


def cli_pass(job: dict, out_dir: Path) -> dict:
    return {"rc": cli.main(["run", "--input", job["input"], "--out", str(out_dir)])}


def study_pass(job: dict, out_dir: Path) -> dict:
    """The planted-k model-selection study, in memory, one profile per seed."""
    studies = []
    for seed in job["study_seeds"]:
        trace = synth.generate_trace(synth.default_profile(days=job["study_days"], seed=seed))
        found = episodes.segment_episodes(events.filter_meal_locations(trace))
        m = features.scale_features(features.build_features(found), "zscore")
        km = validation.sweep_kmeans(m, seed=seed)
        gm = validation.sweep_gmm(m, seed=seed)
        studies.append({"seed": seed, "n_episodes": len(found), "kmeans": km.to_dict(), "gmm": gm.to_dict()})
    return {"studies": studies}


def peak_rss_kib() -> int:
    """High-water resident set of this process's own memory.

    Not getrusage's ru_maxrss: Linux carries that over from the parent
    through fork and exec, so it would report the input generator's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _schedule(job: dict):
    """Yield whether the next pass is traced, until the budget is spent.

    A pass starts only if the median time of earlier passes of its kind
    still fits in the budget, once the minimum passes have run: three
    untraced (the first is a warm-up), or in a traced run two traced and
    one untraced.
    """
    need = {True: 2, False: 1} if job["trace"] else {True: 0, False: 3}
    walls: dict[bool, list[float]] = {True: [], False: []}
    t0 = time.perf_counter()
    traced = bool(job["trace"])
    while True:
        short = need[traced] > len(walls[traced])
        estimate = statistics.median(walls[traced]) if walls[traced] else 0.0
        if not short and time.perf_counter() - t0 + estimate > job["seconds"]:
            if not any(need[k] > len(walls[k]) for k in walls):
                return
            traced = not traced
            continue
        wall = yield traced
        walls[traced].append(wall)
        if job["trace"]:
            traced = not traced


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    run_pass = cli_pass if job["workload"] != "model_selection" else study_pass
    passes = []
    schedule = _schedule(job)
    traced = next(schedule)
    while True:
        out_dir = Path(job["out_root"]) / f"pass_{len(passes):03d}"
        record = {"traced": traced, "out": str(out_dir), "error": None}
        recorder = spans.Recorder()
        sampler = gauge.Sampler()
        t0 = time.perf_counter()
        try:
            if traced:
                with spans.traced(recorder) as missing:
                    record.update(run_pass(job, out_dir))
                record["missing_targets"] = missing
            else:
                with sampler:
                    record.update(run_pass(job, out_dir))
        except Exception:  # a failed pass is reported, and the run goes on
            record["error"] = traceback.format_exc()
        # The gauge's own time is taken out of the pass's.
        record["wall_s"] = time.perf_counter() - t0 - sampler.spent_s
        record["gauge_s"] = sampler.samples
        if traced:
            record["spans"] = recorder.spans
            record["counts"] = dict(recorder.counts)
        passes.append(record)
        try:
            traced = schedule.send(record["wall_s"])
        except StopIteration:
            break
    result = {"passes": passes, "peak_rss_kib": peak_rss_kib()}
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
