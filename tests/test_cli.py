import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mealclust import events as events_mod
from mealclust import gmm, kmeans, pipeline, validation
from mealclust.cli import build_parser, main
from mealclust.episodes import ActivityEpisode
from mealclust.events import SensorEvent, filter_meal_locations, parse_events, records_from_csv, records_to_csv
from mealclust.gmm import FitError
from mealclust.synth import default_profile, format_profile, generate_trace
from mealclust.validation import SweepEntry, SweepReport
from test_golden import GOLDEN, sha256_tree, write_artifacts


@pytest.fixture()
def profile_path(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text(format_profile(default_profile(days=40, seed=21)))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="forked children need os.fork")


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_generate_writes_trace_and_truth(tmp_path, profile_path):
    out = tmp_path / "gen"
    assert run_cli("generate", "--profile", profile_path, "--out", out) == 0
    trace = (out / "trace.csv").read_text()
    events, rejections = parse_events(trace)
    assert events and not rejections
    assert (out / "planted.csv").read_text().startswith("day,category,start,duration_min")


def test_generate_zero_days_header_only(tmp_path):
    profile = tmp_path / "p.txt"
    profile.write_text(format_profile(default_profile(days=0, seed=1)))
    out = tmp_path / "gen"
    assert run_cli("generate", "--profile", profile, "--out", out) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1


def test_generate_is_deterministic(tmp_path, profile_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("generate", "--profile", profile_path, "--out", out1)
    run_cli("generate", "--profile", profile_path, "--out", out2)
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "planted.csv").read_bytes() == (out2 / "planted.csv").read_bytes()


def test_generate_invalid_profile(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("household_id = h\ndays = never\n")
    assert run_cli("generate", "--profile", bad, "--out", tmp_path / "g") == 2


@pytest.mark.parametrize("key, value", [("start_hour_sd", "nan"), ("duration_mean_min", "inf"),
                                        ("events_per_minute", "inf"), ("noise_events_per_day", "inf"),
                                        ("seed", "-1")])
def test_profile_with_a_bad_number_is_an_input_error(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.txt"
    text = format_profile(default_profile(days=3, seed=1))
    bad.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M))
    assert run_cli("generate", "--profile", bad, "--out", tmp_path / "g") == 2
    assert run_cli("run", "--synth-profile", bad, "--out", tmp_path / "out") == 2
    assert not (tmp_path / "g").exists() and not (tmp_path / "out").exists()
    assert f"{key} must be" in capsys.readouterr().err


def test_run_on_synth_profile(tmp_path, profile_path):
    out = tmp_path / "out"
    code = run_cli("run", "--synth-profile", profile_path, "--scale", "zscore",
                   "--seed", 3, "--out", out)
    assert code == 0
    hh = out / "house-1"
    summary = json.loads((hh / "summary.json").read_text())
    assert summary["household_id"] == "house-1"
    assert summary["n_episodes"] > 0
    assert set(summary["algorithms"]) == {"kmeans", "gmm", "dbscan"}
    assert summary["algorithms"]["kmeans"]["best_param"] in range(2, 11)
    assert summary["algorithms"]["gmm"]["categories"]

    # every artifact parses with the library's own readers
    episodes = records_from_csv(ActivityEpisode, (hh / "episodes.csv").read_text())
    assert len(episodes) == summary["n_episodes"]
    for algo in ("kmeans", "gmm", "dbscan"):
        report = SweepReport.from_dict(json.loads((hh / f"sweep_{algo}.json").read_text()))
        assert report.algorithm == algo
        plot = (hh / f"{algo}_dbi.csv").read_text()
        assert plot.splitlines()[0] == "param,dbi,n_clusters,n_noise"
        assert len(plot.splitlines()) == len(report.entries) + 1
        assert records_from_csv(SweepEntry, plot) == report.entries
    cats = (hh / "categories.csv").read_text()
    assert cats.splitlines()[0] == "category,mean_duration_min,weight,count"
    rows = records_from_csv(gmm.CategoryRow, cats)
    assert [dataclasses.asdict(row) for row in rows] == summary["algorithms"]["gmm"]["categories"]


def test_run_on_csv_input(tmp_path, profile_path):
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    out = tmp_path / "out"
    code = run_cli("run", "--input", gen / "trace.csv", "--seed", 0, "--out", out)
    assert code == 0
    assert (out / "house-1" / "summary.json").exists()


def test_run_determinism(tmp_path, profile_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert run_cli("run", "--synth-profile", profile_path, "--seed", 7, "--out", out) == 0
    a = (out1 / "house-1" / "summary.json").read_bytes()
    b = (out2 / "house-1" / "summary.json").read_bytes()
    assert a == b


def test_run_no_meal_events(tmp_path):
    csv_path = tmp_path / "input.csv"
    csv_path.write_text(
        "timestamp,household_id,sensor_id,sensor_kind,location,value\n"
        "2024-03-01T08:00:00,h1,s1,motion,bedroom,1\n"
    )
    code = run_cli("run", "--input", csv_path, "--out", tmp_path / "out")
    assert code == 3


def test_run_unreadable_input(tmp_path):
    code = run_cli("run", "--input", tmp_path / "missing.csv", "--out", tmp_path / "out")
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_run_missing_profile(tmp_path, capsys):
    code = run_cli("run", "--synth-profile", tmp_path / "missing.profile", "--out", tmp_path / "out")
    assert code == 2
    assert not (tmp_path / "out").exists()
    assert "mealclust: input error: unreadable input: " in capsys.readouterr().err


def test_run_schema_error(tmp_path, capsys):
    csv_path = tmp_path / "input.csv"
    csv_path.write_text("time,house\n")
    code = run_cli("run", "--input", csv_path, "--out", tmp_path / "out")
    assert code == 2
    assert not (tmp_path / "out").exists()
    csv_path.write_text("timestamp,household_id,sensor_id,sensor_kind,location,value,value\n")
    assert run_cli("run", "--input", csv_path, "--out", tmp_path / "out") == 2
    assert "input error: duplicate column: value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])  # missing required --input/--synth-profile and --out
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--k-range", "2-5", "argument --k-range: expected A..B, got '2-5'"),
        ("--g-range", "2..x", "argument --g-range: expected A..B, got '2..x'"),
        ("--eps", "1,x", "argument --eps: expected comma-separated reals, got '1,x'"),
    ],
)
def test_flag_syntax_errors_are_usage_errors(tmp_path, profile_path, capsys, flag, value, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--synth-profile", str(profile_path), flag, value, "--out", str(out)])
    assert excinfo.value.code == 1
    assert not out.exists()
    assert capsys.readouterr().err.endswith(f"mealclust run: error: {message}\n")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--k-range", "5..2"),
        ("--k-range", "1..4"),
        ("--g-range", "5..2"),
        ("--g-range", "1..4"),
        ("--eps", "-1"),
        ("--eps", "0"),
        ("--eps", "nan"),
        ("--eps", "0.5,inf"),
        ("--min-pts", "0"),
        ("--min-events", "0"),
        ("--gap-min", "0"),
        ("--gap-min", "-5"),
        ("--gap-min", "nan"),
        ("--min-duration-min", "-3"),
        ("--min-duration-min", "nan"),
        ("--seed", "-1"),
        ("--locations", ","),
    ],
)
def test_bad_parameters_fail_at_parse_time(tmp_path, profile_path, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--synth-profile", str(profile_path), flag, value, "--out", str(out)])
    assert excinfo.value.code == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--gap-min", "nan", "argument --gap-min: gap_threshold_min must be finite and positive"),
        ("--min-duration-min", "-3", "argument --min-duration-min: min_duration_min must be finite and non-negative"),
        ("--k-range", "5..2", "argument --k-range: k_range must be non-empty"),
        ("--g-range", "1..4", "argument --g-range: g_range must start at 2 or above"),
        ("--eps", "0.5,inf", "argument --eps: eps must be finite and positive"),
        ("--eps", ",", "argument --eps: eps_values must be non-empty"),
        ("--min-pts", "0", "argument --min-pts: min_pts must be at least 1"),
        ("--seed", "-1", "argument --seed: seed must be non-negative"),
    ],
)
def test_bad_parameter_message_names_the_flag(tmp_path, profile_path, capsys, flag, value, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--synth-profile", str(profile_path), flag, value, "--out", str(out)])
    assert excinfo.value.code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage: mealclust run ")
    assert err.endswith(f"mealclust run: error: {message}\n")


def test_each_run_config_field_has_exactly_one_flag():
    args = build_parser().parse_args(["run", "--input", "trace.csv", "--out", "out"])
    dests = sorted(action.dest for action in args.actions)
    assert dests == sorted(f.name for f in dataclasses.fields(pipeline.RunConfig))


TOP_HELP = """\
usage: mealclust [-h] {run,generate} ...

Command-line driver.

Subcommands:
    mealclust run       full pipeline: ingest/generate -> segment -> sweeps
    mealclust generate  synthetic trace + planted-truth sidecar

Exit codes: 0 success, 1 usage, 2 input error, 3 pipeline error.
Seed fallback: MEALCLUST_SEED environment variable.

positional arguments:
  {run,generate}
    run           run the full clustering pipeline
    generate      write a synthetic trace CSV plus planted-truth sidecar

options:
  -h, --help      show this help message and exit
"""

RUN_HELP = """\
usage: mealclust run [-h] (--input INPUT | --synth-profile SYNTH_PROFILE)
                     [--locations LOCATIONS] [--gap-min GAP_MIN]
                     [--min-duration-min MIN_DURATION_MIN]
                     [--min-events MIN_EVENTS]
                     [--features {duration,duration+hour}]
                     [--scale {none,zscore}] [--k-range A..B] [--g-range A..B]
                     [--eps LIST] [--min-pts MIN_PTS] [--seed SEED] --out OUT

options:
  -h, --help            show this help message and exit
  --input INPUT         sensor-log CSV to ingest
  --synth-profile SYNTH_PROFILE
                        synthetic profile to generate and analyze
  --locations LOCATIONS
                        comma-separated meal locations (default:
                        dining_room,kitchen)
  --gap-min GAP_MIN     episode gap threshold in minutes
  --min-duration-min MIN_DURATION_MIN
  --min-events MIN_EVENTS
  --features {duration,duration+hour}
  --scale {none,zscore}
  --k-range A..B
  --g-range A..B
  --eps LIST            comma-separated eps values for the DBSCAN sweep
  --min-pts MIN_PTS
  --seed SEED           fit seed (fallback: MEALCLUST_SEED, then 0)
  --out OUT             output directory
"""


@pytest.mark.parametrize("argv, text", [(["-h"], TOP_HELP), (["run", "-h"], RUN_HELP)], ids=["top", "run"])
def test_help_text_is_pinned(monkeypatch, capsys, argv, text):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == text


def test_run_on_csv_input_with_byte_order_mark(tmp_path, profile_path):
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (gen / "trace.csv").read_bytes())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("run", "--input", gen / "trace.csv", "--out", out1) == 0
    assert run_cli("run", "--input", bom, "--out", out2) == 0
    assert (out1 / "house-1" / "summary.json").read_bytes() == (out2 / "house-1" / "summary.json").read_bytes()


def test_malformed_csv_framing_is_an_input_error(tmp_path, capsys):
    csv_path = tmp_path / "input.csv"
    csv_path.write_text(
        "timestamp,household_id,sensor_id,sensor_kind,location,value\n"
        "2024-03-01T08:00:00,h1,s1,motion,kitchen,1\n"
        f'2024-03-01T08:01:00,h1,s1,motion,"{"x" * 200_000}",1\n'
    )
    assert run_cli("run", "--input", csv_path, "--out", tmp_path / "out") == 2
    assert "input error: line 3: malformed CSV: field larger than field limit" in capsys.readouterr().err


def test_unquoted_oversized_field_is_an_input_error(tmp_path, capsys):
    csv_path = tmp_path / "input.csv"
    csv_path.write_text(
        "timestamp,household_id,sensor_id,sensor_kind,location,value\n"
        "2024-03-01T08:00:00,h1,s1,motion,kitchen,1\n"
        f"2024-03-01T08:01:00,h1,s1,motion,{'x' * 200_000},1\n"
    )
    assert run_cli("run", "--input", csv_path, "--out", tmp_path / "out") == 2
    assert "input error: line 3: malformed CSV: field larger than field limit" in capsys.readouterr().err


def test_line_endings_give_identical_artifacts(tmp_path, profile_path):
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    lf = (gen / "trace.csv").read_bytes()
    assert b"\r" not in lf
    trees = []
    for name, ending in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        csv_path = tmp_path / f"{name}.csv"
        csv_path.write_bytes(lf.replace(b"\n", ending))
        out = tmp_path / f"out-{name}"
        assert run_cli("run", "--input", csv_path, "--out", out) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] and trees[0] == trees[1] == trees[2]


def test_non_utf8_input_names_its_line(tmp_path, capsys):
    lines = records_to_csv(SensorEvent, generate_trace(default_profile(days=60))).encode().splitlines(keepends=True)
    lines[3000] = lines[3000][:20] + b"\xff" + lines[3000][21:]
    assert sum(map(len, lines[:3000])) > 64 * 1024  # well past the decoder's first buffer
    csv_path = tmp_path / "input.csv"
    csv_path.write_bytes(b"".join(lines))
    assert run_cli("run", "--input", csv_path, "--out", tmp_path / "out") == 2
    assert "input error: line 3001: not valid UTF-8: byte 0xff at offset 20 of the line" in capsys.readouterr().err


def test_bad_seed_variable_is_a_usage_error(tmp_path, profile_path, monkeypatch, capsys):
    monkeypatch.setenv("MEALCLUST_SEED", "abc")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--synth-profile", str(profile_path), "--out", str(out)])
    assert excinfo.value.code == 1
    assert not out.exists()
    assert "MEALCLUST_SEED" in capsys.readouterr().err
    monkeypatch.setenv("MEALCLUST_SEED", "-1")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--synth-profile", str(profile_path), "--out", str(out)])
    assert excinfo.value.code == 1
    assert not out.exists()
    assert capsys.readouterr().err.endswith("error: argument MEALCLUST_SEED: seed must be non-negative\n")


def count_fits(monkeypatch, real_fit, param):
    """Wrap every name a mealclust module binds `real_fit` to, so a refit
    anywhere counts; returns the list of `param` values it is called with."""
    fitted = []
    signature = inspect.signature(real_fit)

    def counting_fit(*args, **kwargs):
        fitted.append(signature.bind(*args, **kwargs).arguments[param])
        return real_fit(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("mealclust"):
            for attr, value in list(vars(module).items()):
                if value is real_fit:
                    monkeypatch.setattr(module, attr, counting_fit)
    return fitted


def test_each_gmm_is_fitted_once_per_g(tmp_path, profile_path, monkeypatch):
    # with one CPU the whole g range goes to one lockstep gmm_fits call per household
    set_cpus(monkeypatch, 1)
    fitted_starts = count_fits(monkeypatch, gmm.gmm_fits, "starts")
    config = pipeline.RunConfig(synth_profile_path=profile_path, g_range=range(2, 11), out_dir=tmp_path / "out")
    assert pipeline.run_pipeline(config).exit_code == 0
    assert [sorted(km.k for km in starts) for starts in fitted_starts] == [list(range(2, 11))]


def test_each_kmeans_is_fitted_once_per_k(tmp_path, profile_path, monkeypatch):
    # the GMM sweep starts from the K-Means sweep's fits instead of refitting them
    fitted_k = count_fits(monkeypatch, kmeans.kmeans_fit, "k")
    config = pipeline.RunConfig(
        synth_profile_path=profile_path, k_range=range(2, 11), g_range=range(2, 11), out_dir=tmp_path / "out"
    )
    assert pipeline.run_pipeline(config).exit_code == 0
    assert sorted(fitted_k) == list(range(2, 11))


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
@pytest.mark.parametrize("flag, name", [("--k-range", "k_range"), ("--g-range", "g_range")])
def test_huge_range_fails_only_the_household(tmp_path, profile_path, monkeypatch, capsys, flag, name, cpus):
    # the bound is checked before the range is listed, so no MemoryError ends
    # the run; at 2 CPUs a K-Means sweep that fails kills the DBSCAN child
    set_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    assert run_cli("run", "--synth-profile", profile_path, flag, "2..4000000000", "--out", out) == 3
    n = len(records_from_csv(ActivityEpisode, (out / "house-1" / "episodes.csv").read_text()))
    assert capsys.readouterr().err == f"mealclust: pipeline error: house-1: {name} must lie within [2, {n - 1}]\n"
    assert sorted(p.name for p in (out / "house-1").iterdir()) == ["episodes.csv"]
    no_child_is_left()


def test_seed_env_fallback(tmp_path, profile_path, monkeypatch):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    monkeypatch.setenv("MEALCLUST_SEED", "7")
    assert run_cli("run", "--synth-profile", profile_path, "--out", out1) == 0
    monkeypatch.delenv("MEALCLUST_SEED")
    assert run_cli("run", "--synth-profile", profile_path, "--seed", 7, "--out", out2) == 0
    assert (out1 / "house-1" / "summary.json").read_bytes() == (out2 / "house-1" / "summary.json").read_bytes()


def test_per_household_failure_isolation(tmp_path, profile_path):
    # household h2 has meal events but too few episodes for the sweeps
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    trace = (gen / "trace.csv").read_text()
    extra = (
        "2024-01-01T08:00:00,h2,s1,motion,kitchen,1\n"
        "2024-01-01T08:05:00,h2,s1,motion,kitchen,1\n"
    )
    merged = tmp_path / "merged.csv"
    merged.write_text(trace + extra)
    out = tmp_path / "out"
    code = run_cli("run", "--input", merged, "--out", out)
    assert code == 3  # h2 fails
    assert (out / "house-1" / "summary.json").exists()  # house-1 still processed


def test_household_without_episodes_fails_alone(tmp_path, profile_path, capsys):
    # h2's one kitchen event is a meal event but no episode
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    merged = tmp_path / "merged.csv"
    merged.write_text((gen / "trace.csv").read_text() + "2024-01-01T08:00:00,h2,s1,motion,kitchen,1\n")
    out = tmp_path / "out"
    assert run_cli("run", "--input", merged, "--out", out) == 3
    assert capsys.readouterr().err == "mealclust: pipeline error: h2: no episodes\n"
    assert sorted(p.name for p in out.iterdir()) == ["house-1"]
    assert sorted(p.name for p in (out / "house-1").iterdir()) == FULL_ARTIFACTS


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
def test_dbscan_sweep_without_clusters_keeps_the_other_artifacts(tmp_path, profile_path, monkeypatch, capsys, cpus):
    # at eps 0.0001 no two episodes are neighbours, so every DBSCAN entry is
    # all noise; at 2 CPUs the SweepError comes back from the DBSCAN child
    set_cpus(monkeypatch, cpus)
    logged = log_sweeps(monkeypatch, tmp_path / "sweeps.jsonl")
    out = tmp_path / "out"
    assert run_cli("run", "--synth-profile", profile_path, "--eps", "0.0001", "--out", out) == 3
    assert [what for what, *_ in logged() if what.startswith("dbscan")] == ["dbscan start"]  # swept once
    assert capsys.readouterr().err == "mealclust: pipeline error: house-1: no valid clustering in range\n"
    hh = out / "house-1"
    assert sorted(p.name for p in hh.iterdir()) == sorted(
        set(FULL_ARTIFACTS) - {"sweep_dbscan.json", "dbscan_dbi.csv"}
    )
    summary = json.loads((hh / "summary.json").read_text())
    assert summary["algorithms"]["dbscan"] is None
    assert set(summary["algorithms"]) == {"kmeans", "gmm", "dbscan"}
    assert summary["n_episodes"] == len(records_from_csv(ActivityEpisode, (hh / "episodes.csv").read_text()))
    no_child_is_left()


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork), pytest.param(3, marks=needs_fork)])
def test_golden_artifacts_at_any_cpu_budget(tmp_path, monkeypatch, cpus):
    # from 2 CPUs on, each run sweeps DBSCAN in a child beside K-Means and GMM in shares
    set_cpus(monkeypatch, cpus)
    assert sha256_tree(write_artifacts(tmp_path)) == GOLDEN
    no_child_is_left()


def log_sweeps(monkeypatch, path):
    """Make every DBSCAN sweep, kmeans_fit and gmm_fits call of a run, in
    any process, append [what, pid, monotonic time] to `path` as it starts
    and as it returns; returns a reader of those lines."""
    def logging(name, fn):
        def logged(*args, **kwargs):
            with open(path, "a") as fh:
                fh.write(json.dumps([f"{name} start", os.getpid(), time.monotonic()]) + "\n")
            result = fn(*args, **kwargs)
            with open(path, "a") as fh:
                fh.write(json.dumps([f"{name} end", os.getpid(), time.monotonic()]) + "\n")
            return result
        return logged

    monkeypatch.setattr(pipeline, "sweep_dbscan", logging("dbscan", pipeline.sweep_dbscan))
    monkeypatch.setattr(validation, "kmeans_fit", logging("kmeans", validation.kmeans_fit))
    monkeypatch.setattr(validation, "gmm_fits", logging("gmm", validation.gmm_fits))
    return lambda: [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork), pytest.param(3, marks=needs_fork)])
def test_the_dbscan_child_ends_before_the_gmm_shares_start(tmp_path, profile_path, monkeypatch, cpus):
    # so no more than the CPU budget's processes are ever busy at once; at
    # one CPU DBSCAN too is swept before GMM, in this process
    set_cpus(monkeypatch, cpus)
    logged = log_sweeps(monkeypatch, tmp_path / "sweeps.jsonl")
    assert run_cli("run", "--synth-profile", profile_path, "--out", tmp_path / "out") == 0
    lines = logged()
    [dbscan_pid] = {pid for what, pid, _ in lines if what.startswith("dbscan")}
    assert (dbscan_pid == os.getpid()) == (cpus == 1)
    # K-Means stays here, so the GMM sweep finds its starts fitted
    assert [pid for what, pid, _ in lines if what == "kmeans start"] == [os.getpid()] * 9
    [dbscan_end] = [t for what, _, t in lines if what == "dbscan end"]
    gmm_starts = [t for what, _, t in lines if what == "gmm start"]
    assert len(gmm_starts) == cpus  # one share per CPU
    assert dbscan_end < min(gmm_starts)
    no_child_is_left()


@needs_fork
@pytest.mark.parametrize("death", ["exit", "raise"])
def test_a_dbscan_child_that_dies_is_swept_again_here(tmp_path, profile_path, monkeypatch, capsys, death):
    set_cpus(monkeypatch, 1)
    assert run_cli("run", "--synth-profile", profile_path, "--out", tmp_path / "serial") == 0
    serial = capsys.readouterr()
    parent, marker = os.getpid(), tmp_path / "child-started"
    sweep_dbscan = pipeline.sweep_dbscan

    def dying_sweep_dbscan(*args, **kwargs):
        if os.getpid() != parent:
            marker.touch()
            if death == "exit":
                os._exit(9)
            raise RuntimeError("a child's own failure")
        return sweep_dbscan(*args, **kwargs)

    monkeypatch.setattr(pipeline, "sweep_dbscan", dying_sweep_dbscan)
    set_cpus(monkeypatch, 2)
    assert run_cli("run", "--synth-profile", profile_path, "--out", tmp_path / "forked") == 0
    forked = capsys.readouterr()
    assert marker.exists()
    assert sha256_tree(tmp_path / "forked") == sha256_tree(tmp_path / "serial")
    assert forked.out == serial.out.replace("serial", "forked") and forked.err == serial.err == ""
    no_child_is_left()


def test_household_id_cannot_leave_the_output_directory(tmp_path, profile_path, capsys):
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    header, *rows = (gen / "trace.csv").read_text().splitlines()
    escaped = [row.replace(",house-1,", ",../escaped,") for row in rows]
    merged = tmp_path / "merged.csv"
    merged.write_text("\n".join([header, *escaped, *rows]) + "\n")
    out = tmp_path / "run" / "out"
    assert run_cli("run", "--input", merged, "--out", out) == 3
    assert (out / "house-1" / "summary.json").exists()
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["out"]
    assert sorted(p.name for p in out.iterdir()) == ["house-1"]
    assert "../escaped: household id '../escaped' is not a plain directory name" in capsys.readouterr().err


@pytest.mark.parametrize("household_id", ["", ".", "..", "a/b", "/abs"])
def test_household_id_must_be_a_plain_directory_name(tmp_path, household_id):
    with pytest.raises(ValueError, match="is not a plain directory name"):
        pipeline._process_household(household_id, None, pipeline.RunConfig(), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def copies_of_house_1(tmp_path, profile_path, *household_ids):
    """A CSV holding the profile's house-1 trace once under each id, in order."""
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    header, *rows = (gen / "trace.csv").read_text().splitlines()
    merged = tmp_path / "merged.csv"
    copies = [row.replace(",house-1,", f",{household_id},") for household_id in household_ids for row in rows]
    merged.write_text("\n".join([header, *copies]) + "\n")
    return merged


def collapse_gmm_of(monkeypatch, *household_ids):
    sweep_gmm = pipeline.sweep_gmm

    def collapsing_sweep_gmm(matrix, **kwargs):
        if kwargs["household_id"] in household_ids:
            raise FitError("numerical collapse at iteration 3")
        return sweep_gmm(matrix, **kwargs)

    monkeypatch.setattr(pipeline, "sweep_gmm", collapsing_sweep_gmm)


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
def test_a_gmm_collapse_wins_over_a_failed_dbscan_sweep(tmp_path, profile_path, monkeypatch, capsys, cpus):
    # DBSCAN is swept before GMM, but its SweepError is raised only once the
    # GMM sweep has returned, so the collapse is the household's one message
    set_cpus(monkeypatch, cpus)
    collapse_gmm_of(monkeypatch, "house-1")
    out = tmp_path / "out"
    assert run_cli("run", "--synth-profile", profile_path, "--eps", "0.0001", "--out", out) == 3
    assert capsys.readouterr().err == "mealclust: pipeline error: house-1: numerical collapse at iteration 3\n"
    assert sorted(p.name for p in (out / "house-1").iterdir()) == ["episodes.csv"]
    no_child_is_left()


def test_gmm_collapse_stays_in_its_household(tmp_path, profile_path, monkeypatch, capsys):
    # house-0 is a copy of house-1 whose GMM sweep collapses; it is
    # processed first, and house-1 must still get its full artifacts
    merged = copies_of_house_1(tmp_path, profile_path, "house-0", "house-1")
    collapse_gmm_of(monkeypatch, "house-0")
    out = tmp_path / "out"
    assert run_cli("run", "--input", merged, "--out", out) == 3
    assert (out / "house-1" / "summary.json").exists()
    assert not (out / "house-0" / "summary.json").exists()
    assert "house-0: numerical collapse at iteration 3" in capsys.readouterr().err


HOUSEHOLDS = ("house-0", "house-1", "house-2")
FULL_ARTIFACTS = sorted([
    "categories.csv", "dbscan_dbi.csv", "episodes.csv", "gmm_dbi.csv", "kmeans_dbi.csv",
    "summary.json", "sweep_dbscan.json", "sweep_gmm.json", "sweep_kmeans.json",
])


def forbid_household_children(monkeypatch):
    """Make a household processed outside this process raise; a child's
    exception is raised again here, so the run raises."""
    process_household, parent = pipeline._process_household, os.getpid()

    def here_only(*args):
        if os.getpid() != parent:
            raise AssertionError("a household ran in a child")
        return process_household(*args)

    monkeypatch.setattr(pipeline, "_process_household", here_only)


@needs_fork
def test_pool_output_matches_the_serial_run(tmp_path, profile_path, monkeypatch, capsys):
    merged = copies_of_house_1(tmp_path, profile_path, *HOUSEHOLDS)
    collapse_gmm_of(monkeypatch, "house-0", "house-2")
    capsys.readouterr()
    runs = []
    for cpus in (3, 1):
        set_cpus(monkeypatch, cpus)
        if cpus == 1:
            forbid_household_children(monkeypatch)
        out = tmp_path / f"out-{cpus}"
        code = run_cli("run", "--input", merged, "--out", out)
        captured = capsys.readouterr()
        runs.append((code, captured.out.replace(str(out), "OUT"), captured.err, sha256_tree(out)))
    assert runs[0] == runs[1]
    code, stdout, stderr, tree = runs[0]
    assert code == 3
    assert stdout == "wrote OUT/house-1/summary.json\n"
    assert stderr.splitlines() == [f"mealclust: pipeline error: {h}: numerical collapse at iteration 3"
                                   for h in ("house-0", "house-2")]
    assert sorted(tree) == sorted([f"house-1/{name}" for name in FULL_ARTIFACTS]
                                  + ["house-0/episodes.csv", "house-2/episodes.csv"])


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
def test_dead_worker_fails_only_its_household(tmp_path, profile_path, monkeypatch, capsys, cpus):
    # more households than children: the dead child is replaced, and the
    # households pulled after its death get their full artifacts
    households = [f"house-{i}" for i in range(cpus + 3)]
    merged = copies_of_house_1(tmp_path, profile_path, *households)
    process_household = pipeline._process_household

    def dying_process_household(household_id, *args):
        if household_id == "house-1":
            os._exit(9)
        return process_household(household_id, *args)

    monkeypatch.setattr(pipeline, "_process_household", dying_process_household)
    set_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    assert run_cli("run", "--input", merged, "--out", out) == 3
    assert capsys.readouterr().err == "mealclust: pipeline error: house-1: worker process died\n"
    for household_id in households:
        if household_id != "house-1":
            assert sorted(p.name for p in (out / household_id).iterdir()) == FULL_ARTIFACTS
    no_child_is_left()


def fork_after_the_parse(monkeypatch, fork):
    """Make os.fork `fork` once a run has loaded its events, so the parse's
    own range children fork as before."""
    load_events = pipeline._load_events

    def loading(config):
        loaded = load_events(config)
        monkeypatch.setattr(os, "fork", fork)
        return loaded

    monkeypatch.setattr(pipeline, "_load_events", loading)


@needs_fork
def test_households_run_here_when_no_child_can_fork(tmp_path, profile_path, monkeypatch, capsys):
    # both household children fail to fork; the households' own forks do not
    merged = copies_of_house_1(tmp_path, profile_path, *HOUSEHOLDS)
    collapse_gmm_of(monkeypatch, "house-2")
    capsys.readouterr()
    set_cpus(monkeypatch, 1)
    assert run_cli("run", "--input", merged, "--out", tmp_path / "serial") == 3
    serial = capsys.readouterr()
    real_fork, forks = os.fork, []

    def failing_fork():
        forks.append(1)
        if len(forks) <= 2:
            raise OSError(11, "Resource temporarily unavailable")
        return real_fork()

    fork_after_the_parse(monkeypatch, failing_fork)
    set_cpus(monkeypatch, 2)
    assert run_cli("run", "--input", merged, "--out", tmp_path / "forked") == 3
    forked = capsys.readouterr()
    assert len(forks) > 2  # each household forked its DBSCAN child
    assert sha256_tree(tmp_path / "forked") == sha256_tree(tmp_path / "serial")
    assert forked.out == serial.out.replace("serial", "forked") and forked.err == serial.err
    no_child_is_left()


@needs_fork
def test_household_children_are_reused(tmp_path, profile_path, monkeypatch):
    # six households at 2 CPUs: two children pull them all
    households = [f"house-{i}" for i in range(6)]
    merged = copies_of_house_1(tmp_path, profile_path, *households)
    set_cpus(monkeypatch, 2)
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(1)
        return real_fork()

    fork_after_the_parse(monkeypatch, counting_fork)
    logged = log_sweeps(monkeypatch, tmp_path / "sweeps.jsonl")
    assert run_cli("run", "--input", merged, "--out", tmp_path / "out") == 0
    assert len(forks) <= 2
    pids = {pid for what, pid, _ in logged() if what == "kmeans start"}
    assert len(pids) <= 2 and os.getpid() not in pids
    for household_id in households:
        assert sorted(p.name for p in (tmp_path / "out" / household_id).iterdir()) == FULL_ARTIFACTS
    no_child_is_left()


@needs_fork
def test_no_worker_outlives_the_run(tmp_path, profile_path, monkeypatch):
    merged = copies_of_house_1(tmp_path, profile_path, *HOUSEHOLDS)
    set_cpus(monkeypatch, 3)
    assert run_cli("run", "--input", merged, "--out", tmp_path / "ok") == 0
    no_child_is_left()

    # an error that is not a household's failure still aborts the run
    process_household = pipeline._process_household

    def broken_process_household(household_id, *args):
        if household_id == "house-1":
            raise RuntimeError("not a household failure")
        return process_household(household_id, *args)

    monkeypatch.setattr(pipeline, "_process_household", broken_process_household)
    with pytest.raises(RuntimeError, match="not a household failure"):
        run_cli("run", "--input", merged, "--out", tmp_path / "aborted")
    no_child_is_left()


def log_gmm_fits(monkeypatch, path):
    """Make every gmm_fits call of a sweep, in any process, append its pid
    and its sorted g values to `path`; returns a reader of those lines."""
    real_fits = gmm.gmm_fits

    def logging_fits(m, starts):
        with open(path, "a") as fh:
            fh.write(json.dumps([os.getpid(), sorted(km.k for km in starts)]) + "\n")
        return real_fits(m, starts)

    monkeypatch.setattr(validation, "gmm_fits", logging_fits)
    return lambda: [json.loads(line) for line in path.read_text().splitlines()]


@needs_fork
def test_each_gmm_is_fitted_once_per_g_across_processes(tmp_path, profile_path, monkeypatch):
    # with two CPUs one household's g range goes to two lockstep calls, one
    # in this process and one in a forked child
    set_cpus(monkeypatch, 2)
    calls = log_gmm_fits(monkeypatch, tmp_path / "fits.jsonl")
    config = pipeline.RunConfig(synth_profile_path=profile_path, g_range=range(2, 11), out_dir=tmp_path / "out")
    assert pipeline.run_pipeline(config).exit_code == 0
    pids, gs = zip(*calls())
    assert sorted(gs) == [[2, 3, 6, 7, 10], [4, 5, 8, 9]]  # each g once
    assert len(set(pids)) == 2 and os.getpid() in pids


@needs_fork
@pytest.mark.parametrize("cpus, households, shares", [
    (3, HOUSEHOLDS, [list(range(2, 11))] * 3),
    (4, HOUSEHOLDS[:2], [[2, 3, 6, 7, 10], [4, 5, 8, 9]] * 2),
])
def test_household_children_split_their_sweeps_over_their_share_of_cpus(tmp_path, profile_path, monkeypatch,
                                                                         cpus, households, shares):
    # each child gets cpus // children: 3 CPUs over 3 children fit each
    # household in one lockstep call; 4 CPUs over 2 children, in two
    merged = copies_of_house_1(tmp_path, profile_path, *households)
    set_cpus(monkeypatch, cpus)
    calls = log_gmm_fits(monkeypatch, tmp_path / "fits.jsonl")
    assert run_cli("run", "--input", merged, "--out", tmp_path / "out") == 0
    pids, gs = zip(*calls())
    assert sorted(gs) == sorted(shares)
    assert os.getpid() not in pids


@pytest.mark.parametrize("cpus", [1, pytest.param(3, marks=needs_fork)])
def test_household_whose_artifacts_cannot_be_written_fails_alone(tmp_path, profile_path, monkeypatch, capsys, cpus):
    # one rejected row makes out/rejections.csv a file, where the household
    # "rejections.csv" would make its directory
    merged = copies_of_house_1(tmp_path, profile_path, "house-1", "rejections.csv")
    with merged.open("a") as fh:
        fh.write("2024-03-01T08:00:00,house-1,s1,motion,kitchen,2\n")
    set_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("run", "--input", merged, "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out}/house-1/summary.json\n"
    [failure] = captured.err.splitlines()
    assert failure.startswith("mealclust: pipeline error: rejections.csv: ") and "File exists" in failure
    assert sorted(p.name for p in (out / "house-1").iterdir()) == FULL_ARTIFACTS
    last_line = len(merged.read_text().splitlines())
    assert (out / "rejections.csv").read_text() == f"line,reason\n{last_line},non-binary value: '2'\n"


def forbidden_fork():
    raise AssertionError("a one-CPU run forked")


@pytest.mark.parametrize("case", ["one household", "no fork", "no affinity, one CPU"])
def test_households_run_in_process_without_a_pool(tmp_path, profile_path, monkeypatch, case):
    forbid_household_children(monkeypatch)
    set_cpus(monkeypatch, 3)
    if case == "one household":
        merged = copies_of_house_1(tmp_path, profile_path, "house-1")
    else:
        merged = copies_of_house_1(tmp_path, profile_path, *HOUSEHOLDS)
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    if case == "no affinity, one CPU":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", forbidden_fork, raising=False)
    assert run_cli("run", "--input", merged, "--out", tmp_path / "out") == 0


def test_import_loads_no_pool_machinery():
    code = "import sys, mealclust, mealclust.cli; print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def modules_loaded_by_a_run_at_2_cpus(input_flag, path, out):
    """Which of multiprocessing and concurrent.futures a fresh interpreter
    has loaded after one run at 2 CPUs."""
    code = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from mealclust.cli import main\n"
        "assert main(['run', sys.argv[1], sys.argv[2], '--out', sys.argv[3]]) == 0\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code, input_flag, str(path), str(out)],
                            env=env, capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1]


def test_a_one_household_run_at_2_cpus_loads_no_pool_machinery(tmp_path, profile_path):
    # the DBSCAN child and the GMM shares are forked by `parallel`, not by a pool
    assert modules_loaded_by_a_run_at_2_cpus("--synth-profile", profile_path, tmp_path / "out") == "[]"
    assert (tmp_path / "out" / "house-1" / "summary.json").exists()


@needs_fork
def test_a_three_household_run_at_2_cpus_loads_no_pool_machinery(tmp_path, profile_path):
    # the household children too are forked by `parallel`
    merged = copies_of_house_1(tmp_path, profile_path, *HOUSEHOLDS)
    assert modules_loaded_by_a_run_at_2_cpus("--input", merged, tmp_path / "out") == "[]"
    for household_id in HOUSEHOLDS:
        assert sorted(p.name for p in (tmp_path / "out" / household_id).iterdir()) == FULL_ARTIFACTS


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
def test_a_one_household_run_holds_one_copy_of_its_events(tmp_path, profile_path, monkeypatch, cpus):
    # the household's events are the parsed table itself, not a copy of it
    merged = copies_of_house_1(tmp_path, profile_path, "house-1")
    set_cpus(monkeypatch, cpus)
    load_events, process_household = pipeline._load_events, pipeline._process_household
    loaded, given = [], []

    def loading(config):
        loaded.append(load_events(config)[0])
        return loaded[-1], []

    def processing(household_id, hh_events, *args):
        given.append(hh_events)
        return process_household(household_id, hh_events, *args)

    monkeypatch.setattr(pipeline, "_load_events", loading)
    monkeypatch.setattr(pipeline, "_process_household", processing)
    assert run_cli("run", "--input", merged, "--out", tmp_path / "out") == 0
    [table], [hh_events] = loaded, given
    assert len(hh_events) == len(table) > 0
    for column in ("seconds", "household", "sensor", "kind", "location", "value"):
        assert np.shares_memory(getattr(hh_events, column), getattr(table, column))


def test_input_files_never_mutated(tmp_path, profile_path):
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    before = (gen / "trace.csv").read_bytes()
    run_cli("run", "--input", gen / "trace.csv", "--out", tmp_path / "out")
    assert (gen / "trace.csv").read_bytes() == before


def load_then_filter(config):
    """What a run loaded before the parse kept only meal locations: every
    valid event, filtered afterwards."""
    with open(config.input_path, "rb") as fh:
        events, rejections = parse_events(fh)
    return filter_meal_locations(events, config.locations), rejections


@pytest.mark.parametrize("locations", [None, frozenset({"kitchen"})])
@pytest.mark.parametrize("source", ["input", "synth_profile"])
def test_loaded_events_are_all_at_the_run_locations(tmp_path, profile_path, source, locations):
    if source == "input":
        run_cli("generate", "--profile", profile_path, "--out", tmp_path / "gen")
        config = pipeline.RunConfig(input_path=tmp_path / "gen" / "trace.csv")
    else:
        config = pipeline.RunConfig(synth_profile_path=profile_path)
    if locations:
        config.locations = locations
    events, rejections = pipeline._load_events(config)
    trace = generate_trace(default_profile(days=40, seed=21))
    assert {e.location for e in trace} - config.locations  # the trace has events elsewhere
    assert {e.location for e in events} <= config.locations
    assert events == filter_meal_locations(trace, config.locations) and not rejections


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_household_with_no_meal_events_is_absent_as_before(tmp_path, profile_path, monkeypatch, cpus):
    merged = copies_of_house_1(tmp_path, profile_path, "house-1")
    elsewhere = [f"2024-03-0{d}T0{h}:00:00,house-2,s{h},motion,bedroom,1" for d in range(1, 4) for h in range(8)]
    merged.write_text(merged.read_text() + "\n".join(elsewhere) + "\n")
    set_cpus(monkeypatch, cpus)
    config = pipeline.RunConfig(input_path=merged, out_dir=tmp_path / "out")
    assert list(events_mod.household_codes(pipeline._load_events(config)[0])) == ["house-1"]
    assert pipeline.run_pipeline(config).households == ["house-1"]
    monkeypatch.setattr(pipeline, "_load_events", load_then_filter)
    before = pipeline.run_pipeline(dataclasses.replace(config, out_dir=tmp_path / "before"))
    assert before.households == ["house-1"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["house-1"]
    assert sha256_tree(tmp_path / "out") == sha256_tree(tmp_path / "before")


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
def test_rejections_cover_every_room_as_before(tmp_path, monkeypatch, cpus):
    from test_events import fleet_like_text

    path = tmp_path / "fleet.csv"
    path.write_text(fleet_like_text())
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 4096)  # two ranges at 2 CPUs
    set_cpus(monkeypatch, cpus)
    config = pipeline.RunConfig(input_path=path, out_dir=tmp_path / "out", k_range=range(2, 4),
                                g_range=range(2, 4), eps_values=[1.0, 5.0])
    pipeline.run_pipeline(config)
    rejected = records_from_csv(events_mod.Rejection, (tmp_path / "out" / "rejections.csv").read_text())
    rooms = {line.split(",")[4].strip() for i, line in enumerate(path.read_text().splitlines(), 1)
             if i in {r.line for r in rejected} and line.count(",") == 5}
    assert {"kitchen", "bedroom"} <= rooms
    monkeypatch.setattr(pipeline, "_load_events", load_then_filter)
    pipeline.run_pipeline(dataclasses.replace(config, out_dir=tmp_path / "before"))
    assert (tmp_path / "out" / "rejections.csv").read_bytes() == (tmp_path / "before" / "rejections.csv").read_bytes()
    assert sha256_tree(tmp_path / "out") == sha256_tree(tmp_path / "before")
