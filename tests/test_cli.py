import json

import pytest

from mealclust import pipeline
from mealclust.cli import main
from mealclust.episodes import read_episodes_csv
from mealclust.events import parse_events
from mealclust.gmm import FitError
from mealclust.synth import default_profile, format_profile
from mealclust.validation import SweepReport


@pytest.fixture()
def profile_path(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text(format_profile(default_profile(days=40, seed=21)))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


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
    episodes = read_episodes_csv((hh / "episodes.csv").read_text())
    assert len(episodes) == summary["n_episodes"]
    for algo in ("kmeans", "gmm", "dbscan"):
        report = SweepReport.from_dict(json.loads((hh / f"sweep_{algo}.json").read_text()))
        assert report.algorithm == algo
        plot = (hh / f"{algo}_dbi.csv").read_text().splitlines()
        assert plot[0] == "param,dbi,n_clusters,n_noise"
        assert len(plot) == len(report.entries) + 1
    cats = (hh / "categories.csv").read_text().splitlines()
    assert cats[0] == "category,mean_duration_min,weight,count"


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


def test_run_schema_error(tmp_path):
    csv_path = tmp_path / "input.csv"
    csv_path.write_text("time,house\n")
    code = run_cli("run", "--input", csv_path, "--out", tmp_path / "out")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])  # missing required --input/--synth-profile and --out
    assert excinfo.value.code == 1


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


def test_gmm_collapse_stays_in_its_household(tmp_path, profile_path, monkeypatch, capsys):
    # house-0 is a copy of house-1 whose GMM sweep collapses; it is
    # processed first, and house-1 must still get its full artifacts
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    header, *rows = (gen / "trace.csv").read_text().splitlines()
    copy = [row.replace(",house-1,", ",house-0,") for row in rows]
    merged = tmp_path / "merged.csv"
    merged.write_text("\n".join([header, *copy, *rows]) + "\n")

    sweep_gmm = pipeline.sweep_gmm

    def collapsing_sweep_gmm(matrix, **kwargs):
        if kwargs["household_id"] == "house-0":
            raise FitError("numerical collapse at iteration 3")
        return sweep_gmm(matrix, **kwargs)

    monkeypatch.setattr(pipeline, "sweep_gmm", collapsing_sweep_gmm)
    out = tmp_path / "out"
    assert run_cli("run", "--input", merged, "--out", out) == 3
    assert (out / "house-1" / "summary.json").exists()
    assert not (out / "house-0" / "summary.json").exists()
    assert "house-0: numerical collapse at iteration 3" in capsys.readouterr().err


def test_input_files_never_mutated(tmp_path, profile_path):
    gen = tmp_path / "gen"
    run_cli("generate", "--profile", profile_path, "--out", gen)
    before = (gen / "trace.csv").read_bytes()
    run_cli("run", "--input", gen / "trace.csv", "--out", tmp_path / "out")
    assert (gen / "trace.csv").read_bytes() == before
