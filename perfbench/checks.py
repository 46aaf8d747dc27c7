"""Output checks. Each returns, per unit (a household or a study seed),
the list of problems found; a unit with any problem counts as failed.

A unit fails when its pass exited non-zero or raised, when an artifact
disagrees with what the generator derived (episodes, rejections), when
the artifacts disagree with each other (selected parameters, category
counts), when a later pass is not byte-identical to the first, or when a
summary.json hash or a selected k / g differs from the reference recorded
in reference.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from datetime import datetime
from pathlib import Path

from workloads import TIMESTAMP_FORMAT, CsvInput, StudyInput

ARTIFACTS = (
    "summary.json", "episodes.csv", "categories.csv",
    "sweep_kmeans.json", "kmeans_dbi.csv", "sweep_gmm.json", "gmm_dbi.csv",
    "sweep_dbscan.json", "dbscan_dbi.csv",
)
ALGORITHMS = ("kmeans", "gmm", "dbscan")
SWEEP_PARAMS = [float(p) for p in range(2, 11)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _best(entries: list[dict]) -> dict | None:
    defined = [e for e in entries if e["dbi"] is not None]
    return min(defined, key=lambda e: (e["dbi"], e["param"])) if defined else None


def _check_sweep(report: dict, params: list[float] | None) -> list[str]:
    problems = []
    if params is not None and [e["param"] for e in report["entries"]] != params:
        problems.append(f"{report['algorithm']} sweep params differ from {params}")
    if report["best"] != _best(report["entries"]):
        problems.append(f"{report['algorithm']} best entry is not the minimum-DBI entry")
    return problems


def _check_episodes(text: str, expected) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    got = [(r["start"], r["end"], int(r["event_count"])) for r in rows]
    want = [(e.start, e.end, e.event_count) for e in expected]
    if got != want:
        return [f"episodes.csv has {len(got)} episodes, {sum(g != w for g, w in zip(got, want))} "
                f"differing from the {len(want)} expected"]
    for r in rows:
        span = datetime.strptime(r["end"], TIMESTAMP_FORMAT) - datetime.strptime(r["start"], TIMESTAMP_FORMAT)
        if float(r["duration_min"]) != span.total_seconds() / 60.0:
            return [f"episode at {r['start']} has duration {r['duration_min']}, expected {span}"]
    return []


def _check_household(hh_dir: Path, expected, first_dir: Path | None, ref_hash: str) -> list[str]:
    missing = [name for name in ARTIFACTS if not (hh_dir / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    summary = json.loads((hh_dir / "summary.json").read_text())
    problems = []
    if summary["household_id"] != hh_dir.name:
        problems.append(f"summary names household {summary['household_id']!r}")
    if summary["n_episodes"] != len(expected):
        problems.append(f"summary has {summary['n_episodes']} episodes, expected {len(expected)}")
    problems += _check_episodes((hh_dir / "episodes.csv").read_text(), expected)
    for alg in ALGORITHMS:
        report = json.loads((hh_dir / f"sweep_{alg}.json").read_text())
        problems += _check_sweep(report, SWEEP_PARAMS if alg != "dbscan" else None)
        chosen = summary["algorithms"][alg]
        if chosen is None or chosen["best_param"] != report["best"]["param"] or chosen["dbi"] != report["best"]["dbi"]:
            problems.append(f"summary's {alg} choice differs from sweep_{alg}.json")
    gmm = summary["algorithms"]["gmm"]
    if len(gmm["categories"]) != gmm["best_param"] or sum(c["count"] for c in gmm["categories"]) != len(expected):
        problems.append("gmm categories do not partition the episodes into best_param components")
    if sha256(hh_dir / "summary.json") != ref_hash:
        problems.append("summary.json differs from the reference hash")
    if first_dir is not None:
        changed = sorted(p.name for p in hh_dir.iterdir() if p.read_bytes() != (first_dir / p.name).read_bytes())
        if changed:
            problems.append(f"not byte-identical to the first pass: {', '.join(changed)}")
    return problems


def check_rejections(text: str | None, expected: list[tuple[int, str]]) -> list[str]:
    if text is None:
        return [] if not expected else ["rejections.csv is missing"]
    rows = list(csv.reader(io.StringIO(text)))
    got = [(int(line), reason) for line, reason in rows[1:]]
    if rows[0] != ["line", "reason"] or got != expected:
        wrong = sum(g != w for g, w in zip(got, expected)) + abs(len(got) - len(expected))
        return [f"rejections.csv differs from the {len(expected)} injected rows in {wrong} places"]
    return []


def cli_pass(inp: CsvInput, record: dict, first_out: Path | None, ref: dict) -> dict[str, list[str]]:
    """Problems per household for one `mealclust run` pass."""
    if record["error"] is not None or record.get("rc") != 0:
        reason = "pass raised" if record["error"] is not None else f"exit code {record.get('rc')}"
        return {hh: [reason] for hh in inp.episodes}
    out = Path(record["out"])
    shared = []
    extra = sorted(p.name for p in out.iterdir() if p.is_dir() and p.name not in inp.episodes)
    if extra:
        shared.append(f"unexpected household directories: {', '.join(extra)}")
    rej = out / "rejections.csv"
    shared += check_rejections(rej.read_text() if rej.is_file() else None, inp.rejections)
    if first_out is not None and rej.is_file() and rej.read_bytes() != (first_out / "rejections.csv").read_bytes():
        shared.append("rejections.csv not byte-identical to the first pass")
    return {
        hh: shared + _check_household(out / hh, expected, first_out / hh if first_out else None, ref[hh])
        for hh, expected in inp.episodes.items()
    }


def study_pass(inp: StudyInput, record: dict, first: dict | None, ref: dict) -> dict[str, list[str]]:
    """Problems per study seed for one in-memory model-selection pass."""
    units = {str(s): [] for s in inp.seeds}
    if record["error"] is not None:
        return {u: ["pass raised"] for u in units}
    done = {str(s["seed"]): s for s in record["studies"]}
    earlier = {str(s["seed"]): s for s in first["studies"]} if first else {}
    for unit, problems in units.items():
        study = done.get(unit)
        if study is None:
            problems.append("no result")
            continue
        if study["n_episodes"] != inp.episode_counts[int(unit)]:
            problems.append(f"{study['n_episodes']} episodes, expected {inp.episode_counts[int(unit)]}")
        for alg in ("kmeans", "gmm"):
            problems += _check_sweep(study[alg], SWEEP_PARAMS)
        if [study["kmeans"]["best"]["param"], study["gmm"]["best"]["param"]] != ref[unit]:
            problems.append(f"selected k, g differ from the reference {ref[unit]}")
        if first is not None and json.dumps(study, sort_keys=True) != json.dumps(earlier.get(unit), sort_keys=True):
            problems.append("result differs from the first pass")
    return units
