"""Write perfbench/reference.json from the program in this checkout.

Usage: python3 perfbench/record_reference.py

At the default seed, for the full and smoke sizes, it records the sha256
of each household's summary.json from one `mealclust run` pass, and the
K-Means k and GMM g that each model-selection study seed selects. The
benchmark's checks compare later passes against these values, so record
them only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from mealclust import cli  # noqa: E402


def record(size: workloads.Size, work: Path) -> dict:
    seed = workloads.DEFAULT_SEED
    out = {}
    for name, make in (("household_year", workloads.household_year), ("fleet_ingest", workloads.fleet_ingest)):
        inp = make(seed, work, size)
        if cli.main(["run", "--input", str(inp.path), "--out", str(work / name)]) != 0:
            raise SystemExit(f"{name}: mealclust run failed")
        out[name] = {hh: checks.sha256(work / name / hh / "summary.json") for hh in inp.episodes}
    study = workloads.model_selection(seed, size)
    result = child.study_pass({"study_seeds": study.seeds, "study_days": study.days}, work)
    out["model_selection"] = {
        str(s["seed"]): [s["kmeans"]["best"]["param"], s["gmm"]["best"]["param"]] for s in result["studies"]
    }
    return out


def main() -> None:
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = {name: record(size, work) for name, size in workloads.SIZES.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
