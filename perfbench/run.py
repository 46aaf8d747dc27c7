"""mealclust benchmark: seeded workloads, end-to-end metrics, output checks
and a traced per-layer run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload household_year --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --smoke                 # tiny sizes, every path and check

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``run_ref_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones from
spans.py. The lines before it give each metric with its workload, unit,
sample count and quartiles, and the machine the run was made on.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("household_year", "fleet_ingest", "model_selection")
# One process, no BLAS helper threads: the load is the benchmark's only.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170.0  # every run, set-up included, ends well inside 180 s


def _env() -> dict:
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}


def machine() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_ENV}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh processes importing mealclust and its CLI, each
    taken between two gauges: scaled to reference host speed, and as read.

    One import first compiles the bytecode cache, which every later
    invocation of an installed program finds in place.
    """
    cmd = [sys.executable, "-c", "import mealclust, mealclust.cli"]
    ref, wall = [], []
    subprocess.run(cmd, env=_env(), check=True, stdout=subprocess.DEVNULL)
    before = gauge.measure()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), check=True, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        after = gauge.measure()
        ref.append(gauge.scaled(wall[-1], (before + after) / 2))
        before = after
    return ref, wall


def generate(workload: str, seed: int, size, work: Path):
    if workload == "household_year":
        return workloads.household_year(seed, work, size)
    if workload == "fleet_ingest":
        return workloads.fleet_ingest(seed, work, size)
    return workloads.model_selection(seed, size)


def spoil(workload: str, inp) -> None:
    """Make the expectations wrong, so a check must fail (smoke self-test)."""
    if workload == "model_selection":
        inp.episode_counts[inp.seeds[0]] += 1
    elif inp.rejections:
        line, reason = inp.rejections[0]
        inp.rejections[0] = (line + 1, reason)
    else:
        hh = next(iter(inp.episodes))
        inp.episodes[hh] = inp.episodes[hh][:-1]


def _references(size_name: str, workload: str) -> dict:
    """Recorded outputs; they hold at every seed, as the seed leaves the meals alone."""
    return json.loads((BENCH / "reference.json").read_text())[size_name][workload]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full",
                 spoiled: bool = False) -> dict:
    """One benchmark run; returns the result object plus report lines."""
    started = time.perf_counter()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    size = workloads.SIZES[size_name]
    inp = generate(workload, seed, size, work)
    gen_s = time.perf_counter() - started
    if spoiled:
        spoil(workload, inp)
    setup_ref, setup_wall = ([], []) if trace else measure_setup()

    job = {"workload": workload, "seconds": seconds, "trace": trace, "out_root": str(work / "out")}
    if workload == "model_selection":
        job.update(study_seeds=inp.seeds, study_days=inp.days)
    else:
        job["input"] = str(inp.path)
    (work / "job.json").write_text(json.dumps(job))
    result_path = work / "child_result.json"
    with open(work / "child_stderr.txt", "w") as err:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(work / "job.json"), str(result_path)],
            env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
            timeout=max(10.0, RUN_DEADLINE_S - (time.perf_counter() - started)),
        )
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write((work / "child_stderr.txt").read_text()[-4000:])
        raise RuntimeError(f"timed process exited with status {proc.returncode}")
    child = json.loads(result_path.read_text())
    passes = child["passes"]

    ref = _references(size_name, workload)
    attempted = failed = 0
    problems: list[str] = []
    for i, record in enumerate(passes):
        first = passes[0] if i else None
        if workload == "model_selection":
            units = checks.study_pass(inp, record, first, ref)
        else:
            units = checks.cli_pass(inp, record, Path(first["out"]) if first else None, ref)
        attempted += len(units)
        for unit, unit_problems in units.items():
            if unit_problems:
                failed += 1
                problems += [f"pass {i} {unit}: {p}" for p in unit_problems]
        if record["error"] is not None:
            problems.append(f"pass {i} raised:\n{record['error']}")

    untraced = [p for p in passes if not p["traced"]]
    # The first untraced pass warms lazy imports and the file cache; it is
    # checked but not timed, when later passes exist to time.
    timed = untraced[1:] if len(untraced) > 1 else untraced
    lines = [f"# workload={workload} seed={seed} size={size_name} trace={int(trace)} passes={len(passes)} "
             f"inputs_s={gen_s:.2f}" + (f" input_rows={inp.rows} injected_bad_rows={len(inp.rejections)}"
                                         if workload != "model_selection" else f" study_seeds={inp.seeds}")]
    if trace:
        traced = [p for p in passes if p["traced"]]
        counted = [name for name, unit in spans.UNITS.items() if unit == "count"]
        for i, p in enumerate(traced):
            problems += [f"traced pass {i}: {e}" for e in spans.nesting_errors(p["spans"])]
            m = spans.pass_metrics(p["spans"], p["counts"], p["wall_s"])
            err = spans.accounting_error(m, p["wall_s"])
            if err > 1e-6:
                problems.append(f"traced pass {i}: layer self times miss the pass time by {err:.2e} of it")
            if i == 0:
                counts0 = {name: m[name] for name in counted}
            elif {name: m[name] for name in counted} != counts0:
                problems.append(f"traced pass {i}: counts differ from traced pass 0")
            if p.get("missing_targets"):
                lines.append(f"# traced pass {i}: program lacks {', '.join(p['missing_targets'])}; "
                             "their metrics read 0")
        values = spans.run_metrics(traced, [p["wall_s"] for p in untraced])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.UNITS.items()}
        for name, unit in spans.UNITS.items():
            n = len(traced) if unit == "s" else 1
            note = " (computed by the benchmark)" if name == "dbscan.neighbor_pairs" else ""
            shown = f"{values[name]:.6g}" if unit == "s" else str(values[name])
            lines.append(f"{workload} {name} = {shown} {unit} (n={n} traced passes){note}")
        (work / "spans.json").write_text(json.dumps(
            {"machine": machine(), "workload": workload, "seed": seed,
             "passes": [{"wall_s": p["wall_s"], "spans": p["spans"], "counts": p["counts"]} for p in traced]}))
    else:
        run_ref = [gauge.scaled(p["wall_s"], statistics.fmean(p["gauge_s"])) for p in timed]
        run_wall = [p["wall_s"] for p in timed]
        gauges = [g for p in timed for g in p["gauge_s"]]
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "run_ref_s": {"value": statistics.median(run_ref), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
        for name, values, what in (
                ("setup_s", setup_ref, "fresh imports, at reference speed"),
                ("setup_wall_s", setup_wall, "fresh imports, as read, not gated"),
                ("run_ref_s", run_ref, "passes, at reference speed"),
                ("run_s", run_wall, "passes, as read, not gated"),
                ("gauge_s", gauges, f"gauges in timed passes, reference {gauge.REFERENCE_S}")):
            q1, q3 = _quartiles(values)
            lines.append(f"{workload} {name} = {statistics.median(values):.4f} s "
                         f"(n={len(values)} {what}, q1={q1:.4f}, q3={q3:.4f})")
        lines.append(f"{workload} peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MiB (n=1 timed process)")
    lines.append(f"{workload} failed_frac = {failed}/{attempted} = {failed / attempted:.4g} ratio "
                 f"(units: {'study seeds' if workload == 'model_selection' else 'households'} x passes)")
    lines += [f"# problem: {p}" for p in problems[:20]]

    shutil.rmtree(work / "out", ignore_errors=True)
    if workload != "model_selection":
        inp.path.unlink()
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics, "lines": lines}


def smoke() -> int:
    """Run every workload at tiny size in both modes; then check that a
    spoiled expectation is caught on each. Returns the exit status."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            res = run_workload(workload, workloads.DEFAULT_SEED, 0.0, trace, "smoke")
            print("\n".join(res["lines"]))
            good = res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
            print(f"smoke {workload} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            ok &= good
        res = run_workload(workload, workloads.DEFAULT_SEED, 0.0, False, "smoke", spoiled=True)
        caught = not res["correct"] and res["failed"] > 0
        print(f"smoke {workload} spoiled expectation: {'caught' if caught else 'NOT CAUGHT'}")
        ok &= caught
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0, help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload path and check")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()

    print(f"# machine: {json.dumps(machine())}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for res in results.values():
        print("\n".join(res["lines"]))
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "mealclust" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'mealclust'}; run from a mealclust checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import checks
    import gauge
    import spans
    import workloads

    sys.exit(main())
