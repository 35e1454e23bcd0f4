"""Measure checkouts side by side and write one BENCH file for each.

    python tools/bench.py --checkout PARENT BENCH_1.json --checkout . BENCH_2.json

For every checkout the file holds:

- ``desk``: ``tools/desk.py --seed S`` for each seed in DESK_SEEDS, at
  one BLAS thread: each stage's median, min and max over desk.py's runs,
  the quality numbers and the parameter digests;
- ``perfbench``: ``perfbench/run.py --trace 0`` for each workload and each
  seed in BENCH_SEEDS, SECONDS a run: every run's end-to-end metrics, with
  the raw seconds next to the probe-scaled ones and the probe itself, then
  each metric's median and quartiles over the seeds;
- ``environment``: nproc, the BLAS and the thread count it ran at, as
  perfbench reads them; ``source_sha256`` names the measured sources.

The checkouts take turns run by run, and the side that goes first alternates
from one seed to the next, so a slow spell of a shared machine falls on both
sides. With two checkouts it also prints, per workload and metric, in how
many seeds the second read lower than the first.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cohort", "train", "consult", "interactive")
# End-to-end metrics of a perfbench report, with the raw seconds and the probe
# the scaled ones come from.
PERFBENCH_METRICS = ("setup_s", "setup_raw_s", "wall_s", "wall_raw_s", "peak_rss_mb",
                     "probe_ms", "fail_rate")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
DESK_SEEDS = (0, 1, 2)
BENCH_SEEDS = range(1, 11)
SECONDS = 20.0  # BENCHMARK.json's run_seconds


def run_json(cwd: Path, argv: list[str], last: int) -> list[dict]:
    """Run ``argv`` with Python in ``cwd`` at one BLAS thread; the last
    ``last`` lines of its output, parsed as JSON."""
    out = subprocess.run([sys.executable, *argv], cwd=cwd, env={**os.environ, **ONE_THREAD},
                         capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"{' '.join(argv)} in {cwd} failed:\n{out.stderr}")
    return [json.loads(line) for line in out.stdout.splitlines()[-last:]]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def turns(checkouts: list, i: int) -> list:
    """The checkouts in the order they run for the i-th seed."""
    return checkouts if i % 2 == 0 else checkouts[::-1]


def measure(checkouts: list[Path]) -> list[dict]:
    results = {c: {"desk": {"blas_threads": 1, "seeds": {}},
                   "perfbench": {"seconds": SECONDS, "workloads": {}}} for c in checkouts}
    for i, seed in enumerate(DESK_SEEDS):
        for c in turns(checkouts, i):
            (line,) = run_json(c, ["tools/desk.py", "--seed", str(seed)], 1)
            results[c]["desk"]["seeds"][str(seed)] = line
            print(f"desk seed {seed} {c}: {json.dumps(line['seconds'])}", flush=True)
    for workload in WORKLOADS:
        for i, seed in enumerate(BENCH_SEEDS):
            for c in turns(checkouts, i):
                report, result = run_json(c, ["perfbench/run.py", "--workload", workload,
                                              "--seed", str(seed), "--seconds", str(SECONDS),
                                              "--trace", "0"], 2)
                metrics = report["report"]["metrics"]
                run = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                       **{m: metrics[m]["value"] for m in PERFBENCH_METRICS}}
                env = report["report"]["environment"]
                results[c]["environment"] = {k: env[k] for k in (
                    "nproc", "affinity_cpus", "python", "numpy", "blas", "blas_threads")}
                results[c]["source_sha256"] = env["source_sha256"]
                results[c]["perfbench"]["workloads"].setdefault(workload, {"runs": []})[
                    "runs"].append(run)
                print(f"{workload} seed {seed} {c}: wall_s {run['wall_s']:.4f}", flush=True)
    for c in checkouts:
        for entry in results[c]["perfbench"]["workloads"].values():
            entry["summary"] = {m: spread([r[m] for r in entry["runs"]])
                                for m in PERFBENCH_METRICS}
    return [results[c] for c in checkouts]


def compare(first: dict, second: dict) -> None:
    """Print, per workload and metric, the medians and the seeds in which
    ``second`` read lower than ``first``."""
    for workload, entry in first["perfbench"]["workloads"].items():
        other = second["perfbench"]["workloads"][workload]
        for m in PERFBENCH_METRICS:
            pairs = list(zip((r[m] for r in entry["runs"]), (r[m] for r in other["runs"])))
            lower = sum(b < a for a, b in pairs)
            print(f"{workload}/{m}: {entry['summary'][m]['median']:.4g} -> "
                  f"{other['summary'][m]['median']:.4g}, second lower in {lower}/{len(pairs)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", nargs=2, action="append", required=True,
                        metavar=("DIR", "OUT"), help="a checkout and the BENCH file to write")
    args = parser.parse_args()
    checkouts = [Path(d).resolve() for d, _ in args.checkout]
    results = measure(checkouts)
    for (_, out), result in zip(args.checkout, results):
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
    if len(results) == 2:
        compare(*results)


if __name__ == "__main__":
    main()
