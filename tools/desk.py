"""Run the desk pipeline of ``tests/test_acceptance.py`` three times in one
process and print one JSON line: the median, min and max seconds of each
stage, the quality numbers it is graded on, and the sha256 of the trained
ranker's and policy's parameter bytes. The stages include a save and a load
of the cohort, in a temporary directory; the script fails unless the loaded
cohort equals the sampled one, and unless every run gives the same quality
numbers and parameter bytes.

    python tools/desk.py --seed S

The cohort, the split, the ranker and the PPO run take seed S; every
evaluation keeps seed 1, as in the acceptance fixture. The sizes are the
fixture's own (``DESK_SL``, ``DESK_PPO``, ``DESK_HORIZON``, ``DESK_EVAL_N``).
BLAS runs BLAS_THREADS threads, whatever the environment asks for: on a
2-core Xeon the desk was faster at one thread than at two on each of seeds
0, 1 and 2, with the same bytes.
"""
import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

BLAS_THREADS = 1
# Must be set before numpy loads OpenBLAS, that is before inquest is imported.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)

from inquest.diagnosis import top1_accuracy, train_diagnosis  # noqa: E402
from inquest.evalharness import GreedyModelPolicy, baseline_policy, evaluate  # noqa: E402
from inquest.inquiry import train_inquiry  # noqa: E402
from inquest.patientgen import (  # noqa: E402
    PatientDataset,
    benchmark_genmodel,
    benchmark_ontology,
    generate_cohort,
    load_dataset,
    save_dataset,
    split_dataset,
)
from tests.test_acceptance import DESK_EVAL_N, DESK_HORIZON, DESK_PPO, DESK_SL  # noqa: E402


RUNS = 3


def desk_run(seed: int) -> tuple[dict, dict]:
    """One run of the desk: the seconds of each stage, and the quality
    numbers with the parameter digests."""
    seconds = {}

    def timed(stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds[stage] = round(time.perf_counter() - t0, 3)
        return out

    onto = benchmark_ontology()
    cohort = timed("cohort", generate_cohort, benchmark_genmodel(onto), 20_000, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.jsonl"
        timed("save_dataset", save_dataset, cohort, path)
        if timed("load_dataset", load_dataset, path, ontology=onto) != cohort:
            raise SystemExit("load_dataset(save_dataset(cohort)) differs from the cohort")
    train, _, test = split_dataset(cohort, (0.6, 0.1, 0.3), seed=seed)
    diag, _ = timed("ranker", train_diagnosis, train, dataclasses.replace(DESK_SL, seed=seed))
    policy, _, _ = timed("ppo", train_inquiry, train, diag, onto,
                         dataclasses.replace(DESK_PPO, seed=seed), horizon=DESK_HORIZON)
    sub = PatientDataset(test.records[:DESK_EVAL_N], test.disease_names, test.m,
                         test.ontology_digest, test.genmodel_digest)
    reports = {}
    for name, chosen, horizon in (("trained_h10", GreedyModelPolicy(policy), DESK_HORIZON),
                                  ("random_h10", baseline_policy("RandomLegal"), DESK_HORIZON),
                                  ("trained_h20", GreedyModelPolicy(policy), 2 * DESK_HORIZON)):
        reports[name], _ = timed(f"eval_{name}", evaluate, chosen, diag, sub, onto,
                                 horizon=horizon, seed=1)
    return seconds, {
        "top1_trained": reports["trained_h10"].recall_at_k[1],
        "top1_random": reports["random_h10"].recall_at_k[1],
        "rediscovery_recall_trained": reports["trained_h10"].rediscovery.recall,
        "rediscovery_recall_random": reports["random_h10"].rediscovery.recall,
        "top1_trained_h20": reports["trained_h20"].recall_at_k[1],
        "ranker_top1_full_hpi": top1_accuracy(diag, sub),
        "history_width": diag.history_width,
        "ranker_inputs": diag.net.layer_dims[0],
        "ranker_params_sha256": hashlib.sha256(diag.net.params.tobytes()).hexdigest(),
        "policy_params_sha256": hashlib.sha256(policy.net.params.tobytes()).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed
    runs = [desk_run(seed) for _ in range(RUNS)]
    quality = runs[0][1]
    for i, (_, other) in enumerate(runs[1:], start=2):
        differs = sorted(k for k in quality if other[k] != quality[k])
        if differs:
            raise SystemExit(f"run {i} differs from run 1 in {', '.join(differs)}")
    seconds = {}
    for stage in runs[0][0]:
        times = [s[stage] for s, _ in runs]
        seconds[stage] = {"median": statistics.median(times), "min": min(times), "max": max(times)}
    print(json.dumps({"seed": seed, "runs": RUNS, "blas_threads": BLAS_THREADS,
                      "seconds": seconds, **quality}))


if __name__ == "__main__":
    main()
