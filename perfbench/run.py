"""Benchmark for inquest: four workloads driven through the package's public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 12 --trace 0

Each run is one process with one seed. It builds its inputs from the seed,
sets up several times, then repeats the workload's pass for ``--seconds``,
checks the outputs, and prints a full report (one JSON line) followed by
the result line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are END_TO_END, with ``--trace 1`` PER_LAYER
(untraced and traced passes alternate, giving ``trace_overhead``).

BLAS is pinned to one thread: on two cores a second OpenBLAS thread cost
CPU without saving wall time, and left no core for the process itself.
"""
import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-up runs at least SETUP_REPEATS times, and until SETUP_MIN_S seconds
# have gone to it, so that a set-up of milliseconds still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 50
MIN_PASSES = 2
PROBE_REPEATS = 5
PROBE_REF_S = 0.003  # Probe median on the machine the benchmark was written on

# name -> unit; every workload reports every one of these.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ontology.parent_of.calls": "count",
    "ontology.children_of.calls": "count",
    "ontology.errors": "count",
    "patientgen.generate_cohort.self_s": "s",
    "patientgen.GenerativeModel.children_of.calls": "count",
    "patientgen.save_dataset.self_s": "s",
    "patientgen.save_dataset.bytes": "bytes",
    "patientgen.load_dataset.self_s": "s",
    "patientgen.load_dataset.bytes": "bytes",
    "patientgen.split_dataset.self_s": "s",
    "patientgen.encode_history.calls": "count",
    "patientgen.errors": "count",
    "nncore.forward.calls": "count",
    "nncore.forward_with_cache.calls": "count",
    "nncore.forward_with_cache.self_s": "s",
    "nncore.forward_with_cache.rows_per_call": "rows",
    "nncore.backward.calls": "count",
    "nncore.backward.self_s": "s",
    "nncore.adam_step.calls": "count",
    "nncore.adam_step.self_s": "s",
    "nncore.adam_step.us_per_call": "us",
    "nncore.gflop": "GFLOP",
    "nncore.save_net.self_s": "s",
    "nncore.save_net.bytes": "bytes",
    "nncore.load_net.self_s": "s",
    "nncore.load_net.bytes": "bytes",
    "nncore.errors": "count",
    "diagnosis.train_epoch.self_s": "s",
    "diagnosis.predict.calls": "count",
    "diagnosis.predict.self_s": "s",
    "diagnosis.encode_hpi_ternary.calls": "count",
    "diagnosis.encode_hpi_ternary.self_s": "s",
    "diagnosis.top1_accuracy.self_s": "s",
    "diagnosis.errors": "count",
    "consult_env.reset.calls": "count",
    "consult_env.reset.self_s": "s",
    "consult_env.legal_actions.calls": "count",
    "consult_env.legal_actions.self_s": "s",
    "consult_env.legal_actions.us_per_call": "us",
    "consult_env.legal_actions.legal_share": "share",
    "consult_env.step.calls": "count",
    "consult_env.step.self_s": "s",
    "consult_env.step.findings_per_call": "findings",
    "consult_env.errors": "count",
    "inquiry.collect_rollouts.self_s": "s",
    "inquiry.collect_rollouts.steps": "count",
    "inquiry.collect_rollouts.episodes": "count",
    "inquiry.ppo_update.self_s": "s",
    "inquiry.policy_loss_and_grad.self_s": "s",
    "inquiry.masked_softmax.calls": "count",
    "inquiry.masked_softmax.self_s": "s",
    "inquiry.gae_advantages.self_s": "s",
    "inquiry.compute_reward.calls": "count",
    "inquiry.errors": "count",
    "evalharness.evaluate.self_s": "s",
    "evalharness.simulate_consultation.calls": "count",
    "evalharness.simulate_consultation.self_s": "s",
    "evalharness.rounds_per_consultation": "rounds",
    "evalharness.save_traces.self_s": "s",
    "evalharness.save_traces.bytes": "bytes",
    "evalharness.emit_report.self_s": "s",
    "cli.consult_repl.calls": "count",
    "cli.consult_repl.self_s": "s",
    "cli.errors": "count",
    "trace_overhead": "share",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cohort", "train", "consult", "interactive"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="input sizes; 'smoke' is for the benchmark's own tests")
    return p.parse_args(argv)


def import_package():
    """Import inquest from this checkout's ``src``, and nowhere else."""
    if not (SRC / "inquest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no inquest package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import inquest

    if Path(inquest.__file__).resolve().parent != (SRC / "inquest").resolve():
        sys.exit(f"perfbench: imported inquest from {inquest.__file__}, not from {SRC}")


def blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "inquest").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


class Probe:
    """Times fixed work that runs no inquest code, to tell how fast the
    machine is right now: an interpreter loop, batch-1 matrix products, a
    JSON round trip and one batch-64 product, the kinds of work inquest does.
    The batch-64 share is kept small: BLAS slows less than the interpreter
    in a slow spell, and a larger share under-corrected the cohort passes."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.rows = [(i, i % 7) for i in range(3000)]
        self.w_small = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)
        self.x = rng.random((64, 330))
        self.w = rng.random((330, 256)) * 0.01

    def once(self) -> float:
        np = self.np
        t0 = perf_counter()
        acc = 0
        for i, k in self.rows:
            if k != 3:
                acc += i * k
        v = np.ones((1, 96))
        for _ in range(150):
            v = np.maximum(v @ self.w_small + 0.01, 0.0) * 0.5
        json.loads(json.dumps([{"id": i, "hpi": [i % 3] * 8} for i in range(300)]))
        h = np.maximum(self.x @ self.w, 0.0)
        self.x.T @ h
        return perf_counter() - t0

    def __call__(self) -> float:
        return statistics.median(self.once() for _ in range(PROBE_REPEATS))


def measure(workload, ledger, seconds: float, tracer, probe: Probe):
    """Set up several times, then run passes until ``seconds`` pass.

    With a tracer, odd passes are traced and even ones are not, so both
    halves see the same drift over the run.
    """
    setups, setup_digests = [], []  # (seconds, probe seconds)
    while len(setups) < SETUP_REPEATS or (
            sum(dt for dt, _ in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        ledger.tag = f"setup{len(setups)}"
        before = probe()
        t0 = perf_counter()
        setup_digests.append(ledger.call("setup", workload.setup))
        setups.append((perf_counter() - t0, (before + probe()) / 2))
    ledger.tag = "setup"
    ledger.check("setup", len(set(setup_digests)) == 1, "set-up is not deterministic")

    passes = []  # (traced, seconds, probe seconds, output or None)
    first_digest = None
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        ledger.tag = f"pass{len(passes)}"
        before = probe()
        if traced:
            tracer.active = True
        t0 = perf_counter()
        try:
            out = workload.run_pass()
        except Exception as exc:  # the run goes on; the failure is on the ledger
            if not any(tag == ledger.tag for tag, _ in ledger.failed):
                ledger.fail("pass", f"{type(exc).__name__}: {exc}")
            out = None
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        passes.append((traced, elapsed, (before + probe()) / 2, out))
        if out is None:
            continue
        workload.check(out, first=first_digest is None)
        for key in workload.heavy:
            del out[key]
        if first_digest is None:
            first_digest = out["digest"]
        ledger.check(workload.digest_op, out["digest"] == first_digest,
                     "outputs differ from the first pass on the same inputs")
    return setups, passes


def scaled(seconds: float, probe_s: float) -> float:
    """Seconds at the reference speed: the run's own time, corrected by how
    much slower than PROBE_REF_S the probe ran next to it."""
    return seconds * PROBE_REF_S / probe_s


def main(argv=None) -> int:
    args = parse_args(argv)
    # Must be set before numpy loads OpenBLAS, so numpy is imported only here.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    import_package()
    import numpy as np

    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracing
    import workloads

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = ROOT / ".perfbench_work" / run_name
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    env = environment(args, np)
    ledger = workloads.Ledger()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.scale], workdir, ledger)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
    try:
        setups, passes = measure(workload, ledger, args.seconds, tracer, Probe(np))
    except Exception as exc:  # set-up failed: nothing can be measured
        print(f"perfbench: set-up failed: {ledger.problems or exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()

    plain = [(dt, p, out) for traced, dt, p, out in passes if not traced and out is not None]
    traced = [(dt, p, out) for is_traced, dt, p, out in passes if is_traced and out is not None]
    if not plain or (tracer is not None and not traced):
        print(f"perfbench: no pass completed: {ledger.problems[:5]}", file=sys.stderr)
        return 1

    wall_s = statistics.median(scaled(dt, p) for dt, p, _ in plain)
    found = {
        "setup_s": (statistics.median(scaled(dt, p) for dt, p in setups), "s"),
        "wall_s": (wall_s, "s"),
        "setup_raw_s": (statistics.median(dt for dt, _ in setups), "s"),
        "wall_raw_s": (statistics.median(dt for dt, _, _ in plain), "s"),
        "probe_ms": (1e3 * statistics.median(p for _, p, _ in plain), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_rate": (len(ledger.failed) / ledger.attempted, "share"),
    }
    for dt, p, out in plain:
        workload.scale(out, scaled(1.0, p))
    found.update(workload.summarize([out for _, _, out in plain]))
    if tracer is not None:
        layer = tracer.layer_metrics(len(traced))
        traced_s = statistics.median(scaled(dt, p) for dt, p, _ in traced)
        layer["trace_overhead"] = traced_s / wall_s - 1.0
        found.update({name: (layer[name], PER_LAYER[name]) for name in PER_LAYER})
        extra = {k: v for k, v in layer.items() if k not in PER_LAYER}
        tracer.write_spans(workdir / "spans.jsonl.gz")
    else:
        extra = {}

    report = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in found.items()},
        "layer_extra": extra,
        "setups": [{"seconds": dt, "probe_s": p} for dt, p in setups],
        "passes": [{"traced": t, "seconds": dt, "probe_s": p, "ok": out is not None}
                   for t, dt, p, out in passes],
        "problems": ledger.problems[:20],
    }
    (workdir / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    for name in ("cohort.jsonl", "cohort.header.json", "diag.json", "policy.json"):
        (workdir / name).unlink(missing_ok=True)
    for path in workdir.glob("traces_*.jsonl"):
        path.unlink()

    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not ledger.failed,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {k: {"value": found[k][0], "unit": wanted[k]} for k in wanted},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
