"""The four benchmark workloads, driven through the public API of ``inquest``.

Each workload has a set-up (inputs built from the seed) and a pass (the
measured body). A run sets up several times and then repeats the pass, one
call after another, until its time is up. Every pass works on the same
inputs, so every pass must produce the same bytes; that is checked, and so
are the outputs of the first pass. Why each workload exists is written in
``README.md`` beside this file.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from inquest import cli, consult_env, diagnosis, evalharness, inquiry, nncore, patientgen

CONFIRMED = patientgen.CONFIRMED
SPLIT = (0.6, 0.1, 0.3)
HORIZON = 10


@dataclass(frozen=True)
class Sizes:
    cohort_records: int  # records per cohort pass
    setup_cohort: int  # patients sampled by the other set-ups (60% train, 30% held out)
    sl_epochs: int  # ranker epochs per train pass
    ppo_iterations: int  # PPO iterations per train pass
    ppo_episodes: int  # episodes per PPO iteration in the train pass
    model_sl_epochs: int  # the consult/interactive models, trained in set-up
    model_ppo_iterations: int
    model_ppo_episodes: int
    eval_patients: int  # held-out patients per evaluation in a consult pass
    sessions: int  # scripted consult_repl sessions per interactive pass


SIZES = {
    "full": Sizes(cohort_records=1000, setup_cohort=3000, sl_epochs=2, ppo_iterations=4,
                  ppo_episodes=64, model_sl_epochs=3,
                  model_ppo_iterations=6, model_ppo_episodes=32, eval_patients=100,
                  sessions=100),
    "smoke": Sizes(cohort_records=60, setup_cohort=120, sl_epochs=1, ppo_iterations=1,
                   ppo_episodes=4, model_sl_epochs=1,
                   model_ppo_iterations=1, model_ppo_episodes=4, eval_patients=8,
                   sessions=4),
}


class Ledger:
    """Operations attempted and failed. A failed output check fails the
    operation whose output it checked; each operation fails at most once."""

    def __init__(self):
        self.tag = "setup"
        self.attempted = 0
        self.failed: set[tuple[str, str]] = set()
        self.problems: list[str] = []

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.fail(name, f"{type(exc).__name__}: {exc}")
            raise

    def check(self, name: str, ok: bool, what: str) -> None:
        if not ok:
            self.fail(name, what)

    def fail(self, name: str, what: str) -> None:
        self.failed.add((self.tag, name))
        self.problems.append(f"{self.tag} {name}: {what}")


def sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def desk_shape():
    """Desk ontology (30 + 60 elements, 100 questions) and 20-disease model."""
    onto = patientgen.benchmark_ontology()
    gm = patientgen.benchmark_genmodel(onto, n_diseases=20, seed=0, n_flags=8)
    return onto, gm


def replay_problems(trace, onto, initial) -> list[str]:
    """Replay a trace round by round; every question must have been legal."""
    status = np.array(initial, dtype=np.int8)
    asked: set[int] = set()
    problems = []
    for t, (question, revealed) in enumerate(trace.rounds):
        state = consult_env.EnvState(status.copy(), frozenset(asked), t, trace.patient_id,
                                     trace.horizon)
        if not consult_env.legal_actions(state, onto)[question]:
            problems.append(f"{trace.patient_id} round {t}: question {question} illegal")
        for element, value in revealed:
            status[element] = value
        asked.add(question)
    if not np.array_equal(status, trace.final_observation):
        problems.append(f"{trace.patient_id}: rounds do not reach the final observation")
    return problems


def initial_status(trace) -> np.ndarray:
    """Status before the first question: the final one with revealed slots reopened."""
    status = np.array(trace.final_observation, dtype=np.int8)
    for _, revealed in trace.rounds:
        for element, _ in revealed:
            status[element] = consult_env.UNKNOWN
    return status


def subset(ds, n: int):
    return patientgen.PatientDataset(ds.records[:n], ds.disease_names, ds.m,
                                     ds.ontology_digest, ds.genmodel_digest)


class Workload:
    """One workload: ``setup`` builds inputs, ``run_pass`` is the timed body.

    ``run_pass`` returns a dict holding ``stage_s`` (seconds per public call),
    ``digest`` (sha256 of everything the pass produced) and whatever
    ``check`` and ``summarize`` read.
    """

    name = ""
    digest_op = ""  # the operation whose output the pass digest covers
    heavy = ()  # pass outputs dropped once checked, so memory does not grow with passes

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, ledger: Ledger):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.ledger = ledger

    def timed(self, stage_s: dict, name: str, fn, *args, **kwargs):
        t0 = perf_counter()
        out = self.ledger.call(name, fn, *args, **kwargs)
        stage_s[name] = stage_s.get(name, 0.0) + perf_counter() - t0
        return out

    def setup(self) -> str:
        """Build the inputs; returns a digest that must repeat on every set-up."""
        raise NotImplementedError

    def run_pass(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict, first: bool) -> None:
        """Output checks; ``first`` marks the pass that gets the costly ones."""

    def scale(self, out: dict, factor: float) -> None:
        """Scale the pass's timings to the reference machine speed."""
        out["stage_s"] = {k: v * factor for k, v in out["stage_s"].items()}

    def summarize(self, outs: list[dict]) -> dict:
        """Workload metrics over untraced passes: name -> (value, unit)."""
        raise NotImplementedError


class Cohort(Workload):
    name = "cohort"
    digest_op = "save_dataset"
    heavy = ("dataset", "back", "parts")

    def setup(self) -> str:
        self.onto, self.gm = desk_shape()
        self.path = self.workdir / "cohort.jsonl"
        return self.gm.digest()

    def run_pass(self) -> dict:
        s, n = {}, self.sizes.cohort_records
        ds = self.timed(s, "generate_cohort", patientgen.generate_cohort, self.gm, n, self.seed)
        self.timed(s, "save_dataset", patientgen.save_dataset, ds, self.path)
        back = self.timed(s, "load_dataset", patientgen.load_dataset, self.path,
                          ontology=self.onto)
        parts = self.timed(s, "split_dataset", patientgen.split_dataset, back, SPLIT, self.seed)
        digest = sha256_files(self.path, self.path.with_name("cohort.header.json"))
        return {"stage_s": s, "digest": digest, "dataset": ds, "back": back, "parts": parts}

    def check(self, out: dict, first: bool) -> None:
        self.ledger.check("load_dataset", out["back"] == out["dataset"],
                          "load_dataset(save_dataset(ds)) != ds")
        ids = sorted(r.id for part in out["parts"] for r in part.records)
        self.ledger.check("split_dataset", ids == sorted(r.id for r in out["dataset"].records),
                          "split parts do not partition the cohort")

    def summarize(self, outs: list[dict]) -> dict:
        records = self.sizes.cohort_records * len(outs)

        def rate(stage):
            return records / sum(o["stage_s"][stage] for o in outs)

        return {
            "gen_records_per_s": (rate("generate_cohort"), "1/s"),
            "save_records_per_s": (rate("save_dataset"), "1/s"),
            "load_records_per_s": (rate("load_dataset"), "1/s"),
        }


class Train(Workload):
    name = "train"
    digest_op = "save_diagnosis"
    heavy = ("trained", "loaded")

    def setup(self) -> str:
        z = self.sizes
        self.onto, gm = desk_shape()
        ds = patientgen.generate_cohort(gm, z.setup_cohort, self.seed)
        self.train, _, self.test = patientgen.split_dataset(ds, SPLIT, self.seed)
        self.sl_cfg = diagnosis.SlTrainConfig(epochs=z.sl_epochs, hide_hi=0.9)
        self.ppo_cfg = inquiry.PpoConfig(iterations=z.ppo_iterations,
                                         episodes_per_iter=z.ppo_episodes, seed=0)
        return sha256_arrays(*(r.hpi for r in ds.records), ds.labels())

    def run_pass(self) -> dict:
        s = {}
        diag, _ = self.timed(s, "train_diagnosis", diagnosis.train_diagnosis, self.train,
                             self.sl_cfg)
        policy, _, iters = self.timed(s, "train_inquiry", inquiry.train_inquiry, self.train,
                                      diag, self.onto, self.ppo_cfg, horizon=HORIZON)
        p_diag, p_pol = self.workdir / "diag.json", self.workdir / "policy.json"
        self.timed(s, "save_diagnosis", diagnosis.save_diagnosis, diag, p_diag)
        self.timed(s, "save_policy", inquiry.save_policy, policy, p_pol)
        loaded = (self.timed(s, "load_diagnosis", diagnosis.load_diagnosis, p_diag),
                  self.timed(s, "load_policy", inquiry.load_policy, p_pol))
        top1 = self.timed(s, "top1_accuracy", diagnosis.top1_accuracy, loaded[0], self.test)
        # Every episode asks at least one question here (100 questions, at most
        # a few findings disclosed up front), so mean length x episodes is exact.
        steps = sum(round(it.mean_len * self.ppo_cfg.episodes_per_iter) for it in iters)
        return {
            "stage_s": s, "trained": (diag, policy), "loaded": loaded,
            "ranker_top1": top1, "ppo_final_reward": iters[-1].mean_reward, "steps": steps,
            "digest": sha256_files(p_diag, p_pol) + f":{top1!r}:{iters[-1].mean_reward!r}",
        }

    def check(self, out: dict, first: bool) -> None:
        (diag, policy), (diag_back, policy_back) = out["trained"], out["loaded"]
        hist = np.stack([patientgen.encode_history(r, diag.history_width)
                         for r in self.test.records])
        obs = np.stack([r.hpi for r in self.test.records])
        self.ledger.check("load_diagnosis", diagnosis.predict_batch(diag, hist, obs).tobytes()
                          == diagnosis.predict_batch(diag_back, hist, obs).tobytes(),
                          "reloaded ranker predicts different bytes")
        x = np.hstack([hist, diagnosis.encode_hpi_ternary(obs)])
        self.ledger.check("load_policy", nncore.forward(policy.net, x).tobytes()
                          == nncore.forward(policy_back.net, x).tobytes(),
                          "reloaded policy gives different logits")

    def summarize(self, outs: list[dict]) -> dict:
        samples = self.sl_cfg.epochs * len(self.train) * len(outs)
        steps = sum(o["steps"] for o in outs)
        first = outs[0]

        def seconds(stage):
            return sum(o["stage_s"][stage] for o in outs)

        return {
            "sl_samples_per_s": (samples / seconds("train_diagnosis"), "1/s"),
            "ppo_env_steps_per_s": (steps / seconds("train_inquiry"), "1/s"),
            "ranker_top1": (first["ranker_top1"], "share"),
            "ppo_final_reward": (first["ppo_final_reward"], "reward"),
        }


class Consult(Workload):
    """Evaluates a small trained ranker and policy on held-out patients.

    The models are trained on a fixed cohort (MODEL_SEED), so every seed
    consults the same ranker and policy and the seed picks only the
    patients; with models trained per seed, the work per question moved by
    about 10% from seed to seed.
    """

    name = "consult"
    digest_op = "save_traces"
    heavy = ("runs",)
    MODEL_SEED = 0

    def setup(self) -> str:
        z = self.sizes
        self.onto, gm = desk_shape()
        train = self.cohort(gm, self.MODEL_SEED)[0]
        self.test = self.cohort(gm, self.seed)[2]
        sl = diagnosis.SlTrainConfig(epochs=z.model_sl_epochs, hide_hi=0.9, seed=0)
        self.diag, _ = diagnosis.train_diagnosis(train, sl)
        ppo = inquiry.PpoConfig(iterations=z.model_ppo_iterations,
                                episodes_per_iter=z.model_ppo_episodes, seed=0)
        self.policy, _, _ = inquiry.train_inquiry(train, self.diag, self.onto, ppo,
                                                  horizon=HORIZON)
        return sha256_arrays(*self.diag.net.weights, *self.policy.net.weights,
                             *(r.hpi for r in self.test.records))

    def cohort(self, gm, seed):
        ds = patientgen.generate_cohort(gm, self.sizes.setup_cohort, seed)
        return patientgen.split_dataset(ds, SPLIT, seed)

    RUNS = (("greedy_h10", HORIZON), ("random_h10", HORIZON), ("greedy_h20", 2 * HORIZON))

    def run_pass(self) -> dict:
        s, sub = {}, subset(self.test, self.sizes.eval_patients)
        policies = {"greedy": evalharness.GreedyModelPolicy(self.policy),
                    "random": evalharness.baseline_policy(evalharness.RANDOM_LEGAL)}
        runs, files = {}, []
        for tag, horizon in self.RUNS:
            runs[tag] = self.timed(s, "evaluate", evalharness.evaluate,
                                   policies[tag.split("_")[0]], self.diag, sub, self.onto,
                                   horizon=horizon, seed=self.seed)
        for tag, (report, traces) in runs.items():
            report_path = self.workdir / f"report_{tag}.json"
            traces_path = self.workdir / f"traces_{tag}.jsonl"
            self.timed(s, "emit_report", evalharness.emit_report, report, report_path)
            self.timed(s, "save_traces", evalharness.save_traces, traces, traces_path)
            files += [report_path, traces_path]
        rounds = sum(t.n_rounds for _, traces in runs.values() for t in traces)
        return {"stage_s": s, "runs": runs, "rounds": rounds, "digest": sha256_files(*files),
                "reports": {tag: report for tag, (report, _) in runs.items()}}

    def check(self, out: dict, first: bool) -> None:
        d = len(self.diag.disease_names)
        for tag, (_, traces) in out["runs"].items():
            self.ledger.check("evaluate", evalharness.recall_at_k(traces, [d])[d] == 1.0,
                              f"{tag}: recall@D is not 1")
            if first:
                problems = [p for t in traces for p in replay_problems(t, self.onto,
                                                                       initial_status(t))]
                self.ledger.check("evaluate", not problems, f"{tag}: {problems[:3]}")

    def summarize(self, outs: list[dict]) -> dict:
        rounds = sum(o["rounds"] for o in outs)
        reports = outs[0]["reports"]
        report = reports["greedy_h10"]
        return {
            "eval_questions_per_s": (rounds / sum(o["stage_s"]["evaluate"] for o in outs), "1/s"),
            "top1_trained": (report.recall_at_k[1], "share"),
            "rediscovery_recall": (report.rediscovery.recall, "share"),
            "top1_random": (reports["random_h10"].recall_at_k[1], "share"),
            "top1_trained_h20": (reports["greedy_h20"].recall_at_k[1], "share"),
        }


class ScriptedPatient:
    """Answers ``consult_repl`` prompts from a held-out record, with no think
    time, and times each wait from an answer to the next round's question."""

    def __init__(self, record, names: dict[str, int], latencies: list[float]):
        self.record = record
        self.names = names
        self.latencies = latencies
        self.answered_at = None
        self.round = None

    def __call__(self, prompt: str) -> str:
        now = perf_counter()
        if prompt.startswith("patient age"):
            answer = str(self.record.age)
        elif prompt.startswith("patient sex"):
            answer = "m" if self.record.sex == "male" else "f"
        else:
            head, _, rest = prompt.partition(": ")
            # An open question prompts once per target; only the first prompt
            # of a round waits on the policy.
            if head != self.round:
                self.latencies.append(now - self.answered_at)
                self.round = head
            element = self.names[rest[: -len("? (y/n) ")]]
            answer = "y" if self.record.hpi[element] == CONFIRMED else "n"
        self.answered_at = perf_counter()
        return answer


def quiet(_line: str) -> None:
    pass


def percentile_with_tail(values, pcts=(99.0, 95.0, 90.0, 75.0, 50.0), tail=10):
    """Highest listed percentile with at least ``tail`` samples beyond it."""
    for p in pcts:
        if len(values) * (100.0 - p) / 100.0 >= tail:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50.0))


class Interactive(Consult):
    """Scripted ``cli.consult_repl`` sessions, one dialogue at a time."""

    name = "interactive"
    digest_op = "consult_repl"
    heavy = ("traces",)

    def setup(self) -> str:
        digest = super().setup()
        self.names = {e.name: e.id for e in self.onto.elements}
        return digest

    def run_pass(self) -> dict:
        s, latencies, traces = {}, [], []
        greedy = evalharness.GreedyModelPolicy(self.policy)
        for record in self.test.records[: self.sizes.sessions]:
            user = ScriptedPatient(record, self.names, latencies)
            trace = self.timed(s, "consult_repl", cli.consult_repl, greedy, self.diag, self.onto,
                               horizon=HORIZON, input_fn=user, output_fn=quiet)
            traces.append((record, trace))
        h = hashlib.sha256()
        for _, t in traces:
            h.update(json.dumps([t.rounds, t.ranking]).encode())
        return {"stage_s": s, "latencies": latencies, "traces": traces, "digest": h.hexdigest()}

    def check(self, out: dict, first: bool) -> None:
        for record, trace in out["traces"]:
            answered = trace.final_observation != consult_env.UNKNOWN
            truthful = (trace.final_observation == CONFIRMED) == (record.hpi == CONFIRMED)
            self.ledger.check("consult_repl", bool(truthful[answered].all()),
                              f"{record.id}: an answer disagrees with the record")
            if first:
                problems = replay_problems(trace, self.onto, np.zeros(self.onto.n_elements))
                self.ledger.check("consult_repl", not problems, f"{problems[:3]}")

    def scale(self, out: dict, factor: float) -> None:
        super().scale(out, factor)
        out["latencies"] = [x * factor for x in out["latencies"]]

    def summarize(self, outs: list[dict]) -> dict:
        lat = [x for o in outs for x in o["latencies"]]
        pct, tail = percentile_with_tail(lat)
        return {
            "question_latency_p50_ms": (1e3 * float(np.percentile(lat, 50.0)), "ms"),
            "question_latency_p99_ms": (1e3 * tail, "ms"),
            "question_latency_tail_pct": (pct, "pct"),
            "question_latency_samples": (len(lat), "count"),
        }


WORKLOADS = {w.name: w for w in (Cohort, Train, Consult, Interactive)}
