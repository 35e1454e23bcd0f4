"""Consultation evaluation: full dialogues, ranking metrics, reports.

Runs any question-selection policy (trained, random, fixed-order) against
simulated patients, ranks diseases from the final observation, and computes
recall-at-K plus pooled rediscovery precision/recall/F1.

``evaluate`` consults every patient at once on the lockstep engine
(``consult_env.Lockstep``) through ``consult_batch``; ``simulate_consultation``
is its N=1 case. ``consult_batch`` keeps every patient's net input row
([history, ternary one-hot]) in a ``diagnosis.ConsultRows``, built once on the
engine's status; each round it reveals only the (episode, element) pairs that
``Lockstep.step`` returns. Policies have one interface, ``select_batch``, which
decides for a batch from those rows, so each round costs one forward of the
policy net over the active episodes, and the final ranking one forward of the
ranker over the rows it reads (``ConsultRows.rank``). Patient i draws from
stream i of ``patientgen.streams((seed,), ...)``, and every net runs in
fixed-size blocks (``nncore.forward``). A patient's trace is therefore the same
bytes whether it is evaluated alone or inside any dataset. A trained policy run
greedily asks the legal question with the largest float32 logit, the lowest id
among equal ones.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import consult_env, nncore
from .consult_env import PatientSim, _require_legal
from .diagnosis import ConsultRows, DiagnosisModel, check_dataset, rank_from_probs
from .errors import (
    ConfigError,
    DigestMismatch,
    EmptyInput,
    PairingError,
    ParseError,
    ShapeError,
    check_setting,
    fields,
    json_line,
    reading,
    typed,
    writing,
)
from .inquiry import InquiryPolicy
from .ontology import HpiOntology, check_built_against
from .patientgen import (
    CONFIRMED,
    PatientDataset,
    PatientRecord,
    streams,
)

RANDOM_LEGAL = "RandomLegal"
FIXED_ORDER = "FixedOrder"


@dataclass(frozen=True)
class DialogueTrace:
    """One finished consultation: what was asked, revealed, and concluded."""

    patient_id: str
    rounds: tuple  # ((question_id, ((element, status), ...)), ...)
    final_observation: np.ndarray  # int8 ternary, length M
    ranking: tuple[int, ...]  # permutation of 0..D-1, best first
    true_label: int
    horizon: int

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


@dataclass(frozen=True)
class RediscoveryMetrics:
    """Pooled micro-averaged agreement between dialogue and record."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    degenerate: bool  # some denominator was zero and the metric fell back to 0


@dataclass
class EvalReport:
    recall_at_k: dict[int, float]
    rediscovery: RediscoveryMetrics
    group_recall: dict[str, float]
    n_patients: int
    config_digest: str


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

# A question-selection policy decides for a batch of episodes at once:
# ``select_batch(inputs, masks, rngs)`` returns one question per row, and
# raises NoLegalAction for a row whose mask admits none
# (``consult_env._require_legal``). ``inputs`` are the episodes' kept input
# rows (``diagnosis.ConsultRows.inputs``), in the ranker's layout: its
# history width and dtype. A trained policy carries its ``history_width``,
# which ``check_models`` holds to the ranker's, and ``ontology_digest``; its
# net casts the rows to its own dtype. The baselines read no inputs. A policy
# that never draws from ``rngs`` says so with ``draws = False``, and
# ``cli.consult_repl`` then builds it no generator.

class GreedyModelPolicy:
    """Trained policy run greedily: argmax over the legal entries of each row
    of the net's float32 logits on the ``inputs`` rows.

    Ties break toward the lowest question id among equal legal logits. This
    is the argmax of ``inquiry.masked_softmax`` except where two different
    logits round to the same float64 probability, as logits 0 and 1e-45 do.
    Masks of another shape than the logits raise ShapeError.
    """

    draws = False

    def __init__(self, policy: InquiryPolicy):
        self.inner = policy
        self.ontology_digest = policy.ontology_digest
        self.history_width = policy.history_width

    def select_batch(self, inputs, masks, rngs) -> np.ndarray:
        logits = nncore.forward(self.inner.net, inputs)
        masks = np.asarray(masks, dtype=bool)
        if logits.shape != masks.shape:
            raise ShapeError(f"logits {logits.shape} and mask {masks.shape} differ")
        return np.where(_require_legal(masks), logits, -np.inf).argmax(axis=1)


class RandomLegalPolicy:
    """Uniform choice over whatever is currently legal."""

    def select_batch(self, inputs, masks, rngs) -> np.ndarray:
        masks = _require_legal(masks)
        nth = np.array([rng.integers(n) for n, rng in zip(masks.sum(axis=1).tolist(), rngs)])
        # Position of the nth legal question (0-based) in each row.
        return (masks.cumsum(axis=1) <= nth[:, None]).sum(axis=1)


class FixedOrderPolicy:
    """Asks the lowest-id legal question every round."""

    draws = False

    def select_batch(self, inputs, masks, rngs) -> np.ndarray:
        return _require_legal(masks).argmax(axis=1)


def baseline_policy(kind: str):
    if kind == RANDOM_LEGAL:
        return RandomLegalPolicy()
    if kind == FIXED_ORDER:
        return FixedOrderPolicy()
    raise ConfigError(f"unknown baseline kind {kind!r}")


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def check_models(policy, diag_model: DiagnosisModel, ontology: HpiOntology) -> None:
    """Raise DigestMismatch unless the ranker, and the policy if it is a
    trained one, were built against ``ontology``, and unless a trained
    policy reads histories as wide as the ranker's."""
    pairs = [("diagnosis model", diag_model.ontology_digest)]
    if getattr(policy, "ontology_digest", None) is not None:
        pairs.append(("policy", policy.ontology_digest))
    check_built_against(ontology, pairs)
    if getattr(policy, "history_width", None) not in (None, diag_model.history_width):
        raise DigestMismatch(f"policy history width {policy.history_width} != diagnosis model "
                             f"history width {diag_model.history_width}")


def consult_batch(
    policy,
    diag_model: DiagnosisModel,
    patients,
    ontology: HpiOntology,
    sim: PatientSim,
    horizon: int,
    rngs,
) -> list[DialogueTrace]:
    """Full consultations of all ``patients`` in lockstep, patient i drawing
    from ``rngs[i]``; one trace per patient, in order.

    Each round runs one blocked policy forward over the active episodes' kept
    input rows (``diagnosis.ConsultRows``), then reveals the (episode,
    element) pairs the step returns; the final ranking is one blocked ranker
    forward over every episode. A patient's trace is therefore the same bytes
    whatever the batch holds.
    """
    check_models(policy, diag_model, ontology)
    env = consult_env.Lockstep(patients, ontology, sim, rngs, horizon)
    kept = ConsultRows(diag_model, patients, env.status)
    rounds = [[] for _ in patients]
    while True:
        rows, mask = env.pending()
        if not len(rows):
            break
        ids = rows.tolist()
        actions = policy.select_batch(kept.inputs[rows], mask, [rngs[i] for i in ids])
        _, episodes, elements = env.step(actions)
        kept.reveal(episodes, elements)
        revealed = tuple(zip(elements.tolist(), env.status[episodes, elements].tolist()))
        ends = np.searchsorted(episodes, rows, side="right").tolist()
        for i, action, start, end in zip(ids, np.asarray(actions).tolist(), [0, *ends], ends):
            rounds[i].append((action, revealed[start:end]))
    rankings = rank_from_probs(kept.rank(slice(None))).tolist()
    return [
        DialogueTrace(
            patient_id=patient.id,
            rounds=tuple(rounds[i]),
            final_observation=env.status[i].copy(),
            ranking=tuple(rankings[i]),
            true_label=patient.label,
            horizon=horizon,
        )
        for i, patient in enumerate(patients)
    ]


def simulate_consultation(
    policy,
    diag_model: DiagnosisModel,
    patient: PatientRecord,
    ontology: HpiOntology,
    sim: PatientSim,
    horizon: int,
    rng: np.random.Generator,
) -> DialogueTrace:
    """One full consultation (the N=1 case of ``consult_batch``); stops early
    if no question remains legal."""
    return consult_batch(policy, diag_model, [patient], ontology, sim, horizon, [rng])[0]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def recall_at_k(traces, ks) -> dict[int, float]:
    """Fraction of traces whose true label lands in the top K of the ranking."""
    check_setting("ks", tuple(ks), "sizes", integral=True)
    traces = list(traces)
    if not traces:
        raise EmptyInput("no traces to score")
    out = {}
    for k in ks:
        hits = sum(1 for t in traces if t.true_label in t.ranking[: int(k)])
        out[int(k)] = hits / len(traces)
    return out


def rediscovery_metrics(traces, patients) -> RediscoveryMetrics:
    """Pooled counts of confirmed-vs-recorded positives across all dialogues,
    taken over the stacked (N, M) observation and record matrices.

    A zero denominator makes the affected metric 0 and sets ``degenerate``.
    Observations and records not all of one shape raise ShapeError.
    """
    traces = list(traces)
    patients = list(patients)
    if len(traces) != len(patients):
        raise PairingError(f"{len(traces)} traces paired with {len(patients)} patients")
    for trace, patient in zip(traces, patients):
        if trace.patient_id != patient.id:
            raise PairingError(
                f"trace for {trace.patient_id!r} paired with record {patient.id!r}"
            )
    shapes = {np.shape(t.final_observation) for t in traces}
    shapes |= {np.shape(p.hpi) for p in patients}
    if len(shapes) > 1:
        raise ShapeError(f"observations and records differ in shape: {sorted(shapes)}")
    tp = fp = fn = 0
    if traces:
        confirmed = np.stack([t.final_observation for t in traces]) == CONFIRMED
        positive = np.stack([p.hpi for p in patients]) == CONFIRMED
        tp = int(np.count_nonzero(confirmed & positive))
        fp = int(np.count_nonzero(confirmed)) - tp
        fn = int(np.count_nonzero(positive)) - tp
    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return RediscoveryMetrics(tp, fp, fn, precision, recall, f1, degenerate)


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------

def _config_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def evaluate(
    policy,
    diag_model: DiagnosisModel,
    dataset: PatientDataset,
    ontology: HpiOntology,
    sim: PatientSim = PatientSim(),
    horizon: int = 10,
    seed: int = 0,
    ks=(1, 3, 5),
    group_k: int = 1,
) -> tuple[EvalReport, list[DialogueTrace]]:
    """Consult every patient in the dataset once; patient i draws from stream
    i of ``patientgen.streams((seed,), ...)``. The report's ``group_recall``
    is recall@``group_k`` per true label. A cut-off, horizon or seed out of
    range raises ConfigError, and a dataset the ranker does not fit DigestMismatch."""
    if len(dataset) == 0:
        raise EmptyInput("empty evaluation dataset")
    check_dataset(diag_model, dataset, "evaluation dataset")
    check_setting("ks", tuple(ks), "sizes", integral=True)
    check_setting("group_k", group_k, "count", integral=True)
    rngs = streams((seed,), range(len(dataset)))
    traces = consult_batch(policy, diag_model, dataset.records, ontology, sim, horizon, rngs)
    recalls = recall_at_k(traces, ks)
    redisc = rediscovery_metrics(traces, dataset.records)

    groups: dict[str, list[DialogueTrace]] = {}
    for trace in traces:
        groups.setdefault(str(trace.true_label), []).append(trace)
    group_recall = {
        name: recall_at_k(members, [group_k])[group_k]
        for name, members in sorted(groups.items())
    }
    digest = _config_digest(
        {
            "disclosure": [sim.p1p, sim.p1n, sim.p2p, sim.p2n],
            "group_k": group_k,
            "horizon": horizon,
            "ks": [int(k) for k in ks],
            "n_patients": len(dataset),
            "noise": sim.noise,
            "ontology_digest": ontology.content_digest,
            "seed": seed,
            "unmentioned_answer": sim.unmentioned_answer,
        }
    )
    report = EvalReport(
        recall_at_k=recalls,
        rediscovery=redisc,
        group_recall=group_recall,
        n_patients=len(dataset),
        config_digest=digest,
    )
    return report, traces


# ---------------------------------------------------------------------------
# Bootstrap helper
# ---------------------------------------------------------------------------

def bootstrap_mean_diff(
    xs, ys, n_resamples: int = 1000, seed: int = 0, alpha: float = 0.05
) -> tuple[float, float, float]:
    """Paired percentile bootstrap for mean(xs) - mean(ys).

    Returns (mean difference, CI low, CI high). Inputs must be paired
    per-patient outcomes of equal length.
    """
    check_setting("n_resamples", n_resamples, "count", integral=True)
    check_setting("seed", seed, "non-negative", integral=True)
    check_setting("alpha", alpha, "rate", integral=False)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise PairingError(f"paired samples differ in shape: {xs.shape} vs {ys.shape}")
    if len(xs) == 0:
        raise EmptyInput("nothing to resample")
    diffs = xs - ys
    rng = np.random.default_rng([seed, len(xs)])
    idx = rng.integers(len(diffs), size=(n_resamples, len(diffs)))
    means = diffs[idx].mean(axis=1)
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(diffs.mean()), float(lo), float(hi)


# ---------------------------------------------------------------------------
# Reports and trace files
# ---------------------------------------------------------------------------

def _report_payload(report: EvalReport) -> dict:
    return {
        "recall_at_k": {str(k): v for k, v in sorted(report.recall_at_k.items())},
        "rediscovery": asdict(report.rediscovery),
        "group_recall": dict(sorted(report.group_recall.items())),
        "n_patients": report.n_patients,
        "config_digest": report.config_digest,
    }


def emit_report(report: EvalReport, path: str | Path, format: str = "json") -> None:
    """Write the report as JSON (lossless) or two-column CSV rows. A
    non-finite value raises NonFinite before the file is created."""
    if format not in ("json", "csv"):
        raise ConfigError(f"unknown report format {format!r}")
    payload = _report_payload(report)
    # The CSV rows come from the same payload, so this checks both formats.
    text = json_line(payload, "report", indent=2)
    with writing(path) as fh:
        if format == "json":
            fh.write(text)
        else:
            fh.write("metric,value\n")
            for k, v in payload["recall_at_k"].items():
                fh.write(f"recall_at_{k},{v:.6f}\n")
            for name in ("precision", "recall", "f1"):
                fh.write(f"rediscovery_{name},{payload['rediscovery'][name]:.6f}\n")
            for name, v in payload["group_recall"].items():
                fh.write(f"group_recall_{name},{v:.6f}\n")
            fh.write(f"n_patients,{report.n_patients}\n")
            fh.write(f"config_digest,{report.config_digest}\n")


# The fields of a report, of its rediscovery block and of a trace line, with
# their kinds (``errors.fields``).
_REPORT = {"recall_at_k": dict, "rediscovery": dict, "group_recall": dict,
           "n_patients": int, "config_digest": str}
_REDISCOVERY = {"tp": int, "fp": int, "fn": int, "precision": float, "recall": float,
                "f1": float, "degenerate": bool}
_TRACE = {"patient_id": str, "rounds": [list], "final_observation": [int], "ranking": [int],
          "true_label": int, "horizon": int}


def _rates(obj: dict, what: str) -> dict:
    """Every value of the JSON object ``obj``, a number in [0, 1]."""
    rates = fields(obj, dict.fromkeys(obj, float), what)
    bad = [k for k, v in rates.items() if not 0.0 <= v <= 1.0]
    if bad:
        raise ParseError(f"{what} has a malformed {bad[0]!r}: expected a rate in [0, 1]")
    return rates


def load_report(path: str | Path) -> EvalReport:
    """Read an ``emit_report`` JSON file. Anything else raises IoError or
    ParseError, as does a recall or rate outside [0, 1], a negative count, no
    patients, or a recall cut-off that is not a plain decimal >= 1."""
    what = f"report {path}"
    with reading(what):
        payload = fields(json.loads(Path(path).read_text(encoding="utf-8")), _REPORT, what)
        r = fields(payload["rediscovery"], _REDISCOVERY, f"{what} rediscovery")
        _rates({k: r[k] for k in ("precision", "recall", "f1")}, f"{what} rediscovery")
        if min(r["tp"], r["fp"], r["fn"]) < 0 or payload["n_patients"] < 1:
            raise ParseError(f"{what} holds a negative count or fewer than one patient")
        recall_at_k = _rates(payload["recall_at_k"], f"{what} recall_at_k")
        if not all(k.isascii() and k.isdigit() and k[0] != "0" for k in recall_at_k):
            raise ParseError(f"{what} has a recall_at_k key that is not a cut-off >= 1")
        return EvalReport(
            recall_at_k={int(k): v for k, v in recall_at_k.items()},
            rediscovery=RediscoveryMetrics(**r),
            group_recall=_rates(payload["group_recall"], f"{what} group_recall"),
            n_patients=payload["n_patients"],
            config_digest=payload["config_digest"],
        )


def save_traces(traces, path: str | Path) -> None:
    """JSON-lines dump, one consultation per line. A non-finite value raises
    NonFinite before the file is created."""
    lines = [
        json_line(
            {
                "patient_id": t.patient_id,
                "rounds": t.rounds,
                "final_observation": t.final_observation.tolist(),
                "ranking": t.ranking,
                "true_label": t.true_label,
                "horizon": t.horizon,
            },
            "a trace",
        )
        for t in traces
    ]
    with writing(path) as fh:
        fh.writelines(lines)


def _trace_problem(row: dict, rounds: tuple) -> str | None:
    """What in a trace line no ``save_traces`` call writes, or None. A slot
    changes only from unknown, so each revealed status is the final one."""
    final, ranking, label = row["final_observation"], row["ranking"], row["true_label"]
    if any(not 0 <= v <= 2 for v in final):
        return "observation entries must be 0, 1 or 2"
    if sorted(ranking) != list(range(len(ranking))):
        return f"ranking is not a permutation of 0..{len(ranking) - 1}"
    if not -1 <= label < len(ranking):
        return f"true_label {label} is outside [-1, {len(ranking)})"
    if not 0 <= len(rounds) <= row["horizon"]:
        return f"{len(rounds)} rounds do not fit horizon {row['horizon']}"
    for q, revealed in rounds:
        if q < 0:
            return f"question id {q} is negative"
        for e, s in revealed:
            if not 0 <= e < len(final):
                return f"revealed element {e} is outside [0, {len(final)})"
            if s not in (1, 2) or final[e] != s:
                return f"revealed status {s} of element {e} is not its final status {final[e]}"
    return None


def load_traces(path: str | Path) -> list[DialogueTrace]:
    """Read a ``save_traces`` JSON-lines file. Anything else raises IoError or
    ParseError, as does a line that no ``save_traces`` call writes
    (``_trace_problem``)."""
    traces = []
    with reading(f"traces {path}"), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            what = f"trace on line {lineno} of {path}"
            with reading(what):
                row = fields(json.loads(line), _TRACE, what)
                rounds = tuple(
                    (typed(q, int), tuple((e, s) for e, s in typed(revealed, [[int]])))
                    for q, revealed in row["rounds"]
                )
                problem = _trace_problem(row, rounds)
                if problem:
                    raise ParseError(f"{what}: {problem}")
                traces.append(DialogueTrace(**{
                    **row,
                    "rounds": rounds,
                    "final_observation": np.array(row["final_observation"], dtype=np.int8),
                }))
    return traces
