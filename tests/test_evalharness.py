"""Tests for consultation evaluation: traces, recall, rediscovery, reports."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inquest import consult_env, nncore
from inquest.consult_env import PatientSim
from inquest.diagnosis import (
    net_input,
    new_diagnosis_model,
    predict_batch,
    rank_from_probs,
)
from inquest.errors import (
    ConfigError,
    DigestMismatch,
    DomainError,
    EmptyInput,
    IoError,
    NoLegalAction,
    NonFinite,
    PairingError,
    ParseError,
    ShapeError,
)
from inquest.evalharness import (
    FIXED_ORDER,
    RANDOM_LEGAL,
    DialogueTrace,
    EvalReport,
    GreedyModelPolicy,
    RediscoveryMetrics,
    baseline_policy,
    bootstrap_mean_diff,
    consult_batch,
    emit_report,
    evaluate,
    load_report,
    load_traces,
    recall_at_k,
    rediscovery_metrics,
    save_traces,
    simulate_consultation,
)
from inquest.inquiry import masked_softmax, new_inquiry_policy
from inquest.patientgen import (
    PatientDataset,
    PatientRecord,
    benchmark_genmodel,
    encode_histories,
    full_evidence,
    generate_cohort,
    generate_ontology,
    streams,
    toy_genmodel,
    toy_ontology,
)

NO_DISCLOSURE = PatientSim(0.0, 0.0, 0.0, 0.0)


def make_trace(ranking, label, final=None, pid="p0", horizon=10, rounds=()):
    final = final if final is not None else np.zeros(4, dtype=np.int8)
    return DialogueTrace(
        patient_id=pid,
        rounds=tuple(rounds),
        final_observation=np.asarray(final, dtype=np.int8),
        ranking=tuple(ranking),
        true_label=label,
        horizon=horizon,
    )


@pytest.fixture(scope="module")
def toy_setup():
    onto = toy_ontology()
    ds = generate_cohort(toy_genmodel(onto), 50, seed=6)
    diag = new_diagnosis_model(8, 7, ds.disease_names, onto.content_digest, hidden=(16, 16))
    return onto, ds, diag


@pytest.fixture(scope="module")
def flat_setup():
    onto = generate_ontology(12, 0)
    rng = np.random.default_rng(1)
    records = [
        PatientRecord(
            f"p{i}", 30 + i, "male" if i % 2 else "female", (i % 2,),
            rng.choice(np.array([0, 1, 2], dtype=np.int8), size=12), i % 2,
        )
        for i in range(6)
    ]
    ds = PatientDataset(records, ("d0", "d1"), 12, onto.content_digest)
    diag = new_diagnosis_model(8, 12, ("d0", "d1"), onto.content_digest, hidden=(16, 16))
    return onto, ds, diag


# ---------------------------------------------------------------------------
# simulate_consultation
# ---------------------------------------------------------------------------

def test_zero_round_consultation_ranks_from_disclosure(toy_setup):
    onto, ds, diag = toy_setup
    trace = simulate_consultation(
        baseline_policy(RANDOM_LEGAL), diag, ds.records[0], onto,
        PatientSim(), 0, np.random.default_rng(0),
    )
    assert trace.rounds == ()
    assert trace.n_rounds == 0
    assert sorted(trace.ranking) == [0, 1, 2]
    assert trace.true_label == ds.records[0].label


def test_consultation_round_and_ranking_shapes(toy_setup):
    onto, ds, diag = toy_setup
    for i in range(10):
        trace = simulate_consultation(
            baseline_policy(RANDOM_LEGAL), diag, ds.records[i], onto,
            PatientSim(), 10, np.random.default_rng(i),
        )
        assert trace.n_rounds <= 10
        assert sorted(trace.ranking) == [0, 1, 2]
        assert trace.final_observation.shape == (7,)
        for question, revealed in trace.rounds:
            assert 0 <= question < onto.n_questions
            for element, status in revealed:
                assert trace.final_observation[element] in (1, 2)
                assert status in (1, 2)


def test_exhaustive_fixed_order_reveals_ground_truth(flat_setup):
    onto, ds, diag = flat_setup
    for patient in ds.records:
        trace = simulate_consultation(
            baseline_policy(FIXED_ORDER), diag, patient, onto,
            NO_DISCLOSURE, 12, np.random.default_rng(0),
        )
        assert trace.n_rounds == 12
        assert np.array_equal(trace.final_observation, full_evidence(patient.hpi))
    report = rediscovery_metrics(
        [
            simulate_consultation(
                baseline_policy(FIXED_ORDER), diag, p, onto,
                NO_DISCLOSURE, 12, np.random.default_rng(0),
            )
            for p in ds.records
        ],
        ds.records,
    )
    assert report.recall == 1.0
    assert report.precision == 1.0
    assert not report.degenerate


def test_consultation_reproducible(toy_setup):
    onto, ds, diag = toy_setup
    traces = [
        simulate_consultation(
            baseline_policy(RANDOM_LEGAL), diag, ds.records[3], onto,
            PatientSim(), 10, np.random.default_rng([4, 2]),
        )
        for _ in range(2)
    ]
    assert traces[0].rounds == traces[1].rounds
    assert np.array_equal(traces[0].final_observation, traces[1].final_observation)
    assert traces[0].ranking == traces[1].ranking


def test_consultation_digest_mismatch(toy_setup):
    onto, ds, diag = toy_setup
    bad = new_diagnosis_model(8, 7, ds.disease_names, "0" * 64, hidden=(16, 16))
    with pytest.raises(DigestMismatch):
        simulate_consultation(
            baseline_policy(RANDOM_LEGAL), bad, ds.records[0], onto,
            PatientSim(), 5, np.random.default_rng(0),
        )
    trained = new_inquiry_policy(8, 7, onto.n_questions, "0" * 64, hidden=(16, 16))
    with pytest.raises(DigestMismatch):
        simulate_consultation(
            GreedyModelPolicy(trained), diag, ds.records[0], onto,
            PatientSim(), 5, np.random.default_rng(0),
        )


def test_greedy_policy_runs_and_stays_legal(toy_setup):
    onto, ds, diag = toy_setup
    trained = new_inquiry_policy(8, 7, onto.n_questions, onto.content_digest, hidden=(16, 16))
    policy = GreedyModelPolicy(trained)
    trace = simulate_consultation(
        policy, diag, ds.records[0], onto, PatientSim(), 10,
        np.random.default_rng(3),
    )
    questions = [q for q, _ in trace.rounds]
    assert len(set(questions)) == len(questions)
    # fresh nets are uniform, so greedy tie-breaking walks ascending ids
    legal_first = [q for q in questions[:1]]
    assert legal_first == sorted(legal_first)


def _greedy_on_logits(monkeypatch, logits, masks):
    """``GreedyModelPolicy.select_batch`` with the policy net's forward
    replaced by ``logits``."""
    n, k = np.shape(logits)
    policy = new_inquiry_policy(2, 3, k, "digest", hidden=(4,))
    monkeypatch.setattr(nncore, "forward", lambda net, x: logits)
    return GreedyModelPolicy(policy).select_batch(np.zeros((n, 11), dtype=np.float32), masks, None)


def test_greedy_picks_equal_masked_softmax_argmax(monkeypatch):
    rng = np.random.default_rng(14)
    for trial in range(300):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        logits = (rng.standard_normal((n, k)) * rng.choice([1e-3, 1.0, 30.0])).astype(np.float32)
        masks = rng.random((n, k)) < rng.uniform(0.2, 1.0)
        masks[np.arange(n), rng.integers(0, k, size=n)] = True
        if trial % 3 == 0:
            # Some rows hold one value at every legal entry.
            tied = rng.random(n) < 0.5
            logits[tied] = np.float32(rng.standard_normal())
        if trial % 3 == 1:
            # The row's maximum sits only on illegal entries.
            top = logits.max(axis=1, keepdims=True) + np.float32(1.0)
            logits = np.where(masks, logits, top)
        want = masked_softmax(logits, masks).argmax(axis=1)
        got = _greedy_on_logits(monkeypatch, logits, masks)
        assert got.tolist() == want.tolist()


def test_greedy_ties_break_toward_the_lowest_legal_id(monkeypatch):
    logits = np.array([[5, 2, 2, 2], [2, 2, 2, 2]], dtype=np.float32)
    masks = np.array([[False, False, True, True], [True, True, True, True]])
    assert _greedy_on_logits(monkeypatch, logits, masks).tolist() == [2, 0]


def test_greedy_refuses_rows_without_a_legal_question_and_misshapen_masks(monkeypatch):
    logits = np.zeros((2, 4), dtype=np.float32)
    masks = np.ones((2, 4), dtype=bool)
    masks[1] = False
    with pytest.raises(NoLegalAction):
        _greedy_on_logits(monkeypatch, logits, masks)
    with pytest.raises(ShapeError):
        _greedy_on_logits(monkeypatch, logits, np.ones((2, 3), dtype=bool))


class SpyFixedOrder:
    """Picks as FixedOrder does and keeps a copy of every ``inputs`` block it
    reads."""

    def __init__(self):
        self.seen = []

    def select_batch(self, inputs, masks, rngs):
        self.seen.append(np.array(inputs))
        return baseline_policy(FIXED_ORDER).select_batch(inputs, masks, rngs)


def test_consult_batch_keeps_the_input_rows_that_net_input_rebuilds(monkeypatch, toy_setup):
    """The policy reads the rows in the ranker's layout."""
    onto, ds, _ = toy_setup
    ranker = new_diagnosis_model(8, 7, ds.disease_names, onto.content_digest, hidden=(16,))
    ranker.net.params[:] = np.random.default_rng(6).normal(size=ranker.net.params.size)
    spy = SpyFixedOrder()
    rounds = []  # the engine's own (rows, status) at each round
    pending = consult_env.Lockstep.pending

    def spy_pending(self):
        rows, mask = pending(self)
        rounds.append((rows.copy(), self.status[rows].copy()))
        return rows, mask

    monkeypatch.setattr(consult_env.Lockstep, "pending", spy_pending)
    sim = PatientSim(noise=0.3, unmentioned_answer="unknown")
    traces = consult_batch(spy, ranker, ds.records, onto, sim, 8, streams((4,), range(len(ds))))
    assert len(spy.seen) == len(rounds) - 1 > 1
    for inputs, (rows, status) in zip(spy.seen, rounds):
        expected = net_input(encode_histories([ds.records[i] for i in rows], 8), status,
                             ranker.net.dtype)
        assert inputs.dtype == expected.dtype and inputs.tobytes() == expected.tobytes()
    # Some rounds revealed nothing: their rows were left as they were.
    assert any(not revealed for t in traces for _, revealed in t.rounds)
    final = np.stack([t.final_observation for t in traces])
    probs = predict_batch(ranker, encode_histories(ds.records, 8), final)
    assert [t.ranking for t in traces] == [tuple(r) for r in rank_from_probs(probs).tolist()]


@pytest.mark.parametrize("width", [6, 10])
def test_consult_batch_refuses_a_policy_of_another_history_width(monkeypatch, toy_setup, width):
    onto, ds, diag = toy_setup
    policy = GreedyModelPolicy(
        new_inquiry_policy(width, 7, onto.n_questions, onto.content_digest, hidden=(16,)))
    played = []
    monkeypatch.setattr(consult_env.Lockstep, "pending", lambda self: played.append(1))
    with pytest.raises(DigestMismatch, match=f"history width {width} != .* 8"):
        consult_batch(policy, diag, ds.records, onto, PatientSim(), 5,
                      streams((0,), range(len(ds))))
    assert not played
# ---------------------------------------------------------------------------

def test_recall_single_trace_rank_three():
    trace = make_trace(ranking=(7, 4, 2, 0, 1, 3, 5, 6), label=2)
    out = recall_at_k([trace], (1, 3, 5))
    assert out == {1: 0.0, 3: 1.0, 5: 1.0}


def test_recall_three_traces_k5():
    d = 12
    order = list(range(d))

    def rank_with_label_at(pos, label):
        rest = [x for x in order if x != label]
        return tuple(rest[: pos - 1] + [label] + rest[pos - 1 :])

    traces = [
        make_trace(rank_with_label_at(1, 0), 0),
        make_trace(rank_with_label_at(4, 1), 1),
        make_trace(rank_with_label_at(11, 2), 2),
    ]
    assert recall_at_k(traces, [5])[5] == pytest.approx(2.0 / 3.0)
    assert recall_at_k(traces, [d])[d] == 1.0


def test_recall_monotone_in_k():
    rng = np.random.default_rng(3)
    traces = [
        make_trace(tuple(rng.permutation(9)), int(rng.integers(9))) for _ in range(40)
    ]
    values = recall_at_k(traces, range(1, 10))
    series = [values[k] for k in range(1, 10)]
    assert all(a <= b for a, b in zip(series, series[1:]))
    assert series[-1] == 1.0


def test_recall_empty_input():
    with pytest.raises(EmptyInput):
        recall_at_k([], (1, 3))


# ---------------------------------------------------------------------------
# rediscovery_metrics
# ---------------------------------------------------------------------------

def flat_patient(pid, hpi):
    return PatientRecord(pid, 40, "male", (0,), np.asarray(hpi, dtype=np.int8), 0)


def test_rediscovery_recall_three_quarters():
    patient = flat_patient("p0", [1, 1, 1, 1, 0, 2])
    trace = make_trace(
        ranking=(0, 1), label=0, final=[1, 1, 1, 0, 0, 2], pid="p0"
    )
    m = rediscovery_metrics([trace], [patient])
    assert m.tp == 3 and m.fp == 0 and m.fn == 1
    assert m.recall == 0.75
    assert m.precision == 1.0
    assert not m.degenerate


def test_rediscovery_f1_harmonic_mean():
    # pooled counts: tp=12, fp=3, fn=8 -> precision 0.8, recall 0.6
    patient = flat_patient("p0", [1] * 20 + [0] * 15)
    final = [1] * 12 + [0] * 8 + [1] * 3 + [0] * 12
    trace = make_trace(ranking=(0, 1), label=0, final=final, pid="p0")
    m = rediscovery_metrics([trace], [patient])
    assert m.precision == pytest.approx(0.8)
    assert m.recall == pytest.approx(0.6)
    assert m.f1 == pytest.approx(2 * 0.8 * 0.6 / 1.4, abs=1e-12)


def test_rediscovery_zero_denominators_flagged():
    patient = flat_patient("p0", [0, 2, 0])
    trace = make_trace(ranking=(0, 1), label=0, final=[0, 2, 0], pid="p0")
    m = rediscovery_metrics([trace], [patient])
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
    assert m.degenerate


def test_rediscovery_pairing_errors():
    patient = flat_patient("p0", [1, 0])
    trace = make_trace(ranking=(0, 1), label=0, final=[1, 0], pid="other")
    with pytest.raises(PairingError):
        rediscovery_metrics([trace], [patient])
    with pytest.raises(PairingError):
        rediscovery_metrics([trace], [])


def _reference_counts(traces, patients):
    tp = fp = fn = 0
    for trace, patient in zip(traces, patients):
        for seen, recorded in zip(trace.final_observation.tolist(), patient.hpi.tolist()):
            tp += seen == 1 and recorded == 1
            fp += seen == 1 and recorded != 1
            fn += seen != 1 and recorded == 1
    return tp, fp, fn


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_rediscovery_counts_equal_a_per_trace_reference(n):
    rng = np.random.default_rng(n)
    patients = [flat_patient(f"p{i}", rng.integers(0, 3, size=9)) for i in range(n)]
    traces = [make_trace((0, 1), 0, rng.integers(0, 3, size=9), pid=f"p{i}")
              for i in range(n)]
    m = rediscovery_metrics(traces, patients)
    assert (m.tp, m.fp, m.fn) == _reference_counts(traces, patients)
    assert m.degenerate == (m.tp == 0)


def test_rediscovery_checks_pairing_before_counting():
    patients = [flat_patient("p0", [1, 0]), flat_patient("p1", [1, 0])]
    traces = [make_trace((0, 1), 0, [1, 0], pid="p0"),
              make_trace((0, 1), 0, [1, 0, 2], pid="p9")]
    with pytest.raises(PairingError, match="p9"):
        rediscovery_metrics(traces, patients)
    with pytest.raises(PairingError, match="2 traces paired with 1"):
        rediscovery_metrics(traces, patients[:1])
    with pytest.raises(ShapeError):
        rediscovery_metrics(traces[:1], [flat_patient("p0", [1, 0, 0])])
    with pytest.raises(ShapeError):
        rediscovery_metrics([traces[0], make_trace((0, 1), 0, [1, 0, 2], pid="p1")], patients)


def test_noise_free_precision_is_exact_for_any_policy(toy_setup):
    onto, ds, diag = toy_setup
    for kind in (RANDOM_LEGAL, FIXED_ORDER):
        traces = [
            simulate_consultation(
                baseline_policy(kind), diag, p, onto, PatientSim(), 10,
                np.random.default_rng([7, i]),
            )
            for i, p in enumerate(ds.records)
        ]
        m = rediscovery_metrics(traces, ds.records)
        assert m.fp == 0
        assert m.precision == 1.0


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def test_random_legal_single_action():
    policy = baseline_policy(RANDOM_LEGAL)
    mask = np.zeros(9, dtype=bool)
    mask[6] = True
    rng = np.random.default_rng(0)
    assert all(policy.select_batch(None, mask[None], [rng])[0] == 6 for _ in range(10))


def test_fixed_order_always_legal():
    policy = baseline_policy(FIXED_ORDER)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        mask = rng.random(30) < 0.3
        if not mask.any():
            mask[int(rng.integers(30))] = True
        action = policy.select_batch(None, mask[None], [rng])[0]
        assert mask[action]
        assert action == int(np.flatnonzero(mask)[0])


def test_random_legal_reproducible():
    policy = baseline_policy(RANDOM_LEGAL)
    mask = np.ones(14, dtype=bool)
    seq1 = [policy.select_batch(None, mask[None], [np.random.default_rng(8)])[0]
            for _ in range(1)]
    seq2 = [policy.select_batch(None, mask[None], [np.random.default_rng(8)])[0]
            for _ in range(1)]
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    seq1 += [policy.select_batch(None, mask[None], [rng1])[0] for _ in range(20)]
    seq2 += [policy.select_batch(None, mask[None], [rng2])[0] for _ in range(20)]
    assert seq1 == seq2


@pytest.mark.parametrize("kind", ["Greedy", RANDOM_LEGAL, FIXED_ORDER])
def test_every_policy_refuses_a_row_without_a_legal_question(kind):
    if kind == "Greedy":
        policy = GreedyModelPolicy(new_inquiry_policy(2, 3, 4, "digest", hidden=(4,)))
    else:
        policy = baseline_policy(kind)
    masks = np.array([[False, False, False, True], [False, False, False, False]])

    def select(rows):
        return policy.select_batch(np.zeros((len(rows), 11), dtype=np.float32), masks[rows],
                                   [np.random.default_rng(i) for i in rows])

    assert select([0]).tolist() == [3]
    with pytest.raises(NoLegalAction):
        select([0, 1])


def test_unknown_baseline_kind():
    with pytest.raises(ConfigError):
        baseline_policy("Oracle")


# ---------------------------------------------------------------------------
# evaluate + reports
# ---------------------------------------------------------------------------

def test_evaluate_end_to_end(toy_setup):
    onto, ds, diag = toy_setup
    report, traces = evaluate(
        baseline_policy(RANDOM_LEGAL), diag, ds, onto, horizon=10, seed=2,
    )
    assert report.n_patients == 50 and len(traces) == 50
    assert set(report.recall_at_k) == {1, 3, 5}
    rs = [report.recall_at_k[k] for k in (1, 3, 5)]
    assert all(0.0 <= r <= 1.0 for r in rs)
    assert rs[0] <= rs[1] <= rs[2]
    assert rs[2] == 1.0  # K=D on the toy model
    assert report.rediscovery.precision == 1.0
    assert set(report.group_recall) <= {"0", "1", "2"}
    assert len(report.config_digest) == 64

    again, _ = evaluate(baseline_policy(RANDOM_LEGAL), diag, ds, onto, horizon=10, seed=2)
    assert again.recall_at_k == report.recall_at_k
    assert again.config_digest == report.config_digest


def test_int_and_float_rates_give_one_config_digest(toy_setup):
    onto, ds, diag = toy_setup
    digests = [evaluate(baseline_policy(FIXED_ORDER), diag, ds, onto, sim=sim, horizon=2)[0]
               .config_digest for sim in (PatientSim(p1p=1, noise=0), PatientSim(p1p=1.0))]
    assert digests[0] == digests[1]


def test_evaluate_refuses_a_dataset_of_other_diseases(toy_setup):
    onto, ds, diag = toy_setup
    five = generate_cohort(benchmark_genmodel(onto, n_diseases=5, n_flags=2), 60, seed=2)
    with pytest.raises(DigestMismatch, match="evaluation dataset"):
        evaluate(baseline_policy(RANDOM_LEGAL), diag, five, onto)


def test_group_recall_is_recall_at_group_k_per_true_label(toy_setup):
    onto, ds, diag = toy_setup
    report, traces = evaluate(baseline_policy(FIXED_ORDER), diag, ds, onto, horizon=5, seed=0,
                              group_k=2)
    labels = sorted({t.true_label for t in traces})
    assert report.group_recall == {
        str(d): recall_at_k([t for t in traces if t.true_label == d], [2])[2] for d in labels}


def test_report_json_round_trip(tmp_path, toy_setup):
    onto, ds, diag = toy_setup
    report, _ = evaluate(baseline_policy(RANDOM_LEGAL), diag, ds, onto, seed=1)
    path = tmp_path / "report.json"
    emit_report(report, path, "json")
    loaded = load_report(path)
    assert loaded.recall_at_k == report.recall_at_k
    assert loaded.rediscovery == report.rediscovery
    assert loaded.group_recall == report.group_recall
    assert loaded.n_patients == report.n_patients
    assert loaded.config_digest == report.config_digest


@pytest.mark.parametrize("format", ["json", "csv"])
def test_report_refuses_non_finite_values(tmp_path, toy_setup, format):
    onto, ds, diag = toy_setup
    report, _ = evaluate(baseline_policy(RANDOM_LEGAL), diag, ds, onto, seed=1)
    report.recall_at_k[1] = float("nan")
    path = tmp_path / f"report.{format}"
    with pytest.raises(NonFinite):
        emit_report(report, path, format)
    assert not path.exists()


def test_report_csv_rows(tmp_path, toy_setup):
    onto, ds, diag = toy_setup
    report, _ = evaluate(baseline_policy(RANDOM_LEGAL), diag, ds, onto, seed=1)
    path = tmp_path / "report.csv"
    emit_report(report, path, "csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,value"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert float(rows["recall_at_1"]) == pytest.approx(report.recall_at_k[1], abs=1e-6)
    assert float(rows["rediscovery_precision"]) == pytest.approx(1.0)
    assert int(rows["n_patients"]) == 50
    assert rows["config_digest"] == report.config_digest


def test_report_io_error(tmp_path, toy_setup):
    onto, ds, diag = toy_setup
    report, _ = evaluate(baseline_policy(FIXED_ORDER), diag, ds, onto, seed=1)
    with pytest.raises(IoError):
        emit_report(report, tmp_path, "json")  # a directory is not writable as a file
    with pytest.raises(ConfigError):
        emit_report(report, tmp_path / "r.bin", "parquet")
    with pytest.raises(IoError):
        load_report(tmp_path / "missing.json")


def test_report_parse_guards(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_report(path)
    path.write_text('{"recall_at_k": {}}', encoding="utf-8")
    with pytest.raises(ParseError):
        load_report(path)


def _set(*keys, value):
    def edit(payload):
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set("recall_at_k", value={"1_0": 0.5}),  # int() reads it as 10
    _set("recall_at_k", value={" 1": 0.5}),
    _set("recall_at_k", value={"-1": 0.5}),
    _set("recall_at_k", value={"0": 0.5}),
    _set("recall_at_k", value={"1": 0.5, "01": 0.9}),  # would collapse to {1: 0.9}
    _set("recall_at_k", "1", value=1.5),
    _set("group_recall", "g", value=-0.25),
    _set("rediscovery", "tp", value=-3),
    _set("rediscovery", "fn", value=-1),
    _set("rediscovery", "precision", value=7.5),
    _set("rediscovery", "f1", value=-0.5),
    _set("n_patients", value=-4),
    _set("n_patients", value=0),
], ids=["key-1_0", "key-space-1", "key-minus-1", "key-0", "keys-1-and-01", "recall-1.5",
        "group-recall-negative", "tp-negative", "fn-negative", "precision-7.5", "f1-negative",
        "n-patients-negative", "n-patients-0"])
def test_report_values_out_of_their_range_are_refused(tmp_path, edit):
    report = EvalReport({1: 0.5, 10: 0.75}, RediscoveryMetrics(1, 1, 1, 0.5, 0.5, 0.5, False),
                        {"g": 0.5}, 2, "digest")
    path = tmp_path / "report.json"
    emit_report(report, path, "json")
    assert load_report(path) == report
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError):
        load_report(path)


def test_trace_jsonl_round_trip(tmp_path, toy_setup):
    onto, ds, diag = toy_setup
    _, traces = evaluate(baseline_policy(RANDOM_LEGAL), diag, ds, onto, seed=3)
    path = tmp_path / "traces.jsonl"
    save_traces(traces, path)
    loaded = load_traces(path)
    assert len(loaded) == len(traces)
    for a, b in zip(traces, loaded):
        assert a.patient_id == b.patient_id
        assert a.rounds == b.rounds
        assert np.array_equal(a.final_observation, b.final_observation)
        assert a.ranking == b.ranking
        assert a.true_label == b.true_label
        assert a.horizon == b.horizon
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_traces(path)


# One edit each to a valid trace line (3 diseases, 3 elements, horizon 5),
# giving a line that no ``save_traces`` call writes.
_BAD_TRACE_EDITS = [
    ("ranking", [7, 7, -1], "not a permutation"),
    ("ranking", [0, 1, 1], "not a permutation"),
    ("true_label", -5, "true_label -5"),
    ("true_label", 3, "true_label 3"),
    ("horizon", -2, "horizon -2"),
    ("horizon", 0, "1 rounds do not fit horizon 0"),
    ("rounds", [[-1, [[1, 1]]]], "question id -1"),
    ("rounds", [[0, [[50, 9]]]], "element 50"),
    ("rounds", [[0, [[1, 9]]]], "status 9"),
    ("rounds", [[0, [[1, 2]]]], "status 2 of element 1"),
]


@pytest.mark.parametrize("key, value, match", _BAD_TRACE_EDITS,
                         ids=[f"{key}={value}" for key, value, _ in _BAD_TRACE_EDITS])
def test_load_traces_refuses_lines_no_writer_makes(tmp_path, key, value, match):
    trace = DialogueTrace("p0", ((4, ((1, 1), (2, 2))),), np.array([0, 1, 2], dtype=np.int8),
                          (2, 0, 1), -1, 5)
    path = tmp_path / "traces.jsonl"
    save_traces([trace], path)
    assert load_traces(path)[0].rounds == trace.rounds  # -1, a human transcript's label
    row = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**row, key: value}) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"line 1 of .*{match}"):
        load_traces(path)


def reference_save_traces(traces, path):
    """One ``json.dumps`` per trace, every field converted to lists: the
    bytes ``save_traces`` must write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for t in traces:
            fh.write(json.dumps({
                "patient_id": t.patient_id,
                "rounds": [[q, [[e, s] for e, s in revealed]] for q, revealed in t.rounds],
                "final_observation": t.final_observation.tolist(),
                "ranking": list(t.ranking),
                "true_label": t.true_label,
                "horizon": t.horizon,
            }, sort_keys=True, separators=(",", ":")) + "\n")


@st.composite
def random_traces(draw):
    """Traces as ``consult_batch`` and ``load_traces`` build them (tuples
    throughout), with ids that need escaping, empty rounds and -1 labels."""
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    traces = []
    for _ in range(draw(st.integers(0, 4))):
        horizon = draw(st.integers(0, 20))
        pair = st.tuples(st.integers(0, m - 1), st.sampled_from([1, 2]))
        rounds = draw(st.lists(
            st.tuples(st.integers(0, 99), st.lists(pair, max_size=4).map(tuple)),
            max_size=horizon))
        traces.append(DialogueTrace(
            patient_id=draw(st.one_of(st.sampled_from(['"', "é", 'p"é\\0', ""]), st.text())),
            rounds=tuple(rounds),
            final_observation=np.array(draw(st.lists(st.integers(0, 2), min_size=m,
                                                     max_size=m)), dtype=np.int8),
            ranking=tuple(draw(st.permutations(range(d)))),
            true_label=draw(st.integers(-1, d - 1)),
            horizon=horizon,
        ))
    return traces


@settings(max_examples=200, deadline=None)
@given(random_traces())
def test_save_traces_matches_per_trace_json_dumps(tmp_path_factory, traces):
    tmp = tmp_path_factory.mktemp("traces")
    save_traces(traces, tmp / "got.jsonl")
    reference_save_traces(traces, tmp / "want.jsonl")
    assert (tmp / "got.jsonl").read_bytes() == (tmp / "want.jsonl").read_bytes()


def test_save_traces_refuses_non_finite_values(tmp_path, toy_setup):
    onto, ds, diag = toy_setup
    _, traces = evaluate(baseline_policy(RANDOM_LEGAL), diag, ds, onto, seed=3)
    traces[-1] = dataclasses.replace(traces[-1], horizon=float("inf"))
    path = tmp_path / "traces.jsonl"
    with pytest.raises(NonFinite):
        save_traces(traces, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# Bootstrap helper
# ---------------------------------------------------------------------------

def test_bootstrap_separated_samples():
    xs = np.ones(80)
    ys = np.zeros(80)
    diff, lo, hi = bootstrap_mean_diff(xs, ys, seed=4)
    assert diff == 1.0 and lo == 1.0 and hi == 1.0


def test_bootstrap_contains_true_difference():
    rng = np.random.default_rng(10)
    xs = rng.normal(0.6, 0.1, size=400)
    ys = rng.normal(0.4, 0.1, size=400)
    diff, lo, hi = bootstrap_mean_diff(xs, ys, seed=4)
    assert lo < diff < hi
    assert lo > 0.0  # clearly separated means stay significant
    again = bootstrap_mean_diff(xs, ys, seed=4)
    assert again == (diff, lo, hi)


def test_bootstrap_input_guards():
    with pytest.raises(PairingError):
        bootstrap_mean_diff(np.ones(3), np.ones(4))
    with pytest.raises(EmptyInput):
        bootstrap_mean_diff(np.array([]), np.array([]))


@pytest.mark.parametrize("argument, value, says", [
    ("n_resamples", 0, "an integer >= 1"), ("n_resamples", 2.5, "an integer >= 1"),
    ("seed", -1, "non-negative"), ("seed", True, "non-negative"),
    ("alpha", 2.0, r"in \[0, 1\]"), ("alpha", float("nan"), r"in \[0, 1\]"),
])
def test_bootstrap_arguments_meet_their_rules(argument, value, says):
    with pytest.raises(DomainError, match=f"^{argument} must be {says}, got "):
        bootstrap_mean_diff(np.ones(5), np.zeros(5), **{argument: value})
