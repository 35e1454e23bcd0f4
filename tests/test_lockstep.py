"""Lockstep engine: batched rules against straight-line oracles, and
byte-identical results whatever the batch size."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inquest import nncore
from inquest.consult_env import (
    UNKNOWN,
    UNMENTIONED_DENIED,
    UNMENTIONED_UNKNOWN,
    EnvState,
    Lockstep,
    PatientSim,
    StepFindings,
    legal_actions,
    step,
)
from inquest.diagnosis import new_diagnosis_model
from inquest.errors import EmptyDataset, IllegalAction
from inquest.evalharness import (
    GreedyModelPolicy,
    RandomLegalPolicy,
    consult_batch,
    evaluate,
    save_traces,
    simulate_consultation,
)
from inquest.inquiry import RewardParams, collect_rollouts, new_inquiry_policy, new_value_net
from inquest.ontology import FIRST
from inquest.patientgen import (
    CONFIRMED,
    DENIED,
    PatientDataset,
    benchmark_genmodel,
    benchmark_ontology,
    generate_cohort,
    toy_genmodel,
    toy_ontology,
)

WIDTH = 16


SHAPES = {"toy": toy_ontology(), "desk": benchmark_ontology()}
COHORTS = {
    "toy": generate_cohort(toy_genmodel(SHAPES["toy"]), 60, seed=3),
    "desk": generate_cohort(benchmark_genmodel(SHAPES["desk"]), 60, seed=3),
}


# ---------------------------------------------------------------------------
# Straight-line oracles: one element and one question at a time
# ---------------------------------------------------------------------------

def oracle_legal(onto, status, asked):
    legal = np.zeros(onto.n_questions, dtype=bool)
    for q in onto.questions:
        if asked[q.id]:
            continue
        gated = any(
            onto.parent_of(t) is not None and status[onto.parent_of(t)] != CONFIRMED
            for t in q.targets
        )
        fresh = any(status[t] == UNKNOWN for t in q.targets)
        legal[q.id] = not gated and fresh
    return legal


def oracle_step(onto, status, question, hpi, noise, rng, mode):
    status = status.copy()
    counts = {1: [0, 0], 2: [0, 0]}
    for t in sorted(onto.questions[question].targets):
        if status[t] != UNKNOWN:
            continue
        if hpi[t] == CONFIRMED:
            revealed = CONFIRMED
        elif hpi[t] == DENIED or mode == UNMENTIONED_DENIED:
            revealed = DENIED
        else:
            continue
        if noise > 0.0 and rng.random() < noise:
            revealed = DENIED if revealed == CONFIRMED else CONFIRMED
        status[t] = revealed
        level = onto.elements[t].level
        counts[level][0 if revealed == CONFIRMED else 1] += 1
        if level == FIRST and revealed == DENIED:
            for child in onto.children_of(t):
                if status[child] == UNKNOWN:
                    status[child] = DENIED
    return status, [counts[1][0], counts[1][1], counts[2][0], counts[2][1]]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    noise=st.sampled_from([0.0, 0.3]),
    mode=st.sampled_from([UNMENTIONED_DENIED, UNMENTIONED_UNKNOWN]),
)
def test_batched_legality_and_step_match_straight_line_oracle(shape, seed, n, noise, mode):
    onto, cohort = SHAPES[shape], COHORTS[shape]
    draw = np.random.default_rng(seed)
    patients = [cohort.records[i] for i in draw.integers(len(cohort), size=n)]
    rngs = [np.random.default_rng([seed, i]) for i in range(n)]
    env = Lockstep(patients, onto, PatientSim(noise=noise, unmentioned_answer=mode), rngs,
                   horizon=50)
    env.status[:] = draw.integers(0, 3, size=env.status.shape)
    env.asked[:] = draw.random(env.asked.shape) < 0.3
    status, asked = env.status.copy(), env.asked.copy()

    rows, mask = env.pending()
    want = np.array([oracle_legal(onto, status[i], asked[i]) for i in range(n)])
    assert rows.tolist() == np.flatnonzero(want.any(axis=1)).tolist()
    assert np.array_equal(mask, want[rows])
    if not len(rows):
        return
    actions = np.array([draw.choice(np.flatnonzero(m)) for m in mask])
    oracle_rngs = [np.random.default_rng([seed, i]) for i in range(n)]
    for g in oracle_rngs:  # past the disclosure draw, as the engine's streams are
        g.random(onto.n_elements)
    findings, changed = env.step(actions)
    assert changed.tolist() == np.flatnonzero(env.status[rows] != status[rows]).tolist()
    for j, i in enumerate(rows):
        want_status, want_counts = oracle_step(onto, status[i], actions[j], patients[i].hpi,
                                               noise, oracle_rngs[i], mode)
        assert np.array_equal(env.status[i], want_status)
        assert findings[j].tolist() == want_counts
        assert env.asked[i, actions[j]]
    for i in range(n):  # same stream position: nothing drawn beyond the oracle's
        assert rngs[i].random() == oracle_rngs[i].random()


def test_lockstep_step_rejects_illegal_or_unrequested_actions():
    onto, cohort = SHAPES["toy"], COHORTS["toy"]
    env = Lockstep(cohort.records[:2], onto, PatientSim(0, 0, 0, 0),
                   [np.random.default_rng(i) for i in range(2)], horizon=5)
    with pytest.raises(IllegalAction):
        env.step([0, 0])  # pending() not called yet
    rows, mask = env.pending()
    illegal = int(np.flatnonzero(~mask[0])[0]) if (~mask[0]).any() else None
    if illegal is not None:
        with pytest.raises(IllegalAction):
            env.step([illegal, int(np.flatnonzero(mask[1])[0])])
    # Out of range: -1 must not wrap round to question K-1, which is legal
    # here, and K must not escape as an IndexError.
    record = next(r for r in cohort.records if r.id == "p000002")
    for action in (-1, onto.n_questions):
        env = Lockstep([record], onto, PatientSim(1, 0, 0, 0), [np.random.default_rng(0)],
                       horizon=5)
        _, mask = env.pending()
        assert mask[0, -1]
        with pytest.raises(IllegalAction):
            env.step([action])
        assert not env.asked.any()


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 0.3]),
    mode=st.sampled_from([UNMENTIONED_DENIED, UNMENTIONED_UNKNOWN]),
)
def test_single_episode_step_follows_the_lockstep_rule(shape, seed, noise, mode):
    """``step`` refuses exactly the questions that are out of range or not in
    ``legal_actions``, and a legal one gives what a one-row ``Lockstep`` set
    to the same state gives."""
    onto, cohort = SHAPES[shape], COHORTS[shape]
    draw = np.random.default_rng(seed)
    patient = cohort.records[int(draw.integers(len(cohort)))]
    status = draw.integers(0, 3, size=onto.n_elements).astype(np.int8)
    asked = draw.random(onto.n_questions) < 0.3
    state = EnvState(status, frozenset(np.flatnonzero(asked).tolist()), 0, patient.id, 10)
    mask = legal_actions(state, onto)
    for q in range(-1, onto.n_questions + 1):
        rng = np.random.default_rng([seed, q + 1])
        rng.random(onto.n_elements)  # past the disclosure draw, as the engine's stream is
        if not (0 <= q < onto.n_questions and mask[q]):
            with pytest.raises(IllegalAction):
                step(state, q, patient, onto, noise, rng, mode)
            continue
        after, findings = step(state, q, patient, onto, noise, rng, mode)
        env = Lockstep([patient], onto, PatientSim(noise=noise, unmentioned_answer=mode),
                       [np.random.default_rng([seed, q + 1])], horizon=10)
        env.status[:] = status
        env.asked[:] = asked
        _, pending_mask = env.pending()
        assert np.array_equal(pending_mask[0], mask)
        want, _ = env.step([q])
        assert np.array_equal(after.status, env.status[0])
        assert findings == StepFindings(*want[0].tolist())
        assert after.asked == state.asked | {q} and after.t == 1


# ---------------------------------------------------------------------------
# Row invariance of the blocked forward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [
    (11 + 270, 64, 64, 100),  # desk policy
    (11 + 270, 64, 64, 1),  # desk value net
    (11 + 270, 128, 128, 100),  # a wider policy net
    (11 + 270, 128, 128, 1),  # a wider value net
    (11 + 270, 128, 128, 20),  # desk ranker
    (11 + 270, 256, 256, 20),  # a wider ranker
])
def test_blocked_forward_is_row_invariant(dims):
    head = nncore.HEAD_SCALAR if dims[-1] == 1 else nncore.HEAD_LOGITS
    x = np.random.default_rng(5).standard_normal((130, dims[0]))
    for dtype in (nncore.NET_DTYPE, np.float64):  # the model nets' and the default
        net = nncore.init_dense(dims, head, seed=4, zero_output=False, dtype=dtype)
        alone = np.stack([nncore.forward(net, x[i : i + 1])[0] for i in range(130)])
        assert alone.dtype == dtype
        for n in range(1, 131):
            assert nncore.forward(net, x[:n]).tobytes() == alone[:n].tobytes(), n
        assert nncore.forward(net, x[::-1]).tobytes() == alone[::-1].tobytes()


# sha256 over ``forward``'s outputs for n = 1, 3, 4, 5, 8, 9, 64 and 100 rows
# (scipy-openblas 0.3.31, Haswell kernels, 1 BLAS thread): the desk policy and
# value nets (64-wide) taken with 4-row blocks, the wider policy and value nets
# and the desk ranker (128-wide) with 8-row blocks. Row invariance holds within
# one block size; these pin the bytes across a change of ``BLOCK_ROWS``.
FORWARD_GOLDEN = {
    ((281, 64, 64, 100), "float32"): "d5e7bb732bf3fd8882ad4d8c88e48841e364417cd96890f30b0933085bd4003a",
    ((281, 64, 64, 100), "float64"): "16f13dcfe0116853a2b1ce9c86462266deb6adac096e1b954a0262f385a57508",
    ((281, 64, 64, 1), "float32"): "46bc58893584a9d315598fe2b84fce4c7f91df131d409fd629fc6dccb30e7469",
    ((281, 64, 64, 1), "float64"): "acfb9428cfbe4f53da5bd37b7e1aba7ae9a20766f42da59fc05c69ad86f5fdce",
    ((281, 128, 128, 100), "float32"): "830c1c3c1626c79a25473781fc268e1c0c51e650455a2bde61e2080d8adb3cc9",
    ((281, 128, 128, 100), "float64"): "797bf096ea19dad08edc8560502417e3a41502c33a11d28f48e023ac4b7ff1c1",
    ((281, 128, 128, 1), "float32"): "da0db091eb70a45d995fe970d076aecf73573d42b7d5aaba78ff19c217529739",
    ((281, 128, 128, 1), "float64"): "b1524591da25ef4eb831f1b0ca5c162014db771ac93dddee829116adabaa7f2d",
    ((281, 128, 128, 20), "float32"): "64effb4d3ba06d7fa30c010900af70d29d8a6465b6a4a36f9a597d0429152a93",
    ((281, 128, 128, 20), "float64"): "e878cbeb71d8cba30baf3cbd59ea2bf3d0c5265e48c232627927a903da42edf1",
}


@pytest.mark.parametrize("dims, dtype", list(FORWARD_GOLDEN))
def test_blocked_forward_keeps_its_pinned_bytes(dims, dtype):
    head = nncore.HEAD_SCALAR if dims[-1] == 1 else nncore.HEAD_LOGITS
    x = np.random.default_rng(6).standard_normal((100, dims[0]))
    net = nncore.init_dense(dims, head, seed=7, zero_output=False, dtype=np.dtype(dtype))
    digest = hashlib.sha256()
    for n in (1, 3, 4, 5, 8, 9, 64, 100):
        digest.update(nncore.forward(net, x[:n]).tobytes())
    assert digest.hexdigest() == FORWARD_GOLDEN[dims, dtype]


# ---------------------------------------------------------------------------
# Same bytes whatever N is
# ---------------------------------------------------------------------------

def _random_heads(net, seed):
    """Untrained nets start with a zero output layer; randomize it so argmax
    and rankings depend on the input."""
    rng = np.random.default_rng(seed)
    net.weights[-1][...] = rng.standard_normal(net.weights[-1].shape)
    return net


@pytest.fixture(scope="module")
def desk_nets():
    onto = SHAPES["desk"]
    ds = generate_cohort(benchmark_genmodel(onto), 100, seed=8)
    diag = new_diagnosis_model(WIDTH, ds.m, ds.disease_names, onto.content_digest,
                               hidden=(32, 32), seed=1)
    policy = new_inquiry_policy(WIDTH, ds.m, onto.n_questions, onto.content_digest,
                                hidden=(32, 32), seed=2)
    value = new_value_net(WIDTH, ds.m, onto.content_digest, hidden=(32, 32), seed=3)
    for i, model in enumerate((diag, policy, value)):
        _random_heads(model.net, i)
    return onto, ds, diag, policy, value


@pytest.mark.parametrize("make_policy", [GreedyModelPolicy, lambda _: RandomLegalPolicy()])
def test_consultation_alone_matches_consultation_in_dataset(desk_nets, tmp_path, make_policy):
    onto, ds, diag, policy, _ = desk_nets
    chosen = make_policy(policy)
    sim = PatientSim(noise=0.1)
    _, traces = evaluate(chosen, diag, ds, onto, sim, horizon=12, seed=4)

    def blob(trace_list, name):
        save_traces(trace_list, tmp_path / name)
        return (tmp_path / name).read_bytes()

    one = PatientDataset(ds.records[:1], ds.disease_names, ds.m, ds.ontology_digest)
    _, alone = evaluate(chosen, diag, one, onto, sim, horizon=12, seed=4)
    assert blob(alone, "alone.jsonl") == blob(traces[:1], "first.jsonl")
    for i in (1, 37, 99):
        trace = simulate_consultation(chosen, diag, ds.records[i], onto, sim, 12,
                                      np.random.default_rng([4, i]))
        assert blob([trace], f"alone{i}.jsonl") == blob(traces[i : i + 1], f"in{i}.jsonl")


def test_one_episode_rollout_matches_episode_zero_of_a_batch(desk_nets):
    onto, ds, diag, policy, value = desk_nets

    def batch(n):
        return collect_rollouts(policy, value, diag, ds, onto, PatientSim(noise=0.1),
                                RewardParams(), n, 10, seed=6, iteration=2)

    one, many = batch(1), batch(64)
    assert many.n_episodes == 64
    k = len(one)
    assert many.dones[k - 1] and not many.dones[: k - 1].any()
    for name in ("inputs", "actions", "logps", "rewards", "values", "dones", "masks"):
        assert getattr(one, name).tobytes() == getattr(many, name)[:k].tobytes(), name


def test_empty_batches(desk_nets):
    onto, ds, diag, policy, value = desk_nets
    assert consult_batch(GreedyModelPolicy(policy), diag, [], onto, PatientSim(),
                         10, []) == []
    with pytest.raises(EmptyDataset):
        collect_rollouts(policy, value, diag, ds, onto, PatientSim(), RewardParams(), 0,
                         10, seed=0)
