"""Tests for the inquiry module: reward, rollouts, GAE, masked PPO updates.

The heavyweight checks run against independent re-implementations: a
straight-line rollout loop with its own forward pass, a double-loop advantage
sum, and central finite differences for the PPO policy gradient.
"""
import copy
import dataclasses

import numpy as np
import pytest

from inquest import consult_env, nncore
from inquest.consult_env import PatientSim, StepFindings
from inquest.diagnosis import DiagnosisModel, new_diagnosis_model
from inquest.errors import (
    ConfigError,
    DigestMismatch,
    DomainError,
    NoLegalAction,
    NonFinite,
    ParseError,
    ShapeError,
)
from inquest.inquiry import (
    IterStats,
    _TAG_PPO,
    _entropy_terms,
    PpoConfig,
    RewardParams,
    TrajectoryBatch,
    collect_rollouts,
    compute_reward,
    gae_advantages,
    load_policy,
    load_value,
    masked_softmax,
    new_inquiry_policy,
    new_value_net,
    policy_loss_and_grad,
    ppo_update,
    save_policy,
    save_value,
    train_inquiry,
    write_training_log,
)
from inquest.patientgen import (
    PatientDataset,
    PatientRecord,
    encode_history,
    generate_cohort,
    generate_ontology,
    toy_genmodel,
    toy_ontology,
)

NO_DISCLOSURE = PatientSim(0.0, 0.0, 0.0, 0.0)
ZERO_FINDINGS = StepFindings(0, 0, 0, 0)


def manual_forward(net, x):
    """Independent forward pass: explicit layer loop, ReLU between layers."""
    h = np.asarray(x, dtype=float)[None, :]
    for i in range(net.n_layers):
        z = h @ net.weights[i] + net.biases[i]
        h = np.maximum(z, 0.0) if i < net.n_layers - 1 else z
    return h[0, 0] if net.output_head == nncore.HEAD_SCALAR else h[0]


def manual_masked_softmax(logits, mask):
    z = np.where(mask, logits, -np.inf)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def manual_ternary(status):
    out = np.zeros(3 * len(status))
    out[3 * np.arange(len(status)) + np.asarray(status, dtype=int)] = 1.0
    return out


def manual_softmax(logits):
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def flat():
    """Twelve first-level elements, one closed question each, one patient."""
    onto = generate_ontology(12, 0)
    rec = PatientRecord(
        "p0", 40, "female", (0, 1), np.array([1, 2] * 6, dtype=np.int8), 0
    )
    ds = PatientDataset([rec], ("d0", "d1"), 12, onto.content_digest)
    diag = new_diagnosis_model(8, 12, ("d0", "d1"), onto.content_digest, hidden=(16, 16))
    policy = new_inquiry_policy(8, 12, onto.n_questions, onto.content_digest, hidden=(16, 16))
    value = new_value_net(8, 12, onto.content_digest, hidden=(16, 16), seed=1)
    return onto, ds, diag, policy, value


@pytest.fixture(scope="module")
def toy_setup():
    onto = toy_ontology()
    ds = generate_cohort(toy_genmodel(onto), 60, seed=3)
    diag = new_diagnosis_model(8, 7, ds.disease_names, onto.content_digest, hidden=(16, 16))
    policy = new_inquiry_policy(8, 7, onto.n_questions, onto.content_digest, hidden=(16, 16))
    value = new_value_net(8, 7, onto.content_digest, hidden=(16, 16), seed=1)
    return onto, ds, diag, policy, value


def flat_batch(flat, n_episodes=1, seed=0):
    onto, ds, diag, policy, value = flat
    return collect_rollouts(
        policy, value, diag, ds, onto, NO_DISCLOSURE, RewardParams(),
        n_episodes, 10, seed,
    )


# ---------------------------------------------------------------------------
# Masked softmax and the policy distribution
# ---------------------------------------------------------------------------

def test_masked_softmax_zeroes_illegal_and_normalizes():
    rng = np.random.default_rng(0)
    for _ in range(50):
        logits = rng.normal(size=(4, 9))
        mask = rng.random((4, 9)) < 0.5
        mask[np.arange(4), rng.integers(9, size=4)] = True
        probs = masked_softmax(logits, mask)
        assert (probs[~mask] == 0.0).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    full = np.ones((3, 5), dtype=bool)
    logits = rng.normal(size=(3, 5))
    assert np.allclose(masked_softmax(logits, full), nncore.softmax(logits), atol=1e-12)


def test_single_legal_action_gets_probability_one():
    mask = np.zeros(6, dtype=bool)
    mask[4] = True
    probs = masked_softmax(np.arange(6.0)[None, :], mask[None, :])[0]
    assert probs[4] == 1.0
    assert probs.sum() == 1.0


def test_fresh_policy_is_uniform_over_legal_set(flat):
    onto, ds, diag, policy, value = flat
    mask = np.array([True, False, True, True] * 3)
    x = np.concatenate([encode_history(ds.records[0], 8), manual_ternary(np.zeros(12))])
    probs = masked_softmax(nncore.forward(policy.net, x[None, :]), mask[None, :])[0]
    assert np.allclose(probs[mask], 1.0 / mask.sum(), atol=1e-12)
    assert (probs[~mask] == 0.0).all()


def test_no_legal_action_raises(flat):
    onto, ds, diag, policy, value = flat
    with pytest.raises(NoLegalAction):
        masked_softmax(np.zeros((1, 4)), np.zeros((1, 4), dtype=bool))
    x = np.concatenate([encode_history(ds.records[0], 8), manual_ternary(np.zeros(12))])
    with pytest.raises(NoLegalAction):
        masked_softmax(nncore.forward(policy.net, x[None, :]), np.zeros((1, 12), bool))


def where_masked_softmax(logits, mask):
    """The -inf form: ``exp`` sees -inf at every illegal entry."""
    z = np.where(mask, np.asarray(logits, dtype=float), -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def where_entropy_terms(probs, mask):
    """The nested-``where`` form: ``log`` of 1 wherever probs is 0."""
    logp = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    h = -(probs * logp).sum(axis=1)
    grad = np.where(mask, -probs * (logp + h[:, None]), 0.0)
    return h, grad


def _masked_math_cases():
    """Cases of (name, logits, mask), each row with at least one legal entry."""
    rng = np.random.default_rng(27)
    cases = []
    for dtype in (np.float64, np.float32):
        for shape, scale in (((128, 100), 3.0), ((7, 9), 30.0), ((64, 20), 400.0)):
            logits = (rng.normal(size=shape) * scale).astype(dtype)
            mask = rng.random(shape) < 0.4
            mask[np.arange(shape[0]), rng.integers(shape[1], size=shape[0])] = True
            cases.append((f"random {shape} x{scale} {np.dtype(dtype).name}", logits, mask))
        logits = rng.normal(size=(16, 12)).astype(dtype)
        mask = np.zeros((16, 12), dtype=bool)
        mask[np.arange(16), rng.integers(12, size=16)] = True
        cases.append((f"one legal action {np.dtype(dtype).name}", logits, mask))
    # A spread above 745 underflows legal probabilities to exactly 0; one
    # near 700-745 leaves subnormal ones.
    logits = rng.normal(size=(32, 30))
    logits[:, ::3] -= rng.uniform(700.0, 800.0, size=(32, 10))
    logits[:, 1] = 0.0
    mask = rng.random((32, 30)) < 0.7
    mask[:, :3] = True
    cases.append(("legal probabilities that underflow", logits, mask))
    # Illegal entries hold non-finite logits, which must not reach the result.
    logits = rng.normal(size=(24, 15)).astype(np.float32)
    mask = rng.random((24, 15)) < 0.5
    mask[:, 0] = True
    logits[~mask] = rng.choice(np.array([np.nan, np.inf, -np.inf], dtype=np.float32),
                               size=int((~mask).sum()))
    cases.append(("non-finite illegal logits", logits, mask))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, logits, mask", _masked_math_cases())
def test_masked_policy_math_matches_the_where_forms_bit_for_bit(name, logits, mask):
    probs = masked_softmax(logits, mask)
    ref = where_masked_softmax(logits, mask)
    assert probs.dtype == ref.dtype == np.float64
    assert probs.tobytes() == ref.tobytes()
    assert np.isfinite(probs).all() and (probs[~mask] == 0.0).all()
    for got, want in zip(_entropy_terms(probs, mask), where_entropy_terms(ref, mask)):
        assert got.tobytes() == want.tobytes()
    if name == "legal probabilities that underflow":
        assert (probs[mask] == 0.0).any()
        assert ((probs > 0.0) & (probs < np.finfo(float).tiny)).any()


def test_masked_softmax_shape_mismatch():
    with pytest.raises(ShapeError):
        masked_softmax(np.zeros((2, 4)), np.ones((2, 5), dtype=bool))


def test_policy_never_rates_illegal_actions(toy_setup):
    onto, ds, diag, policy, value = toy_setup
    rng = np.random.default_rng(5)
    for ep in range(40):
        rec = ds.records[int(rng.integers(len(ds)))]
        e = encode_history(rec, 8)
        state = consult_env.reset(rec, onto, PatientSim(), rng, horizon=10)
        while state.t < 10:
            mask = consult_env.legal_actions(state, onto)
            if not mask.any():
                break
            x = np.concatenate([e, manual_ternary(state.status)])[None, :]
            probs = masked_softmax(nncore.forward(policy.net, x), mask[None, :])[0]
            assert (probs[~mask] == 0.0).all()
            assert abs(probs.sum() - 1.0) < 1e-9
            action = int(rng.choice(len(probs), p=probs))
            state, _ = consult_env.step(state, action, rec, onto)


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------

def test_reward_zero_findings_identical_distributions():
    p = np.array([0.2, 0.3, 0.5])
    r = compute_reward(RewardParams(time_penalty=0.5), ZERO_FINDINGS, p, p)
    assert r == -0.5


def test_reward_direct_substitution():
    params = RewardParams(time_penalty=0.5, first_level_weight=2.0, negative_discount=0.5)
    prev = np.array([0.5, 0.3, 0.2])
    new = np.array([0.35, 0.3, 0.35])
    r = compute_reward(params, StepFindings(1, 1, 2, 0), prev, new)
    assert abs(r - 4.8) < 1e-12


def test_reward_diff_term_example():
    params = RewardParams(time_penalty=0.0)
    r = compute_reward(params, ZERO_FINDINGS, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert r == 1.0


def test_reward_linear_in_each_finding():
    params = RewardParams(time_penalty=0.7, first_level_weight=1.9, negative_discount=0.4)
    p = np.array([0.6, 0.4])
    base = StepFindings(2, 1, 3, 2)
    expected = {
        "f1p": params.first_level_weight,
        "f1n": params.first_level_weight * params.negative_discount,
        "f2p": 1.0,
        "f2n": params.negative_discount,
    }
    r0 = compute_reward(params, base, p, p)
    for field, coeff in expected.items():
        bumped = StepFindings(**{**base.__dict__, field: getattr(base, field) + 1})
        assert abs(compute_reward(params, bumped, p, p) - r0 - coeff) < 1e-12


def test_reward_diff_term_symmetric_and_zero_iff_equal():
    params = RewardParams(time_penalty=0.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(5))
        fwd = compute_reward(params, ZERO_FINDINGS, a, b)
        assert fwd == compute_reward(params, ZERO_FINDINGS, b, a)
        assert fwd > 0.0
        assert compute_reward(params, ZERO_FINDINGS, a, a.copy()) == 0.0


def test_reward_shape_error():
    with pytest.raises(ShapeError):
        compute_reward(RewardParams(), ZERO_FINDINGS, np.ones(3) / 3, np.ones(4) / 4)


def test_reward_params_validation():
    with pytest.raises(DomainError):
        RewardParams(time_penalty=-0.1)
    with pytest.raises(DomainError):
        RewardParams(negative_discount=1.5)
    with pytest.raises(DomainError):
        RewardParams(first_level_weight=float("nan"))
    with pytest.raises(DomainError):
        RewardParams(negative_discount=True)
    RewardParams()


@pytest.mark.parametrize("build", [
    lambda: new_diagnosis_model(8, 7, ("d0", "d1"), "x", hidden=(4,), seed=-1),
    lambda: new_inquiry_policy(8, 7, 9, "x", hidden=(4,), seed=-1),
    lambda: new_value_net(8, 7, "x", hidden=(4,), seed=-1),
])
def test_model_builders_reject_negative_seed(build):
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        build()


# ---------------------------------------------------------------------------
# Rollout collection
# ---------------------------------------------------------------------------

def test_single_episode_runs_full_horizon(flat):
    batch = flat_batch(flat)
    assert len(batch) == 10
    assert batch.n_episodes == 1
    assert batch.dones.sum() == 1 and batch.dones[-1]
    assert len(set(batch.actions.tolist())) == 10
    assert batch.masks.sum(axis=1).tolist() == [12 - t for t in range(10)]
    assert np.isfinite(batch.rewards).all()
    assert batch.mean_episode_len == 10.0


def test_same_seed_identical_batches(flat):
    a = flat_batch(flat, n_episodes=3, seed=9)
    b = flat_batch(flat, n_episodes=3, seed=9)
    for name in ("inputs", "actions", "logps", "rewards", "values", "dones", "masks"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = flat_batch(flat, n_episodes=3, seed=10)
    assert not np.array_equal(a.actions, c.actions) or not np.array_equal(a.inputs, c.inputs)


def _random_ranker(onto, ds):
    """A float64 ranker of random weights: every slot it reads moves its
    belief, and the oracle's float64 forward matches it to rounding."""
    net = nncore.init_dense((8 + 3 * 7, 16, len(ds.disease_names)), seed=6,
                            zero_output=False, dtype=np.float64)
    return DiagnosisModel(net, 8, 7, ds.disease_names, onto.content_digest)


@pytest.mark.parametrize("layout", ["policy's", "float64 ranker", "narrower ranker"])
def test_rollouts_match_straight_line_oracle(toy_setup, layout):
    """The policy, the value net and the ranker read the same rows, in the
    ranker's layout; a policy over a narrower ranker fails in the first
    round."""
    onto, ds, diag, policy, value = toy_setup
    if layout != "policy's":
        diag = _random_ranker(onto, ds)
    if layout == "narrower ranker":
        policy = new_inquiry_policy(10, 7, onto.n_questions, onto.content_digest,
                                    hidden=(16, 16))
        value = new_value_net(10, 7, onto.content_digest, hidden=(16, 16), seed=1)
    params = RewardParams()
    probs_cfg = PatientSim()
    n_eps, horizon, seed = 12, 10, 21
    if layout == "narrower ranker":
        with pytest.raises(ShapeError):
            collect_rollouts(policy, value, diag, ds, onto, probs_cfg, params, n_eps, horizon,
                             seed)
        return
    batch = collect_rollouts(
        policy, value, diag, ds, onto, probs_cfg, params, n_eps, horizon, seed
    )

    rows, actions, logps, rewards, values, dones = [], [], [], [], [], []
    for ep in range(n_eps):
        rng = np.random.default_rng([seed, 0, ep])
        rec = ds.records[int(rng.integers(len(ds)))]
        e_pol = encode_history(rec, policy.history_width)
        e_diag = encode_history(rec, diag.history_width)
        state = consult_env.reset(rec, onto, probs_cfg, rng, horizon=horizon)
        prev = manual_softmax(
            manual_forward(diag.net, np.concatenate([e_diag, manual_ternary(state.status)]))
        )
        start = len(rows)
        while state.t < horizon:
            mask = consult_env.legal_actions(state, onto)
            if not mask.any():
                break
            x = np.concatenate([e_pol, manual_ternary(state.status)])
            p = manual_masked_softmax(manual_forward(policy.net, x), mask)
            action = int(rng.choice(len(p), p=p))
            state, f = consult_env.step(state, action, rec, onto)
            new = manual_softmax(
                manual_forward(diag.net, np.concatenate([e_diag, manual_ternary(state.status)]))
            )
            rows.append(x)
            actions.append(action)
            logps.append(float(np.log(p[action])))
            rewards.append(
                -params.time_penalty
                + params.first_level_weight * (f.f1p + params.negative_discount * f.f1n)
                + f.f2p
                + params.negative_discount * f.f2n
                + float(np.abs(prev - new).sum())
            )
            values.append(float(manual_forward(value.net, x)))
            dones.append(False)
            prev = new
        if len(rows) > start:
            dones[-1] = True

    assert np.array_equal(batch.actions, np.array(actions))
    assert np.array_equal(batch.dones, np.array(dones))
    assert np.allclose(batch.inputs, np.array(rows), atol=0)
    assert np.abs(batch.logps - np.array(logps)).max() < 1e-9
    assert np.abs(batch.rewards - np.array(rewards)).max() < 1e-9
    assert np.abs(batch.values - np.array(values)).max() < 1e-9
    assert abs(batch.mean_episode_reward - sum(rewards) / n_eps) < 1e-9


def test_rollout_digest_mismatch(flat):
    onto, ds, diag, policy, value = flat
    wrong = PatientDataset(ds.records, ds.disease_names, ds.m, "0" * 64)
    with pytest.raises(DigestMismatch):
        collect_rollouts(
            policy, value, diag, wrong, onto, NO_DISCLOSURE, RewardParams(), 1, 10, 0
        )


def test_episodes_end_once_each(toy_setup):
    onto, ds, diag, policy, value = toy_setup
    batch = collect_rollouts(
        policy, value, diag, ds, onto, PatientSim(), RewardParams(), 20, 10, 11
    )
    assert batch.dones.sum() == batch.n_episodes
    bounds = np.flatnonzero(batch.dones)
    starts = np.concatenate([[0], bounds[:-1] + 1])
    lengths = bounds - starts + 1
    assert (lengths >= 1).all() and (lengths <= 10).all()
    assert bounds[-1] == len(batch) - 1


# ---------------------------------------------------------------------------
# GAE
# ---------------------------------------------------------------------------

def synthetic_batch(rewards, values, dones, k=4):
    n = len(rewards)
    return TrajectoryBatch(
        inputs=np.zeros((n, 2)),
        actions=np.zeros(n, dtype=np.int64),
        logps=np.zeros(n),
        rewards=np.asarray(rewards, dtype=float),
        values=np.asarray(values, dtype=float),
        dones=np.asarray(dones, dtype=bool),
        masks=np.ones((n, k), dtype=bool),
        n_episodes=int(np.sum(dones)),
    )


def gae_double_loop(rewards, values, dones, gamma, lam):
    """Direct definition: A_t sums (gamma*lam)^k * delta_{t+k} within episode."""
    n = len(rewards)
    adv = np.zeros(n)
    for t in range(n):
        acc = 0.0
        factor = 1.0
        for k in range(t, n):
            next_v = 0.0 if dones[k] else values[k + 1]
            delta = rewards[k] + gamma * next_v - values[k]
            acc += factor * delta
            if dones[k]:
                break
            factor *= gamma * lam
        adv[t] = acc
    return adv


def test_gae_single_done_transition():
    batch = synthetic_batch([1.0], [0.0], [True])
    adv, ret = gae_advantages(batch, 0.99, 0.95)
    assert adv[0] == 1.0 and ret[0] == 1.0


def test_gae_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    rewards = rng.normal(size=11)
    values = rng.normal(size=11)
    dones = np.zeros(11, dtype=bool)
    dones[[3, 4, 10]] = True  # episode lengths 4, 1, 6
    batch = synthetic_batch(rewards, values, dones)
    adv, ret = gae_advantages(batch, 0.97, 0.9)
    oracle = gae_double_loop(rewards, values, dones, 0.97, 0.9)
    assert np.abs(adv - oracle).max() < 1e-12
    assert np.abs(ret - (oracle + values)).max() < 1e-12


def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.default_rng(8)
    rewards = rng.normal(size=9)
    values = rng.normal(size=9)
    dones = np.zeros(9, dtype=bool)
    dones[[4, 8]] = True
    batch = synthetic_batch(rewards, values, dones)
    adv, _ = gae_advantages(batch, 0.93, 0.0)
    for t in range(9):
        next_v = 0.0 if dones[t] else values[t + 1]
        assert adv[t] == rewards[t] + 0.93 * next_v - values[t]


def test_gae_gamma_lambda_one_telescopes():
    rng = np.random.default_rng(9)
    rewards = rng.normal(size=10)
    values = rng.normal(size=10)
    dones = np.zeros(10, dtype=bool)
    dones[[5, 9]] = True
    batch = synthetic_batch(rewards, values, dones)
    adv, _ = gae_advantages(batch, 1.0, 1.0)
    for start, stop in ((0, 6), (6, 10)):
        for t in range(start, stop):
            assert abs(adv[t] - (rewards[t:stop].sum() - values[t])) < 1e-12


# ---------------------------------------------------------------------------
# PPO update math
# ---------------------------------------------------------------------------

def test_ratio_identity_before_any_update(flat):
    batch = flat_batch(flat, n_episodes=4, seed=3)
    onto, ds, diag, policy, value = flat
    adv, _ = gae_advantages(batch, 0.99, 0.95)
    adv = (adv - adv.mean()) / max(float(adv.std()), 1e-8)
    loss, gw, gb, stats = policy_loss_and_grad(
        policy.net, batch.inputs, batch.masks, batch.actions, batch.logps,
        adv, 0.2, 0.0,
    )
    assert np.abs(stats["ratio"] - 1.0).max() < 1e-12
    assert abs(stats["surrogate"] - adv.mean()) < 1e-12
    assert stats["clip_frac"] == 0.0
    assert abs(loss + adv.mean()) < 1e-12


def test_clipped_transitions_carry_zero_gradient():
    net = nncore.init_dense((3, 6, 4), seed=5, zero_output=False)
    rng = np.random.default_rng(4)
    inputs = rng.normal(size=(2, 3))
    masks = np.ones((2, 4), dtype=bool)
    actions = np.array([1, 2])
    logits = nncore.forward(net, inputs)
    logp_new = np.log(nncore.softmax(logits))[np.arange(2), actions]
    # ratios e^{+0.5} and e^{-0.5} sit far outside the 0.2 clip band, on the
    # flat side for their advantage signs, so the surrogate is constant there
    logps_old = logp_new - np.array([0.5, -0.5])
    adv = np.array([1.0, -1.0])
    loss, gw, gb, stats = policy_loss_and_grad(
        net, inputs, masks, actions, logps_old, adv, 0.2, 0.0
    )
    assert stats["clip_frac"] == 1.0
    for g in gw + gb:
        assert (g == 0.0).all()
    # flipping the advantage signs puts both on the live branch again
    _, gw2, gb2, _ = policy_loss_and_grad(
        net, inputs, masks, actions, logps_old, -adv, 0.2, 0.0
    )
    assert any((g != 0.0).any() for g in gw2 + gb2)


def test_policy_gradient_matches_finite_differences():
    net = nncore.init_dense((6, 8, 4), seed=12, zero_output=False)
    rng = np.random.default_rng(12)
    n = 6
    inputs = rng.normal(size=(n, 6))
    masks = np.ones((n, 4), dtype=bool)
    masks[0, 3] = masks[2, 0] = masks[4, 1] = False
    actions = np.array([0, 1, 2, 3, 0, 2])
    logits = nncore.forward(net, inputs)
    probs = masked_softmax(logits, masks)
    ratio_targets = np.array([0.5, 0.7, 1.0, 1.3, 1.6, 0.9])
    logps_old = np.log(probs[np.arange(n), actions]) - np.log(ratio_targets)
    adv = np.array([1.2, -0.8, 0.5, -1.1, 0.9, -0.4])
    clip_eps, entropy_coef = 0.2, 0.05

    # keep every ratio clear of the clip kinks and hidden units off their
    # ReLU kinks so central differences see a smooth function
    assert np.abs(np.abs(ratio_targets - 1.0) - clip_eps).min() > 0.02
    _, (acts, pres) = nncore.forward_with_cache(net, inputs)
    assert min(np.abs(p).min() for p in pres[:-1]) > 1e-3

    loss, gw, gb, _ = policy_loss_and_grad(
        net, inputs, masks, actions, logps_old, adv, clip_eps, entropy_coef
    )
    gw_num, gb_num = nncore.numeric_gradients(
        net,
        lambda probe: policy_loss_and_grad(
            probe, inputs, masks, actions, logps_old, adv, clip_eps, entropy_coef
        )[0],
    )
    assert nncore.relative_error(gw + gb, gw_num + gb_num, floor=1e-6) < 1e-6


def test_ppo_update_fits_value_targets(flat):
    onto, ds, diag, policy, value = flat
    batch = flat_batch(flat, n_episodes=6, seed=2)
    pol = new_inquiry_policy(8, 12, onto.n_questions, onto.content_digest, hidden=(16, 16))
    val = new_value_net(8, 12, onto.content_digest, hidden=(16, 16), seed=1)
    cfg = PpoConfig(minibatch_size=16, seed=0)
    first = ppo_update(pol, val, batch, cfg)
    for _ in range(6):
        last = ppo_update(pol, val, batch, cfg)
    assert last.value_loss < first.value_loss
    assert np.isfinite([first.policy_loss, last.policy_loss, last.entropy]).all()
    assert 0.0 <= last.clip_frac <= 1.0


def interleaved_ppo_update(policy, value, batch, cfg, adam_policy, adam_value, iteration):
    """The update as one loop: each minibatch steps the policy and then the
    value net before the next minibatch starts."""
    adv, returns = gae_advantages(batch, cfg.gamma, cfg.lam_gae)
    adv = (adv - adv.mean()) / max(float(adv.std()), 1e-8)
    rng = np.random.default_rng([cfg.seed, _TAG_PPO, iteration])
    sums = np.zeros(4)
    n_minibatches = 0
    for _ in range(cfg.update_epochs):
        order = rng.permutation(len(batch))
        for start in range(0, len(order), cfg.minibatch_size):
            mb = order[start : start + cfg.minibatch_size]
            loss, _, _, stats = policy_loss_and_grad(
                policy.net, batch.inputs[mb], batch.masks[mb], batch.actions[mb],
                batch.logps[mb], adv[mb], cfg.clip_eps, cfg.entropy_coef, out=adam_policy.grad,
            )
            nncore.adam_step(policy.net.params, adam_policy.grad, adam_policy, cfg.policy_lr)
            pred, vcache = nncore.forward_with_cache(value.net, batch.inputs[mb])
            v_loss, v_grad = nncore.squared_error(pred, returns[mb])
            nncore.backward(value.net, vcache, v_grad, adam_value.grad)
            nncore.adam_step(value.net.params, adam_value.grad, adam_value, cfg.value_lr)
            sums += (loss, v_loss, stats["clip_frac"], stats["entropy"])
            n_minibatches += 1
    return IterStats(iteration, batch.mean_episode_reward, batch.mean_episode_len,
                     *(sums / n_minibatches).tolist())


def test_ppo_update_matches_the_interleaved_loop(toy_setup):
    """Two iterations of rollouts and updates: the phase-split update leaves
    both nets and both Adam states in the interleaved loop's bytes, with the
    same stats."""
    onto, ds, diag, policy, value = toy_setup
    policy, value = copy.deepcopy(policy), copy.deepcopy(value)
    cfg = PpoConfig(minibatch_size=24, update_epochs=3, seed=5)
    oracle = copy.deepcopy((policy, value))
    adams = [nncore.init_adam(policy.net.params), nncore.init_adam(value.net.params)]
    oracle_adams = copy.deepcopy(adams)
    steps = 0
    for iteration in range(2):
        batch = collect_rollouts(policy, value, diag, ds, onto, PatientSim(), RewardParams(),
                                 10, 10, 4, iteration)
        assert len(batch) % cfg.minibatch_size
        steps += cfg.update_epochs * -(-len(batch) // cfg.minibatch_size)
        got = ppo_update(policy, value, batch, cfg, *adams, iteration)
        want = interleaved_ppo_update(*oracle, batch, cfg, *oracle_adams, iteration)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        for net, ref in zip((policy.net, value.net), (oracle[0].net, oracle[1].net)):
            assert net.params.tobytes() == ref.params.tobytes()
        for adam, ref in zip(adams, oracle_adams):
            assert adam.t == ref.t == steps
            assert adam.m.tobytes() == ref.m.tobytes()
            assert adam.v.tobytes() == ref.v.tobytes()


def test_ppo_update_raises_on_a_non_finite_value_gradient(toy_setup):
    onto, ds, diag, policy, value = toy_setup
    batch = collect_rollouts(policy, value, diag, ds, onto, PatientSim(), RewardParams(),
                             4, 10, 4)
    policy, value = copy.deepcopy(policy), copy.deepcopy(value)
    value.net.biases[-1][0] = np.nan
    before = value.net.params.tobytes()
    adam_value = nncore.init_adam(value.net.params)
    with pytest.raises(NonFinite):
        ppo_update(policy, value, batch, PpoConfig(minibatch_size=8), None, adam_value)
    assert value.net.params.tobytes() == before
    assert adam_value.t == 0


@pytest.mark.parametrize("nan_in", [None, "value", "policy"])
def test_ppo_update_stops_at_the_first_non_finite_gradient(toy_setup, nan_in):
    """With finite gradients both nets take every minibatch step. A
    non-finite gradient in either net raises NonFinite at the first
    minibatch, with that net and its Adam state untouched; only the policy,
    which steps first, has taken a step before the value net raises."""
    onto, ds, diag, policy, value = toy_setup
    batch = collect_rollouts(policy, value, diag, ds, onto, PatientSim(), RewardParams(),
                             4, 10, 4)
    policy, value = copy.deepcopy(policy), copy.deepcopy(value)
    cfg = PpoConfig(minibatch_size=8, update_epochs=2)
    steps = cfg.update_epochs * -(-len(batch) // cfg.minibatch_size)
    adams = {"policy": nncore.init_adam(policy.net.params),
             "value": nncore.init_adam(value.net.params)}
    nets = {"policy": policy.net, "value": value.net}
    if nan_in is not None:
        nets[nan_in].biases[-1][0] = np.nan
    before = {name: net.params.tobytes() for name, net in nets.items()}
    if nan_in is None:
        ppo_update(policy, value, batch, cfg, adams["policy"], adams["value"])
        want = {"policy": steps, "value": steps}
    else:
        with pytest.raises(NonFinite, match="^gradient contains non-finite values$"):
            ppo_update(policy, value, batch, cfg, adams["policy"], adams["value"])
        want = {"policy": int(nan_in == "value"), "value": 0}
    for name, net in nets.items():
        assert adams[name].t == want[name]
        assert (net.params.tobytes() == before[name]) == (want[name] == 0)


def test_ppo_update_rejects_empty_batch(flat):
    onto, ds, diag, policy, value = flat
    empty = synthetic_batch([], [], [])
    with pytest.raises(ShapeError):
        ppo_update(policy, value, empty, PpoConfig())


def test_ppo_config_validation():
    with pytest.raises(DomainError):
        PpoConfig(clip_eps=0.0)
    with pytest.raises(DomainError):
        PpoConfig(gamma=1.0001)
    with pytest.raises(DomainError):
        PpoConfig(lam_gae=-0.1)
    with pytest.raises(DomainError):
        PpoConfig(minibatch_size=0)
    PpoConfig()


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_benchmark():
    onto = generate_ontology(6, 12, n_open=4)
    from inquest.patientgen import benchmark_genmodel

    gm = benchmark_genmodel(onto, n_diseases=5, seed=3, n_flags=2)
    ds = generate_cohort(gm, 400, seed=4)
    diag = new_diagnosis_model(8, onto.n_elements, ds.disease_names, onto.content_digest,
                               hidden=(16, 16))
    return onto, ds, diag


def test_training_beats_iteration_zero(small_benchmark):
    onto, ds, diag = small_benchmark
    cfg = PpoConfig(iterations=25, episodes_per_iter=24, minibatch_size=64,
                    hidden=(32, 32), seed=1)
    policy, value, history = train_inquiry(ds, diag, onto, cfg, horizon=10)
    assert len(history) == 25
    tail = np.mean([h.mean_reward for h in history[-5:]])
    assert tail > history[0].mean_reward
    stats = np.array([[h.policy_loss, h.value_loss, h.entropy] for h in history])
    assert np.isfinite(stats).all()


def test_training_is_bit_reproducible(small_benchmark):
    onto, ds, diag = small_benchmark
    cfg = PpoConfig(iterations=3, episodes_per_iter=8, minibatch_size=32,
                    hidden=(16, 16), seed=7)
    p1, v1, h1 = train_inquiry(ds, diag, onto, cfg, horizon=10)
    p2, v2, h2 = train_inquiry(ds, diag, onto, cfg, horizon=10)
    for a, b in zip(p1.net.weights + v1.net.weights, p2.net.weights + v2.net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(p1.net.biases + v1.net.biases, p2.net.biases + v2.net.biases):
        assert np.array_equal(a, b)
    assert h1 == h2


def test_training_log_format(tmp_path, small_benchmark):
    onto, ds, diag = small_benchmark
    cfg = PpoConfig(iterations=2, episodes_per_iter=4, minibatch_size=16,
                    hidden=(16, 16), seed=0)
    _, _, history = train_inquiry(ds, diag, onto, cfg, horizon=5)
    path = tmp_path / "log.csv"
    write_training_log(history, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iter,mean_reward,mean_len,policy_loss,value_loss,clip_frac,entropy"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - history[0].mean_reward) < 1e-6


def test_training_log_refuses_non_finite_values(tmp_path):
    path = tmp_path / "log.csv"
    rows = [IterStats(0, 1.0, 2.0, 0.1, 0.2, 0.0, 1.5), IterStats(1, 1.0, 2.0, 0.1, 0.2, 0.0, np.nan)]
    with pytest.raises(NonFinite):
        write_training_log(rows, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_policy_checkpoint_round_trip(tmp_path, flat):
    onto, ds, diag, policy, value = flat
    path = tmp_path / "policy.json"
    save_policy(policy, path, reward_params=RewardParams(), sim=PatientSim(noise=0.25))
    loaded = load_policy(path)
    for a, b in zip(policy.net.weights, loaded.net.weights):
        assert np.array_equal(a, b)
    assert loaded.n_questions == policy.n_questions
    assert loaded.ontology_digest == onto.content_digest
    assert loaded.net.meta["reward_params"]["first_level_weight"] == 2.0
    assert loaded.net.meta["patient_sim"] == {"p1p": 0.5, "p1n": 0.1, "p2p": 0.3, "p2n": 0.05,
                                              "noise": 0.25, "unmentioned_answer": "denied"}
    x = np.zeros((1, 8 + 36))
    assert np.array_equal(nncore.forward(policy.net, x), nncore.forward(loaded.net, x))


def test_value_checkpoint_round_trip(tmp_path, flat):
    onto, ds, diag, policy, value = flat
    path = tmp_path / "value.json"
    save_value(value, path)
    loaded = load_value(path)
    for a, b in zip(value.net.weights, loaded.net.weights):
        assert np.array_equal(a, b)
    assert loaded.history_width == 8 and loaded.n_elements == 12


def test_checkpoint_kind_guards(tmp_path, flat):
    onto, ds, diag, policy, value = flat
    ppath = tmp_path / "p.json"
    vpath = tmp_path / "v.json"
    save_policy(policy, ppath)
    save_value(value, vpath)
    with pytest.raises(ParseError):
        load_policy(vpath)
    with pytest.raises(ParseError):
        load_value(ppath)


def test_checkpoint_dimension_guard(tmp_path, flat):
    onto, ds, diag, policy, value = flat
    net = nncore.init_dense((8 + 36, 4, onto.n_questions))
    path = tmp_path / "bad.json"
    nncore.save_net(net, path, {
        "kind": "inquiry-policy",
        "history_width": 8,
        "n_elements": 99,
        "n_questions": onto.n_questions,
        "ontology_digest": onto.content_digest,
    })
    with pytest.raises(ParseError):
        load_policy(path)


@pytest.mark.parametrize("key", ["kind", "history_width", "n_elements", "ontology_digest"])
@pytest.mark.parametrize("kind", ["policy", "value"])
def test_checkpoint_missing_meta_raises_parse_error(flat, tmp_path, key, kind):
    onto, ds, diag, policy, value = flat
    path = tmp_path / f"{kind}.json"
    (save_policy if kind == "policy" else save_value)(
        policy if kind == "policy" else value, path
    )
    net = nncore.load_net(path)
    del net.meta[key]
    nncore.save_net(net, path)
    with pytest.raises(ParseError):
        (load_policy if kind == "policy" else load_value)(path)


@pytest.mark.parametrize("field, bad", [
    ("policy_lr", float("nan")), ("policy_lr", -1e-3), ("policy_lr", float("inf")),
    ("value_lr", float("nan")), ("value_lr", -1e-3),
    ("entropy_coef", float("nan")), ("entropy_coef", -0.01), ("entropy_coef", float("inf")),
    ("clip_eps", float("nan")), ("clip_eps", float("inf")), ("clip_eps", 0.0),
    ("iterations", 0), ("iterations", -3), ("seed", -1),
    ("episodes_per_iter", 0), ("episodes_per_iter", -3),
    ("iterations", True), ("policy_lr", False), ("seed", False), ("gamma", True),
])
def test_ppo_config_rejects_bad_numeric_settings(field, bad):
    with pytest.raises(DomainError, match=field):
        PpoConfig(**{field: bad})
