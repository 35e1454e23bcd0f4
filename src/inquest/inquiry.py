"""Inquiry policy training: masked policy, reward, rollouts, GAE, PPO.

The policy and value nets read [history encoding, state encoding] and are
updated with a clipped-surrogate PPO whose gradients are derived by hand (see
``policy_loss_and_grad``). Everything is deterministic given seeds; rollout
episodes draw from per-episode RNG streams so results do not depend on
scheduling. ``ppo_update`` is one loop on the calling thread: each minibatch
steps the policy and then the value net.
"""
from __future__ import annotations

import csv
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import consult_env, nncore
from .consult_env import PatientSim, _require_legal
from .diagnosis import ConsultRows, DiagnosisModel, ModelSpec, load_model, new_model, save_model
from .errors import (EmptyDataset, NonFinite, ShapeError, check_setting, check_settings, setting,
                     writing)
from .ontology import HpiOntology, check_built_against
from .patientgen import PatientDataset, streams

_TAG_PPO = (1 << 40) + 4


@dataclass
class InquiryPolicy:
    """Question-selection net: logits over the K questions, from rows in the ranker's layout."""

    net: nncore.DenseNet
    history_width: int
    n_elements: int
    n_questions: int
    ontology_digest: str


@dataclass
class ValueNet:
    """State-value estimator reading the policy's rows, in the ranker's layout."""

    net: nncore.DenseNet
    history_width: int
    n_elements: int
    ontology_digest: str


POLICY = ModelSpec(
    InquiryPolicy, "inquiry-policy", "an inquiry policy",
    {"history_width": int, "n_elements": int, "n_questions": int, "ontology_digest": str},
    nncore.HEAD_LOGITS, lambda meta: meta["n_questions"],
)
VALUE = ModelSpec(
    ValueNet, "inquiry-value", "a value net",
    {"history_width": int, "n_elements": int, "ontology_digest": str},
    nncore.HEAD_SCALAR, lambda meta: 1,
)


@dataclass(frozen=True)
class RewardParams:
    """Coefficients of the per-round reward.

    time_penalty is charged every round; first-level findings are scaled by
    first_level_weight, negative findings by negative_discount. The
    prediction-shift term (L1 distance between consecutive disease
    distributions) enters unweighted and unnormalized.
    """

    time_penalty: float = setting(0.5, "non-negative")
    first_level_weight: float = setting(2.0, "finite")
    negative_discount: float = setting(0.5, "rate")

    def __post_init__(self) -> None:
        check_settings(self)


@dataclass(frozen=True)
class PpoConfig:
    iterations: int = setting(30, "count")
    episodes_per_iter: int = setting(32, "count")
    clip_eps: float = setting(0.2, "positive")
    update_epochs: int = setting(4, "count")
    minibatch_size: int = setting(128, "count")
    gamma: float = setting(0.99, "discount")
    lam_gae: float = setting(0.95, "rate")
    policy_lr: float = setting(1e-3, "non-negative")
    value_lr: float = setting(1e-3, "non-negative")
    entropy_coef: float = setting(0.01, "non-negative")
    hidden: tuple[int, ...] = setting((64, 64), "sizes")
    seed: int = setting(0, "non-negative")

    def __post_init__(self) -> None:
        check_settings(self)


@dataclass
class TrajectoryBatch:
    """Flat transition arrays; episodes are contiguous, one done flag each."""

    inputs: np.ndarray  # (n, E + 3M), in the ranker's dtype
    actions: np.ndarray  # (n,) int
    logps: np.ndarray  # (n,) log-probability at collection time
    rewards: np.ndarray  # (n,)
    values: np.ndarray  # (n,)
    dones: np.ndarray  # (n,) bool
    masks: np.ndarray  # (n, K) bool, legality at collection time
    n_episodes: int

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def mean_episode_reward(self) -> float:
        return float(self.rewards.sum() / self.n_episodes)

    @property
    def mean_episode_len(self) -> float:
        return len(self) / self.n_episodes


@dataclass
class IterStats:
    """One PPO iteration's batch means, then its update's minibatch means;
    ``write_training_log`` writes a column per field."""

    iteration: int
    mean_reward: float
    mean_len: float
    policy_loss: float
    value_loss: float
    clip_frac: float
    entropy: float


def new_inquiry_policy(
    history_width: int,
    n_elements: int,
    n_questions: int,
    ontology_digest: str,
    hidden: tuple[int, ...],
    seed: int = 0,
) -> InquiryPolicy:
    return new_model(POLICY, hidden, seed, history_width=history_width, n_elements=n_elements,
                     n_questions=n_questions, ontology_digest=ontology_digest)


def new_value_net(
    history_width: int,
    n_elements: int,
    ontology_digest: str,
    hidden: tuple[int, ...],
    seed: int = 0,
) -> ValueNet:
    return new_model(VALUE, hidden, seed, history_width=history_width, n_elements=n_elements,
                     ontology_digest=ontology_digest)


# ---------------------------------------------------------------------------
# Masked policy distribution
# ---------------------------------------------------------------------------

def _legal_words(mask: np.ndarray) -> np.ndarray:
    """One int64 word per entry of a bool ``mask``: all ones where legal, 0
    where not. ANDed with a float64 array's bits it keeps the legal entries
    and puts +0.0 at the others, the bytes of ``np.where(mask, x, 0.0)``
    without a branch per entry, which mispredicts on a random mask."""
    words = mask.astype(np.int64)
    np.negative(words, out=words)
    return words


def _zero_illegal(x: np.ndarray, words: np.ndarray) -> None:
    """Put +0.0 at the illegal entries of the float64 array ``x``, in place."""
    bits = x.view(np.int64)
    bits &= words


_NEG_INF_BITS = np.array(-np.inf).view(np.int64)


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the legal entries of each row, in float64; illegal entries
    exactly 0, whatever their logits.

    The bytes are those of ``nncore.softmax`` over the logits with -inf at
    the illegal entries, but ``exp`` never sees a -inf: the illegal entries
    enter it as 0 and its result is zeroed there. numpy's float64 ``exp``
    takes a slow path for arguments that underflow, -inf among them. The
    legal entries keep their bits, because ``exp`` gives an element the same
    result whatever the other elements of the call are (20 million elements
    checked, none differed); the tests compare the two forms bit for bit.
    Entries are selected by integer AND and OR on the float bits
    (``_legal_words``).
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    if logits.shape != mask.shape:
        raise ShapeError(f"logits {logits.shape} and mask {mask.shape} differ")
    keep = _legal_words(_require_legal(mask))
    bits = logits.view(np.int64) & keep
    bits |= ~keep & _NEG_INF_BITS  # -inf at the illegal entries, for the row max
    z = bits.view(float)
    z -= z.max(axis=-1, keepdims=True)
    _zero_illegal(z, keep)
    e = np.exp(z)
    _zero_illegal(e, keep)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _sample_actions(probs: np.ndarray, rngs) -> np.ndarray:
    """One action per row, drawn with one ``random()`` from that row's RNG.

    Same draw and same result as ``rng.choice(K, p=probs[i])``: the index
    where the uniform falls in the normalized cumulative distribution.
    """
    u = np.array([rng.random() for rng in rngs])
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------

def _rewards(params: RewardParams, findings: np.ndarray, prev: np.ndarray, new: np.ndarray):
    """Rewards of n rounds from (n, 4) findings counts and (n, D) distributions."""
    f1p, f1n, f2p, f2n = findings.T
    beta = params.negative_discount
    return (
        -params.time_penalty
        + params.first_level_weight * (f1p + beta * f1n)
        + f2p
        + beta * f2n
        + np.abs(prev - new).sum(axis=1)
    )


def compute_reward(
    params: RewardParams,
    findings: consult_env.StepFindings,
    prev_probs: np.ndarray,
    new_probs: np.ndarray,
) -> float:
    """One round's reward: findings credit minus time penalty plus belief shift."""
    prev = np.asarray(prev_probs, dtype=float)
    new = np.asarray(new_probs, dtype=float)
    if prev.shape != new.shape or prev.ndim != 1:
        raise ShapeError(f"distribution shapes differ: {prev.shape} vs {new.shape}")
    counts = np.array([[findings.f1p, findings.f1n, findings.f2p, findings.f2n]])
    return float(_rewards(params, counts, prev[None], new[None])[0])


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------

def collect_rollouts(
    policy: InquiryPolicy,
    value: ValueNet,
    diag_model: DiagnosisModel,
    dataset: PatientDataset,
    ontology: HpiOntology,
    sim: PatientSim,
    reward_params: RewardParams,
    n_episodes: int,
    horizon: int,
    seed: int,
    iteration: int = 0,
) -> TrajectoryBatch:
    """Sample episodes with the current policy against the environment.

    Episode ``ep`` draws everything (patient choice, disclosure, action
    sampling, response noise) from stream ``ep`` of
    ``patientgen.streams((seed, iteration), ...)``. The episodes run in
    lockstep (``consult_env.Lockstep``) with one blocked forward per net per
    round, so an episode's transitions are the same bytes whatever
    ``n_episodes`` is. The episodes' input rows are kept in the ranker's
    layout in a ``diagnosis.ConsultRows`` built on the engine's status; after
    each step only the (episode, element) pairs it returns are revealed. The
    policy and value nets read them before the step, and the ranker after it.
    The batch is episode-major, in ``ep`` order.
    """
    check_setting("n_episodes", n_episodes, "non-negative", integral=True)
    check_setting("iteration", iteration, "non-negative", integral=True)
    if len(dataset) == 0:
        raise EmptyDataset("cannot roll out against an empty dataset")
    check_built_against(ontology, (
        ("policy", policy.ontology_digest),
        ("value net", value.ontology_digest),
        ("diagnosis model", diag_model.ontology_digest),
        ("dataset", dataset.ontology_digest),
    ))

    rngs = streams((seed, iteration), range(n_episodes))
    patients = [dataset.records[int(rng.integers(len(dataset)))] for rng in rngs]
    env = consult_env.Lockstep(patients, ontology, sim, rngs, horizon)
    kept = ConsultRows(diag_model, patients, env.status)
    belief = kept.rank(slice(None))
    rounds = []
    while True:
        rows, mask = env.pending()
        if not len(rows):
            break
        x = kept.inputs[rows]
        probs = masked_softmax(nncore.forward(policy.net, x), mask)
        actions = _sample_actions(probs, [rngs[i] for i in rows])
        findings, episodes, elements = env.step(actions)
        kept.reveal(episodes, elements)
        new = kept.rank(rows)
        rewards = _rewards(reward_params, findings, belief[rows], new)
        belief[rows] = new
        logps = np.log(probs[np.arange(len(rows)), actions])
        values = nncore.forward(value.net, x)
        rounds.append((rows, x, actions, logps, rewards, values, mask))
    if not rounds:
        raise EmptyDataset("no episode produced a single legal step")

    # Rounds come out round-major; a stable sort by episode makes the batch
    # episode-major with each episode's rounds in order.
    episode = np.concatenate([r[0] for r in rounds])
    order = np.argsort(episode, kind="stable")
    episode = episode[order]
    dones = np.append(episode[1:] != episode[:-1], True)
    inputs, actions, logps, rewards, values, masks = (
        np.concatenate([r[j] for r in rounds])[order] for j in range(1, 7)
    )
    return TrajectoryBatch(
        inputs=inputs,
        actions=actions.astype(np.int64),
        logps=logps,
        rewards=rewards,
        values=values,
        dones=dones,
        masks=masks,
        n_episodes=int(dones.sum()),
    )


# ---------------------------------------------------------------------------
# Advantages
# ---------------------------------------------------------------------------

def gae_advantages(
    batch: TrajectoryBatch, gamma: float, lam_gae: float
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-scan GAE within episodes, in float64; returns (advantages,
    value targets)."""
    check_setting("gamma", gamma, "discount", integral=False)
    check_setting("lam_gae", lam_gae, "rate", integral=False)
    n = len(batch)
    values = np.asarray(batch.values, dtype=float)
    adv = np.zeros(n)
    gae = 0.0
    for t in range(n - 1, -1, -1):
        if batch.dones[t]:
            next_value = 0.0
            gae = 0.0
        else:
            next_value = values[t + 1]
        delta = batch.rewards[t] + gamma * next_value - values[t]
        gae = delta + gamma * lam_gae * gae
        adv[t] = gae
    return adv, adv + values


def clipped_surrogate(
    ratio: np.ndarray, adv: np.ndarray, clip_eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-transition objective min(rho*A, clip(rho)*A) and its active mask.

    The active mask marks where d(objective)/d(rho) = A (elsewhere the clipped
    branch is flat and the gradient is zero).
    """
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    surr = np.minimum(unclipped, clipped)
    active = np.where(adv >= 0.0, ratio <= 1.0 + clip_eps, ratio >= 1.0 - clip_eps)
    return surr, active


def _entropy_terms(probs: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row entropy and d(entropy)/d(logits) for a masked softmax."""
    logp = np.log(probs + (probs == 0.0))  # 0 where probs is 0
    h = -(probs * logp).sum(axis=1)
    grad = logp  # -probs * (logp + h) in place, then +0.0 at the illegal entries
    grad += h[:, None]
    grad *= probs
    np.negative(grad, out=grad)
    _zero_illegal(grad, _legal_words(mask))
    return h, grad


def policy_loss_and_grad(
    net: nncore.DenseNet,
    inputs: np.ndarray,
    masks: np.ndarray,
    actions: np.ndarray,
    logps_old: np.ndarray,
    adv: np.ndarray,
    clip_eps: float,
    entropy_coef: float,
    out: np.ndarray | None = None,
):
    """Clipped-surrogate loss (minus entropy bonus) with analytic gradients.

    Loss = -mean(min(rho A, clip(rho) A)) - entropy_coef * mean(H). The
    logit gradient combines d(surrogate)/d(logit_j) = active * A * rho *
    (1[j=a] - pi_j) on legal entries with the entropy term; both vanish on
    illegal entries because pi is exactly zero there. The weight and bias
    gradients are views into ``out`` (see ``nncore.backward``).
    """
    n = len(actions)
    rows = np.arange(n)
    logits, cache = nncore.forward_with_cache(net, inputs)
    probs = masked_softmax(logits, masks)
    logp_new = np.log(probs[rows, actions])
    ratio = np.exp(logp_new - logps_old)
    surr, active = clipped_surrogate(ratio, adv, clip_eps)
    h, dh = _entropy_terms(probs, masks)

    # -(coeff * (onehot - probs) + entropy_coef * dh) / n, built in one buffer
    # with the same roundings: 0 - p is -p, and -p + 1 is 1 - p.
    grad_logits = np.subtract(0.0, probs)
    grad_logits[rows, actions] += 1.0
    grad_logits *= np.where(active, adv * ratio, 0.0)[:, None]
    dh *= entropy_coef
    grad_logits += dh
    grad_logits /= -n
    gw, gb = nncore.backward(net, cache, grad_logits, out)

    # float(x.sum()) / n is float(x.mean()) for these float64 arrays, at
    # less per-call cost.
    surrogate, entropy = float(surr.sum()) / n, float(h.sum()) / n
    loss = -surrogate - entropy_coef * entropy
    stats = {
        "surrogate": surrogate,
        "entropy": entropy,
        "clip_frac": int((np.abs(ratio - 1.0) > clip_eps).sum()) / n,
        "ratio": ratio,
    }
    return loss, gw, gb, stats


def ppo_update(
    policy: InquiryPolicy,
    value: ValueNet,
    batch: TrajectoryBatch,
    cfg: PpoConfig,
    adam_policy: nncore.AdamState | None = None,
    adam_value: nncore.AdamState | None = None,
    iteration: int = 0,
) -> IterStats:
    """Shuffled-minibatch PPO epochs over one collected batch; returns its ``IterStats``.

    Advantages are normalized once per batch (guarding std >= 1e-8); legality
    masks recorded at collection are reused for every re-evaluation. Each of
    the ``update_epochs`` epochs draws its permutation, in turn, from one
    generator seeded by ``[cfg.seed, _TAG_PPO, iteration]``. Each minibatch
    of that permutation steps the policy and then the value net, and the
    ``IterStats`` fields are the minibatch means. A non-finite gradient
    raises NonFinite at the first minibatch that has one, before that net's
    Adam step.
    """
    check_setting("iteration", iteration, "non-negative", integral=True)
    if len(batch) == 0:
        raise ShapeError("empty trajectory batch")
    if adam_policy is None:
        adam_policy = nncore.init_adam(policy.net.params)
    if adam_value is None:
        adam_value = nncore.init_adam(value.net.params)

    adv, returns = gae_advantages(batch, cfg.gamma, cfg.lam_gae)
    adv = (adv - adv.mean()) / max(float(adv.std()), 1e-8)

    rng = np.random.default_rng([cfg.seed, _TAG_PPO, iteration])
    sums = np.zeros(4)  # policy loss, value loss, clip fraction, entropy
    n_minibatches = 0
    for _ in range(cfg.update_epochs):
        order = rng.permutation(len(batch))
        for start in range(0, len(order), cfg.minibatch_size):
            mb = order[start : start + cfg.minibatch_size]
            loss, _, _, stats = policy_loss_and_grad(
                policy.net,
                batch.inputs[mb],
                batch.masks[mb],
                batch.actions[mb],
                batch.logps[mb],
                adv[mb],
                cfg.clip_eps,
                cfg.entropy_coef,
                out=adam_policy.grad,
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


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def train_inquiry(
    dataset: PatientDataset,
    diag_model: DiagnosisModel,
    ontology: HpiOntology,
    cfg: PpoConfig,
    reward_params: RewardParams = RewardParams(),
    sim: PatientSim = PatientSim(),
    horizon: int = 10,
    log=None,
) -> tuple[InquiryPolicy, ValueNet, list[IterStats]]:
    """Full PPO run from fresh nets, which read histories as wide as the
    ranker's; returns the nets plus per-iteration stats."""
    width = diag_model.history_width
    policy = new_inquiry_policy(
        width, dataset.m, ontology.n_questions, ontology.content_digest,
        hidden=cfg.hidden, seed=cfg.seed,
    )
    value = new_value_net(
        width, dataset.m, ontology.content_digest, hidden=cfg.hidden, seed=cfg.seed + 1
    )
    adam_policy = nncore.init_adam(policy.net.params)
    adam_value = nncore.init_adam(value.net.params)
    history: list[IterStats] = []
    for it in range(cfg.iterations):
        batch = collect_rollouts(
            policy, value, diag_model, dataset, ontology, sim, reward_params,
            cfg.episodes_per_iter, horizon, cfg.seed, iteration=it,
        )
        row = ppo_update(policy, value, batch, cfg, adam_policy, adam_value, iteration=it)
        history.append(row)
        if log is not None:
            log(
                f"iter {it}: reward {row.mean_reward:.3f} len {row.mean_len:.1f} "
                f"clip {row.clip_frac:.2f} entropy {row.entropy:.3f}"
            )
    return policy, value, history


def write_training_log(rows: list[IterStats], path: str | Path) -> None:
    """CSV log, one row per iteration and a column per ``IterStats`` field. A
    non-finite value raises NonFinite before the file is created."""
    stats = [astuple(r) for r in rows]
    if not np.isfinite(np.array(stats, dtype=float)).all():
        raise NonFinite("training log holds non-finite values; nothing written")
    with writing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter"] + [f.name for f in fields(IterStats)][1:])
        for it, *values in stats:
            writer.writerow([it] + [f"{v:.6f}" for v in values])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_policy(
    policy: InquiryPolicy,
    path: str | Path,
    reward_params: RewardParams | None = None,
    sim: PatientSim | None = None,
) -> None:
    extra = {"reward_params": reward_params, "patient_sim": sim}
    save_model(policy, path, POLICY,
               **{key: asdict(block) for key, block in extra.items() if block is not None})


def load_policy(path: str | Path) -> InquiryPolicy:
    return load_model(path, POLICY)


def save_value(value: ValueNet, path: str | Path) -> None:
    save_model(value, path, VALUE)


def load_value(path: str | Path) -> ValueNet:
    return load_model(path, VALUE)
