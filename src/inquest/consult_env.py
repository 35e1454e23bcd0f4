"""Consultation environment: knowledge state, disclosure, answers, legality.

The environment wraps one patient record per episode. It discloses part of
the record up front, answers questions truthfully (optionally with response
noise), and enforces which questions may be asked. ``PatientSim`` holds how
the simulated patient behaves: its four disclosure rates, its response noise
and how it answers about elements its record does not mention. Every setting
is checked when a ``PatientSim`` is built, so an engine never sees a bad one.

Lockstep engine. ``Lockstep`` advances N episodes together, in the manner of
a vector env (EnvPool; Gymnasium ``VectorEnv``). Episode state is an (N, M)
int8 status array and an (N, K) asked mask. Disclosure, legality, answers and
first-level denial propagation are array operations on ``HpiOntology.index``.
Each round the caller takes the episodes that still have a legal question
from ``pending``, picks one question for each, and passes them to ``step``,
which writes ``status`` in place and returns the findings and the changed
(episode, element) pairs, sorted by episode. An episode leaves the active set
when it reaches its horizon or has nothing legal left. All active episodes
are at the same round. The single-episode API (``reset``, ``legal_actions``
and ``step`` on an immutable ``EnvState``) is the N=1 case of the same
functions, so an episode can still be replayed or branched one state at a
time. Legality has one implementation, ``_legal``: ``step`` accepts exactly
the questions ``legal_actions`` allows.

Determinism contract. Every episode owns its RNG and draws from it in a fixed
order: one ``random(M)`` for disclosure at reset (rollouts draw the patient
with one ``integers`` before that); then, each round, the
caller's policy draw (one ``random()`` for PPO sampling, one ``integers`` for
RandomLegal, none for greedy) and one ``random(r)`` for response noise on the
r slots the question reveals. Nothing is drawn for noise when noise is 0, and
``random(r)`` gives the same doubles as r single draws. An episode's outcome
therefore depends only on its patient and its own stream, never on N or on
the other episodes in the batch.

Status codes match the dataset's ternary HPI coding: 0 unknown, 1 confirmed,
2 denied.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConfigError, DigestMismatch, IllegalAction, NoLegalAction, check_setting, check_settings,
    setting,
)
from .ontology import CONFIRMED, DENIED, NOT_MENTIONED, HpiOntology, OntologyIndex, check_hierarchy
from .patientgen import PatientRecord, full_evidence

UNKNOWN = NOT_MENTIONED

UNMENTIONED_DENIED = "denied"
UNMENTIONED_UNKNOWN = "unknown"


@dataclass(frozen=True)
class PatientSim:
    """How the simulated patient behaves: what it volunteers, how it answers.

    ``p1p`` .. ``p2n`` are the chances that a finding is volunteered before
    being asked. First-level positives/negatives disclose independently; a
    second-level positive can disclose only when its parent did, while
    second-level negatives are not gated. Each revealed answer flips sign
    with probability ``noise``. ``unmentioned_answer`` says how an element
    the record does not mention is answered: Denied ("denied") or left
    Unknown ("unknown"). The rates are held as floats, so an int rate
    builds the same settings and the same evaluation config digest.
    """

    p1p: float = setting(0.5, "rate")
    p1n: float = setting(0.1, "rate")
    p2p: float = setting(0.3, "rate")
    p2n: float = setting(0.05, "rate")
    noise: float = setting(0.0, "rate")
    unmentioned_answer: str = UNMENTIONED_DENIED

    def __post_init__(self) -> None:
        check_settings(self)
        for f in fields(self):
            if "rule" in f.metadata:
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
        if self.unmentioned_answer not in (UNMENTIONED_DENIED, UNMENTIONED_UNKNOWN):
            raise ConfigError(f"unknown unmentioned-answer mode {self.unmentioned_answer!r}")


@dataclass(frozen=True)
class StepFindings:
    """Counts of newly revealed elements this round, by level and sign.

    Children denied by propagation from a denied parent are excluded, so a
    broad first-level question cannot farm second-level findings.
    """

    f1p: int = 0
    f1n: int = 0
    f2p: int = 0
    f2n: int = 0


@dataclass(frozen=True)
class EnvState:
    status: np.ndarray  # int8, length M; read-only by convention
    asked: frozenset[int]
    t: int
    patient_id: str
    horizon: int

    def __post_init__(self) -> None:
        self.status.setflags(write=False)


def _as_rng(rng: np.random.Generator | int) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _check_patients(patients, ontology: HpiOntology) -> np.ndarray:
    """Stacked (N, M) HPI of the patients, after the length and hierarchy checks."""
    for p in patients:
        if len(p.hpi) != ontology.n_elements:
            raise DigestMismatch(
                f"patient has {len(p.hpi)} elements, ontology {ontology.n_elements}"
            )
    if not patients:
        return np.zeros((0, ontology.n_elements), dtype=np.int8)
    hpi = np.stack([p.hpi for p in patients])
    check_hierarchy(ontology, hpi, "patient", [p.id for p in patients])
    return hpi


# ---------------------------------------------------------------------------
# Batched rules: every function takes (N, M) status rows, one per episode
# ---------------------------------------------------------------------------

def _disclose(hpi: np.ndarray, index: OntologyIndex, sim: PatientSim, rngs) -> np.ndarray:
    """Initial status: each episode draws one uniform per element, by element id.

    Not-mentioned elements never disclose; a second-level positive needs its
    parent disclosed.
    """
    u = np.array([rng.random(hpi.shape[1]) for rng in rngs]).reshape(hpi.shape)
    first, second = ~index.second, index.second
    status = np.zeros(hpi.shape, dtype=np.int8)
    status[first & (hpi == CONFIRMED) & (u < sim.p1p)] = CONFIRMED
    status[first & (hpi == DENIED) & (u < sim.p1n)] = DENIED
    opened = status[:, index.up] != UNKNOWN
    status[second & (hpi == CONFIRMED) & opened & (u < sim.p2p)] = CONFIRMED
    status[second & (hpi == DENIED) & (u < sim.p2n)] = DENIED
    return status


def _legal(status: np.ndarray, asked: np.ndarray, index: OntologyIndex) -> np.ndarray:
    """(N, K) mask: unasked, every target's parent confirmed, a target unknown."""
    unknown = (status == UNKNOWN).astype(np.float32)
    unconfirmed = (status != CONFIRMED).astype(np.float32)
    return ~asked & (unknown @ index.targets > 0.0) & (unconfirmed @ index.gates == 0.0)


def _require_legal(masks) -> np.ndarray:
    """(N, K) ``masks`` as bool, once every row is seen to admit a question;
    a row that admits none raises NoLegalAction."""
    masks = np.asarray(masks, dtype=bool)
    if not masks.any(axis=1).all():
        raise NoLegalAction("a row has no legal action")
    return masks


def _evidence(hpi: np.ndarray, unmentioned_answer: str) -> np.ndarray:
    """What each patient answers about each element: the full evidence
    (not-mentioned answers Denied), or in "unknown" mode the record itself,
    whose not-mentioned elements stay unanswered."""
    return full_evidence(hpi) if unmentioned_answer == UNMENTIONED_DENIED else hpi


def _answer(
    status: np.ndarray,
    actions: np.ndarray,
    evidence: np.ndarray,
    index: OntologyIndex,
    noise: float,
    rngs,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ask ``actions[i]`` in row i; returns the new status, (N, 4) findings
    and the (N, M) mask of the slots that changed.

    Unknown targets that the ``_evidence`` row answers resolve to it; each
    revealed slot then flips sign with probability ``noise``, drawn in
    ascending element order. A first-level slot revealed Denied drags its
    Unknown children to Denied, uncredited. Findings columns are f1p, f1n,
    f2p, f2n. Only unknown slots change, to 1 or 2, so the changed slots are
    exactly the answered and the dragged ones.
    """
    answered = (index.targets[:, actions].T > 0.0) & (status == UNKNOWN) & (evidence != UNKNOWN)
    revealed = evidence
    if noise > 0.0:
        flip = np.zeros_like(answered)
        for i, rng in enumerate(rngs):
            slots = np.flatnonzero(answered[i])
            flip[i, slots] = rng.random(len(slots)) < noise
        revealed = np.where(flip, CONFIRMED + DENIED - evidence, evidence)
    new = np.where(answered, revealed, status)
    first = ~index.second
    dragged = index.second & (answered & first & (new == DENIED))[:, index.up] & (new == UNKNOWN)
    new[dragged] = DENIED
    positive = new == CONFIRMED
    # Revealed slots counted by level, as in _legal: f1p, f2p, then f1n, f2n.
    counts = np.hstack([(answered & positive).astype(np.float32) @ index.levels,
                        (answered & ~positive).astype(np.float32) @ index.levels])
    return new, counts[:, [0, 2, 1, 3]].astype(np.int64), answered | dragged


# ---------------------------------------------------------------------------
# Lockstep engine
# ---------------------------------------------------------------------------

class Lockstep:
    """N episodes advanced together; see the module docstring for the contract.

    ``status`` (N, M) and ``asked`` (N, K) hold every episode, finished or
    not; ``active`` lists the episodes still asking, in ascending order.
    ``evidence`` (N, M) holds each patient's answers (``_evidence``), built
    once here and gathered each round. ``step`` writes ``status`` in place and
    returns the (episode, element) pairs it changed, so rows kept on
    ``status`` (``diagnosis.ConsultRows``) re-encode those alone.
    """

    def __init__(self, patients, ontology: HpiOntology, sim: PatientSim, rngs, horizon: int):
        if len(patients) != len(rngs):
            raise ConfigError("need one RNG per episode")
        hpi = _check_patients(patients, ontology)
        check_setting("horizon", horizon, "non-negative", integral=True)
        self.index = ontology.index
        self.rngs = list(rngs)
        self.horizon = horizon
        self.noise = sim.noise
        self.evidence = _evidence(hpi, sim.unmentioned_answer)
        self.status = _disclose(hpi, self.index, sim, self.rngs)
        self.asked = np.zeros((len(patients), ontology.n_questions), dtype=bool)
        self.t = 0
        self.active = np.arange(len(patients))
        self._mask = None

    def pending(self) -> tuple[np.ndarray, np.ndarray]:
        """Episodes that ask this round and their legality masks (n, K).

        Episodes at the horizon or without a legal question finish here.
        """
        rows = self.active if self.t < self.horizon else self.active[:0]
        mask = _legal(self.status[rows], self.asked[rows], self.index)
        keep = mask.any(axis=1)
        self.active, self._mask = rows[keep], mask[keep]
        return self.active, self._mask

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ask ``actions[i]`` in episode ``active[i]``; returns (n, 4) findings
        and the slots that changed as ``(episodes, elements)``: slot j is
        element ``elements[j]`` of episode ``episodes[j]``, sorted by episode
        and by element within one."""
        rows = self.active
        actions = np.asarray(actions, dtype=np.int64)
        mask, self._mask = self._mask, None
        legal = (mask is not None and actions.shape == rows.shape
                 and ((0 <= actions) & (actions < mask.shape[1])).all())
        if not (legal and mask[np.arange(len(rows)), actions].all()):
            raise IllegalAction("each step needs one legal action per pending() episode")
        rngs = [self.rngs[i] for i in rows] if self.noise > 0.0 else None
        self.status[rows], findings, changed = _answer(
            self.status[rows], actions, self.evidence[rows], self.index, self.noise, rngs,
        )
        self.asked[rows, actions] = True
        self.t += 1
        slots, m = np.flatnonzero(changed), changed.shape[1]  # 3-7x a 2-D nonzero at 2000 x 90
        return findings, rows[slots // m], slots % m


# ---------------------------------------------------------------------------
# Single episode: the N=1 case
# ---------------------------------------------------------------------------

def reset(
    patient: PatientRecord,
    ontology: HpiOntology,
    sim: PatientSim,
    rng: np.random.Generator | int,
    horizon: int = 10,
) -> EnvState:
    """Start an episode: probabilistic initial disclosure of mentioned elements.

    One uniform is consumed per element (indexed by element id), so the
    outcome does not depend on iteration order. Not-mentioned elements never
    disclose.
    """
    env = Lockstep([patient], ontology, sim, [_as_rng(rng)], horizon)
    return EnvState(env.status[0], frozenset(), 0, patient.id, horizon)


def legal_actions(state: EnvState, ontology: HpiOntology) -> np.ndarray:
    """Boolean mask over questions: unasked, parents confirmed, something new.

    A question is legal iff it was not asked, every second-level target has a
    Confirmed parent, and at least one target is still Unknown.
    """
    asked = np.zeros((1, ontology.n_questions), dtype=bool)
    asked[0, list(state.asked)] = True
    return _legal(state.status[None], asked, ontology.index)[0]


def step(
    state: EnvState,
    question_id: int,
    patient: PatientRecord,
    ontology: HpiOntology,
    noise: float = 0.0,
    rng: np.random.Generator | int | None = None,
    unmentioned_answer: str = UNMENTIONED_DENIED,
) -> tuple[EnvState, StepFindings]:
    """Ask one question; returns the next state and the per-level counts.

    The question must be one that ``legal_actions`` allows, else IllegalAction;
    ``noise`` and ``unmentioned_answer`` are checked as ``PatientSim`` fields.
    Unknown targets resolve to the patient's truth (not-mentioned answers as
    Denied in the default mode, or stays Unknown in "unknown" mode); each
    revealed status then flips sign with probability ``noise``. A first-level
    target that resolves Denied drags its Unknown children to Denied without
    crediting them in the findings.
    """
    sim = PatientSim(noise=noise, unmentioned_answer=unmentioned_answer)
    if sim.noise > 0.0 and rng is None:
        raise ConfigError("response noise needs an RNG")
    if state.t >= state.horizon:
        raise IllegalAction(f"episode horizon {state.horizon} reached")
    if patient.id != state.patient_id:
        raise IllegalAction(f"state belongs to patient {state.patient_id!r}, got {patient.id!r}")
    in_range = 0 <= question_id < ontology.n_questions
    if not (in_range and legal_actions(state, ontology)[question_id]):
        raise IllegalAction(f"question {question_id} is not legal in this state")

    status, findings, _ = _answer(
        state.status[None], np.array([question_id]),
        _evidence(patient.hpi[None], sim.unmentioned_answer), ontology.index, sim.noise,
        [_as_rng(rng) if rng is not None else None],
    )
    next_state = EnvState(
        status[0], state.asked | {question_id}, state.t + 1, state.patient_id, state.horizon
    )
    return next_state, StepFindings(*(int(v) for v in findings[0]))
