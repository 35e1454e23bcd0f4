"""Environment behaviour: disclosure, legality, answering, propagation."""
import numpy as np
import pytest

from inquest.consult_env import (
    UNKNOWN,
    UNMENTIONED_UNKNOWN,
    EnvState,
    PatientSim,
    StepFindings,
    legal_actions,
    reset,
    step,
)
from inquest.errors import (
    ConfigError,
    DigestMismatch,
    DomainError,
    IllegalAction,
    ValidationError,
)
from inquest.ontology import CLOSED, FIRST, OPEN, SECOND, HpiElement, HpiOntology, Question
from inquest.patientgen import (
    CONFIRMED,
    DENIED,
    PatientRecord,
    generate_cohort,
    toy_genmodel,
    toy_ontology,
)

ALL = PatientSim(1.0, 1.0, 1.0, 1.0)
NONE = PatientSim(0.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def onto():
    return toy_ontology()


@pytest.fixture(scope="module")
def toy():
    return toy_genmodel()


def make_patient(hpi, pid="t0"):
    return PatientRecord(pid, 50, "male", (0, 0), np.array(hpi, dtype=np.int8), 0)


def wide_ontology():
    """One parent with four children and an open question over all four."""
    elements = (
        HpiElement(0, FIRST, None, "root"),
        HpiElement(1, SECOND, 0, "a"),
        HpiElement(2, SECOND, 0, "b"),
        HpiElement(3, SECOND, 0, "c"),
        HpiElement(4, SECOND, 0, "d"),
    )
    questions = tuple(Question(i, CLOSED, (i,)) for i in range(5)) + (
        Question(5, OPEN, (1, 2, 3, 4)),
    )
    return HpiOntology(elements, questions)


# ---------------------------------------------------------------------------
# Reset / disclosure
# ---------------------------------------------------------------------------

def test_reset_no_disclosure(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 0])
    state = reset(patient, onto, NONE, rng=0)
    assert np.all(state.status == UNKNOWN)
    assert state.t == 0 and state.asked == frozenset()


def test_reset_full_disclosure_reveals_mentioned_only(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 2])
    state = reset(patient, onto, ALL, rng=0)
    assert np.array_equal(state.status, patient.hpi)  # unmentioned stays unknown


def test_reset_is_deterministic(onto, toy):
    patient = generate_cohort(toy, 1, seed=4).records[0]
    probs = PatientSim()
    a = reset(patient, onto, probs, rng=np.random.default_rng(9))
    b = reset(patient, onto, probs, rng=np.random.default_rng(9))
    assert np.array_equal(a.status, b.status)


def test_second_level_positive_gated_on_parent_disclosure(onto, toy):
    # p2p=1 with an undisclosed parent must never disclose the child.
    probs = PatientSim(p1p=0.5, p1n=0.0, p2p=1.0, p2n=0.0)
    patients = generate_cohort(toy, 1000, seed=21).records
    seen_blocked = 0
    for i, patient in enumerate(patients):
        state = reset(patient, onto, probs, rng=np.random.default_rng([21, i]))
        for e in range(7):
            parent = onto.parent_of(e)
            if parent is None:
                continue
            if state.status[e] == CONFIRMED:
                assert state.status[parent] == CONFIRMED
            if patient.hpi[e] == CONFIRMED and state.status[parent] == UNKNOWN:
                assert state.status[e] == UNKNOWN
                seen_blocked += 1
    assert seen_blocked > 50  # the gate actually fired, not vacuous


def test_reset_rejects_wrong_length(onto):
    with pytest.raises(DigestMismatch):
        reset(make_patient([0, 0, 0]), onto, NONE, rng=0)


def test_reset_rejects_inconsistent_patient(onto):
    with pytest.raises(ValidationError):
        reset(make_patient([2, 0, 0, 1, 0, 0, 0]), onto, NONE, rng=0)


def test_probs_validate():
    with pytest.raises(DomainError):
        PatientSim(p1p=1.2)
    with pytest.raises(DomainError):
        PatientSim(p2n=-0.1)
    with pytest.raises(DomainError, match="p1p"):
        PatientSim(p1p=True)
    with pytest.raises(DomainError, match="noise"):
        PatientSim(noise=False)


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------

def test_fresh_state_legality(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 0])
    state = reset(patient, onto, NONE, rng=0)
    mask = legal_actions(state, onto)
    for q in onto.questions:
        first_level = all(onto.parent_of(t) is None for t in q.targets)
        assert mask[q.id] == first_level


def test_asked_question_becomes_illegal(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 0])
    state = reset(patient, onto, NONE, rng=0)
    state, _ = step(state, 0, patient, onto)
    mask = legal_actions(state, onto)
    assert not mask[0]
    with pytest.raises(IllegalAction, match="is not legal"):
        step(state, 0, patient, onto)


def test_all_known_targets_make_question_illegal(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 2])
    state = reset(patient, onto, ALL, rng=0)
    mask = legal_actions(state, onto)
    # everything mentioned was disclosed; only unmentioned elements remain
    for q in onto.questions:
        expected = (
            q.id not in state.asked
            and all(
                onto.parent_of(t) is None or state.status[onto.parent_of(t)] == CONFIRMED
                for t in q.targets
            )
            and any(state.status[t] == UNKNOWN for t in q.targets)
        )
        assert mask[q.id] == expected


def test_exhausting_questions_empties_mask(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 0], pid="t9")
    state = reset(patient, onto, NONE, rng=0, horizon=20)
    steps = 0
    while True:
        mask = legal_actions(state, onto)
        if not mask.any():
            break
        state, _ = step(state, int(np.flatnonzero(mask)[0]), patient, onto)
        steps += 1
    assert steps > 0
    assert not legal_actions(state, onto).any()


# ---------------------------------------------------------------------------
# Step semantics
# ---------------------------------------------------------------------------

def test_closed_positive_first_level(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 0])
    state = reset(patient, onto, NONE, rng=0)
    state, findings = step(state, 0, patient, onto)
    assert findings == StepFindings(f1p=1)
    assert state.status[0] == CONFIRMED
    assert state.t == 1 and 0 in state.asked


def test_open_question_counts_mixed_children():
    onto = wide_ontology()
    patient = make_patient([1, 1, 1, 0, 2])
    state = reset(patient, onto, NONE, rng=0)
    state, _ = step(state, 0, patient, onto)  # confirm the parent first
    state, findings = step(state, 5, patient, onto)
    assert findings == StepFindings(f2p=2, f2n=2)
    assert np.array_equal(state.status, [1, 1, 1, 2, 2])


def test_parent_denial_propagates_without_credit():
    onto = wide_ontology()
    patient = make_patient([2, 2, 2, 2, 2])
    state = reset(patient, onto, NONE, rng=0)
    state, findings = step(state, 0, patient, onto)
    assert findings == StepFindings(f1n=1)  # children excluded
    assert np.all(state.status == DENIED)
    # children are now known, so no question is left
    assert not legal_actions(state, onto).any()


def test_unmentioned_answers_denied_by_default(onto):
    patient = make_patient([0, 0, 0, 0, 0, 0, 0])
    state = reset(patient, onto, NONE, rng=0)
    state, findings = step(state, 0, patient, onto)
    assert findings == StepFindings(f1n=1)
    assert state.status[0] == DENIED


def test_unmentioned_stays_unknown_in_unknown_mode(onto):
    patient = make_patient([0, 0, 0, 0, 0, 0, 0])
    state = reset(patient, onto, NONE, rng=0)
    state, findings = step(state, 0, patient, onto, unmentioned_answer=UNMENTIONED_UNKNOWN)
    assert findings == StepFindings()
    assert state.status[0] == UNKNOWN
    assert 0 in state.asked  # the question is still spent


def test_noise_flips_reveals():
    onto = wide_ontology()
    patient = make_patient([1, 1, 1, 1, 1])
    state = reset(patient, onto, NONE, rng=0)
    state, findings = step(state, 0, patient, onto, noise=1.0, rng=np.random.default_rng(0))
    assert findings == StepFindings(f1n=1)  # flipped to denied
    assert state.status[0] == DENIED
    assert np.all(state.status[1:] == DENIED)  # propagation follows the reveal
    with pytest.raises(ConfigError, match="RNG"):
        step(reset(patient, onto, NONE, rng=0), 0, patient, onto, noise=0.5)


def test_step_is_pure(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 0])
    state = reset(patient, onto, NONE, rng=0)
    before = state.status.copy()
    step(state, 0, patient, onto)
    assert np.array_equal(state.status, before)
    assert state.asked == frozenset() and state.t == 0
    with pytest.raises(ValueError):
        state.status[0] = 1  # the stored array is read-only


def test_horizon_bound(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 0])
    state = reset(patient, onto, NONE, rng=0, horizon=1)
    state, _ = step(state, 0, patient, onto)
    with pytest.raises(IllegalAction, match="horizon"):
        step(state, 1, patient, onto)


def test_illegal_action_variants(onto):
    patient = make_patient([1, 2, 0, 1, 0, 0, 0])
    state = reset(patient, onto, NONE, rng=0)
    with pytest.raises(IllegalAction, match="is not legal"):
        step(state, 99, patient, onto)
    with pytest.raises(IllegalAction, match="is not legal"):
        step(state, 3, patient, onto)  # closed question on child before parent
    other = make_patient([1, 2, 0, 1, 0, 0, 0], pid="someone-else")
    with pytest.raises(IllegalAction, match="belongs to"):
        step(state, 0, other, onto)
    full = reset(make_patient([1, 2, 0, 1, 0, 0, 2]), onto, ALL, rng=0)
    with pytest.raises(IllegalAction, match="is not legal"):
        step(full, 0, make_patient([1, 2, 0, 1, 0, 0, 2]), onto)


# ---------------------------------------------------------------------------
# Whole-episode properties
# ---------------------------------------------------------------------------

def test_random_episodes_respect_invariants(onto, toy):
    patients = generate_cohort(toy, 200, seed=31).records
    total_steps = 0
    for i, patient in enumerate(patients):
        rng = np.random.default_rng([31, i])
        state = reset(patient, onto, PatientSim(), rng, horizon=10)
        known = set(np.flatnonzero(state.status != UNKNOWN))
        while state.t < state.horizon:
            mask = legal_actions(state, onto)
            if not mask.any():
                break
            action = int(rng.choice(np.flatnonzero(mask)))
            state, _ = step(state, action, patient, onto)
            total_steps += 1
            now_known = set(np.flatnonzero(state.status != UNKNOWN))
            assert known <= now_known  # monotone knowledge
            known = now_known
            for e in now_known:
                want = CONFIRMED if patient.hpi[e] == CONFIRMED else DENIED
                assert state.status[e] == want  # truthful at noise=0
            for e in range(7):
                parent = onto.parent_of(e)
                if parent is not None and state.status[e] == CONFIRMED:
                    assert state.status[parent] == CONFIRMED
    assert total_steps > 500
