"""Cohort sampling, the exact posterior against brute force, splits, file IO."""
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inquest.errors import (
    ConfigError,
    DigestMismatch,
    DomainError,
    EmptyDataset,
    InconsistentEvidence,
    NonFinite,
    ParseError,
    ValidationError,
)
from inquest.patientgen import (
    CONFIRMED,
    DENIED,
    LOAD_BLOCK,
    NOT_MENTIONED,
    SAMPLE_BLOCK,
    SEXES,
    GenerativeModel,
    PatientDataset,
    PatientRecord,
    bayes_posterior,
    benchmark_genmodel,
    benchmark_ontology,
    encode_histories,
    encode_history,
    enumerate_bayes_rate,
    full_evidence,
    generate_cohort,
    generate_ontology,
    load_dataset,
    save_dataset,
    split_dataset,
    streams,
    toy_genmodel,
    toy_ontology,
)


@pytest.fixture(scope="module")
def toy():
    return toy_genmodel()


@pytest.fixture(scope="module")
def toy_cohort(toy):
    # Fixed-seed statistical fixture; the 3-sigma bounds below were checked
    # to hold with margin for this particular seed.
    return generate_cohort(toy, 5000, seed=7)


def brute_posterior(gm, evidence):
    """Posterior by summing the naive-Bayes joint over every presence vector."""
    m = gm.n_elements
    post = np.zeros(gm.n_diseases)
    for bits in range(1 << m):
        x = np.array([(bits >> e) & 1 for e in range(m)])
        if any(x[e] and gm.parent[e] >= 0 and not x[gm.parent[e]] for e in range(m)):
            continue
        if np.any((evidence == CONFIRMED) & (x == 0)) or np.any((evidence == DENIED) & (x == 1)):
            continue
        for d in range(gm.n_diseases):
            p = gm.priors[d]
            for f in gm.first_level_ids():
                q = gm.first_level_cpt[d, f]
                p *= q if x[f] else 1.0 - q
                if x[f]:
                    for c in gm.children_of(f):
                        q2 = gm.second_level_cpt[d, c]
                        p *= q2 if x[c] else 1.0 - q2
            post[d] += p
    total = post.sum()
    assert total > 0
    return post / total


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_cohort_is_deterministic(toy):
    a = generate_cohort(toy, 60, seed=3)
    b = generate_cohort(toy, 60, seed=3)
    c = generate_cohort(toy, 60, seed=4)
    assert a == b
    assert a != c
    assert a.records[0].id == "p000000"


def test_prefix_stability(toy):
    # Record i depends only on (seed, i), not on cohort size.
    small = generate_cohort(toy, 10, seed=5)
    large = generate_cohort(toy, 25, seed=5)
    assert small.records == large.records[:10]


def test_record_invariants(toy_cohort, toy):
    for r in toy_cohort.records:
        assert 0 <= r.age <= 100
        assert r.sex in ("male", "female")
        assert set(np.unique(r.hpi)) <= {0, 1, 2}
        assert 0 <= r.label < 3
        for c in range(toy.n_elements):
            p = toy.parent[c]
            if p < 0:
                continue
            if r.hpi[c] == CONFIRMED:
                assert r.hpi[p] == CONFIRMED
            if r.hpi[p] != CONFIRMED:
                assert r.hpi[c] == r.hpi[p]


def test_label_frequencies_match_priors(toy_cohort, toy):
    n = len(toy_cohort)
    counts = np.bincount(toy_cohort.labels(), minlength=3)
    for d in range(3):
        p = toy.priors[d]
        assert abs(counts[d] / n - p) < 3 * np.sqrt(p * (1 - p) / n)


def test_element_frequencies_match_cpt(toy_cohort, toy):
    # P(element 0 confirmed | disease 0) and the mention split among absences.
    rec0 = [r for r in toy_cohort.records if r.label == 0]
    n = len(rec0)
    confirmed = sum(1 for r in rec0 if r.hpi[0] == CONFIRMED)
    q = toy.first_level_cpt[0, 0]
    assert abs(confirmed / n - q) < 3 * np.sqrt(q * (1 - q) / n)

    absent = [r for r in toy_cohort.records if r.hpi[0] != CONFIRMED]
    denied = sum(1 for r in absent if r.hpi[0] == DENIED)
    mp = toy.mention_prob
    assert abs(denied / len(absent) - mp) < 3 * np.sqrt(mp * (1 - mp) / len(absent))

    # Child 3 incidence conditional on parent 0 present, pooled over diseases.
    by_label = {d: [r for r in rec] for d, rec in ((d, []) for d in range(3))}
    for r in toy_cohort.records:
        if r.hpi[0] == CONFIRMED:
            by_label[r.label].append(r)
    for d in range(3):
        grp = by_label[d]
        if len(grp) < 100:
            continue
        q2 = toy.second_level_cpt[d, 3]
        got = sum(1 for r in grp if r.hpi[3] == CONFIRMED) / len(grp)
        assert abs(got - q2) < 3 * np.sqrt(q2 * (1 - q2) / len(grp))


def test_cohort_validates_model(toy):
    with pytest.raises(ConfigError, match="sum to 1"):
        GenerativeModel(
            ontology_digest=toy.ontology_digest,
            disease_names=toy.disease_names,
            parent=toy.parent,
            priors=np.array([0.9, 0.3, 0.2]),
            first_level_cpt=toy.first_level_cpt,
            second_level_cpt=toy.second_level_cpt,
            age_mean=toy.age_mean,
            age_std=toy.age_std,
            p_female=toy.p_female,
            flag_probs=toy.flag_probs,
        )
    with pytest.raises(ConfigError, match="cohort size must be an integer >= 1"):
        generate_cohort(toy, 0, seed=0)


def test_genmodel_rejects_child_without_parent_mass(toy):
    cpt1 = toy.first_level_cpt.copy()
    cpt1[1, 0] = 0.0  # disease 1 never shows element 0, but child 3 still can
    with pytest.raises(ConfigError, match="parent incidence is zero"):
        GenerativeModel(
            ontology_digest=toy.ontology_digest,
            disease_names=toy.disease_names,
            parent=toy.parent,
            priors=toy.priors,
            first_level_cpt=cpt1,
            second_level_cpt=toy.second_level_cpt,
            age_mean=toy.age_mean,
            age_std=toy.age_std,
            p_female=toy.p_female,
            flag_probs=toy.flag_probs,
        )


def _with(gm, **tables):
    """A copy of ``gm`` whose named tables are edited copies: ``{name: (index, value)}``."""
    fields = {}
    for name, edits in tables.items():
        arr = getattr(gm, name).copy()
        for where, value in edits:
            arr[where] = value
        fields[name] = arr
    return dataclasses.replace(gm, **fields)


@pytest.mark.parametrize("edits, message", [
    ({"priors": [(1, np.nan)]}, "priors contains NaN"),
    ({"first_level_cpt": [((0, 0), np.nan)]}, "first_level_cpt contains NaN"),
    ({"second_level_cpt": [((1, 3), np.nan)]}, "second_level_cpt contains NaN"),
    ({"age_mean": [(0, np.nan)]}, "age_mean contains NaN"),
    ({"age_std": [(2, np.inf)]}, "age_std contains NaN or infinite"),
    ({"flag_probs": [((0, 1), np.nan)]}, "flag_probs contains NaN"),
    ({"p_female": [(1, np.nan)]}, "p_female contains NaN"),
    ({"parent": [(6, 99)]}, r"parent entries must lie in \[-1, 7\)"),
    ({"parent": [(4, -2)]}, r"parent entries must lie in \[-1, 7\)"),
    # Element 6 hangs under element 3, itself a child of 0; a zero column
    # keeps every other check quiet.
    ({"parent": [(6, 3)], "second_level_cpt": [((slice(None), 6), 0.0)]},
     "element 6 has a second-level parent"),
])
def test_genmodel_rejects_what_the_sampler_would_mis_sample(toy, edits, message):
    with pytest.raises(ConfigError, match=message):
        _with(toy, **edits)


def test_genmodel_rejects_malformed_tables(toy):
    with pytest.raises(ConfigError, match="1-D integer"):
        dataclasses.replace(toy, parent=toy.parent.astype(float))
    with pytest.raises(ConfigError, match="one row per disease"):
        dataclasses.replace(toy, age_mean=toy.age_mean[:2])
    with pytest.raises(ConfigError, match="one row per disease"):
        dataclasses.replace(toy, flag_probs=toy.flag_probs[0])
    for mention in (1.5, float("nan"), True):
        with pytest.raises(DomainError, match="mention_prob must be in"):
            dataclasses.replace(toy, mention_prob=mention)


def test_benchmark_model_valid_and_seeded():
    onto = benchmark_ontology()
    assert onto.m1 == 30 and onto.m2 == 60 and onto.n_questions == 100
    a = benchmark_genmodel(onto, seed=0)
    b = benchmark_genmodel(onto, seed=0)
    c = benchmark_genmodel(onto, seed=1)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert a.n_diseases == 20 and a.n_flags == 8


def test_genmodel_digest_cannot_go_stale(toy):
    priors = toy.priors.copy()
    gm = dataclasses.replace(toy, priors=priors)
    digest = gm.digest()
    priors[0] = 0.0  # the caller's array; the model holds its own copy
    assert gm.digest() == digest == toy.digest()
    with pytest.raises(ValueError, match="read-only"):
        gm.priors[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        gm.mention_prob = 0.5


# sha256 of the records file of two desk cohorts, pinned on the per-family
# sampling loop (``reference_record``): a faster sampler keeps every byte.
DESK_COHORT_GOLDEN = {
    0: "d925708e268b499f92c4723a9fceb938ab519e16570a96f475b394f26480a4af",
    1: "880f6e2318c25215f407013b0bcb88803a0a4953aeb573d2e867240d0ae7e5fa",
}


@pytest.mark.parametrize("seed", sorted(DESK_COHORT_GOLDEN))
def test_desk_cohort_matches_golden_digest(tmp_path, seed):
    gm = benchmark_genmodel(benchmark_ontology(), n_diseases=20, seed=0, n_flags=8)
    path = tmp_path / "cohort.jsonl"
    save_dataset(generate_cohort(gm, 500, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DESK_COHORT_GOLDEN[seed]


# sha256 of the same two cohorts as ``load_dataset`` reads them back, in a
# fixed encoding (``records_digest``): the records, pinned apart from the
# file format so that a change of format alone cannot move them.
DESK_COHORT_RECORDS_GOLDEN = {
    0: "7d56ec7fbd890f9544fc28a558fa3219e17be63f8100eaddd5b8a2720de087f6",
    1: "251369e0c0dd38f4cbbb8cbc5959dc8d64978815ee61ced267c6eac3e9cf7313",
}


def records_digest(records):
    """sha256 of the ids, ages, sexes, flags and labels as one JSON list,
    then of the stacked int8 hpi."""
    fields = [[r.id, r.age, r.sex, list(r.prior_flags), r.label] for r in records]
    digest = hashlib.sha256(json.dumps(fields, separators=(",", ":")).encode("utf-8"))
    digest.update(np.stack([r.hpi for r in records]).astype(np.int8).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(DESK_COHORT_RECORDS_GOLDEN))
def test_desk_cohort_loads_to_golden_records(tmp_path, seed):
    gm = benchmark_genmodel(benchmark_ontology(), n_diseases=20, seed=0, n_flags=8)
    path = tmp_path / "cohort.jsonl"
    save_dataset(generate_cohort(gm, 500, seed), path)
    loaded = load_dataset(path, ontology=benchmark_ontology()).records
    assert records_digest(loaded) == DESK_COHORT_RECORDS_GOLDEN[seed]


def reference_record(gm, index, rng):
    """The per-family sampling loop, kept as the byte-for-byte reference."""
    d = int(rng.choice(gm.n_diseases, p=gm.priors))
    age = int(np.clip(round(gm.age_mean[d] + gm.age_std[d] * rng.standard_normal()), 0.0, 100.0))
    sex = "female" if rng.random() < gm.p_female[d] else "male"
    flags = tuple(int(u < p) for u, p in zip(rng.random(gm.n_flags), gm.flag_probs[d]))
    m = gm.n_elements
    u_present = rng.random(m)
    u_mention = rng.random(m)
    hpi = np.zeros(m, dtype=np.int8)
    for f in gm.first_level_ids():
        children = gm.children_of(f)
        if u_present[f] < gm.first_level_cpt[d, f]:
            hpi[f] = CONFIRMED
            for c in children:
                if u_present[c] < gm.second_level_cpt[d, c]:
                    hpi[c] = CONFIRMED
                elif u_mention[c] < gm.mention_prob:
                    hpi[c] = DENIED
        else:
            status = DENIED if u_mention[f] < gm.mention_prob else NOT_MENTIONED
            hpi[f] = status
            hpi[children] = status
    return PatientRecord(f"p{index:06d}", age, sex, flags, hpi, d)


def record_bytes(r):
    """Everything that reaches a dataset file, types and dtype included."""
    return (r.id, type(r.age), r.age, r.sex, tuple(map(type, r.prior_flags)), r.prior_flags,
            r.hpi.dtype.str, r.hpi.tobytes(), type(r.label), r.label)


@st.composite
def random_genmodels(draw):
    """Models on random ``generate_ontology`` shapes whose tables mix exact 0s
    and 1s with interior values, with zero-mass diseases among the priors."""
    m1, m2 = draw(st.integers(1, 5)), draw(st.integers(0, 9))
    d, n_flags = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    mention = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    onto = generate_ontology(m1, m2)
    m = onto.n_elements
    parent = np.array([-1 if onto.parent_of(e) is None else onto.parent_of(e) for e in range(m)])
    first = parent < 0

    def table(shape):
        return np.choose(rng.integers(0, 3, shape), [np.zeros(shape), np.ones(shape), rng.random(shape)])

    cpt1 = np.where(first, table((d, m)), 0.0)
    cpt2 = np.where(first | (cpt1[:, np.maximum(parent, 0)] == 0.0), 0.0, table((d, m)))
    weights = rng.random(d) * (rng.random(d) < 0.6)
    weights[rng.integers(d)] += 0.5
    return GenerativeModel(
        ontology_digest=onto.content_digest,
        disease_names=tuple(f"d{i}" for i in range(d)),
        parent=parent,
        priors=weights / weights.sum(),
        first_level_cpt=cpt1,
        second_level_cpt=cpt2,
        age_mean=rng.uniform(-20.0, 120.0, d),
        age_std=rng.uniform(0.0, 30.0, d),
        p_female=table((d,)),
        flag_probs=table((d, n_flags)),
        mention_prob=mention,
    )


@settings(max_examples=150, deadline=None)
@given(random_genmodels(), st.integers(0, 2**32 - 1))
def test_sampler_matches_per_family_reference(gm, seed):
    got = generate_cohort(gm, 20, seed).records
    want = [reference_record(gm, i, np.random.default_rng([seed, i])) for i in range(20)]
    assert [record_bytes(r) for r in got] == [record_bytes(r) for r in want]


@pytest.mark.parametrize("n", [SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                               2 * SAMPLE_BLOCK + 1])
def test_sampler_matches_reference_across_block_edges(toy, n):
    got = generate_cohort(toy, n, seed=21).records
    want = [reference_record(toy, i, np.random.default_rng([21, i])) for i in range(n)]
    assert [record_bytes(r) for r in got] == [record_bytes(r) for r in want]


KEY_ENTRIES = st.just(0) | st.integers(0, 2**32 - 1) | st.integers(2**32, 2**160)


@settings(max_examples=150, deadline=None)
@given(st.lists(KEY_ENTRIES, min_size=1, max_size=3), st.lists(st.integers(0, 2**32 - 1),
                                                               max_size=4))
@example(key=[0], ids=[])
@example(key=[2**32], ids=[1])
# Five key words and the id make six entropy words, past SeedSequence's pool of four.
@example(key=[2**100 + 7, 2**32 + 1], ids=[3])
def test_streams_match_default_rng(key, ids):
    ids = [0, 2**32 - 1, *ids]
    got = streams(key, ids)
    assert len(got) == len(ids)
    for i, rng in zip(ids, got):
        want = np.random.default_rng([*key, i])
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.random(3).tolist() == want.random(3).tolist()
        assert rng.standard_normal() == want.standard_normal()


@pytest.mark.parametrize("key, ids, message", [
    ((-1,), [0], "non-negative"), ((3, -2), [0], "non-negative"),
    ((3,), [-1], "ids must lie"), ((3,), [0, 2**32], "ids must lie"),
])
def test_streams_refuse_negative_or_wide_values(key, ids, message):
    with pytest.raises(ConfigError, match=message):
        streams(key, ids)


def test_negative_seeds_raise_config_error(toy):
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        benchmark_genmodel(toy_ontology(), seed=-1)
    with pytest.raises(ConfigError, match="non-negative"):
        generate_cohort(toy, 5, seed=-1)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        split_dataset(generate_cohort(toy, 5, seed=0), (0.6, 0.2, 0.2), -1)


# ---------------------------------------------------------------------------
# Posterior oracle
# ---------------------------------------------------------------------------

def test_posterior_with_no_evidence_is_prior(toy):
    post = bayes_posterior(toy, np.zeros(7, dtype=np.int8))
    assert np.allclose(post, toy.priors, atol=1e-12)


def test_posterior_matches_brute_force(toy):
    rng = np.random.default_rng(0)
    cases = [np.zeros(7, dtype=np.int8)]
    for _ in range(40):
        ev = rng.integers(0, 3, size=7).astype(np.int8)
        for c in range(7):
            p = toy.parent[c]
            if p >= 0 and ev[c] == CONFIRMED and ev[p] == DENIED:
                ev[p] = CONFIRMED if rng.random() < 0.5 else NOT_MENTIONED
        cases.append(ev)
    for r in generate_cohort(toy, 10, seed=2).records:
        cases.append(full_evidence(r.hpi))
    for ev in cases:
        got = bayes_posterior(toy, ev)
        want = brute_posterior(toy, ev)
        assert np.allclose(got, want, atol=1e-12), ev
        assert abs(got.sum() - 1.0) < 1e-12
        assert np.all(got >= 0)


def test_posterior_rejects_confirmed_child_of_denied_parent(toy):
    ev = np.zeros(7, dtype=np.int8)
    ev[0] = DENIED
    ev[3] = CONFIRMED
    with pytest.raises(InconsistentEvidence):
        bayes_posterior(toy, ev)


def test_posterior_rejects_zero_mass_evidence(toy):
    cpt1 = toy.first_level_cpt.copy()
    cpt1[:, 0] = 1.0  # every disease always shows element 0
    gm = GenerativeModel(
        ontology_digest=toy.ontology_digest,
        disease_names=toy.disease_names,
        parent=toy.parent,
        priors=toy.priors,
        first_level_cpt=cpt1,
        second_level_cpt=toy.second_level_cpt,
        age_mean=toy.age_mean,
        age_std=toy.age_std,
        p_female=toy.p_female,
        flag_probs=toy.flag_probs,
    )
    ev = np.zeros(7, dtype=np.int8)
    ev[0] = DENIED
    with pytest.raises(InconsistentEvidence, match="zero likelihood"):
        bayes_posterior(gm, ev)


def test_posterior_wrong_length(toy):
    with pytest.raises(ConfigError):
        bayes_posterior(toy, np.zeros(6, dtype=np.int8))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_posterior_normalized_on_sampled_evidence(seed):
    gm = toy_genmodel()
    r = generate_cohort(gm, 1, seed=seed).records[0]
    mask = np.random.default_rng(seed).random(7) < 0.5
    ev = np.where(mask, full_evidence(r.hpi), NOT_MENTIONED).astype(np.int8)
    for c in range(7):
        p = gm.parent[c]
        if p >= 0 and ev[c] == CONFIRMED and ev[p] == DENIED:
            ev[c] = NOT_MENTIONED
    post = bayes_posterior(gm, ev)
    assert abs(post.sum() - 1.0) < 1e-9
    assert np.all(post >= 0) and np.all(post <= 1)


def test_enumerated_rate_matches_brute_force(toy):
    rate = enumerate_bayes_rate(toy)
    m = toy.n_elements
    want = 0.0
    for bits in range(1 << m):
        x = np.array([(bits >> e) & 1 for e in range(m)])
        if any(x[e] and toy.parent[e] >= 0 and not x[toy.parent[e]] for e in range(m)):
            continue
        joint = toy.priors.copy()
        for d in range(3):
            for f in toy.first_level_ids():
                q = toy.first_level_cpt[d, f]
                joint[d] *= q if x[f] else 1.0 - q
                if x[f]:
                    for c in toy.children_of(f):
                        q2 = toy.second_level_cpt[d, c]
                        joint[d] *= q2 if x[c] else 1.0 - q2
        want += joint.max()
    assert abs(rate - want) < 1e-12
    assert 1.0 / 3.0 < rate <= 1.0


def test_oracle_accuracy_attains_enumerated_rate(toy, toy_cohort):
    rate = enumerate_bayes_rate(toy)
    hits = sum(
        1
        for r in toy_cohort.records
        if int(np.argmax(bayes_posterior(toy, full_evidence(r.hpi)))) == r.label
    )
    n = len(toy_cohort)
    assert abs(hits / n - rate) < 3 * np.sqrt(rate * (1 - rate) / n)


def test_enumeration_guard():
    onto = benchmark_ontology()
    gm = benchmark_genmodel(onto)
    with pytest.raises(ConfigError, match="too large"):
        enumerate_bayes_rate(gm, max_states=10_000)


# ---------------------------------------------------------------------------
# Splits and filtering
# ---------------------------------------------------------------------------

def test_split_sizes_floor_with_remainder_to_train(toy):
    ds = generate_cohort(toy, 10, seed=1)
    tr, va, te = split_dataset(ds, (0.6, 0.1, 0.3), seed=0)
    assert (len(tr), len(va), len(te)) == (6, 1, 3)
    ds11 = generate_cohort(toy, 11, seed=1)
    tr, va, te = split_dataset(ds11, (0.6, 0.1, 0.3), seed=0)
    assert (len(tr), len(va), len(te)) == (7, 1, 3)
    ds1k = generate_cohort(toy, 1000, seed=1)
    tr, va, te = split_dataset(ds1k, (0.6, 0.1, 0.3), seed=0)
    assert (len(tr), len(va), len(te)) == (600, 100, 300)


def test_split_is_disjoint_cover_and_deterministic(toy):
    ds = generate_cohort(toy, 97, seed=6)
    a = split_dataset(ds, (0.6, 0.1, 0.3), seed=9)
    b = split_dataset(ds, (0.6, 0.1, 0.3), seed=9)
    c = split_dataset(ds, (0.6, 0.1, 0.3), seed=10)
    ids = [r.id for part in a for r in part.records]
    assert sorted(ids) == [r.id for r in ds.records]
    assert len(set(ids)) == len(ds)
    assert all(x == y for x, y in zip(a, b))
    assert any(x != y for x, y in zip(a, c))


def test_split_rejects_bad_ratios(toy):
    ds = generate_cohort(toy, 10, seed=1)
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.6, 0.1, 0.2), seed=0)
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.7, 0.0, 0.3), seed=0)
    for ratios in [(float("nan"), 0.5, 0.5), (0.5, 0.5, float("nan"))]:
        with pytest.raises(ConfigError):
            split_dataset(ds, ratios, seed=0)


# ---------------------------------------------------------------------------
# History encoding
# ---------------------------------------------------------------------------

def test_encode_history_layout(toy):
    r = generate_cohort(toy, 1, seed=0).records[0]
    vec = encode_history(r, 8)
    assert vec.shape == (8,)
    assert vec[0] == pytest.approx(r.age / 100.0)
    assert vec[1] == (1.0 if r.sex == "male" else 0.0)
    assert vec[2] == (1.0 if r.sex == "female" else 0.0)
    assert vec[1] + vec[2] == 1.0
    assert tuple(vec[3:5]) == r.prior_flags
    assert np.all(vec[5:] == 0.0)


def test_encode_histories_pads_differing_flag_counts(toy):
    base = generate_cohort(toy, 3, seed=0).records
    records = [dataclasses.replace(r, age=age, sex=sex, prior_flags=flags)
               for r, age, sex, flags in zip(base, (0, 50, 130), ("female", "male", "female"),
                                             ((), (1, 0, 1), (0, 1)))]
    want = np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
    ])
    got = encode_histories(records, 7)
    assert got.dtype == np.float64 and np.array_equal(got, want)
    assert all(np.array_equal(encode_history(r, 7), row) for r, row in zip(records, want))
    assert encode_histories([], 7).shape == (0, 7)
    with pytest.raises(ConfigError, match="history width 5 below required 6"):
        encode_histories(records, 5)
    with pytest.raises(ConfigError, match="unknown sex 'x'"):
        encode_histories([*records, dataclasses.replace(records[0], sex="x")], 7)


def test_encode_histories_with_equal_flag_counts(toy):
    base = generate_cohort(toy, 2, seed=0).records
    records = [dataclasses.replace(r, age=age, sex=sex, prior_flags=flags)
               for r, age, sex, flags in zip(base, (25, 75), ("male", "female"), ((0, 1), (1, 1)))]
    got = encode_histories(records, 6)
    assert np.array_equal(got, [[0.25, 1.0, 0.0, 0.0, 1.0, 0.0], [0.75, 0.0, 1.0, 1.0, 1.0, 0.0]])
    bare = [dataclasses.replace(r, prior_flags=()) for r in records]
    assert np.array_equal(encode_histories(bare, 4), [[0.25, 1.0, 0.0, 0.0], [0.75, 0.0, 1.0, 0.0]])


def test_encode_history_age_clipping(toy):
    r = generate_cohort(toy, 1, seed=0).records[0]
    r.age = 120
    assert encode_history(r, 8)[0] == 1.0
    with pytest.raises(ConfigError, match="width"):
        encode_history(r, 4)


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, toy):
    onto = toy_ontology()
    ds = generate_cohort(toy, 40, seed=13)
    path = tmp_path / "cohort.jsonl"
    save_dataset(ds, path)
    assert (tmp_path / "cohort.header.json").exists()
    again = load_dataset(path, ontology=onto)
    assert again == ds

    save_dataset(again, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("m, text", [(0, ""), (1, "2")])
def test_save_load_round_trip_with_zero_or_one_element(tmp_path, m, text):
    records = [PatientRecord(f"p{i}", 40, "male", (), np.full(m, 2 * i, np.int8), 0)
               for i in range(2)]
    ds = PatientDataset(records, ("d0",), m, "x")
    save_dataset(ds, tmp_path / "small.jsonl")
    assert f'"hpi":"{text}"' in (tmp_path / "small.jsonl").read_text().splitlines()[1]
    assert load_dataset(tmp_path / "small.jsonl") == ds


def test_save_dataset_refuses_non_finite_values(tmp_path, toy):
    ds = generate_cohort(toy, 5, seed=0)
    ds.records[-1] = dataclasses.replace(ds.records[-1], age=float("nan"))
    path = tmp_path / "cohort.jsonl"
    with pytest.raises(NonFinite):
        save_dataset(ds, path)
    assert not path.exists() and not (tmp_path / "cohort.header.json").exists()


@pytest.mark.parametrize("field, value", [
    ("age", 40.5), ("age", True), ("label", 1.0), ("label", False), ("label", 3),
    pytest.param("age", np.int64(40), id="age-numpy-int"),
    pytest.param("prior_flags", (0, 0.5), id="flag-float"),
    pytest.param("prior_flags", (True, 0), id="flag-bool"),
    ("sex", "other"), ("id", 7),
    pytest.param("hpi", np.array([1, 0, 0, 5, 0, 0, 0], dtype=np.int8), id="hpi-entry-5"),
    pytest.param("hpi", np.array([1, 0, 0, 1, 0, 0], dtype=np.int8), id="hpi-short"),
    pytest.param("hpi", np.array([[1, 0, 0, 1, 0, 0, 0]], dtype=np.int8), id="hpi-2d"),
    pytest.param("hpi", np.array([1.0, 0, 0, 1, 0, 0, 0]), id="hpi-float"),
    pytest.param("hpi", np.array([True, False, False, True, False, False, False]),
                 id="hpi-bool"),
    pytest.param("hpi", [1, 0, 0, 1, 0, 0, 0], id="hpi-list"),
    pytest.param("hpi", "1001000", id="hpi-string"),
])
def test_save_dataset_refuses_what_the_loader_rejects(tmp_path, toy, field, value):
    ds = generate_cohort(toy, 5, seed=0)
    ds.records[2] = dataclasses.replace(ds.records[2], **{field: value})
    path = tmp_path / "cohort.jsonl"
    with pytest.raises(ValidationError):
        save_dataset(ds, path)
    assert not path.exists() and not (tmp_path / "cohort.header.json").exists()


# JSON values that replace one field of a valid record: wrong types, values
# out of range, booleans, strings, None, lists (the hpi of the old format),
# and hpi strings short, long or with a character other than 0, 1 or 2.
_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**70), st.text(max_size=3),
    st.sampled_from(SEXES), st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(-1, 3) | st.booleans(), max_size=9),
    st.lists(st.sampled_from([0, 1, 2, 0.0, 1.0, 2.0]), min_size=6, max_size=8),
    st.text(st.sampled_from("0120123/:x \u00e9\ud800"), min_size=6, max_size=8),
)


def hpi_entries(text):
    """The in-memory hpi that an hpi string stands for: its characters as
    entries, where any character other than 0, 1 or 2 is an entry out of range."""
    return np.array(["012".index(c) if c in "012" else 3 for c in text], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["id", "age", "sex", "prior_flags", "hpi", "label"]),
       value=_FIELD_VALUES)
def test_save_refuses_a_record_exactly_when_load_refuses_its_line(
    tmp_path_factory, toy, field, value
):
    ds = generate_cohort(toy, 3, seed=0)
    r = ds.records[1]
    row = {"id": r.id, "age": r.age, "sex": r.sex, "prior_flags": list(r.prior_flags),
           "hpi": "".join(map(str, r.hpi)), "label": r.label, field: value}
    # A record holds its flags as a tuple, which a JSON list becomes on load,
    # and its hpi as the array an hpi string stands for.
    if field == "prior_flags" and type(value) is list:
        value = tuple(value)
    elif field == "hpi" and type(value) is str:
        value = hpi_entries(value)
    ds.records[1] = dataclasses.replace(r, **{field: value})
    tmp = tmp_path_factory.mktemp("rule")
    try:
        save_dataset(ds, tmp / "saved.jsonl")
        saved = True
    except (ValidationError, NonFinite):
        saved = False
    try:
        load_dataset(_write_rows(tmp / "line", [row]))
        loaded = True
    except (ParseError, ValidationError):
        loaded = False
    assert saved == loaded


def reference_save(dataset, path):
    """The per-record ``json.dumps`` writer, kept as the byte-for-byte reference."""
    lines = [
        json.dumps({"id": r.id, "age": r.age, "sex": r.sex, "prior_flags": list(r.prior_flags),
                    "hpi": "".join(str(int(v)) for v in r.hpi), "label": r.label},
                   sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        for r in dataset.records
    ]
    path.write_text("".join(lines), encoding="utf-8")


# Ids mix quotes, backslashes, control and non-ASCII characters with the rest
# of Unicode.
_IDS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                         st.characters()), max_size=8)


@st.composite
def random_datasets(draw):
    m, d = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    records = [
        PatientRecord(
            draw(_IDS), draw(st.integers(-10**12, 10**12)), draw(st.sampled_from(SEXES)),
            tuple(draw(st.lists(st.integers(-10**6, 10**6), max_size=3))),
            np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)), dtype=np.int8),
            draw(st.integers(0, d - 1)),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    return PatientDataset(records, tuple(f"d{i}" for i in range(d)), m, "digest")


@settings(max_examples=200, deadline=None)
@given(random_datasets())
def test_save_dataset_matches_per_record_json_dumps(tmp_path_factory, dataset):
    tmp = tmp_path_factory.mktemp("save")
    save_dataset(dataset, tmp / "got.jsonl")
    reference_save(dataset, tmp / "want.jsonl")
    assert (tmp / "got.jsonl").read_bytes() == (tmp / "want.jsonl").read_bytes()


def test_load_rejects_wrong_ontology(tmp_path, toy):
    ds = generate_cohort(toy, 5, seed=0)
    path = tmp_path / "cohort.jsonl"
    save_dataset(ds, path)
    other = benchmark_ontology()
    with pytest.raises(DigestMismatch):
        load_dataset(path, ontology=other)


def _write_rows(tmp_path, rows, m=7, d=3):
    tmp_path.mkdir(parents=True, exist_ok=True)
    header = {
        "D": d,
        "M": m,
        "disease_names": [f"disease_{i:02d}" for i in range(d)],
        "genmodel_digest": None,
        "ontology_digest": toy_ontology().content_digest,
    }
    (tmp_path / "x.header.json").write_text(json.dumps(header))
    (tmp_path / "x.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    return tmp_path / "x.jsonl"


def _row(**overrides):
    row = {
        "id": "p0",
        "age": 40,
        "sex": "male",
        "prior_flags": [0, 1],
        "hpi": "1001000",
        "label": 0,
    }
    row.update(overrides)
    return row


def test_load_rejects_bad_records(tmp_path):
    onto = toy_ontology()
    with pytest.raises(ParseError, match="length"):
        load_dataset(_write_rows(tmp_path / "a", [_row(hpi="100")]))
    with pytest.raises(ParseError, match="0, 1 or 2"):
        load_dataset(_write_rows(tmp_path / "b", [_row(hpi="3000000")]))
    with pytest.raises(ValidationError, match="label"):
        load_dataset(_write_rows(tmp_path / "c", [_row(label=7)]))
    with pytest.raises(ValidationError, match="non-confirmed parent"):
        load_dataset(_write_rows(tmp_path / "d", [_row(hpi="2001000")]), ontology=onto)
    with pytest.raises(ParseError, match="malformed record"):
        p = _write_rows(tmp_path / "e", [])
        p.write_text("{not json\n")
        load_dataset(p)
    with pytest.raises(ParseError, match="sex"):
        load_dataset(_write_rows(tmp_path / "f", [_row(sex="other")]))


def test_load_rejects_missing_header_field(tmp_path):
    path = _write_rows(tmp_path, [_row()])
    (tmp_path / "x.header.json").write_text(json.dumps({"D": 3, "M": 7}))
    with pytest.raises(ParseError, match="header missing"):
        load_dataset(path)


@pytest.mark.parametrize("field", ["label", "age", "sex", "prior_flags", "hpi"])
def test_load_rejects_record_missing_a_field(tmp_path, field):
    row = _row()
    del row[field]
    with pytest.raises(ParseError, match=f"missing field '{field}'"):
        load_dataset(_write_rows(tmp_path, [row]))


@pytest.mark.parametrize("field, value, message", [
    ("age", "forty", "must be integers"), ("age", 40.9, "must be integers"),
    ("label", 0.9, "must be integers"), ("label", True, "must be integers"),
    ("prior_flags", [0.5, 1], "must be integers"), ("prior_flags", None, "must be integers"),
    # A digit 3, a character that is no digit, one past ASCII, one character short.
    ("hpi", "1000300", "0, 1 or 2"), ("hpi", "10x0100", "0, 1 or 2"),
    ("hpi", "10\u00e90100", "0, 1 or 2"), ("hpi", "100010", "length"),
    # A list, which was the format before hpi strings.
    ("hpi", [1, 0, 0, 0, 1, 0, 0], "malformed hpi"),
    # One character long, a number, null.
    ("hpi", "10001000", "length"), ("hpi", 1000100, "malformed hpi"),
    ("hpi", None, "malformed hpi"),
])
def test_load_rejects_non_integer_fields(tmp_path, field, value, message):
    with pytest.raises(ParseError, match=message):
        load_dataset(_write_rows(tmp_path, [_row(**{field: value})]))


def _write_lines(tmp_path, lines):
    path = _write_rows(tmp_path, [])
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.mark.parametrize("edits, error, message", [
    # A list hpi, the format before hpi strings, among string rows.
    ({5: {"hpi": [1, 0, 0, 1, 0, 0, 0]}}, ParseError, "record p5: malformed hpi"),
    ({5: {"label": 9}, 7: {"hpi": "100"}}, ValidationError, "record p5: label 9"),
    # A bad label in the second block, before a line that is not JSON.
    ({LOAD_BLOCK + 1: {"label": 9}, LOAD_BLOCK + 2: "{not json"},
     ValidationError, f"record p{LOAD_BLOCK + 1}: label 9 out of range"),
    # The last record of a block has an unknown sex; the next block opens with a bad hpi.
    ({LOAD_BLOCK - 1: {"sex": None}, LOAD_BLOCK: {"hpi": "3333333"}},
     ParseError, f"record p{LOAD_BLOCK - 1}: unknown sex"),
    ({2 * LOAD_BLOCK + 2: "[1, 2]"}, ParseError, f"line {2 * LOAD_BLOCK + 3}: malformed"),
    # A character that is no digit in a block of valid rows, before a bad label.
    ({5: {"hpi": "1001.00"}, 7: {"label": 9}}, ParseError, "record p5: hpi entries"),
    # An unknown sex, then a line of the same block that lacks a field.
    ({5: {"sex": "other"}, 7: '{"id": "p7", "age": 40}'}, ParseError, "record p5: unknown sex"),
    # A string one short after a record whose own error comes first.
    ({4: {"age": 4.5}, 5: {"hpi": "100100"}}, ParseError, "record p4: label, age"),
    # A string one long before a bad label.
    ({4: {"hpi": "10010000"}, 5: {"label": 9}}, ParseError, r"record p4: hpi of shape \(8,\)"),
])
def test_load_reports_the_first_bad_record_in_file_order(tmp_path, edits, error, message):
    lines = []
    for i in range(2 * LOAD_BLOCK + 5):
        edit = edits.get(i, {})
        lines.append(edit if isinstance(edit, str) else json.dumps(_row(id=f"p{i}", **edit)))
    with pytest.raises(error, match=message):
        load_dataset(_write_lines(tmp_path, lines))


def test_load_reports_a_bad_record_read_before_an_undecodable_byte(tmp_path):
    """The bad label (at about 7 kB) and the byte (at about 13 kB) fall in
    one block of lines but in different 8 kB chunks of the text reader, so a
    reader that checks each line as it reads it meets the label first."""
    lines = [json.dumps(_row(id=f"p{i}", label=9 if i == LOAD_BLOCK + 2 else 0))
             for i in range(2 * LOAD_BLOCK)]
    lines[-1] = lines[-1].replace("male", "m\udcffale")
    path = _write_rows(tmp_path, [])
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(ValidationError, match=f"record p{LOAD_BLOCK + 2}: label 9"):
        load_dataset(path)


def test_load_rejects_non_object_record(tmp_path):
    with pytest.raises(ParseError, match="malformed record"):
        p = _write_rows(tmp_path, [])
        p.write_text("[1, 2]\n")
        load_dataset(p)
