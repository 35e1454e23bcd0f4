"""Simulated-patient data: generative model, cohort sampling, exact posterior.

A cohort is a set of records (history features, ternary HPI vector, disease
label). Records are sampled disease-first from per-disease Bernoulli incidence
tables (naive-Bayes structure), which keeps the exact posterior enumerable so
it can serve as a test oracle for the learned diagnosis model.

HPI coding throughout: 0 = not mentioned / unknown, 1 = confirmed, 2 = denied.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import operator
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import (
    ConfigError,
    DigestMismatch,
    InconsistentEvidence,
    NonFinite,
    ParseError,
    ValidationError,
    check_setting,
    check_settings,
    fields,
    json_line,
    reading,
    setting,
    writing,
)
from .ontology import (
    CLOSED,
    CONFIRMED,
    DENIED,
    FIRST,
    NOT_MENTIONED,
    OPEN,
    SECOND,
    HpiElement,
    HpiOntology,
    Question,
    check_built_against,
    check_hierarchy,
)
from .ontology import validate as validate_ontology

SEXES = ("male", "female")

AGE_MIN = 0.0
AGE_MAX = 100.0

# Signature elements per disease in benchmark_genmodel.
N_SIGNATURES = 3

# Records sampled together by generate_cohort: at the desk shape one block's
# uniforms take about 0.4 MB.
SAMPLE_BLOCK = 256

# Dataset lines that load_dataset parses, decodes and then checks together,
# by the record rule save_dataset applies too. At the desk shape a block's
# parsed rows and decoded HPI peak at about 0.05 MB (tracemalloc); blocks of
# SAMPLE_BLOCK lines raised peak RSS by about 0.25 MB and loaded no faster.
LOAD_BLOCK = 64

# Disjoint RNG stream tags; record streams use plain (seed, index), so tags
# sit far above any realistic record count.
_TAG_SPLIT = 1 << 40
_TAG_GENMODEL = (1 << 40) + 1

# numpy.random.SeedSequence's hash constants, for ``streams``.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_XSHIFT = np.uint64(16)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


@dataclass(eq=False)
class PatientRecord:
    """One simulated patient: structured history plus ternary HPI and label."""

    id: str
    age: int
    sex: str
    prior_flags: tuple[int, ...]
    hpi: np.ndarray  # int8, length M
    label: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatientRecord):
            return NotImplemented
        return (
            self.id == other.id
            and self.age == other.age
            and self.sex == other.sex
            and self.prior_flags == other.prior_flags
            and np.array_equal(self.hpi, other.hpi)
            and self.label == other.label
        )


@dataclass(eq=False)
class PatientDataset:
    records: list[PatientRecord]
    disease_names: tuple[str, ...]
    m: int
    ontology_digest: str
    genmodel_digest: str | None = None

    @property
    def n_diseases(self) -> int:
        return len(self.disease_names)

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatientDataset):
            return NotImplemented
        return (
            self.records == other.records
            and self.disease_names == other.disease_names
            and self.m == other.m
            and self.ontology_digest == other.ontology_digest
            and self.genmodel_digest == other.genmodel_digest
        )


@dataclass(frozen=True, eq=False)
class GenerativeModel:
    """Disease -> HPI incidence tables plus per-disease demographics.

    ``first_level_cpt[d, e]`` is the incidence probability of first-level
    element ``e`` under disease ``d`` (zero at second-level slots).
    ``second_level_cpt[d, e]`` is the incidence of second-level element ``e``
    conditional on its parent being present (zero at first-level slots, and
    required to be zero wherever the parent's incidence is zero).
    ``parent[e]`` is the element's parent id, -1 for first-level elements.

    The model is frozen and holds read-only copies of the tables it is given,
    so ``digest`` is computed once and cannot go stale. It is checked when
    built: a mention rate or a table the sampler cannot use raises ConfigError.
    """

    ontology_digest: str
    disease_names: tuple[str, ...]
    parent: np.ndarray  # int64, length M; -1 for first-level
    priors: np.ndarray  # float64 (D,)
    first_level_cpt: np.ndarray  # float64 (D, M)
    second_level_cpt: np.ndarray  # float64 (D, M)
    age_mean: np.ndarray  # float64 (D,)
    age_std: np.ndarray  # float64 (D,)
    p_female: np.ndarray  # float64 (D,)
    flag_probs: np.ndarray  # float64 (D, F)
    mention_prob: float = setting(0.3, "rate")

    @property
    def n_diseases(self) -> int:
        return len(self.disease_names)

    @property
    def n_elements(self) -> int:
        return len(self.parent)

    @property
    def n_flags(self) -> int:
        return self.flag_probs.shape[1]

    def first_level_ids(self) -> np.ndarray:
        return np.flatnonzero(self.parent < 0)

    def children_of(self, element_id: int) -> np.ndarray:
        return np.flatnonzero(self.parent == element_id)

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                table = value.copy()
                table.flags.writeable = False
                object.__setattr__(self, f.name, table)
        check_settings(self)
        if self.parent.ndim != 1 or self.parent.dtype.kind not in "iu":
            raise ConfigError("parent must be a 1-D integer array")
        d, m = self.n_diseases, self.n_elements
        if self.priors.shape != (d,):
            raise ConfigError("priors shape does not match disease count")
        if self.first_level_cpt.shape != (d, m) or self.second_level_cpt.shape != (d, m):
            raise ConfigError("incidence tables must have shape (diseases, elements)")
        if any(a.shape != (d,) for a in (self.age_mean, self.age_std, self.p_female)) or (
            self.flag_probs.ndim != 2 or len(self.flag_probs) != d
        ):
            raise ConfigError("demographic tables must have one row per disease")
        probabilities = {"priors": self.priors, "first_level_cpt": self.first_level_cpt,
                         "second_level_cpt": self.second_level_cpt, "p_female": self.p_female,
                         "flag_probs": self.flag_probs}
        for name, arr in {**probabilities, "age_mean": self.age_mean,
                          "age_std": self.age_std}.items():
            # NaN fails every comparison, so the range checks below would pass it.
            if not np.isfinite(arr).all():
                raise ConfigError(f"{name} contains NaN or infinite values")
        for name, arr in probabilities.items():
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ConfigError(f"{name} contains probabilities outside [0, 1]")
        if abs(float(self.priors.sum()) - 1.0) > 1e-9:
            raise ConfigError("priors must sum to 1")
        if np.any((self.parent < -1) | (self.parent >= m)):
            raise ConfigError(f"parent entries must lie in [-1, {m})")
        first = self.parent < 0
        if not first.any():
            raise ConfigError("model has no first-level elements")
        second_ids = np.flatnonzero(~first)
        nested = second_ids[~first[self.parent[second_ids]]]
        if nested.size:
            raise ConfigError(f"element {nested[0]} has a second-level parent")
        if np.any(self.first_level_cpt[:, ~first] != 0.0):
            raise ConfigError("first_level_cpt must be zero at second-level slots")
        if np.any(self.second_level_cpt[:, first] != 0.0):
            raise ConfigError("second_level_cpt must be zero at first-level slots")
        parent_inc = self.first_level_cpt[:, self.parent[second_ids]]
        orphaned = (parent_inc == 0.0) & (self.second_level_cpt[:, second_ids] != 0.0)
        if np.any(orphaned):
            d_bad, j_bad = np.argwhere(orphaned)[0]
            raise ConfigError(
                f"second_level_cpt[{d_bad}, {second_ids[j_bad]}] set although parent "
                "incidence is zero"
            )

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        canon = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"),
                          default=np.ndarray.tolist).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Synthetic ontology generation
# ---------------------------------------------------------------------------

def generate_ontology(m1: int, m2: int, n_open: int = 0, n_closed: int | None = None) -> HpiOntology:
    """Build a synthetic two-level ontology with full question coverage.

    First-level elements get ids 0..m1-1; second-level children are assigned
    round-robin to parents. Closed questions cover every element (extras wrap
    around); open questions probe sibling groups of 2-4 children.
    """
    check_setting("m1", m1, "count", integral=True)
    check_setting("m2", m2, "non-negative", integral=True)
    check_setting("n_open", n_open, "non-negative", integral=True)
    m = m1 + m2
    if n_closed is None:
        n_closed = m
    check_setting("n_closed", n_closed, "count", integral=True)
    if n_closed < m:
        raise ConfigError("closed question count below element count leaves elements unreachable")

    elements = [HpiElement(i, FIRST, None, f"finding_{i:03d}") for i in range(m1)]
    for j in range(m2):
        parent = j % m1
        elements.append(
            HpiElement(m1 + j, SECOND, parent, f"finding_{parent:03d}/detail_{j // m1:02d}")
        )

    questions = [Question(q, CLOSED, (q % m,)) for q in range(n_closed)]
    if n_open > 0:
        hosts = [e.id for e in elements[:m1] if sum(1 for j in range(m2) if j % m1 == e.id) >= 2]
        if not hosts:
            raise ConfigError("open questions need a parent with at least two children")
        ontology_tmp = HpiOntology(tuple(elements), ())
        for k in range(n_open):
            parent = hosts[k % len(hosts)]
            siblings = ontology_tmp.children_of(parent)
            size = min(len(siblings), 2 + k % 3)
            questions.append(Question(n_closed + k, OPEN, tuple(siblings[:size])))

    ontology = HpiOntology(tuple(elements), tuple(questions))
    report = validate_ontology(ontology)
    if not report.ok:
        raise ValidationError(report.findings[0])
    return ontology


# ---------------------------------------------------------------------------
# Reference models: small fixed toy and the seeded desk benchmark
# ---------------------------------------------------------------------------

def toy_ontology() -> HpiOntology:
    """7 elements (3 first-level), 8 questions; small enough for brute force."""
    return generate_ontology(m1=3, m2=4, n_open=1)


def toy_genmodel(ontology: HpiOntology | None = None) -> GenerativeModel:
    """Fixed 3-disease model with strong per-disease marker elements.

    Demographics are identical across diseases, so the HPI-only posterior is
    the full Bayes-optimal classifier for this model.
    """
    onto = ontology if ontology is not None else toy_ontology()
    m = onto.n_elements
    parent = np.where(onto.index.second, onto.index.up, -1)
    d = 3
    cpt1 = np.zeros((d, m))
    cpt1[:, 0] = (0.92, 0.06, 0.10)
    cpt1[:, 1] = (0.08, 0.90, 0.07)
    cpt1[:, 2] = (0.06, 0.10, 0.88)
    cpt2 = np.zeros((d, m))
    cpt2[:, 3] = (0.85, 0.15, 0.30)  # parent 0
    cpt2[:, 4] = (0.25, 0.80, 0.15)  # parent 1
    cpt2[:, 5] = (0.15, 0.25, 0.90)  # parent 2
    cpt2[:, 6] = (0.75, 0.25, 0.15)  # parent 0
    return GenerativeModel(
        ontology_digest=onto.content_digest,
        disease_names=("disease_00", "disease_01", "disease_02"),
        parent=parent,
        priors=np.array([0.5, 0.3, 0.2]),
        first_level_cpt=cpt1,
        second_level_cpt=cpt2,
        age_mean=np.full(d, 50.0),
        age_std=np.full(d, 15.0),
        p_female=np.full(d, 0.5),
        flag_probs=np.full((d, 2), 0.2),
        mention_prob=0.3,
    )


def benchmark_ontology() -> HpiOntology:
    """Desk-scale ontology: 30 first-level, 60 second-level, 90 closed + 10 open."""
    return generate_ontology(m1=30, m2=60, n_open=10)


def benchmark_genmodel(
    ontology: HpiOntology,
    n_diseases: int = 20,
    seed: int = 0,
    n_flags: int = 8,
) -> GenerativeModel:
    """Seeded random incidence tables with per-disease signature elements.

    Sibling groups probed by open questions act as common complaints: every
    disease presents them at the same high rate, so confirming one says
    little by itself. The signal lives one level down. Each disease gets
    ``N_SIGNATURES`` signature elements at marginal incidence 0.7-0.9 among
    those groups' children, next to moderately disease-specific siblings,
    and the remaining first-level elements are low-incidence background.
    Detail findings mostly surface only under direct questioning, so the
    tables favor a policy that works complaint groups over one that probes
    at random. Ontologies without open questions fall back to first-level
    signatures over the same background. Fewer than one disease, a negative
    flag count or a negative seed raises ConfigError.
    """
    check_setting("n_diseases", n_diseases, "count", integral=True)
    check_setting("n_flags", n_flags, "non-negative", integral=True)
    check_setting("seed", seed, "non-negative", integral=True)
    rng = np.random.default_rng([seed, _TAG_GENMODEL])
    m = ontology.n_elements
    first_ids = np.array(ontology.first_level_ids())
    parent = np.where(ontology.index.second, ontology.index.up, -1)

    weights = rng.uniform(0.7, 1.3, n_diseases)
    priors = weights / weights.sum()

    common = sorted({
        int(parent[t]) for q in ontology.questions if q.kind == OPEN for t in q.targets
    })
    common_set = set(common)
    child_pool = np.array([e for e in range(m) if parent[e] in common_set])
    deep_signatures = len(child_pool) >= N_SIGNATURES

    cpt1 = np.zeros((n_diseases, m))
    cpt2 = np.zeros((n_diseases, m))
    signature = np.zeros((n_diseases, m), dtype=bool)
    for d in range(n_diseases):
        cpt1[d, first_ids] = rng.uniform(0.01, 0.08, len(first_ids))
    for f, inc in zip(common, rng.uniform(0.93, 0.97, len(common))):
        cpt1[:, f] = inc
    for d in range(n_diseases):
        pool = child_pool if deep_signatures else first_ids
        sig = rng.choice(pool, size=min(N_SIGNATURES, len(pool)), replace=False)
        signature[d, sig] = True
        if not deep_signatures:
            cpt1[d, sig] = rng.uniform(0.7, 0.9, len(sig))
    for e in range(m):
        p = parent[e]
        if p < 0:
            continue
        if p in common_set:
            # Conditional rates chosen so signature children keep a 0.7-0.9
            # marginal incidence under parents at 0.93-0.97.
            base = rng.uniform(0.05, 0.8, n_diseases)
            cpt2[:, e] = np.where(signature[:, e], rng.uniform(0.76, 0.92, n_diseases), base)
        else:
            cpt2[:, e] = np.where(signature[:, p], rng.uniform(0.5, 0.9, n_diseases),
                                  rng.uniform(0.05, 0.35, n_diseases))

    return GenerativeModel(
        ontology_digest=ontology.content_digest,
        disease_names=tuple(f"disease_{d:02d}" for d in range(n_diseases)),
        parent=parent,
        priors=priors,
        first_level_cpt=cpt1,
        second_level_cpt=cpt2,
        age_mean=rng.uniform(30.0, 70.0, n_diseases),
        age_std=np.full(n_diseases, 12.0),
        p_female=rng.uniform(0.35, 0.65, n_diseases),
        flag_probs=rng.uniform(0.05, 0.3, (n_diseases, n_flags)),
        mention_prob=0.3,
    )


# ---------------------------------------------------------------------------
# Cohort sampling
# ---------------------------------------------------------------------------

def _uint32_words(k: int) -> list[int]:
    """``k >= 0`` as SeedSequence splits it: 32-bit words, low first; 0 is one word."""
    words = [k & _MASK32]
    while k := k >> 32:
        words.append(k & _MASK32)
    return words


def _word_hash(const: int, mult: int):
    """SeedSequence's running hash of 32-bit words held in uint64 arrays:
    each call folds in the running constant, then advances it by ``mult``."""

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint64(const)
        const = const * mult & _MASK32
        value = value * np.uint64(const) & np.uint64(_MASK32)
        return value ^ value >> _XSHIFT

    return hash_words


class _HashedState(ISeedSequence):
    """Seeds a bit generator with state words ``streams`` already hashed:
    ``PCG64`` asks for ``generate_state(4, np.uint64)``, which is ``words``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def streams(key: Iterable[int], ids: Iterable[int]) -> list[np.random.Generator]:
    """Generators in exactly the states of
    ``[np.random.default_rng([*key, i]) for i in ids]``, built together.

    ``default_rng`` spends most of its time in ``SeedSequence``'s hash of the
    entropy words. Here that hash (``mix_entropy`` then
    ``generate_state(4, np.uint64)``) runs on uint64 arrays masked to 32 bits,
    over every id at once, and each ``PCG64`` takes its four words from it.
    Each id must be in [0, 2**32), so that it is one entropy word. A negative
    key entry or an id out of range raises ConfigError.
    """
    for k in key:
        check_setting("seed", k, "non-negative", integral=True)
    key = [operator.index(k) for k in key]
    ids = [operator.index(i) for i in ids]
    bad = [i for i in ids if not 0 <= i <= _MASK32]
    if bad:
        raise ConfigError(f"RNG stream ids must lie in [0, 2**32), got {bad[0]}")
    n = len(ids)
    entropy = [np.full(n, w, dtype=np.uint64) for k in key for w in _uint32_words(k)]
    entropy.append(np.array(ids, dtype=np.uint64))

    hash_a = _word_hash(_INIT_A, _MULT_A)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & np.uint64(_MASK32)
        return r ^ r >> _XSHIFT

    zero = np.zeros(n, dtype=np.uint64)
    pool = [hash_a(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hash_a(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hash_a(word))

    hash_b = _word_hash(_INIT_B, _MULT_B)
    state = np.stack([hash_b(pool[j % _POOL_SIZE]) for j in range(2 * _POOL_SIZE)], axis=1)
    # Little-endian pairs of 32-bit words make the 64-bit ones.
    state = state[:, 0::2] | state[:, 1::2] << np.uint64(32)
    return [np.random.Generator(np.random.PCG64(_HashedState(w))) for w in state]


@dataclass(frozen=True)
class _SamplerIndex:
    """What every record of one cohort reads from the model, built once."""

    prior_cdf: np.ndarray  # (D,) normalized cumulative priors
    root: np.ndarray  # (M,) the element itself if first-level, else its parent
    incidence: np.ndarray  # (D, M) first-level CPT at first-level slots, second-level elsewhere

    @classmethod
    def of(cls, gm: GenerativeModel) -> _SamplerIndex:
        # The normalization matches rng.choice(D, p=priors), which places
        # one uniform in this CDF.
        cdf = gm.priors.cumsum()
        cdf /= cdf[-1]
        first = gm.parent < 0
        root = np.where(first, np.arange(gm.n_elements), gm.parent)
        return cls(cdf, root, np.where(first, gm.first_level_cpt, gm.second_level_cpt))


def _sample_block(
    gm: GenerativeModel, index: _SamplerIndex, seed: int, ids: range
) -> list[PatientRecord]:
    """Records ``ids`` of a ``generate_cohort`` cohort, sampled together."""
    f, m = gm.n_flags, gm.n_elements
    u_disease = np.empty(len(ids))
    z_age = np.empty(len(ids))
    u = np.empty((len(ids), 1 + f + 2 * m))
    for j, rng in enumerate(streams((seed,), ids)):
        u_disease[j] = rng.random()
        z_age[j] = rng.standard_normal()
        rng.random(out=u[j])

    d = index.prior_cdf.searchsorted(u_disease, side="right")
    # np.rint rounds half to even, as round() does.
    age = np.clip(np.rint(gm.age_mean[d] + gm.age_std[d] * z_age), AGE_MIN, AGE_MAX)
    female = u[:, 0] < gm.p_female[d]
    flags = (u[:, 1 : 1 + f] < gm.flag_probs[d]).astype(int).tolist()
    present = u[:, 1 + f : 1 + f + m] < index.incidence[d]
    own = np.where(u[:, 1 + f + m :] < gm.mention_prob, DENIED, NOT_MENTIONED).astype(np.int8)
    own[present] = CONFIRMED
    # A child reads its own status under a present parent, the parent's otherwise.
    hpi = np.where(present[:, index.root], own, own[:, index.root])
    return [
        PatientRecord(f"p{i:06d}", a, "female" if w else "male", tuple(fl), h, label)
        for i, a, w, fl, h, label in zip(
            ids, age.astype(int).tolist(), female.tolist(), flags, hpi, d.tolist()
        )
    ]


def generate_cohort(gm: GenerativeModel, n: int, seed: int) -> PatientDataset:
    """Sample ``n`` records; bit-identical for identical (model, n, seed).

    Record ``i`` draws from its own stream, ``streams((seed,), ...)``'s
    stream ``i``, so the output does not depend on how records are scheduled,
    and the cohort's first ``k`` records are those of any cohort of ``k`` or
    more. Records are sampled in blocks of ``SAMPLE_BLOCK``, which bounds the
    draw buffers whatever ``n`` is and leaves every byte as a
    record-by-record loop gives. A negative seed raises ConfigError.

    Draw order per stream, fixed because the bytes of every cohort depend on
    it: one uniform for the disease (placed in the prior CDF, the same single
    draw ``rng.choice(D, p=priors)`` makes), one normal for age (rounded half
    to even, then clamped to [AGE_MIN, AGE_MAX]), then ``1 + F + 2M``
    uniforms in one call: sex, ``F`` flags, ``M`` presence and ``M`` mention
    uniforms, one per element slot whether or not the slot uses it.

    Family rule: a present first-level element is confirmed and its children
    are sampled on their own (confirmed if present, else denied if mentioned);
    an absent one is denied if mentioned, else not mentioned, and its children
    share that status.
    """
    check_setting("cohort size", n, "count", integral=True)
    index = _SamplerIndex.of(gm)
    records = []
    for start in range(0, n, SAMPLE_BLOCK):
        records += _sample_block(gm, index, seed, range(start, min(start + SAMPLE_BLOCK, n)))
    return PatientDataset(
        records=records,
        disease_names=gm.disease_names,
        m=gm.n_elements,
        ontology_digest=gm.ontology_digest,
        genmodel_digest=gm.digest(),
    )


# ---------------------------------------------------------------------------
# Exact posterior oracle
# ---------------------------------------------------------------------------

def bayes_posterior(gm: GenerativeModel, evidence: np.ndarray) -> np.ndarray:
    """Exact disease posterior given a ternary observation over all elements.

    Confirmed (1) means the finding is present, denied (2) absent, unknown (0)
    unobserved and marginalized. Families (a first-level element plus its
    children) are independent given the disease; within a family an unknown
    parent is summed over both presence branches in log space.
    """
    evidence = np.asarray(evidence)
    if evidence.shape != (gm.n_elements,):
        raise ConfigError("evidence length does not match element count")
    second = np.flatnonzero(gm.parent >= 0)
    bad = second[(evidence[second] == CONFIRMED) & (evidence[gm.parent[second]] == DENIED)]
    if bad.size:
        raise InconsistentEvidence(f"element {bad[0]} confirmed under denied parent")

    with np.errstate(divide="ignore"):
        log_q1 = np.log(gm.first_level_cpt)
        log_not_q1 = np.log1p(-gm.first_level_cpt)
        log_q2 = np.log(gm.second_level_cpt)
        log_not_q2 = np.log1p(-gm.second_level_cpt)

    ll = np.log(gm.priors.astype(float))
    for f in gm.first_level_ids():
        children = gm.children_of(f)
        present = np.zeros(gm.n_diseases)
        any_child_confirmed = False
        for c in children:
            if evidence[c] == CONFIRMED:
                present = present + log_q2[:, c]
                any_child_confirmed = True
            elif evidence[c] == DENIED:
                present = present + log_not_q2[:, c]
        if evidence[f] == CONFIRMED:
            ll = ll + log_q1[:, f] + present
        elif evidence[f] == DENIED:
            ll = ll + log_not_q1[:, f]
        else:
            absent = -np.inf if any_child_confirmed else 0.0
            ll = ll + np.logaddexp(log_q1[:, f] + present, log_not_q1[:, f] + absent)

    top = ll.max()
    if not np.isfinite(top):
        raise InconsistentEvidence("evidence has zero likelihood under every disease")
    post = np.exp(ll - top)
    return post / post.sum()


def full_evidence(hpi: np.ndarray) -> np.ndarray:
    """Map a record's HPI to a fully-observed ternary: present -> confirmed,
    everything else -> denied (absence, whether denied or unmentioned)."""
    return np.where(np.asarray(hpi) == CONFIRMED, CONFIRMED, DENIED).astype(np.int8)


def enumerate_bayes_rate(gm: GenerativeModel, max_states: int = 1_000_000) -> float:
    """Bayes-optimal accuracy under full observation, by exact enumeration.

    Walks every hierarchy-consistent presence assignment (absent parents force
    absent children) and sums max_d prior_d * P(x | d). Only feasible for toy
    models; the state count is checked against ``max_states``.
    """
    families = []
    n_states = 1
    for f in gm.first_level_ids():
        children = gm.children_of(f)
        n_states *= 1 + (1 << len(children))
        if n_states > max_states:
            raise ConfigError("model too large for exact enumeration")
        configs = [(1.0 - gm.first_level_cpt[:, f])]  # parent absent, all children absent
        for bits in range(1 << len(children)):
            p = gm.first_level_cpt[:, f].copy()
            for k, c in enumerate(children):
                q = gm.second_level_cpt[:, c]
                p = p * (q if bits >> k & 1 else 1.0 - q)
            configs.append(p)
        families.append(np.stack(configs))

    rate = 0.0
    stack = [(0, gm.priors.astype(float))]
    while stack:
        depth, probs = stack.pop()
        if depth == len(families):
            rate += float(probs.max())
            continue
        for cfg in families[depth]:
            stack.append((depth + 1, probs * cfg))
    return rate


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def split_dataset(
    dataset: PatientDataset, ratios: tuple[float, float, float], seed: int
) -> tuple[PatientDataset, PatientDataset, PatientDataset]:
    """Disjoint shuffled train/val/test split; floor sizes, remainder to train.
    Bad ratios or a negative seed raise ConfigError."""
    check_setting("seed", seed, "non-negative", integral=True)
    if len(ratios) != 3 or any(not r > 0 for r in ratios):  # NaN is not > 0
        raise ConfigError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError("ratios must sum to 1")
    n = len(dataset)
    sizes = [int(math.floor(n * r + 1e-9)) for r in ratios]
    sizes[0] += n - sum(sizes)
    perm = np.random.default_rng([seed, _TAG_SPLIT]).permutation(n)
    out = []
    start = 0
    for size in sizes:
        chosen = sorted(perm[start : start + size])
        out.append(
            PatientDataset(
                records=[dataset.records[i] for i in chosen],
                disease_names=dataset.disease_names,
                m=dataset.m,
                ontology_digest=dataset.ontology_digest,
                genmodel_digest=dataset.genmodel_digest,
            )
        )
        start += size
    return out[0], out[1], out[2]


# ---------------------------------------------------------------------------
# History encoding
# ---------------------------------------------------------------------------

_FLAGS_AT = 1 + len(SEXES)  # a history row is [age, sex one-hot, flags]


def history_width(records: list[PatientRecord]) -> int:
    """Age, the sex one-hot and the most flags any of ``records`` carries."""
    return _FLAGS_AT + max((len(r.prior_flags) for r in records), default=0)


def encode_histories(records: list[PatientRecord], width: int) -> np.ndarray:
    """Deterministic structured history rows, one per record, in float64:
    [age, sex one-hot, flags, 0...].

    Age is min-max normalized to [0, 1] against [AGE_MIN, AGE_MAX]. A width
    below ``history_width(records)`` raises ConfigError; a record with fewer
    flags leaves its last slots zero.
    """
    needed = history_width(records)
    if width < needed:
        raise ConfigError(f"history width {width} below required {needed}")
    for r in records:
        if r.sex not in SEXES:
            raise ConfigError(f"unknown sex {r.sex!r}")
    out = np.zeros((len(records), width))
    out[:, 0] = [min(max((r.age - AGE_MIN) / (AGE_MAX - AGE_MIN), 0.0), 1.0) for r in records]
    for j, sex in enumerate(SEXES):
        out[:, 1 + j] = [r.sex == sex for r in records]
    for row, r in zip(out, records):
        row[_FLAGS_AT : _FLAGS_AT + len(r.prior_flags)] = r.prior_flags
    return out


def encode_history(record: PatientRecord, width: int) -> np.ndarray:
    """``encode_histories`` of one record."""
    return encode_histories([record], width)[0]


# ---------------------------------------------------------------------------
# Dataset files: JSON-lines records plus a sidecar header
# ---------------------------------------------------------------------------

_RECORD_FIELDS = ("hpi", "label", "age", "sex", "prior_flags")

# The dataset header's fields and their kinds (``errors.fields``); the
# optional ``genmodel_digest`` is a string or null.
_HEADER = {"D": int, "M": int, "disease_names": [str], "ontology_digest": str}


def _header_path(path: Path) -> Path:
    return path.with_name(path.stem + ".header.json")


def _check_records(
    records: list[PatientRecord], m: int, d: int, hpi: np.ndarray | None = None
) -> np.ndarray | tuple[int, str, str]:
    """The record rule of dataset files, which ``save_dataset`` applies before
    it writes and ``load_dataset`` after it decodes: the records' hpi stacked
    as an (N, M) int8 matrix, or ``(index, rule, message)`` for the first
    record that breaks a rule and the first rule it breaks, the message naming
    it. ``hpi`` is the records' hpi already stacked, where the caller has it.

    The rules, in order: "id", a string; "integers", age, label and each flag
    exact ints (a bool is not one) and the flags a tuple; "hpi", an integer
    numpy array of M entries, each 0, 1 or 2 (any other value, such as a
    list, is malformed); "label", in [0, d); "sex", one of SEXES.
    A float NaN or infinity breaks "non-finite" in place of "integers" or
    "hpi". The hpi rule is checked once over the stacked matrix, and the flag
    types once over all the records' flags; each is checked on a record alone
    only when that check fails.
    """
    if hpi is None and all(type(r.hpi) is np.ndarray and r.hpi.dtype.kind in "iu"
                           for r in records):
        with suppress(ValueError):  # rows of differing shapes do not stack
            hpi = np.array([r.hpi for r in records])
    stacked = (hpi is not None and hpi.shape == (len(records), m)
               and not ((hpi < 0) | (hpi > 2)).any())
    all_flags = list(map(operator.attrgetter("prior_flags"), records))
    flags_ok = (set(map(type, all_flags)) <= {tuple}
                and set(map(type, chain.from_iterable(all_flags))) <= {int})
    for i, r in enumerate(records):
        age, label, flags = r.age, r.label, r.prior_flags
        if type(r.id) is not str:
            return i, "id", f"record id {r.id!r} is not a string"
        if not (type(age) is int and type(label) is int
                and (flags_ok or (type(flags) is tuple
                                  and all(type(v) is int for v in flags)))):
            values = (age, label, *flags) if type(flags) is tuple else (age, label)
            nan = any(isinstance(v, float) and not math.isfinite(v) for v in values)
            return (i, "non-finite" if nan else "integers",
                    f"record {r.id}: label, age and prior_flags must be integers")
        if not stacked:
            h = r.hpi
            if type(h) is not np.ndarray:
                return i, "hpi", f"record {r.id}: malformed hpi"
            if h.shape != (m,):
                return i, "hpi", f"record {r.id}: hpi of shape {h.shape} is not of length M={m}"
            if h.dtype.kind not in "iu" or ((h < 0) | (h > 2)).any():
                nan = h.dtype.kind == "f" and not np.isfinite(h).all()
                return (i, "non-finite" if nan else "hpi",
                        f"record {r.id}: hpi entries must be 0, 1 or 2")
        if not 0 <= label < d:
            return i, "label", f"record {r.id}: label {label} out of range"
        if r.sex not in SEXES:
            return i, "sex", f"record {r.id}: unknown sex {r.sex!r}"
    # No record broke a rule, so ``hpi`` holds M integers a row, or is empty.
    return hpi.reshape(len(records), m).astype(np.int8, copy=False)


def _record_lines(records: list[PatientRecord], hpi: np.ndarray) -> list[str]:
    """The JSON lines of ``records``, whose stacked hpi is ``hpi``: the bytes
    of ``json.dumps`` with sorted keys and no spaces of each record, its hpi
    written as one string of M digits, without a per-record ``json.dumps``."""
    m = hpi.shape[1]
    hpi_text = (hpi + ord("0")).tobytes().decode("ascii")
    flag_text = {fl: ",".join(map(str, fl)) for fl in {r.prior_flags for r in records}}
    sex_text = {s: encode_basestring_ascii(s) for s in SEXES}
    return [
        f'{{"age":{r.age},"hpi":"{hpi_text[i * m : (i + 1) * m]}",'
        f'"id":{encode_basestring_ascii(r.id)},"label":{r.label},'
        f'"prior_flags":[{flag_text[r.prior_flags]}],"sex":{sex_text[r.sex]}}}\n'
        for i, r in enumerate(records)
    ]


def save_dataset(dataset: PatientDataset, path: str | Path) -> None:
    """Write records as JSON-lines plus a ``*.header.json`` sidecar; lossless.
    Each line is one record's JSON object with sorted keys and no spaces, its
    ``"hpi"`` one string of M digits 0, 1 and 2 (``_record_lines``).

    The records are checked by the one record rule the loader applies too
    (``_check_records``). The first bad record raises ValidationError naming
    it and the first rule it breaks, or NonFinite for a NaN or infinity, before
    either file is created; a file that cannot be written raises IoError and
    leaves neither."""
    path = Path(path)
    header = {
        "D": dataset.n_diseases,
        "M": dataset.m,
        "disease_names": list(dataset.disease_names),
        "genmodel_digest": dataset.genmodel_digest,
        "ontology_digest": dataset.ontology_digest,
    }
    head = json_line(header, "dataset")
    hpi = _check_records(dataset.records, dataset.m, dataset.n_diseases)
    if isinstance(hpi, tuple):
        _, rule, message = hpi
        raise (NonFinite if rule == "non-finite" else ValidationError)(message)
    lines = _record_lines(dataset.records, hpi)
    with writing(_header_path(path)) as head_fh, writing(path) as fh:
        head_fh.write(head)
        fh.writelines(lines)


def _load_block(
    block: list[tuple[int, str]], m: int, d: int, ontology: HpiOntology | None
) -> list[PatientRecord]:
    """The records of ``block``'s ``(lineno, line)`` pairs, each line parsed
    once and the hpi strings of all decoded together. The records before the
    first line that is not a JSON object or lacks a field are checked by
    ``_check_records`` and, given an ``ontology``, against its hierarchy;
    then that line raises ParseError."""
    records: list[PatientRecord] = []
    for lineno, line in block:
        try:
            row = json.loads(line)
        except (ValueError, RecursionError):
            row = None
        if type(row) is not dict or any(k not in row for k in _RECORD_FIELDS):
            break
        flags = row["prior_flags"]
        records.append(PatientRecord(
            row.get("id", f"line{lineno}"), row["age"], row["sex"],
            tuple(flags) if type(flags) is list else flags, row["hpi"], row["label"],
        ))
    # Each hpi string becomes the int8 row of its characters' codes less
    # ord("0"), all in one call. "replace" turns a character past ASCII into
    # "?", so every string keeps its length and a stray character reads as an
    # entry out of range. Any other hpi value stays, for the rule to refuse.
    coded = [r for r in records if type(r.hpi) is str]
    codes = np.frombuffer("".join([r.hpi for r in coded]).encode("ascii", "replace"),
                          np.int8) - ord("0")
    lengths = [len(r.hpi) for r in coded]
    hpi = codes.reshape(len(coded), m) if lengths.count(m) == len(coded) else None
    rows = np.split(codes, np.cumsum(lengths[:-1])) if hpi is None else hpi
    for r, h in zip(coded, rows):
        r.hpi = h
    hpi = _check_records(records, m, d, hpi)
    if isinstance(hpi, tuple):
        i, rule, message = hpi
        raise (ValidationError if rule == "label" else ParseError)(f"line {block[i][0]}: {message}")
    if ontology is not None and records:
        check_hierarchy(ontology, hpi, "record", [r.id for r in records])
    if len(records) < len(block):  # the loop stopped at ``row``, read from line ``lineno``
        missing = [k for k in _RECORD_FIELDS if k not in row] if type(row) is dict else []
        raise ParseError(f"line {lineno}: "
                         + (f"missing field {missing[0]!r}" if missing else "malformed record"))
    return records


def load_dataset(path: str | Path, ontology: HpiOntology | None = None) -> PatientDataset:
    """Read a dataset back. Each record's hpi string is decoded to M int8
    entries, and the record is checked by the one record rule the writer
    applies too (``_check_records``), and, given ``ontology``, against its
    digest and hierarchy. A file that cannot be read raises IoError; the
    first bad record in file order raises ParseError, or ValidationError for a
    label out of range or a hierarchy broken, naming its line and the first
    rule it breaks. An hpi that is not a string, such as the list of integers
    of the format before hpi strings, is a malformed hpi."""
    path = Path(path)
    with reading(f"dataset {path}"):
        raw = json.loads(_header_path(path).read_text(encoding="utf-8"))
        header = fields(raw, _HEADER, "header")
        genmodel_digest = raw.get("genmodel_digest")
        if genmodel_digest is not None:
            fields(raw, {"genmodel_digest": str}, "header")
        m, d, names = header["M"], header["D"], header["disease_names"]
        if m < 0 or len(names) != d:  # so D >= 0 too
            raise ParseError("header M must be non-negative and disease_names D strings")
        if ontology is not None:
            check_built_against(ontology, [("dataset", header["ontology_digest"])])
            if ontology.n_elements != m:
                raise DigestMismatch("header element count does not match ontology")

        records: list[PatientRecord] = []
        block: list[tuple[int, str]] = []
        with open(path, encoding="utf-8") as fh:
            try:
                for lineno, line in enumerate(fh, start=1):
                    if line.strip():
                        block.append((lineno, line))
                    if len(block) == LOAD_BLOCK:
                        records += _load_block(block, m, d, ontology)
                        block = []
            except (OSError, UnicodeDecodeError):
                # A bad record read before the failed read is reported first, as
                # a line-by-line reader would.
                _load_block(block, m, d, None)
                raise
        records += _load_block(block, m, d, ontology)
        return PatientDataset(
            records=records,
            disease_names=names,
            m=m,
            ontology_digest=header["ontology_digest"],
            genmodel_digest=genmodel_digest,
        )
