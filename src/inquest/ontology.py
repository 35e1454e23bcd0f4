"""Two-level HPI element hierarchy and the question catalog built on top of it.

The ontology fixes both the state space (one ternary slot per element) and the
action space (one action per question). Values are immutable after load and are
safe to share across workers.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DigestMismatch, ParseError, ValidationError, reading, writing

FIRST = 1
SECOND = 2

# Ternary status of one element slot, shared by records and dialogue state.
NOT_MENTIONED = 0
CONFIRMED = 1
DENIED = 2

CLOSED = "closed"
OPEN = "open"

HPI_FILENAME = "hpi.csv"
QUESTIONS_FILENAME = "questions.csv"
HPI_COLUMNS = ("id", "level", "parent_id", "name")
QUESTION_COLUMNS = ("id", "kind", "target_ids")


@dataclass(frozen=True)
class HpiElement:
    """One finding in the two-level hierarchy.

    Ids are dense integers and are the canonical identity; names are
    display-only. ``parent`` is set iff ``level == SECOND``.
    """

    id: int
    level: int
    parent: int | None
    name: str


@dataclass(frozen=True)
class Question:
    """One catalog question. Closed questions probe a single element; open
    questions probe several sibling second-level elements at once."""

    id: int
    kind: str
    targets: tuple[int, ...]  # sorted, deduplicated


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass(frozen=True)
class OntologyIndex:
    """Array form of the hierarchy and catalog, for code that works on
    (N, M) status arrays instead of walking elements one by one.

    ``up[e]`` is the parent of a second-level element and ``e`` itself for a
    first-level one, so gathers through it never index out of range;
    ``second`` marks the elements that have a parent. ``targets[e, q]`` is 1
    when question ``q`` probes element ``e``; ``gates[p, q]`` is 1 when ``p``
    is the parent of a target of ``q``, so ``q`` is legal only while ``p`` is
    confirmed. Both are float32 so that a product with a 0/1 status mask is
    one sgemm that counts, one column per question. Such a count is at most
    M, and float32 holds every integer up to 2**24 exactly, so the counts
    are exact. ``levels[e]`` is the one-hot (first, second) of ``e``'s level,
    for the same kind of count by level.
    """

    up: np.ndarray  # int64 (M,)
    second: np.ndarray  # bool (M,)
    targets: np.ndarray  # float32 (M, K), 0/1
    gates: np.ndarray  # float32 (M, K), 0/1
    levels: np.ndarray  # float32 (M, 2), 0/1


@dataclass(frozen=True)
class HpiOntology:
    """Immutable element hierarchy plus question catalog."""

    elements: tuple[HpiElement, ...]
    questions: tuple[Question, ...]
    m1: int = field(init=False, default=0)
    m2: int = field(init=False, default=0)
    content_digest: str = field(init=False, default="")

    def __post_init__(self) -> None:
        m1 = sum(1 for e in self.elements if e.level == FIRST)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", len(self.elements) - m1)
        object.__setattr__(self, "content_digest", _digest(self.elements, self.questions))

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_questions(self) -> int:
        return len(self.questions)

    def parent_of(self, element_id: int) -> int | None:
        return self.elements[element_id].parent

    def children_of(self, element_id: int) -> tuple[int, ...]:
        return self._children_map.get(element_id, ())

    def first_level_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.elements if e.level == FIRST)

    @cached_property
    def index(self) -> OntologyIndex:
        """The array index, built on first use and cached."""
        m, k = self.n_elements, self.n_questions
        up = np.arange(m)
        for e in self.elements:
            if e.parent is not None:
                up[e.id] = e.parent
        targets = np.zeros((m, k), dtype=np.float32)
        gates = np.zeros((m, k), dtype=np.float32)
        for q in self.questions:
            targets[list(q.targets), q.id] = 1.0
            for t in q.targets:
                if up[t] != t:
                    gates[up[t], q.id] = 1.0
        second = up != np.arange(m)
        levels = np.stack([~second, second], axis=1).astype(np.float32)
        return OntologyIndex(up, second, targets, gates, levels)

    @cached_property
    def _children_map(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for e in self.elements:
            if e.level == SECOND and e.parent is not None:
                out.setdefault(e.parent, []).append(e.id)
        return {k: tuple(sorted(v)) for k, v in out.items()}


def _digest(elements, questions) -> str:
    canon = {
        "elements": [[e.id, e.level, e.parent, e.name] for e in sorted(elements, key=lambda e: e.id)],
        "questions": [[q.id, q.kind, list(q.targets)] for q in sorted(questions, key=lambda q: q.id)],
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def validate(ontology: HpiOntology) -> ValidationReport:
    """Check every structural invariant; findings are data, not failures."""
    findings: list[str] = []
    elements, questions = ontology.elements, ontology.questions

    ids = [e.id for e in elements]
    if not elements:
        findings.append("ontology has no elements")
    if sorted(ids) != list(range(len(elements))):
        findings.append("element ids are not dense and unique")
        return ValidationReport(tuple(findings))  # id-indexed checks below would misfire

    by_id = {e.id: e for e in elements}
    if not any(e.level == FIRST for e in elements):
        findings.append("at least one first-level element is required")
    for e in elements:
        if e.level not in (FIRST, SECOND):
            findings.append(f"element {e.id}: level must be 1 or 2")
        if e.level == FIRST and e.parent is not None:
            findings.append(f"element {e.id}: first-level element must not have a parent")
        if e.level == SECOND:
            if e.parent is None or e.parent not in by_id:
                findings.append(f"element {e.id}: missing parent")
            elif by_id[e.parent].level != FIRST:
                findings.append(f"element {e.id}: parent {e.parent} is not first-level")

    qids = [q.id for q in questions]
    if sorted(qids) != list(range(len(questions))):
        findings.append("question ids are not dense and unique")

    targeted: set[int] = set()
    for q in questions:
        bad_target = [t for t in q.targets if t not in by_id]
        if bad_target:
            findings.append(f"question {q.id}: unknown target element {bad_target[0]}")
            continue
        targeted.update(q.targets)
        if q.kind == CLOSED:
            if len(q.targets) != 1:
                findings.append(f"question {q.id}: closed question must target exactly one element")
        elif q.kind == OPEN:
            if len(q.targets) < 2:
                findings.append(f"question {q.id}: open question must target at least two elements")
            elif any(by_id[t].level != SECOND for t in q.targets):
                findings.append(f"question {q.id}: open-question targets must be second-level")
            elif len({by_id[t].parent for t in q.targets}) > 1:
                findings.append(f"question {q.id}: open-question targets must share parent")
        else:
            findings.append(f"question {q.id}: kind must be closed or open")

    for e in elements:
        if e.id not in targeted:
            findings.append(f"element {e.id}: unreachable element (targeted by no question)")

    return ValidationReport(tuple(findings))


def check_hierarchy(ontology: HpiOntology, hpi: np.ndarray, what: str, ids) -> None:
    """Raise ValidationError if any row of ``hpi`` (N, M) confirms an element
    whose parent is not confirmed; the message names ``what`` ``ids[row]``."""
    index = ontology.index
    hpi = np.asarray(hpi)
    bad = index.second & (hpi == CONFIRMED) & (hpi[:, index.up] != CONFIRMED)
    if bad.any():
        row, e = np.argwhere(bad)[0]
        raise ValidationError(
            f"{what} {ids[row]}: element {e} confirmed under non-confirmed parent"
        )


def check_built_against(ontology: HpiOntology, artifacts) -> None:
    """Raise DigestMismatch naming the first of ``artifacts``, ``(name,
    ontology digest)`` pairs, that was not built against ``ontology``."""
    for name, digest in artifacts:
        if digest != ontology.content_digest:
            raise DigestMismatch(f"{name} was built against a different ontology")


def _parse_int(text: str, what: str, row: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"row {row}: {what} is not an integer: {text!r}") from None


def load_ontology(path: str | Path) -> HpiOntology:
    """Load and validate an ontology from ``hpi.csv`` + ``questions.csv`` in ``path``.

    Deterministic for identical file bytes; raises ParseError for malformed
    rows and ValidationError (naming the offending id) for invariant
    violations.
    """
    root = Path(path)
    with reading(f"ontology {root}"):
        elements = _read_elements(root / HPI_FILENAME)
        questions = _read_questions(root / QUESTIONS_FILENAME)
    ontology = HpiOntology(tuple(elements), tuple(questions))
    report = validate(ontology)
    if not report.ok:
        raise ValidationError(report.findings[0])
    return ontology


def _csv_rows(path: Path, columns: tuple[str, ...]):
    """Yield ``(row number, row)`` for each row of a CSV file with header
    ``columns``, checking the header and each row's width as it reads."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(columns):
            raise ParseError(f"{path.name}: expected header {','.join(columns)}")
        for i, row in enumerate(reader, start=2):
            if len(row) != len(columns):
                raise ParseError(f"{path.name} row {i}: expected {len(columns)} columns, "
                                 f"got {len(row)}")
            yield i, row


def _read_elements(path: Path) -> list[HpiElement]:
    return [
        HpiElement(_parse_int(row[0], "id", i), _parse_int(row[1], "level", i),
                   None if row[2] == "" else _parse_int(row[2], "parent_id", i), row[3])
        for i, row in _csv_rows(path, HPI_COLUMNS)
    ]


def _read_questions(path: Path) -> list[Question]:
    questions = []
    for i, row in _csv_rows(path, QUESTION_COLUMNS):
        qid = _parse_int(row[0], "id", i)
        raw = [t for t in row[2].split(";") if t != ""]
        if not raw:
            raise ParseError(f"{path.name} row {i}: empty target list")
        targets = tuple(sorted({_parse_int(t, "target id", i) for t in raw}))
        questions.append(Question(qid, row[1], targets))
    return questions


def save_ontology(ontology: HpiOntology, path: str | Path) -> None:
    """Write the two CSV files; a round trip preserves the content digest. A
    file that cannot be written raises IoError and leaves neither."""
    root = Path(path)
    with writing(root / HPI_FILENAME) as hpi_fh, writing(root / QUESTIONS_FILENAME) as q_fh:
        writer = csv.writer(hpi_fh, lineterminator="\n")
        writer.writerow(HPI_COLUMNS)
        for e in sorted(ontology.elements, key=lambda e: e.id):
            writer.writerow([e.id, e.level, "" if e.parent is None else e.parent, e.name])
        writer = csv.writer(q_fh, lineterminator="\n")
        writer.writerow(QUESTION_COLUMNS)
        for q in sorted(ontology.questions, key=lambda q: q.id):
            writer.writerow([q.id, q.kind, ";".join(str(t) for t in q.targets)])
