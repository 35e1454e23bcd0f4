"""Ontology loading, validation and round-trip behaviour."""
import pytest

from inquest.errors import ParseError, ValidationError
from inquest.ontology import (
    CLOSED,
    FIRST,
    OPEN,
    SECOND,
    HpiElement,
    HpiOntology,
    Question,
    load_ontology,
    save_ontology,
    validate,
)
from inquest.patientgen import generate_ontology


def write_ontology(tmp_path, hpi_rows, question_rows):
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "hpi.csv").write_text(
        "id,level,parent_id,name\n" + "".join(r + "\n" for r in hpi_rows)
    )
    (tmp_path / "questions.csv").write_text(
        "id,kind,target_ids\n" + "".join(r + "\n" for r in question_rows)
    )
    return tmp_path


MINIMAL_HPI = ["0,1,,headache", "1,2,0,throbbing", "2,2,0,one-sided"]
MINIMAL_QUESTIONS = ["0,closed,0", "1,closed,1", "2,open,1;2"]


def test_minimal_ontology_loads(tmp_path):
    onto = load_ontology(write_ontology(tmp_path, MINIMAL_HPI, MINIMAL_QUESTIONS))
    assert onto.m1 == 1 and onto.m2 == 2
    assert onto.n_elements == 3 and onto.n_questions == 3
    assert onto.parent_of(1) == 0 and onto.parent_of(0) is None
    assert onto.children_of(0) == (1, 2)
    assert onto.first_level_ids() == (0,)
    assert onto.questions[2].kind == OPEN
    assert onto.questions[2].targets == (1, 2)
    assert onto.questions[0].targets == (0,)


def test_round_trip_preserves_digest(tmp_path):
    onto = load_ontology(write_ontology(tmp_path / "a", MINIMAL_HPI, MINIMAL_QUESTIONS))
    save_ontology(onto, tmp_path / "b")
    again = load_ontology(tmp_path / "b")
    assert again == onto
    assert again.content_digest == onto.content_digest


def test_digest_changes_with_content(tmp_path):
    base = load_ontology(write_ontology(tmp_path / "a", MINIMAL_HPI, MINIMAL_QUESTIONS))
    renamed = load_ontology(
        write_ontology(tmp_path / "b", ["0,1,,migraine"] + MINIMAL_HPI[1:], MINIMAL_QUESTIONS)
    )
    assert renamed.content_digest != base.content_digest


def test_clinic_scale_ontology(tmp_path):
    # 85 first-level + 1177 second-level elements, 1264 closed + 134 open
    onto = generate_ontology(m1=85, m2=1177, n_open=134, n_closed=1264)
    assert onto.n_elements == 1262
    assert onto.m1 == 85 and onto.m2 == 1177
    assert onto.n_questions == 1398
    assert sum(1 for q in onto.questions if q.kind == CLOSED) == 1264
    save_ontology(onto, tmp_path)
    again = load_ontology(tmp_path)
    assert again.content_digest == onto.content_digest
    assert validate(again).ok


def test_missing_parent_rejected(tmp_path):
    rows = ["0,1,,headache", "1,2,9,throbbing", "2,2,0,one-sided"]
    with pytest.raises(ValidationError, match="missing parent"):
        load_ontology(write_ontology(tmp_path, rows, MINIMAL_QUESTIONS))


def test_open_question_must_share_parent(tmp_path):
    rows = ["0,1,,headache", "1,1,,fever", "2,2,0,one-sided", "3,2,1,night"]
    questions = ["0,closed,0", "1,closed,1", "2,closed,2", "3,closed,3", "4,open,2;3"]
    with pytest.raises(ValidationError, match="share parent"):
        load_ontology(write_ontology(tmp_path, rows, questions))


def test_open_question_needs_second_level_targets():
    elements = (
        HpiElement(0, FIRST, None, "a"),
        HpiElement(1, FIRST, None, "b"),
        HpiElement(2, SECOND, 0, "a1"),
    )
    questions = (
        Question(0, CLOSED, (0,)),
        Question(1, CLOSED, (2,)),
        Question(2, OPEN, (1, 2)),
    )
    report = validate(HpiOntology(elements, questions))
    assert any("second-level" in f for f in report.findings)


def test_unreachable_element_reported():
    elements = (HpiElement(0, FIRST, None, "a"), HpiElement(1, SECOND, 0, "a1"))
    questions = (Question(0, CLOSED, (0,)),)
    report = validate(HpiOntology(elements, questions))
    assert not report.ok
    assert any("unreachable" in f and "element 1" in f for f in report.findings)


def test_closed_question_single_target():
    elements = (HpiElement(0, FIRST, None, "a"), HpiElement(1, SECOND, 0, "a1"))
    questions = (Question(0, CLOSED, (0, 1)), Question(1, CLOSED, (1,)))
    report = validate(HpiOntology(elements, questions))
    assert any("exactly one" in f for f in report.findings)


def test_ids_must_be_dense():
    elements = (HpiElement(0, FIRST, None, "a"), HpiElement(2, SECOND, 0, "a1"))
    report = validate(HpiOntology(elements, ()))
    assert any("dense" in f for f in report.findings)


def test_duplicate_question_ids():
    elements = (HpiElement(0, FIRST, None, "a"),)
    questions = (Question(0, CLOSED, (0,)), Question(0, CLOSED, (0,)))
    report = validate(HpiOntology(elements, questions))
    assert any("question ids" in f for f in report.findings)


def test_validate_collects_multiple_findings():
    elements = (HpiElement(0, SECOND, None, "orphan"),)
    report = validate(HpiOntology(elements, ()))
    assert len(report.findings) >= 2  # no first-level, missing parent, unreachable


def test_bad_header_is_parse_error(tmp_path):
    (tmp_path / "hpi.csv").write_text("identifier,level,parent,name\n0,1,,a\n")
    (tmp_path / "questions.csv").write_text("id,kind,target_ids\n0,closed,0\n")
    with pytest.raises(ParseError, match="header"):
        load_ontology(tmp_path)


def test_non_integer_id_names_row(tmp_path):
    rows = ["0,1,,headache", "x,2,0,throbbing"]
    with pytest.raises(ParseError, match="row 3"):
        load_ontology(write_ontology(tmp_path, rows, ["0,closed,0"]))


def test_question_target_list_deduplicated(tmp_path):
    rows = ["0,1,,headache", "1,2,0,throbbing", "2,2,0,one-sided"]
    questions = ["0,closed,0", "1,closed,1", "2,open,2;1;2"]
    onto = load_ontology(write_ontology(tmp_path, rows, questions))
    assert onto.questions[2].targets == (1, 2)


def test_empty_target_list_rejected(tmp_path):
    with pytest.raises(ParseError, match="empty target"):
        load_ontology(write_ontology(tmp_path, MINIMAL_HPI, ["0,closed,"]))


def test_generate_ontology_always_valid():
    for m1, m2, n_open in [(1, 0, 0), (3, 4, 1), (5, 10, 4), (30, 60, 10)]:
        onto = generate_ontology(m1, m2, n_open)
        assert validate(onto).ok
        assert onto.m1 == m1 and onto.m2 == m2
        assert onto.n_questions == m1 + m2 + n_open
