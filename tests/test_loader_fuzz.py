"""Fuzzing of the file loaders: whatever a file holds, only an InquestError
escapes ``load_dataset``, ``load_ontology``, ``load_report``, ``load_traces``
and ``parse_config_file``.

Each loader is fed random bytes, random JSON, and a valid file that was
truncated, had one byte flipped, or had one part edited in its own format (a
JSON key, a JSON line, a CSV cell, a config line). ``load_net`` has its own
fuzz in ``test_nncore.py``.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inquest.cli import parse_config_file
from inquest.errors import InquestError
from inquest.evalharness import (
    DialogueTrace,
    EvalReport,
    RediscoveryMetrics,
    emit_report,
    load_report,
    load_traces,
    save_traces,
)
from inquest.ontology import HPI_FILENAME, QUESTIONS_FILENAME, load_ontology, save_ontology
from inquest.patientgen import (
    generate_cohort,
    load_dataset,
    save_dataset,
    toy_genmodel,
    toy_ontology,
)

FUZZ = settings(max_examples=150, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)

# Cell and line contents close to the valid ones, so edits reach past the
# first syntax check; the last are hpi strings of the toy cohort's 7
# elements, one short, one long or with a character other than 0, 1 or 2.
NEAR_TEXT = (st.sampled_from(["", "0", "1", "2", "-1", "7", "99", "1.5", "1e400", "nan", "x",
                              "closed", "open", "0;1", "1;;2", "=", " = ", "#", "\x00", "é",
                              "9" * 5000])
             | st.text(max_size=8)
             | st.text(st.sampled_from("0120123x\u00e9"), min_size=6, max_size=8))


def edit_json_value(data, obj):
    """Delete or replace one key or element, at a random depth, of a parsed
    JSON value; a scalar is replaced outright."""
    if not isinstance(obj, (dict, list)) or not obj:
        return data.draw(JSON_VALUES)
    node = obj
    key = data.draw(st.sampled_from(sorted(node)) if isinstance(node, dict)
                    else st.integers(0, len(node) - 1))
    while isinstance(node[key], (list, dict)) and node[key] and data.draw(st.booleans()):
        node = node[key]
        key = data.draw(st.sampled_from(sorted(node)) if isinstance(node, dict)
                        else st.integers(0, len(node) - 1))
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(JSON_VALUES | NEAR_TEXT)
    return obj


def edit_json_document(data, blob: bytes) -> bytes:
    return json.dumps(edit_json_value(data, json.loads(blob))).encode()


def _edit_line(data, blob: bytes, edit) -> bytes:
    lines = blob.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = edit(lines[i])
    return b"\n".join(lines)


def edit_json_line(data, blob: bytes) -> bytes:
    def edit(line):
        if not line:
            return data.draw(NEAR_TEXT).encode()
        return json.dumps(edit_json_value(data, json.loads(line))).encode()
    return _edit_line(data, blob, edit)


def edit_csv_cell(data, blob: bytes) -> bytes:
    def edit(line):
        cells = line.split(b",")
        if data.draw(st.booleans()):
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(NEAR_TEXT).encode()
        elif len(cells) > 1:
            del cells[data.draw(st.integers(0, len(cells) - 1))]
        return b",".join(cells)
    return _edit_line(data, blob, edit)


def edit_text_line(data, blob: bytes) -> bytes:
    return _edit_line(data, blob, lambda line: data.draw(NEAR_TEXT).encode())


def mutate(data, blob: bytes, edit) -> bytes:
    """Random bytes, random JSON, or ``blob`` truncated, flipped or edited."""
    kind = data.draw(st.sampled_from(["bytes", "json", "truncate", "flip", "edit"]))
    if kind == "bytes":
        return data.draw(st.binary(max_size=300))
    if kind == "json":
        return json.dumps(data.draw(JSON_VALUES)).encode()
    out = bytearray(blob)
    if kind == "truncate":
        del out[data.draw(st.integers(0, len(out) - 1)):]
    elif kind == "flip":
        out[data.draw(st.integers(0, len(out) - 1))] ^= data.draw(st.integers(1, 255))
    else:
        out = edit(data, blob)
    return bytes(out)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid file of each kind."""
    root = tmp_path_factory.mktemp("valid")
    onto = toy_ontology()
    save_ontology(onto, root / "onto")
    save_dataset(generate_cohort(toy_genmodel(onto), 6, seed=2), root / "cohort.jsonl")
    report = EvalReport({1: 0.5, 3: 0.75}, RediscoveryMetrics(3, 0, 1, 1.0, 0.75, 6 / 7, False),
                        {"g0": 0.5}, 4, "abc123")
    emit_report(report, root / "report.json")
    trace = DialogueTrace("p0", ((2, ((0, 1), (4, 2))), (5, ())),
                          np.array([1, 0, 0, 0, 2, 0, 0], dtype=np.int8), (1, 0, 2), 1, 10)
    save_traces([trace, trace], root / "traces.jsonl")
    (root / "run.cfg").write_text("# presets\nn = 30\nseed = 9\nhorizon = 4\n")
    files = {
        "hpi": root / "onto" / HPI_FILENAME, "questions": root / "onto" / QUESTIONS_FILENAME,
        "records": root / "cohort.jsonl", "header": root / "cohort.header.json",
        "report": root / "report.json", "traces": root / "traces.jsonl",
        "config": root / "run.cfg",
    }
    return onto, {name: path.read_bytes() for name, path in files.items()}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader-fuzz")


def test_valid_files_load(valid, tmp_path):
    onto, blobs = valid
    (tmp_path / "x.jsonl").write_bytes(blobs["records"])
    (tmp_path / "x.header.json").write_bytes(blobs["header"])
    assert len(load_dataset(tmp_path / "x.jsonl", ontology=onto)) == 6
    (tmp_path / HPI_FILENAME).write_bytes(blobs["hpi"])
    (tmp_path / QUESTIONS_FILENAME).write_bytes(blobs["questions"])
    assert load_ontology(tmp_path).content_digest == onto.content_digest
    (tmp_path / "r.json").write_bytes(blobs["report"])
    assert load_report(tmp_path / "r.json").n_patients == 4
    (tmp_path / "t.jsonl").write_bytes(blobs["traces"])
    assert len(load_traces(tmp_path / "t.jsonl")) == 2
    (tmp_path / "c.cfg").write_bytes(blobs["config"])
    assert parse_config_file(tmp_path / "c.cfg") == {"n": "30", "seed": "9", "horizon": "4"}


@FUZZ
@given(data=st.data())
def test_load_dataset_fuzz_raises_only_inquest_errors(valid, fuzz_dir, data):
    onto, blobs = valid
    target = data.draw(st.sampled_from(["records", "header"]))
    edit = edit_json_line if target == "records" else edit_json_document
    files = {"records": blobs["records"], "header": blobs["header"]}
    files[target] = mutate(data, files[target], edit)
    (fuzz_dir / "x.jsonl").write_bytes(files["records"])
    (fuzz_dir / "x.header.json").write_bytes(files["header"])
    try:
        ds = load_dataset(fuzz_dir / "x.jsonl", ontology=data.draw(st.sampled_from([onto, None])))
    except InquestError:
        return
    assert type(ds.m) is int and all(isinstance(name, str) for name in ds.disease_names)
    for r in ds.records:
        assert r.hpi.shape == (ds.m,) and 0 <= r.label < ds.n_diseases
        assert r.hpi.dtype == np.int8 and ((r.hpi >= 0) & (r.hpi <= 2)).all()


@FUZZ
@given(data=st.data())
def test_load_ontology_fuzz_raises_only_inquest_errors(valid, fuzz_dir, data):
    _, blobs = valid
    target = data.draw(st.sampled_from(["hpi", "questions"]))
    files = {"hpi": blobs["hpi"], "questions": blobs["questions"]}
    files[target] = mutate(data, files[target], edit_csv_cell)
    (fuzz_dir / HPI_FILENAME).write_bytes(files["hpi"])
    (fuzz_dir / QUESTIONS_FILENAME).write_bytes(files["questions"])
    try:
        load_ontology(fuzz_dir)
    except InquestError:
        return


@FUZZ
@given(data=st.data())
def test_load_report_fuzz_raises_only_inquest_errors(valid, fuzz_dir, data):
    _, blobs = valid
    (fuzz_dir / "report.json").write_bytes(mutate(data, blobs["report"], edit_json_document))
    try:
        report = load_report(fuzz_dir / "report.json")
    except InquestError:
        return
    values = [*report.recall_at_k.values(), *report.group_recall.values(),
              report.rediscovery.precision, report.rediscovery.recall, report.rediscovery.f1]
    assert np.isfinite(values).all()


@FUZZ
@given(data=st.data())
def test_load_traces_fuzz_raises_only_inquest_errors(valid, fuzz_dir, data):
    _, blobs = valid
    (fuzz_dir / "traces.jsonl").write_bytes(mutate(data, blobs["traces"], edit_json_line))
    try:
        traces = load_traces(fuzz_dir / "traces.jsonl")
    except InquestError:
        return
    for t in traces:
        assert isinstance(t.patient_id, str)
        assert t.final_observation.dtype == np.int8
        assert ((t.final_observation >= 0) & (t.final_observation <= 2)).all()


@FUZZ
@given(data=st.data())
def test_parse_config_file_fuzz_raises_only_inquest_errors(valid, fuzz_dir, data):
    _, blobs = valid
    (fuzz_dir / "run.cfg").write_bytes(mutate(data, blobs["config"], edit_text_line))
    try:
        values = parse_config_file(fuzz_dir / "run.cfg")
    except InquestError:
        return
    assert all(isinstance(k, str) and k and isinstance(v, str) for k, v in values.items())
