"""One typed-field rule for every JSON artifact: ``errors.typed`` and
``errors.fields``, the loaders that read their fields through them, and the
writers whose keys match those declarations."""
import json
from dataclasses import asdict

import numpy as np
import pytest

from inquest import nncore
from inquest.diagnosis import DIAGNOSIS, load_diagnosis, new_diagnosis_model, save_diagnosis
from inquest.errors import ParseError, fields, typed
from inquest.evalharness import (
    _REDISCOVERY,
    _REPORT,
    _TRACE,
    DialogueTrace,
    EvalReport,
    RediscoveryMetrics,
    _report_payload,
    emit_report,
    load_report,
    load_traces,
    save_traces,
)
from inquest.inquiry import (
    POLICY,
    VALUE,
    new_inquiry_policy,
    new_value_net,
    save_policy,
    save_value,
)
from inquest.patientgen import _HEADER, generate_cohort, load_dataset, save_dataset, toy_genmodel


@pytest.mark.parametrize("value, kind, want", [
    (3, int, 3), (-2, int, -2), (3, float, 3.0), (0.25, float, 0.25), ("a", str, "a"),
    (False, bool, False), ({"a": 1}, dict, {"a": 1}), ([1, "a"], list, [1, "a"]),
    ([1, 2], [int], (1, 2)), ([], [str], ()), ([[1, 2], []], [[int]], ((1, 2), ())),
    ([0.5, 1], [float], (0.5, 1.0)),
])
def test_typed_accepts_a_value_of_its_kind(value, kind, want):
    got = typed(value, kind)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("value, kind, expected", [
    (True, int, "an integer"), (3.0, int, "an integer"), ("3", int, "an integer"),
    (None, int, "an integer"), (True, float, "a finite number"),
    (float("nan"), float, "a finite number"), (float("inf"), float, "a finite number"),
    (10**400, float, "a finite number"), ("0.5", float, "a finite number"),
    (1, str, "a string"), (0, bool, "a boolean"), ([], dict, "an object"),
    ((1, 2), list, "a list"), ("ab", [str], "a list of strings"),
    ([1, True], [int], "a list of integers"), ({"a": 1}, [int], "a list of integers"),
    ([[1], [2.0]], [[int]], "a list of lists of integers"),
])
def test_typed_refuses_a_value_of_another_kind(value, kind, expected):
    with pytest.raises(TypeError, match=f"expected {expected}, got"):
        typed(value, kind)


def test_fields_names_what_and_the_field():
    spec = {"n": int, "names": [str]}
    assert fields({"n": 2, "names": ["a"], "extra": None}, spec, "thing") == {
        "n": 2, "names": ("a",)}
    with pytest.raises(ParseError, match="^thing is not a JSON object$"):
        fields([2, ["a"]], spec, "thing")
    with pytest.raises(ParseError, match="^thing missing field 'names'$"):
        fields({"n": 2}, spec, "thing")
    with pytest.raises(ParseError, match="^thing has a malformed 'n': expected an integer, got 2.0$"):
        fields({"n": 2.0, "names": []}, spec, "thing")


# ---------------------------------------------------------------------------
# The five loaders
# ---------------------------------------------------------------------------

def _report() -> EvalReport:
    return EvalReport({1: 0.5, 3: 0.75}, RediscoveryMetrics(1, 1, 1, 0.5, 0.5, 0.5, False),
                      {"g": 0.5}, 2, "digest")


def _trace() -> DialogueTrace:
    return DialogueTrace("p0", ((0, ((1, 1), (2, 2))),), np.array([0, 1, 2], dtype=np.int8),
                         (1, 0), 0, 5)


class Checkpoint:
    """A checkpoint's header line as the document; the body is kept."""

    @staticmethod
    def read(path):
        return json.loads(path.read_bytes().split(b"\n", 1)[0])

    @staticmethod
    def write(path, doc):
        body = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(json.dumps(doc).encode() + b"\n" + body)


class CheckpointMeta:
    """A checkpoint's meta object as the document."""

    @staticmethod
    def read(path):
        return Checkpoint.read(path)["meta"]

    @staticmethod
    def write(path, doc):
        Checkpoint.write(path, {**Checkpoint.read(path), "meta": doc})


class JsonFile:
    """The first JSON value of a file (the whole of a report, the first line
    of a JSON-lines file) as the document; writing replaces the file."""

    def __init__(self, name=None):
        self.name = name

    def file(self, path):
        return path.with_name(self.name) if self.name else path

    def read(self, path):
        return json.JSONDecoder().raw_decode(self.file(path).read_text(encoding="utf-8"))[0]

    def write(self, path, doc):
        self.file(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _make_diagnosis(path):
    save_diagnosis(new_diagnosis_model(2, 3, ("a", "b"), "digest", hidden=(4,)), path)


# name: (load, write a valid file at path, document, an int field, a field to drop)
LOADERS = {
    "load_net": (nncore.load_net,
                 lambda p: nncore.save_net(nncore.init_dense((10, 11, 3), dtype=np.float32), p),
                 Checkpoint, "nbytes", "sha256"),
    "load_diagnosis meta": (load_diagnosis, _make_diagnosis, CheckpointMeta, "n_elements",
                            "disease_names"),
    "load_dataset header": (load_dataset,
                            lambda p: save_dataset(generate_cohort(toy_genmodel(), 4, seed=0), p),
                            JsonFile("x.header.json"), "M", "ontology_digest"),
    "load_report": (load_report, lambda p: emit_report(_report(), p), JsonFile(), "n_patients",
                    "config_digest"),
    "load_traces": (load_traces, lambda p: save_traces([_trace()], p), JsonFile(), "true_label",
                    "ranking"),
}


def _edit(tmp_path, name, edit):
    load, make, doc, _, _ = LOADERS[name]
    path = tmp_path / "x.jsonl"
    make(path)
    load(path)  # the unedited file loads
    obj = doc.read(path)
    doc.write(path, edit(obj))
    return load, path


@pytest.mark.parametrize("name", LOADERS)
@pytest.mark.parametrize("value", [True, "float"])
def test_an_integer_field_of_another_type_is_refused(tmp_path, name, value):
    field = LOADERS[name][3]

    def edit(obj):
        # 3.0 where the file has 3: equal in value, refused for its type.
        return {**obj, field: float(obj[field]) if value == "float" else value}

    load, path = _edit(tmp_path, name, edit)
    with pytest.raises(ParseError, match=f"malformed '{field}': expected an integer"):
        load(path)


def test_a_checkpoint_nbytes_given_as_a_float_is_refused(tmp_path):
    load, path = _edit(tmp_path, "load_net", lambda obj: {**obj, "nbytes": 628.0})
    assert nncore.init_dense((10, 11, 3), dtype=np.float32).params.nbytes == 628
    with pytest.raises(ParseError, match="malformed 'nbytes'"):
        load(path)


@pytest.mark.parametrize("name", LOADERS)
def test_a_top_level_that_is_not_an_object_is_refused(tmp_path, name):
    load, path = _edit(tmp_path, name, lambda obj: list(obj))
    # A checkpoint's meta is itself a header field, so that loader names it.
    with pytest.raises(ParseError, match="is not a JSON object|malformed 'meta'"):
        load(path)


@pytest.mark.parametrize("name", LOADERS)
def test_a_dropped_field_is_refused(tmp_path, name):
    field = LOADERS[name][4]
    load, path = _edit(tmp_path, name, lambda obj: {k: v for k, v in obj.items() if k != field})
    with pytest.raises(ParseError, match=f"missing field '{field}'"):
        load(path)


# ---------------------------------------------------------------------------
# Each writer emits exactly the fields its reader declares
# ---------------------------------------------------------------------------

def test_save_net_writes_the_header_fields(tmp_path):
    nncore.save_net(nncore.init_dense((3, 2)), tmp_path / "n.ckpt")
    assert set(Checkpoint.read(tmp_path / "n.ckpt")) == set(nncore.HEADER)


@pytest.mark.parametrize("spec, save, model", [
    (DIAGNOSIS, save_diagnosis, lambda: new_diagnosis_model(2, 3, ("a", "b"), "d", hidden=(4,))),
    (POLICY, save_policy, lambda: new_inquiry_policy(2, 3, 4, "d", hidden=(4,))),
    (VALUE, save_value, lambda: new_value_net(2, 3, "d", hidden=(4,))),
], ids=["diagnosis", "policy", "value"])
def test_save_model_writes_the_meta_fields(tmp_path, spec, save, model):
    save(model(), tmp_path / "m.ckpt")
    assert set(CheckpointMeta.read(tmp_path / "m.ckpt")) == {"kind", *spec.fields}


def test_save_dataset_writes_the_header_fields(tmp_path):
    save_dataset(generate_cohort(toy_genmodel(), 3, seed=0), tmp_path / "x.jsonl")
    header = JsonFile("x.header.json").read(tmp_path / "x.jsonl")
    assert set(header) == {*_HEADER, "genmodel_digest"}


def test_report_and_trace_writers_write_the_declared_fields(tmp_path):
    report = _report()
    assert set(_report_payload(report)) == set(_REPORT)
    assert set(asdict(report.rediscovery)) == set(_REDISCOVERY)
    save_traces([_trace()], tmp_path / "t.jsonl")
    assert set(JsonFile().read(tmp_path / "t.jsonl")) == set(_TRACE)
