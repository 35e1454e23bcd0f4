"""The file boundary: every loader turns an unreadable path into IoError,
every writer creates missing directories and turns an unwritable path into
IoError, and only ``errors.py`` opens files for writing."""
import ast
from pathlib import Path

import pytest

import inquest
from inquest.cli import parse_config_file
from inquest.diagnosis import load_diagnosis
from inquest.errors import IoError, writing
from inquest.evalharness import (
    EvalReport,
    RediscoveryMetrics,
    emit_report,
    load_report,
    load_traces,
    save_traces,
)
from inquest.inquiry import IterStats, load_policy, load_value, write_training_log
from inquest.nncore import init_dense, load_net, save_net
from inquest.ontology import load_ontology, save_ontology
from inquest.patientgen import (
    generate_cohort,
    load_dataset,
    save_dataset,
    toy_genmodel,
    toy_ontology,
)

# Each loader, with the first file it reads for a given path argument.
LOADERS = {
    "load_ontology": (load_ontology, lambda p: p / "hpi.csv"),
    "load_dataset": (load_dataset, lambda p: p.with_name(p.stem + ".header.json")),
    "load_net": (load_net, lambda p: p),
    "load_diagnosis": (load_diagnosis, lambda p: p),
    "load_policy": (load_policy, lambda p: p),
    "load_value": (load_value, lambda p: p),
    "load_report": (load_report, lambda p: p),
    "load_traces": (load_traces, lambda p: p),
    "parse_config_file": (parse_config_file, lambda p: p),
}


@pytest.mark.parametrize("name", LOADERS)
def test_loader_raises_io_error_on_a_missing_path(tmp_path, name):
    load, _ = LOADERS[name]
    with pytest.raises(IoError, match="cannot read"):
        load(tmp_path / "missing" / "x.json")


@pytest.mark.parametrize("name", LOADERS)
def test_loader_raises_io_error_on_a_directory(tmp_path, name):
    load, first_file = LOADERS[name]
    path = tmp_path / "x.json"
    first_file(path).mkdir(parents=True)
    with pytest.raises(IoError, match="cannot read"):
        load(path)


def _report() -> EvalReport:
    return EvalReport({1: 0.5}, RediscoveryMetrics(1, 1, 1, 0.5, 0.5, 0.5, False),
                      {"g": 0.5}, 2, "digest")


WRITERS = {
    "save_ontology": lambda p: save_ontology(toy_ontology(), p),
    "save_dataset": lambda p: save_dataset(generate_cohort(toy_genmodel(), 3, seed=0), p),
    "save_net": lambda p: save_net(init_dense((3, 2)), p),
    "write_training_log": lambda p: write_training_log(
        [IterStats(0, 0.1, 2.0, 0.3, 0.4, 0.0, 1.0)], p),
    "emit_report json": lambda p: emit_report(_report(), p, "json"),
    "emit_report csv": lambda p: emit_report(_report(), p, "csv"),
    "save_traces": lambda p: save_traces([], p),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_creates_missing_parent_directories(tmp_path, name):
    path = tmp_path / "new" / "deeper" / "out"
    WRITERS[name](path)
    assert path.exists()


@pytest.mark.parametrize("name", WRITERS)
def test_writer_raises_io_error_under_a_regular_file(tmp_path, name):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    with pytest.raises(IoError, match="cannot write"):
        WRITERS[name](blocker / "out")
    assert sorted(tmp_path.iterdir()) == [blocker]


def test_failed_dataset_save_leaves_no_header(tmp_path):
    path = tmp_path / "cohort.jsonl"
    path.mkdir()
    with pytest.raises(IoError, match="cannot write"):
        WRITERS["save_dataset"](path)
    assert sorted(tmp_path.iterdir()) == [path]


def test_failed_ontology_save_leaves_neither_csv(tmp_path):
    questions = tmp_path / "questions.csv"
    questions.mkdir()
    with pytest.raises(IoError, match="cannot write"):
        WRITERS["save_ontology"](tmp_path)
    assert sorted(tmp_path.iterdir()) == [questions]


def test_writing_removes_its_file_when_the_body_raises(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(ZeroDivisionError):
        with writing(path) as fh:
            fh.write("half")
            1 / 0
    assert not path.exists()


# ---------------------------------------------------------------------------
# Only errors.py makes directories, opens files for writing or raises IoError
# ---------------------------------------------------------------------------

_WRITE_CALLS = {"mkdir", "makedirs", "write_text", "write_bytes"}


def _open_mode(call: ast.Call):
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    # builtin open(path, mode); Path.open(mode)
    pos = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[pos] if len(call.args) > pos else None


def file_boundary_breaches(source: str) -> list[str]:
    """The calls in ``source`` that only ``errors.py`` may make, as
    ``"line: what"``. An ``open`` whose mode is not a string literal counts
    as a write."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in _WRITE_CALLS or name == "IoError":
            found.append(f"{node.lineno}: {name}")
        elif name == "open":
            mode = _open_mode(node)
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wxa+")):
                found.append(f"{node.lineno}: open for writing")
    return found


@pytest.mark.parametrize("source, n", [
    ("Path(p).parent.mkdir(parents=True)", 1),
    ("os.makedirs(d)", 1),
    ("p.write_text('x'); p.write_bytes(b'x')", 2),
    ("open(p, 'w'); open(p, 'ab'); open(p, mode='r+'); open(p, m)", 4),
    ("Path(p).open('x'); gzip.open(p, mode='wt')", 2),
    ("raise IoError('no'); raise errors.IoError('no')", 2),
    ("open(p); open(p, 'rb'); open(p, encoding='utf-8'); Path(p).open(); Path(p).read_text()", 0),
    ("try:\n    pass\nexcept IoError:\n    pass", 0),
])
def test_file_boundary_breaches_finds_each_kind_of_call(source, n):
    assert len(file_boundary_breaches(source)) == n


def test_only_errors_module_writes_files_or_raises_io_error():
    package = Path(inquest.__file__).parent
    breaches = {
        str(path.relative_to(package)): found
        for path in sorted(package.rglob("*.py")) if path != package / "errors.py"
        if (found := file_boundary_breaches(path.read_text(encoding="utf-8")))
    }
    assert breaches == {}, "write files through errors.writing"
