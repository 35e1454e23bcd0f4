"""End-to-end tests for the command-line surface and the consultation REPL."""
import csv
import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from inquest.cli import (
    apply_config_defaults,
    build_parser,
    consult_repl,
    parse_config_file,
    run,
)
from inquest import consult_env, nncore
from inquest.consult_env import PatientSim
from inquest.diagnosis import (
    DiagnosisModel,
    SlTrainConfig,
    net_input,
    new_diagnosis_model,
    predict,
    predict_batch,
    rank_from_probs,
)
from inquest.errors import ConfigError, DigestMismatch, DomainError, ParseError
from inquest.evalharness import (
    FIXED_ORDER,
    RANDOM_LEGAL,
    GreedyModelPolicy,
    baseline_policy,
    load_report,
    load_traces,
    save_traces,
)
from inquest.inquiry import InquiryPolicy, PpoConfig, RewardParams
from inquest.nncore import init_dense
from inquest.patientgen import (
    PatientRecord,
    encode_histories,
    encode_history,
    generate_ontology,
    load_dataset,
    toy_ontology,
)
from inquest.ontology import load_ontology


def scripted_input(answers):
    """Input function that replays answers, then signals EOF."""
    queue = list(answers)

    def fn(prompt):
        if not queue:
            raise EOFError()
        return queue.pop(0)

    return fn


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small generated ontology + cohort + trained checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    onto_dir = root / "onto"
    data = root / "cohort.jsonl"
    diag = root / "diag.json"
    policy = root / "policy.json"

    assert run(["gen-ontology", "--m1", "4", "--m2", "8", "--n-open", "2",
                "--out", str(onto_dir)]) == 0
    assert run(["gen-data", "--ontology", str(onto_dir), "--out", str(data),
                "--n", "120", "--n-diseases", "3", "--n-flags", "2",
                "--seed", "5"]) == 0
    assert run(["train-diag", "--ontology", str(onto_dir), "--data", str(data),
                "--out", str(diag), "--epochs", "2", "--batch-size", "32",
                "--hidden", "16,16", "--quiet"]) == 0
    assert run(["train-inquiry", "--ontology", str(onto_dir), "--data", str(data),
                "--diag", str(diag), "--out", str(policy),
                "--iterations", "2", "--episodes", "4", "--minibatch", "32",
                "--hidden", "16,16", "--horizon", "4", "--quiet"]) == 0
    return root, onto_dir, data, diag, policy


# ---------------------------------------------------------------------------
# Exit codes and argument handling
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_train_diag_has_no_history_width_flag(workspace, tmp_path, capsys):
    # The ranker's history width comes from the training data, not a flag.
    root, onto_dir, data, diag, policy = workspace
    assert run(["train-diag", "--ontology", str(onto_dir), "--data", str(data),
                "--out", str(tmp_path / "d.json"), "--history-width", "8"]) == 2
    assert "--history-width" in capsys.readouterr().err
    assert not (tmp_path / "d.json").exists()


def test_validation_failure_exits_1(tmp_path):
    code = run(["gen-ontology", "--m1", "4", "--m2", "4", "--n-closed", "2",
                "--out", str(tmp_path / "o")])
    assert code == 1


def test_eval_requires_exactly_one_policy_source(workspace, tmp_path):
    root, onto_dir, data, diag, policy = workspace
    base = ["eval", "--ontology", str(onto_dir), "--data", str(data),
            "--diag", str(diag), "--out", str(tmp_path / "r.json")]
    assert run(base) == 1
    assert run(base + ["--policy", str(policy), "--baseline", "RandomLegal"]) == 1


# ---------------------------------------------------------------------------
# Pipeline behavior
# ---------------------------------------------------------------------------

def test_gen_data_is_deterministic(workspace, tmp_path):
    root, onto_dir, data, diag, policy = workspace
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        assert run(["gen-data", "--ontology", str(onto_dir), "--out", str(out),
                    "--n", "60", "--n-diseases", "3", "--n-flags", "2",
                    "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.header.json").read_bytes() == (tmp_path / "b.header.json").read_bytes()


def test_eval_writes_report_and_traces(workspace, tmp_path):
    root, onto_dir, data, diag, policy = workspace
    report_path = tmp_path / "r.json"
    traces_path = tmp_path / "t.jsonl"
    assert run(["eval", "--ontology", str(onto_dir), "--data", str(data),
                "--diag", str(diag), "--policy", str(policy),
                "--out", str(report_path), "--traces", str(traces_path),
                "--k", "1,2,3", "--horizon", "4", "--seed", "2"]) == 0
    report = load_report(report_path)
    assert set(report.recall_at_k) == {1, 2, 3}
    assert report.n_patients == 120
    traces = load_traces(traces_path)
    assert len(traces) == 120
    assert all(t.n_rounds <= 4 for t in traces)

    csv_path = tmp_path / "r.csv"
    assert run(["eval", "--ontology", str(onto_dir), "--data", str(data),
                "--diag", str(diag), "--baseline", "RandomLegal",
                "--out", str(csv_path), "--horizon", "4", "--seed", "2"]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,value"


def test_report_merges_matching_configs(workspace, tmp_path, capsys):
    root, onto_dir, data, diag, policy = workspace
    trained = tmp_path / "trained.json"
    random_ = tmp_path / "random.json"
    common = ["--ontology", str(onto_dir), "--data", str(data), "--diag", str(diag),
              "--horizon", "4", "--seed", "2"]
    assert run(["eval", *common, "--policy", str(policy), "--out", str(trained)]) == 0
    assert run(["eval", *common, "--baseline", "RandomLegal", "--out", str(random_)]) == 0
    capsys.readouterr()
    assert run(["report", "--inputs", str(trained), str(random_)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "metric,trained,random"
    assert any(line.startswith("recall_at_1,") for line in out.splitlines())

    merged = tmp_path / "merged.csv"
    assert run(["report", "--inputs", str(trained), str(random_),
                "--out", str(merged)]) == 0
    assert merged.read_text(encoding="utf-8").startswith("metric,")


def test_outputs_go_into_directories_that_do_not_exist_yet(workspace, tmp_path, monkeypatch):
    root, onto_dir, data, diag, policy = workspace
    common = ["--ontology", str(onto_dir), "--diag", str(diag), "--baseline", "FixedOrder",
              "--horizon", "3"]
    report, traces = tmp_path / "a" / "r.json", tmp_path / "b" / "t.jsonl"
    assert run(["eval", *common, "--data", str(data), "--out", str(report),
                "--traces", str(traces)]) == 0
    assert len(load_traces(traces)) == 120
    merged = tmp_path / "c" / "m.csv"
    assert run(["report", "--inputs", str(report), "--out", str(merged)]) == 0
    assert merged.read_text(encoding="utf-8").startswith("metric,r\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("44\nf\n" + "n\n" * 20))
    transcript = tmp_path / "d" / "s.jsonl"
    assert run(["consult", *common, "--transcript", str(transcript)]) == 0
    assert len(load_traces(transcript)) == 1


def test_report_refuses_mismatched_configs(workspace, tmp_path):
    root, onto_dir, data, diag, policy = workspace
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    common = ["--ontology", str(onto_dir), "--data", str(data), "--diag", str(diag)]
    assert run(["eval", *common, "--baseline", "FixedOrder", "--out", str(a),
                "--horizon", "4"]) == 0
    assert run(["eval", *common, "--baseline", "FixedOrder", "--out", str(b),
                "--horizon", "6"]) == 0
    assert run(["report", "--inputs", str(a), str(b)]) == 1


def test_report_refuses_reports_with_other_cut_offs(workspace, tmp_path, capsys):
    """Two reports that claim one config digest but hold other recall
    cut-offs; merging them used to write ``nan``."""
    root, onto_dir, data, diag, policy = workspace
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["eval", "--ontology", str(onto_dir), "--data", str(data), "--diag", str(diag),
                "--baseline", "FixedOrder", "--horizon", "4", "--out", str(a),
                "--k", "1,2"]) == 0
    payload = json.loads(a.read_text(encoding="utf-8"))
    payload["recall_at_k"]["3"] = payload["recall_at_k"].pop("2")
    b.write_text(json.dumps(payload), encoding="utf-8")
    assert load_report(a).config_digest == load_report(b).config_digest
    capsys.readouterr()
    merged = tmp_path / "m.csv"
    assert run(["report", "--inputs", str(a), str(b), "--out", str(merged)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "different recall cut-offs" in err
    assert not merged.exists()


def test_report_quotes_input_names_that_hold_commas(workspace, tmp_path, capsys):
    root, onto_dir, data, diag, policy = workspace
    a, b = tmp_path / "a.json", tmp_path / "x,y.json"
    assert run(["eval", "--ontology", str(onto_dir), "--data", str(data), "--diag", str(diag),
                "--baseline", "FixedOrder", "--horizon", "4", "--out", str(a)]) == 0
    b.write_bytes(a.read_bytes())
    capsys.readouterr()
    assert run(["report", "--inputs", str(a), str(b)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["metric", "a", "x,y"]
    assert {len(row) for row in rows} == {3}
    assert rows[1][0] == "recall_at_1" and rows[1][1] == rows[1][2]


def test_report_names_columns_by_path_when_stems_match(workspace, tmp_path, capsys):
    root, onto_dir, data, diag, policy = workspace
    a, b = tmp_path / "a" / "r.json", tmp_path / "b" / "r.json"
    assert run(["eval", "--ontology", str(onto_dir), "--data", str(data), "--diag", str(diag),
                "--baseline", "FixedOrder", "--horizon", "4", "--out", str(a)]) == 0
    b.parent.mkdir()
    b.write_bytes(a.read_bytes())
    capsys.readouterr()
    assert run(["report", "--inputs", str(a), str(b)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["metric", str(a), str(b)]
    assert {len(row) for row in rows} == {3}
    assert rows[1][0] == "recall_at_1" and rows[1][1] == rows[1][2]


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# cohort size\nn = 30\nseed = 9\n\n", encoding="utf-8")
    assert parse_config_file(cfg) == {"n": "30", "seed": "9"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_config_file(bad)


def test_config_presets_and_flag_override(workspace, tmp_path):
    root, onto_dir, data, diag, policy = workspace
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n = 30\nn-diseases = 3\nn-flags = 2\nseed = 4\n", encoding="utf-8")
    from_cfg = tmp_path / "c.jsonl"
    assert run(["gen-data", "--ontology", str(onto_dir), "--out", str(from_cfg),
                "--config", str(cfg)]) == 0
    assert len(load_dataset(from_cfg)) == 30

    overridden = tmp_path / "d.jsonl"
    assert run(["gen-data", "--ontology", str(onto_dir), "--out", str(overridden),
                "--config", str(cfg), "--n", "45"]) == 0
    assert len(load_dataset(overridden)) == 45


def test_config_unknown_key_rejected(tmp_path):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a.choices, dict) and "gen-data" in a.choices)
    from inquest.errors import ConfigError

    with pytest.raises(ConfigError):
        apply_config_defaults(sub.choices["gen-data"], {"no-such-flag": "1"})


@pytest.mark.parametrize("command, line", [
    ("gen-data", "seed = abc"),
    ("gen-data", "n = 1.5"),
    ("train-diag", "lr = fast"),
    ("train-diag", "hidden = 1,x"),
])
def test_config_value_of_the_wrong_type_is_an_error(workspace, tmp_path, capsys,
                                                    command, line):
    root, onto_dir, data, diag, policy = workspace
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    inputs = {"gen-data": [], "train-diag": ["--data", str(data)]}[command]
    assert run([command, "--ontology", str(onto_dir), *inputs, "--out", str(out),
                "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and line.split(" = ")[1] in err
    assert not out.exists()


_PATHS = ["--ontology", "o", "--data", "d", "--diag", "g", "--out", "x"]
_DIALOGUE_FLAGS = ["--horizon", "7", "--noise", "0.25", "--unmentioned-answer", "unknown",
                   "--p1p", "0.6", "--p1n", "0.2", "--p2p", "0.4", "--p2n", "0.01"]
_DIALOGUE_DEFAULTS = {"horizon": 10, "noise": 0.0, "unmentioned_answer": "denied",
                      "p1p": 0.5, "p1n": 0.1, "p2p": 0.3, "p2n": 0.05}
_DIALOGUE_SET = {"horizon": 7, "noise": 0.25, "unmentioned_answer": "unknown",
                 "p1p": 0.6, "p1n": 0.2, "p2p": 0.4, "p2n": 0.01}
_TRAIN_INQUIRY_REST = {
    "command": "train-inquiry", "config": None, "seed": 0, "ontology": "o",
    "data": "d", "diag": "g", "out": "x", "value_out": None, "log": None, "iterations": 30,
    "episodes": 32, "minibatch": 128, "clip_eps": 0.2, "update_epochs": 4, "gamma": 0.99,
    "lam_gae": 0.95, "policy_lr": 0.001, "value_lr": 0.001, "entropy_coef": 0.01,
    "hidden": (64, 64), "time_penalty": 0.5, "first_level_weight": 2.0,
    "negative_discount": 0.5, "quiet": False,
}
_EVAL_REST = {
    "command": "eval", "config": None, "seed": 0, "ontology": "o", "data": "d",
    "diag": "g", "policy": None, "baseline": "RandomLegal", "out": "x", "format": None,
    "traces": None, "k": (1, 3, 5), "group_k": 1,
}


# The expected namespaces are those that the parser gave when train-inquiry and
# eval each declared the dialogue flags themselves.
@pytest.mark.parametrize("argv, want", [
    (["train-inquiry", *_PATHS], {**_TRAIN_INQUIRY_REST, **_DIALOGUE_DEFAULTS}),
    (["train-inquiry", *_PATHS, *_DIALOGUE_FLAGS], {**_TRAIN_INQUIRY_REST, **_DIALOGUE_SET}),
    (["eval", *_PATHS, "--baseline", "RandomLegal"], {**_EVAL_REST, **_DIALOGUE_DEFAULTS}),
    (["eval", *_PATHS, "--baseline", "RandomLegal", *_DIALOGUE_FLAGS],
     {**_EVAL_REST, **_DIALOGUE_SET}),
])
def test_shared_dialogue_flags_parse_as_before(argv, want):
    assert vars(build_parser().parse_args(argv)) == want


_TRAIN_DIAG_DEFAULTS = {
    "command": "train-diag", "config": None, "seed": 0, "ontology": "o", "data": "d",
    "val_data": None, "out": "x", "epochs": 30, "batch_size": 256, "lr": 0.001,
    "hidden": (128, 128), "no_augment": False, "hide_lo": 0.0, "hide_hi": 0.8, "quiet": False,
}


# The expected namespaces are those that the parser gave when train-diag declared
# each flag by hand; the types are pinned along with the values.
@pytest.mark.parametrize("flags, changed", [
    ([], {}),
    (["--hidden", "8,4", "--no-augment", "--hide-lo", "0.1", "--lr", "0.01"],
     {"hidden": (8, 4), "no_augment": True, "hide_lo": 0.1, "lr": 0.01}),
])
def test_train_diag_flags_parse_as_before(flags, changed):
    args = build_parser().parse_args(["train-diag", "--ontology", "o", "--data", "d",
                                      "--out", "x", *flags])
    want = {**_TRAIN_DIAG_DEFAULTS, **changed}
    assert {k: (v, type(v)) for k, v in vars(args).items()} == {
        k: (v, type(v)) for k, v in want.items()}


def test_config_presets_reach_the_shared_dialogue_flags(tmp_path):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a.choices, dict)).choices
    apply_config_defaults(sub["eval"], {"horizon": "5", "p2n": "0.2"})
    args = parser.parse_args(["eval", *_PATHS, "--policy", "p", "--p2n", "0.3"])
    assert (args.horizon, args.p2n, args.p1p) == (5, 0.3, 0.5)


class _Stop(Exception):
    """Raised by a stubbed stage once it has recorded its arguments."""


def _settings_given_to_the_stages(workspace, monkeypatch, diag_flags=(), inquiry_flags=(),
                                  eval_flags=()):
    """Run train-diag, train-inquiry and eval up to their stage calls; returns
    the ranker config, PPO config, reward, and the two simulated-patient settings."""
    root, onto_dir, data, diag, policy = workspace
    got = {}

    def stub(name):
        def record(*args, **kwargs):
            got[name] = (args, kwargs)
            raise _Stop()
        return record

    for name in ("train_diagnosis", "train_inquiry", "evaluate"):
        monkeypatch.setattr(f"inquest.cli.{name}", stub(name))
    inputs = ["--ontology", str(onto_dir), "--data", str(data), "--out", str(root / "unused")]
    for argv in (["train-diag", *inputs, *diag_flags],
                 ["train-inquiry", *inputs, "--diag", str(diag), *inquiry_flags],
                 ["eval", *inputs, "--diag", str(diag), "--baseline", "FixedOrder", *eval_flags]):
        with pytest.raises(_Stop):
            run(argv)
    (_, sl_cfg), _ = got["train_diagnosis"]
    (_, _, _, ppo_cfg), inquiry_kw = got["train_inquiry"]
    return (sl_cfg, ppo_cfg, inquiry_kw["reward_params"], inquiry_kw["sim"],
            got["evaluate"][1]["sim"])


def test_every_setting_defaults_to_its_dataclass(workspace, monkeypatch):
    """A settings field without a flag of its name fails here."""
    sl_cfg, ppo_cfg, reward, sim, eval_sim = _settings_given_to_the_stages(
        workspace, monkeypatch)
    assert sl_cfg == SlTrainConfig()
    assert ppo_cfg == PpoConfig()
    assert reward == RewardParams()
    assert sim == eval_sim == PatientSim()


def test_non_default_flags_land_in_their_fields(workspace, monkeypatch):
    patient = ["--p2n", "0.2", "--noise", "0.1", "--unmentioned-answer", "unknown"]
    sl_cfg, ppo_cfg, _, sim, eval_sim = _settings_given_to_the_stages(
        workspace, monkeypatch, diag_flags=["--no-augment"],
        inquiry_flags=["--episodes", "7", "--minibatch", "9", *patient],
        eval_flags=patient)
    assert sl_cfg == SlTrainConfig(augment=False)
    assert ppo_cfg == PpoConfig(episodes_per_iter=7, minibatch_size=9)
    assert sim == eval_sim == PatientSim(p2n=0.2, noise=0.1, unmentioned_answer="unknown")


# For each rule, a value just outside its range (none for "finite"), and its edge,
# which is inside; an integer field takes the floor of each.
_RULE_VALUES = {"count": (0, 1), "non-negative": (-1e-9, 0), "positive": (0, 1e-9),
                "rate": (1 + 1e-9, 0), "discount": (0, 1), "finite": (None, -1e9)}


@pytest.mark.parametrize("cls, field", [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in (SlTrainConfig, PpoConfig, RewardParams, PatientSim)
    for f in dataclasses.fields(cls) if type(f.default) in (int, float)
])
def test_every_numeric_setting_is_checked_by_its_rule(cls, field):
    assert field.metadata["rule"] in _RULE_VALUES
    outside, edge = _RULE_VALUES[field.metadata["rule"]]
    kind = math.floor if type(field.default) is int else float
    bad = [float("nan"), float("inf"), float("-inf")] + ([] if outside is None else [kind(outside)])
    for value in bad:
        with pytest.raises(DomainError, match=field.name):
            cls(**{field.name: value})
        with pytest.raises(DomainError, match=field.name):
            dataclasses.replace(cls(), **{field.name: value})
    assert getattr(dataclasses.replace(cls(), **{field.name: kind(edge)}), field.name) == edge


@pytest.mark.parametrize("command, takes_seed", [
    ("gen-ontology", False), ("gen-data", True), ("train-diag", True),
    ("train-inquiry", True), ("eval", True), ("consult", False), ("report", False),
])
def test_seed_is_a_flag_only_where_it_is_read(command, takes_seed):
    sub = next(a for a in build_parser()._actions if isinstance(a.choices, dict)).choices
    assert ("seed" in {a.dest for a in sub[command]._actions}) == takes_seed


# ---------------------------------------------------------------------------
# Consultation REPL
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def repl_models():
    onto = toy_ontology()
    diag = new_diagnosis_model(8, 7, ("d0", "d1", "d2"), onto.content_digest,
                               hidden=(16, 16))
    return onto, diag


def test_repl_all_no_answers(repl_models):
    onto, diag = repl_models
    outputs = []
    trace = consult_repl(
        baseline_policy(FIXED_ORDER), diag, onto, horizon=10,
        input_fn=scripted_input(["44", "f"] + ["n"] * 10),
        output_fn=outputs.append,
    )
    assert trace.true_label == -1
    # denying every first-level element closes their details; nothing stays
    # confirmed and the denials propagate to all children
    assert (trace.final_observation[:3] == 2).all()
    assert (trace.final_observation[3:] == 2).all()
    assert trace.n_rounds == 3
    assert sorted(trace.ranking) == [0, 1, 2]
    assert any("top diseases" in line for line in outputs)


def test_repl_ends_once_no_question_is_legal(repl_models):
    onto, diag = repl_models
    outputs = []
    # Three denials close every family long before the horizon.
    trace = consult_repl(
        baseline_policy(FIXED_ORDER), diag, onto, horizon=30,
        input_fn=scripted_input(["44", "f"] + ["n"] * 30),
        output_fn=outputs.append,
    )
    assert trace.rounds == ((0, ((0, 2), (3, 2), (6, 2))), (1, ((1, 2), (4, 2))),
                            (2, ((2, 2), (5, 2))))
    assert trace.horizon == 30
    assert outputs.count("no further questions are possible") == 1
    ranked = outputs[outputs.index("no further questions are possible") + 1:]
    assert ranked[0] == "top diseases:" and len(ranked) == 4


def test_repl_yes_unlocks_second_level(repl_models):
    onto, diag = repl_models
    outputs = []
    trace = consult_repl(
        baseline_policy(FIXED_ORDER), diag, onto, horizon=10,
        input_fn=scripted_input(["50", "m", "y", "n", "n", "y", "n"]),
        output_fn=outputs.append,
    )
    asked = [q for q, _ in trace.rounds]
    assert asked == [0, 1, 2, 3, 6]
    status = trace.final_observation
    assert status[0] == 1 and status[3] == 1 and status[6] == 2
    # elements 4 and 5 were auto-denied when their parents were denied,
    # so their questions never became legal
    assert status[4] == 2 and status[5] == 2
    assert 4 not in asked and 5 not in asked


def test_repl_reprompts_on_malformed_input(repl_models):
    onto, diag = repl_models
    outputs = []
    trace = consult_repl(
        baseline_policy(FIXED_ORDER), diag, onto, horizon=1,
        input_fn=scripted_input(["abc", "44", "banana", "m", "maybe", "y"]),
        output_fn=outputs.append,
    )
    assert outputs.count("please answer again") == 3
    assert trace.n_rounds == 1
    assert trace.final_observation[0] == 1


def test_repl_eof_is_graceful(repl_models):
    onto, diag = repl_models
    outputs = []
    trace = consult_repl(
        baseline_policy(FIXED_ORDER), diag, onto, horizon=5,
        input_fn=scripted_input(["44"]),
        output_fn=outputs.append,
    )
    assert trace.n_rounds == 0
    assert (trace.final_observation == 0).all()
    assert sorted(trace.ranking) == [0, 1, 2]


class ScriptedQuestions:
    """Asks the given questions in order, whatever is legal."""

    history_width = None

    def __init__(self, questions):
        self.questions = list(questions)

    def select_batch(self, inputs, masks, rngs):
        return [self.questions.pop(0)]


def test_repl_eof_inside_open_question_keeps_its_answers(repl_models):
    onto, diag = repl_models
    # Question 0 confirms element 0; open question 7 then asks about its
    # children 3 and 6, and input ends after the answer about 3.
    trace = consult_repl(
        ScriptedQuestions([0, 7]), diag, onto, horizon=5,
        input_fn=scripted_input(["44", "f", "y", "y"]),
        output_fn=lambda s: None,
    )
    assert trace.rounds == ((0, ((0, 1),)), (7, ((3, 1),)))
    replayed = np.zeros(onto.n_elements, dtype=np.int8)
    for _, revealed in trace.rounds:
        for e, s in revealed:
            replayed[e] = s
    assert replayed.tolist() == trace.final_observation.tolist() == [1, 0, 0, 1, 0, 0, 0]


def test_repl_replay_reproduces_ranking(repl_models):
    onto, diag = repl_models
    trace = consult_repl(
        baseline_policy(FIXED_ORDER), diag, onto, horizon=10,
        input_fn=scripted_input(["31", "f", "y", "y", "n", "n", "y"]),
        output_fn=lambda s: None,
    )
    record = PatientRecord("human", 31, "female", (), trace.final_observation, -1)
    probs = predict(diag, encode_history(record, 8), trace.final_observation)
    assert tuple(rank_from_probs(probs)) == trace.ranking


def _random_ranker(onto, dtype=np.float32):
    """A ranker of random weights, whose ranking moves with every input slot."""
    net = init_dense((8 + 3 * 7, 16, 3), seed=11, zero_output=False, dtype=dtype)
    return DiagnosisModel(net, 8, 7, ("d0", "d1", "d2"), onto.content_digest)


def _spy_ranker_inputs(monkeypatch, diag) -> list:
    """The rows each forward of ``diag``'s net computes on, in the net's dtype."""
    seen = []
    forward = nncore.forward

    def spy(net, x):
        if net is diag.net:
            seen.append(np.asarray(x, dtype=net.dtype))
        return forward(net, x)

    monkeypatch.setattr(nncore, "forward", spy)
    return seen


def _ranks_rebuilt_rows(diag, seen, trace, age, sex) -> bool:
    """Whether the ranker read, once, the rows that ``net_input`` builds from
    the final observation in its own width and dtype, and ranked as
    ``predict_batch`` does."""
    read = [x.tobytes() for x in seen]  # before predict_batch adds its own read
    final = trace.final_observation[None]
    history = encode_histories([PatientRecord("human", age, sex, (), final[0], -1)], 8)
    probs = predict_batch(diag, history, final)
    return (read == [net_input(history, final, diag.net.dtype).tobytes()]
            and trace.ranking == tuple(rank_from_probs(probs)[0].tolist()))


class SpyQuestions(ScriptedQuestions):
    """Asks the given questions in order and keeps a copy of every input row
    it reads."""

    def __init__(self, questions):
        super().__init__(questions)
        self.seen = []

    def select_batch(self, inputs, masks, rngs):
        self.seen.append(np.array(inputs))
        return super().select_batch(inputs, masks, rngs)


def test_repl_keeps_the_input_row_that_net_input_rebuilds(monkeypatch, repl_models):
    onto, _ = repl_models
    diag = _random_ranker(onto)
    statuses = []  # the status each round's legality mask was taken from
    legal = consult_env._legal

    def spy_legal(status, asked, index):
        statuses.append(status.copy())
        return legal(status, asked, index)

    monkeypatch.setattr(consult_env, "_legal", spy_legal)
    ranked = _spy_ranker_inputs(monkeypatch, diag)
    spy = SpyQuestions([0, 1, 7])
    # Question 0 confirms element 0; "no" to question 1 denies element 1 and
    # drags its child 4; open question 7 confirms child 3, then input ends
    # before child 6.
    trace = consult_repl(spy, diag, onto, horizon=5,
                         input_fn=scripted_input(["37", "m", "y", "n", "y"]),
                         output_fn=lambda s: None)
    assert trace.rounds == ((0, ((0, 1),)), (1, ((1, 2), (4, 2))), (7, ((3, 1),)))
    assert len(spy.seen) == len(statuses) == 3
    for inputs, status in zip(spy.seen, statuses):
        record = PatientRecord("human", 37, "male", (), status[0], -1)
        expected = net_input(encode_histories([record], 8), status, np.float32)
        assert inputs.dtype == expected.dtype and inputs.tobytes() == expected.tobytes()
    assert _ranks_rebuilt_rows(diag, ranked, trace, 37, "male")


@pytest.mark.parametrize("kind", ["random", "float64 ranker", "float64 policy", "wider policy"])
def test_repl_ranks_as_predict_batch_whatever_rows_the_policy_reads(monkeypatch, repl_models,
                                                                   kind):
    """Every policy reads the ranker's rows; one of a wider history than the
    ranker's is refused before the first prompt."""
    onto, _ = repl_models
    diag = _random_ranker(onto, np.float64 if kind == "float64 ranker" else np.float32)
    if kind == "random":
        policy = baseline_policy(RANDOM_LEGAL)
    else:
        # A policy from a float64 checkpoint, or one of a wider history.
        width = 10 if kind == "wider policy" else 8
        dtype = np.float64 if kind == "float64 policy" else np.float32
        net = init_dense((width + 3 * 7, 4, onto.n_questions), seed=1, zero_output=False,
                         dtype=dtype)
        policy = GreedyModelPolicy(
            InquiryPolicy(net, width, 7, onto.n_questions, onto.content_digest))
    if kind == "wider policy":
        prompts = []
        with pytest.raises(DigestMismatch, match="history width 10 != .* 8"):
            consult_repl(policy, diag, onto, horizon=4, input_fn=prompts.append,
                         output_fn=lambda s: None)
        assert prompts == []
        return
    ranked = _spy_ranker_inputs(monkeypatch, diag)
    trace = consult_repl(policy, diag, onto, horizon=4,
                         input_fn=scripted_input(["62", "f"] + ["y", "n", "y"] * 4),
                         output_fn=lambda s: None)
    assert trace.n_rounds == 4
    assert _ranks_rebuilt_rows(diag, ranked, trace, 62, "female")


# The transcript of this RandomLegal session when every session built its
# generator, whatever the policy.
RANDOM_REPL_TRANSCRIPT = (
    '{"final_observation":[1,2,1,1,2,1,2],"horizon":10,"patient_id":"human",'
    '"ranking":[0,2,1],"rounds":[[2,[[2,1]]],[1,[[1,2],[4,2]]],[5,[[5,1]]],[0,[[0,1]]],'
    '[3,[[3,1]]],[6,[[6,2]]]],"true_label":-1}\n')


def test_repl_random_session_keeps_its_transcript(repl_models, tmp_path):
    onto, _ = repl_models
    trace = consult_repl(baseline_policy(RANDOM_LEGAL), _random_ranker(onto), onto, horizon=10,
                         input_fn=scripted_input(["58", "m"] + ["y", "n", "y", "y"] * 4),
                         output_fn=lambda s: None)
    save_traces([trace], tmp_path / "session.jsonl")
    assert (tmp_path / "session.jsonl").read_text() == RANDOM_REPL_TRANSCRIPT


def test_repl_builds_no_generator_for_a_policy_that_never_draws(repl_models):
    onto, diag = repl_models
    handed = []

    class NoDraws(ScriptedQuestions):
        draws = False

        def select_batch(self, inputs, masks, rngs):
            handed.append(list(rngs))
            return super().select_batch(inputs, masks, rngs)

    consult_repl(NoDraws([0, 1]), diag, onto, horizon=2,
                 input_fn=scripted_input(["40", "f", "n", "n"]), output_fn=lambda s: None)
    assert handed == [[None], [None]]


def test_consult_command_with_stdin(workspace, tmp_path, monkeypatch, capsys):
    root, onto_dir, data, diag, policy = workspace
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("44\nf\n" + "n\n" * 20))
    transcript = tmp_path / "session.jsonl"
    assert run(["consult", "--ontology", str(onto_dir), "--diag", str(diag),
                "--baseline", "FixedOrder", "--horizon", "3",
                "--transcript", str(transcript)]) == 0
    saved = load_traces(transcript)
    assert len(saved) == 1
    assert saved[0].n_rounds <= 3
    out = capsys.readouterr().out
    assert "top diseases" in out


def test_repl_rejects_negative_horizon(repl_models):
    onto, diag = repl_models
    prompts = []
    with pytest.raises(ConfigError, match="horizon must be non-negative"):
        consult_repl(baseline_policy(FIXED_ORDER), diag, onto, horizon=-2,
                     input_fn=prompts.append, output_fn=prompts.append)
    assert prompts == []


def test_consult_refuses_models_of_another_ontology(workspace, tmp_path, monkeypatch, capsys):
    """The two ontologies have 12 elements and 14 questions each, so only
    their digests tell them apart."""
    root, onto_dir, data, diag, policy = workspace
    other, other_data, other_diag = tmp_path / "onto", tmp_path / "c.jsonl", tmp_path / "d.json"
    assert run(["gen-ontology", "--m1", "3", "--m2", "9", "--n-open", "2",
                "--out", str(other)]) == 0
    assert run(["gen-data", "--ontology", str(other), "--out", str(other_data),
                "--n", "40", "--n-diseases", "3", "--n-flags", "2"]) == 0
    assert run(["train-diag", "--ontology", str(other), "--data", str(other_data),
                "--out", str(other_diag), "--epochs", "1", "--hidden", "16,16",
                "--quiet"]) == 0
    assert (load_ontology(other).n_elements, load_ontology(other).n_questions) == \
        (load_ontology(onto_dir).n_elements, load_ontology(onto_dir).n_questions)
    capsys.readouterr()
    for ontology, models, what in (
        (other, ["--diag", str(other_diag), "--policy", str(policy)], "policy"),
        (onto_dir, ["--diag", str(other_diag), "--baseline", "FixedOrder"], "diagnosis model"),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO("44\nf\n" + "n\n" * 20))
        assert run(["consult", "--ontology", str(ontology), *models, "--horizon", "3"]) == 1
        assert f"{what} was built against a different ontology" in capsys.readouterr().err


def test_eval_and_consult_refuse_a_policy_wider_than_the_ranker(workspace, tmp_path,
                                                                 monkeypatch, capsys):
    """The workspace policy reads two-flag histories (width 5); a ranker
    trained on a flagless cohort reads width 3."""
    root, onto_dir, data, diag, policy = workspace
    narrow_data, narrow_diag = tmp_path / "c.jsonl", tmp_path / "d.json"
    assert run(["gen-data", "--ontology", str(onto_dir), "--out", str(narrow_data),
                "--n", "40", "--n-diseases", "3", "--n-flags", "0"]) == 0
    assert run(["train-diag", "--ontology", str(onto_dir), "--data", str(narrow_data),
                "--out", str(narrow_diag), "--epochs", "1", "--hidden", "16,16",
                "--quiet"]) == 0
    capsys.readouterr()
    models = ["--ontology", str(onto_dir), "--diag", str(narrow_diag), "--policy", str(policy)]
    out = tmp_path / "r.json"
    assert run(["eval", *models, "--data", str(narrow_data), "--out", str(out),
                "--horizon", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "history width 5 != diagnosis model history width 3" in err
    assert not out.exists()
    monkeypatch.setattr("sys.stdin", io.StringIO("44\nf\n" + "n\n" * 20))
    assert run(["consult", *models, "--horizon", "3"]) == 1
    captured = capsys.readouterr()
    assert "history width 5" in captured.err and "patient age" not in captured.out


# ---------------------------------------------------------------------------
# Malformed inputs and settings end in exit code 1, not a traceback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flag, value", [
    ("--n-flags", "-1"), ("--n-diseases", "-2"), ("--n-diseases", "0"),
])
def test_gen_data_rejects_bad_counts(workspace, tmp_path, capsys, flag, value):
    root, onto_dir, data, diag, policy = workspace
    out = tmp_path / "c.jsonl"
    assert run(["gen-data", "--ontology", str(onto_dir), "--out", str(out), "--n", "5",
                flag, value]) == 1
    err = capsys.readouterr().err
    says = {"--n-flags": "n_flags must be non-negative",
            "--n-diseases": "n_diseases must be an integer >= 1"}[flag]
    assert err.startswith("error:") and f"{says}, got {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--m2", "-5"), ("--n-open", "-2")])
def test_gen_ontology_rejects_negative_counts(tmp_path, capsys, flag, value):
    out = tmp_path / "onto"
    assert run(["gen-ontology", "--m1", "3", "--m2", "4", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{flag[2:].replace('-', '_')} must be non-negative" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("m2, n_open, name", [(-5, 0, "m2"), (4, -2, "n_open")])
def test_generate_ontology_rejects_negative_counts(m2, n_open, name):
    with pytest.raises(ConfigError, match=f"{name} must be non-negative"):
        generate_ontology(3, m2, n_open=n_open)


@pytest.mark.parametrize("command, flag", [
    ("gen-data", "--seed"), ("gen-data", "--genmodel-seed"), ("train-diag", "--seed"),
    ("train-inquiry", "--seed"), ("eval", "--seed"),
])
def test_negative_seed_exits_1_and_writes_nothing(workspace, tmp_path, capsys, command, flag):
    root, onto_dir, data, diag, policy = workspace
    out = tmp_path / "out.json"
    rest = {
        "gen-data": ["--n", "5"],
        "train-diag": ["--data", str(data), "--epochs", "1", "--quiet"],
        "train-inquiry": ["--data", str(data), "--diag", str(diag), "--iterations", "1",
                          "--episodes", "2", "--hidden", "8", "--quiet"],
        "eval": ["--data", str(data), "--diag", str(diag), "--baseline", "FixedOrder"],
    }[command]
    assert run([command, "--ontology", str(onto_dir), "--out", str(out), *rest,
                flag, "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be non-negative" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train-diag", "train-inquiry"])
@pytest.mark.parametrize("hidden", ["-4", "8,0"])
def test_bad_hidden_sizes_exit_1_before_any_input_is_read(workspace, tmp_path, capsys,
                                                          command, hidden):
    root, onto_dir, data, diag, policy = workspace
    out = tmp_path / "out.json"
    missing = ["--data", str(tmp_path / "missing.jsonl")]
    if command == "train-inquiry":
        missing += ["--diag", str(tmp_path / "missing.json")]
    assert run([command, "--ontology", str(onto_dir), "--out", str(out), *missing,
                f"--hidden={hidden}", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "hidden must be a tuple of integers >= 1" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train-inquiry", "eval"])
@pytest.mark.parametrize("flags, config, says", [
    (["--noise", "1.5"], None, "noise must be in [0, 1], got 1.5"),
    (["--noise", "nan"], None, "noise must be in [0, 1], got nan"),
    ([], "unmentioned_answer = bogus", "unknown unmentioned-answer mode 'bogus'"),
], ids=["noise-1.5", "noise-nan", "config-unmentioned-bogus"])
def test_bad_patient_settings_exit_1_before_any_input_is_read(workspace, tmp_path, capsys,
                                                              command, flags, config, says):
    root, onto_dir, data, diag, policy = workspace
    run_dir = tmp_path / "run"
    argv = [command, "--ontology", str(onto_dir), "--out", str(run_dir / "out.json"),
            "--data", str(run_dir / "missing.jsonl"), "--diag", str(run_dir / "missing.json"),
            *flags]
    argv += ["--quiet"] if command == "train-inquiry" else ["--baseline", "FixedOrder"]
    if config is not None:
        (tmp_path / "bad.cfg").write_text(config + "\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "bad.cfg")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert not run_dir.exists()


@pytest.mark.parametrize("command, flag, value, says", [
    ("eval", "--horizon", "-1", "horizon must be non-negative, got -1"),
    ("eval", "--k", "0", "k must be a tuple of integers >= 1, got (0,)"),
    ("eval", "--k", "1,0,3", "k must be a tuple of integers >= 1, got (1, 0, 3)"),
    ("eval", "--group-k", "0", "group_k must be an integer >= 1, got 0"),
    ("train-inquiry", "--horizon", "-1", "horizon must be non-negative, got -1"),
    ("consult", "--horizon", "-1", "horizon must be non-negative, got -1"),
])
def test_bad_dialogue_flags_exit_1_before_any_input_is_read(tmp_path, capsys,
                                                            command, flag, value, says):
    run_dir = tmp_path / "run"  # holds no ontology, dataset or checkpoint
    rest = {
        "eval": ["--data", str(run_dir / "c.jsonl"), "--out", str(run_dir / "r.json"),
                 "--baseline", "FixedOrder"],
        "train-inquiry": ["--data", str(run_dir / "c.jsonl"), "--out", str(run_dir / "p.json"),
                          "--quiet"],
        "consult": ["--baseline", "FixedOrder"],
    }[command]
    assert run([command, "--ontology", str(run_dir / "onto"), "--diag", str(run_dir / "d.json"),
                *rest, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert not run_dir.exists()


def test_train_diag_on_a_list_hpi_exits_1(workspace, tmp_path, capsys):
    """A dataset line of the format before hpi strings is refused, by its line."""
    root, onto_dir, data, diag, policy = workspace
    bad = tmp_path / "cohort.jsonl"
    lines = data.read_text().splitlines()
    first = json.loads(lines[0])
    first["hpi"] = [int(c) for c in first["hpi"]]
    lines[0] = json.dumps(first, sort_keys=True, separators=(",", ":"))
    bad.write_text("\n".join(lines) + "\n")
    (tmp_path / "cohort.header.json").write_text(
        data.with_name("cohort.header.json").read_text())
    out = tmp_path / "d.json"
    assert run(["train-diag", "--ontology", str(onto_dir), "--data", str(bad),
                "--out", str(out), "--epochs", "1", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 1: record p000000: malformed hpi" in err
    assert not out.exists()


def test_train_diag_on_record_missing_label_exits_1(workspace, tmp_path, capsys):
    root, onto_dir, data, diag, policy = workspace
    bad = tmp_path / "cohort.jsonl"
    lines = data.read_text().splitlines()
    lines[3] = lines[3].replace('"label":', '"lab":')
    bad.write_text("\n".join(lines) + "\n")
    (tmp_path / "cohort.header.json").write_text(
        data.with_name("cohort.header.json").read_text())
    out = tmp_path / "d.json"
    assert run(["train-diag", "--ontology", str(onto_dir), "--data", str(bad),
                "--out", str(out), "--epochs", "1", "--quiet"]) == 1
    assert "missing field 'label'" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def five_diseases(workspace):
    """A cohort on the workspace's ontology with five diseases; its ranker has three."""
    root, onto_dir, data, diag, policy = workspace
    path = root / "five.jsonl"
    assert run(["gen-data", "--ontology", str(onto_dir), "--out", str(path),
                "--n", "60", "--n-diseases", "5", "--n-flags", "2", "--seed", "5"]) == 0
    return path


@pytest.mark.parametrize("quiet", [[], ["--quiet"]])
def test_train_diag_refuses_a_validation_set_of_other_diseases(workspace, five_diseases,
                                                               tmp_path, capsys, quiet):
    root, onto_dir, data, diag, policy = workspace
    out = tmp_path / "d.json"
    capsys.readouterr()
    assert run(["train-diag", "--ontology", str(onto_dir), "--data", str(data),
                "--val-data", str(five_diseases), "--out", str(out), "--epochs", "1",
                "--hidden", "16,16", *quiet]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "validation set" in captured.err
    assert "Traceback" not in captured.err and "epoch" not in captured.out
    assert not out.exists()


def test_eval_refuses_a_dataset_of_other_diseases(workspace, five_diseases, tmp_path, capsys):
    root, onto_dir, data, diag, policy = workspace
    out = tmp_path / "r.json"
    assert run(["eval", "--ontology", str(onto_dir), "--data", str(five_diseases),
                "--diag", str(diag), "--policy", str(policy), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "evaluation dataset" in err
    assert not out.exists()


def test_eval_with_policy_lacking_meta_exits_1(workspace, tmp_path, capsys):
    root, onto_dir, data, diag, policy = workspace
    broken = tmp_path / "policy.json"
    head, body = policy.read_bytes().split(b"\n", 1)
    broken.write_bytes(head.replace(b'"history_width"', b'"width"') + b"\n" + body)
    assert run(["eval", "--ontology", str(onto_dir), "--data", str(data),
                "--diag", str(diag), "--policy", str(broken),
                "--out", str(tmp_path / "r.json")]) == 1
    assert "history_width" in capsys.readouterr().err


@pytest.mark.parametrize("value", ['"x"', "NaN"])
def test_eval_with_malformed_policy_weight_exits_1(workspace, tmp_path, capsys, value):
    """'"x"' writes text over the first weight and leaves the header's sha256
    stale; NaN stores a NaN there under a matching sha256."""
    root, onto_dir, data, diag, policy = workspace
    head, body = policy.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    if value == "NaN":
        body = np.float64("nan").tobytes() + body[8:]
        header["sha256"] = hashlib.sha256(body).hexdigest()
    else:
        body = value.encode().ljust(8) + body[8:]
    broken = tmp_path / "policy.json"
    broken.write_bytes(json.dumps(header).encode() + b"\n" + body)
    assert run(["eval", "--ontology", str(onto_dir), "--data", str(data),
                "--diag", str(diag), "--policy", str(broken),
                "--out", str(tmp_path / "r.json")]) == 1
    assert "checkpoint" in capsys.readouterr().err


def test_train_diag_rejects_nan_lr(workspace, tmp_path):
    root, onto_dir, data, diag, policy = workspace
    out = tmp_path / "d.json"
    assert run(["train-diag", "--ontology", str(onto_dir), "--data", str(data),
                "--out", str(out), "--epochs", "1", "--lr", "nan", "--quiet"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_train_diag_rejects_epochs_below_one(workspace, tmp_path, value):
    root, onto_dir, data, diag, policy = workspace
    out = tmp_path / "d.json"
    assert run(["train-diag", "--ontology", str(onto_dir), "--data", str(data),
                "--out", str(out), "--epochs", value, "--quiet"]) == 1
    assert not out.exists()


def _train_inquiry_writes_nothing(workspace, tmp_path, *flags) -> bool:
    root, onto_dir, data, diag, policy = workspace
    outs = [tmp_path / "p.json", tmp_path / "v.json", tmp_path / "train.csv"]
    code = run(["train-inquiry", "--ontology", str(onto_dir), "--data", str(data),
                "--diag", str(diag), "--out", str(outs[0]), "--value-out", str(outs[1]),
                "--log", str(outs[2]), "--episodes", "2", "--hidden", "8", "--quiet", *flags])
    return code == 1 and not any(p.exists() for p in outs)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_train_inquiry_rejects_iterations_below_one(workspace, tmp_path, value):
    assert _train_inquiry_writes_nothing(workspace, tmp_path, "--iterations", value)


def test_train_inquiry_rejects_nan_clip_range(workspace, tmp_path):
    assert _train_inquiry_writes_nothing(workspace, tmp_path, "--iterations", "1",
                                         "--clip-eps", "nan")


@pytest.mark.parametrize("flag, value", [
    ("--policy-lr", "nan"), ("--value-lr", "-0.001"), ("--entropy-coef", "nan"),
])
def test_train_inquiry_rejects_bad_numeric_flag(workspace, tmp_path, flag, value):
    root, onto_dir, data, diag, policy = workspace
    out = tmp_path / "p.json"
    assert run(["train-inquiry", "--ontology", str(onto_dir), "--data", str(data),
                "--diag", str(diag), "--out", str(out), "--iterations", "1",
                "--episodes", "2", "--hidden", "8", flag, value, "--quiet"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--k", "0"), ("--k", "1,0,3"), ("--group-k", "0")])
def test_eval_rejects_recall_cutoff_below_one(workspace, tmp_path, flag, value):
    root, onto_dir, data, diag, policy = workspace
    out = tmp_path / "r.json"
    assert run(["eval", "--ontology", str(onto_dir), "--data", str(data),
                "--diag", str(diag), "--baseline", "FixedOrder", "--out", str(out),
                flag, value]) == 1
    assert not out.exists()
