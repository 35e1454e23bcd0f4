"""Command-line surface: data generation, training, evaluation, reporting,
and an interactive consultation where a human answers as the patient.

Every subcommand is deterministic given its flags and seeds. A flat
``key = value`` config file can preset any flag; explicit flags win.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import consult_env
from .consult_env import PatientSim, UNMENTIONED_DENIED, UNMENTIONED_UNKNOWN
from .diagnosis import (
    ConsultRows,
    SlTrainConfig,
    load_diagnosis,
    rank_from_probs,
    save_diagnosis,
    train_diagnosis,
)
from .errors import ConfigError, InquestError, ParseError, check_setting, reading, writing
from .evalharness import (
    DialogueTrace,
    FIXED_ORDER,
    GreedyModelPolicy,
    RANDOM_LEGAL,
    baseline_policy,
    check_models,
    emit_report,
    evaluate,
    load_report,
    save_traces,
)
from .inquiry import (
    PpoConfig,
    RewardParams,
    load_policy,
    save_policy,
    save_value,
    train_inquiry,
    write_training_log,
)
from .ontology import load_ontology, save_ontology
from .patientgen import (
    CONFIRMED,
    DENIED,
    PatientRecord,
    benchmark_genmodel,
    generate_cohort,
    generate_ontology,
    load_dataset,
    save_dataset,
)

# ---------------------------------------------------------------------------
# Config file: flat `key = value` lines, # comments, flags win
# ---------------------------------------------------------------------------

def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    with reading(f"config {path}"):
        text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(f"{path}:{lineno}: empty key")
        values[key] = raw.strip()
    return values


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


def apply_config_defaults(parser: argparse.ArgumentParser, values: dict[str, str]) -> None:
    """Turn config entries into parser defaults, respecting each flag's type."""
    actions = {a.dest: a for a in parser._actions}
    defaults = {}
    for key, raw in values.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        action = actions[dest]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            defaults[dest] = _parse_bool(raw)
        elif action.type is not None:
            try:
                defaults[dest] = action.type(raw)
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad value {raw!r}") from None
        else:
            defaults[dest] = raw
    parser.set_defaults(**defaults)


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from None


# Settings fields whose flag is not named after the field; the flag's dest,
# which is also its config-file key, is the name given here.
_FLAG_NAMES = {"episodes_per_iter": "episodes", "minibatch_size": "minibatch"}
_FLAG_TYPES = {int: int, float: float, tuple: _int_list}


def _add_settings(parser, cls) -> None:
    """A flag for each field of the settings dataclass ``cls``, defaulting to
    the field's default. ``seed`` (in ``common``), boolean fields, such as
    ``augment`` behind ``--no-augment``, and string fields, such as
    ``unmentioned_answer`` with its choices, are declared by hand."""
    for f in dataclasses.fields(cls):
        if f.name != "seed" and type(f.default) in _FLAG_TYPES:
            name = _FLAG_NAMES.get(f.name, f.name)
            parser.add_argument("--" + name.replace("_", "-"),
                                type=_FLAG_TYPES[type(f.default)], default=f.default)


# Flags that no settings dataclass holds, and the rule of errors.SETTING_RULES
# that each keeps; ``run`` checks them before a subcommand reads any input.
_FLAG_RULES = {"horizon": "non-negative", "k": "sizes", "group_k": "count"}


def _check_flags(args) -> None:
    """Raise DomainError naming the first of the subcommand's ``_FLAG_RULES``
    flags that breaks its rule."""
    for name, rule in _FLAG_RULES.items():
        if hasattr(args, name):
            check_setting(name, getattr(args, name), rule, integral=True)


def _settings(cls, args, **given):
    """A ``cls`` settings dataclass: each field not in ``given`` comes from the
    parsed flag ``_add_settings`` declared for it, or from ``--seed``."""
    return cls(**{f.name: getattr(args, _FLAG_NAMES.get(f.name, f.name))
                  for f in dataclasses.fields(cls) if f.name not in given}, **given)


# ---------------------------------------------------------------------------
# Subcommand parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inquest",
        description="Simulated-consultation workbench: generate patients, "
        "train the disease ranker and the question policy, evaluate, consult.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--config", help="flat key = value file of flag presets")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    # The simulated dialogue's settings, shared by train-inquiry and eval.
    dialogue = argparse.ArgumentParser(add_help=False)
    dialogue.add_argument("--horizon", type=int, default=10)
    _add_settings(dialogue, PatientSim)
    dialogue.add_argument("--unmentioned-answer", default=UNMENTIONED_DENIED,
                          choices=(UNMENTIONED_DENIED, UNMENTIONED_UNKNOWN))

    p = sub.add_parser("gen-ontology", help="write a synthetic two-level element tree")
    common(p, seeded=False)
    p.add_argument("--m1", type=int, default=30)
    p.add_argument("--m2", type=int, default=60)
    p.add_argument("--n-open", type=int, default=10)
    p.add_argument("--n-closed", type=int, default=None)
    p.add_argument("--out", required=True, help="directory for hpi.csv / questions.csv")

    p = sub.add_parser("gen-data", help="sample a patient cohort from the generative model")
    common(p)
    p.add_argument("--ontology", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--n-diseases", type=int, default=20)
    p.add_argument("--n-flags", type=int, default=8)
    p.add_argument("--genmodel-seed", type=int, default=0)

    p = sub.add_parser("train-diag", help="train the disease-ranking net")
    common(p)
    p.add_argument("--ontology", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--val-data", default=None)
    p.add_argument("--out", required=True)
    _add_settings(p, SlTrainConfig)
    p.add_argument("--no-augment", action="store_true",
                   help="train on full observations only")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("train-inquiry", parents=[dialogue],
                       help="train the question policy with PPO")
    common(p)
    p.add_argument("--ontology", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--diag", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--value-out", default=None)
    p.add_argument("--log", default=None, help="CSV iteration log path")
    _add_settings(p, PpoConfig)
    _add_settings(p, RewardParams)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", parents=[dialogue],
                       help="run consultations over a dataset and score them")
    common(p)
    p.add_argument("--ontology", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--diag", required=True)
    p.add_argument("--policy", default=None, help="trained policy checkpoint")
    p.add_argument("--baseline", choices=(RANDOM_LEGAL, FIXED_ORDER), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="defaults to the --out extension, else json")
    p.add_argument("--traces", default=None, help="optional JSON-lines trace dump")
    p.add_argument("--k", type=_int_list, default=(1, 3, 5))
    p.add_argument("--group-k", type=int, default=1)

    p = sub.add_parser("consult", help="interactive consultation; you answer as the patient")
    common(p, seeded=False)
    p.add_argument("--ontology", required=True)
    p.add_argument("--diag", required=True)
    p.add_argument("--policy", default=None)
    p.add_argument("--baseline", choices=(RANDOM_LEGAL, FIXED_ORDER), default=None)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--transcript", default=None, help="save the session as a trace file")

    p = sub.add_parser("report", help="render stored evaluation reports")
    common(p, seeded=False)
    p.add_argument("--inputs", nargs="+", required=True, help="report JSON files")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    return parser


# ---------------------------------------------------------------------------
# Helpers shared by subcommands
# ---------------------------------------------------------------------------

def _load_pair(args):
    onto = load_ontology(args.ontology)
    ds = load_dataset(args.data, ontology=onto)
    return onto, ds


def _select_policy(args):
    if (args.policy is None) == (args.baseline is None):
        raise ConfigError("pass exactly one of --policy or --baseline")
    if args.policy is not None:
        return GreedyModelPolicy(load_policy(args.policy))
    return baseline_policy(args.baseline)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_ontology(args) -> int:
    onto = generate_ontology(args.m1, args.m2, n_open=args.n_open, n_closed=args.n_closed)
    out = Path(args.out)
    save_ontology(onto, out)
    print(f"wrote {onto.n_elements} elements, {onto.n_questions} questions to {out}")
    return 0


def cmd_gen_data(args) -> int:
    onto = load_ontology(args.ontology)
    gm = benchmark_genmodel(
        onto, n_diseases=args.n_diseases, seed=args.genmodel_seed, n_flags=args.n_flags
    )
    ds = generate_cohort(gm, args.n, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} records over {ds.n_diseases} diseases to {args.out}")
    return 0


def cmd_train_diag(args) -> int:
    cfg = _settings(SlTrainConfig, args, augment=not args.no_augment)
    onto, ds = _load_pair(args)
    val = load_dataset(args.val_data, ontology=onto) if args.val_data else None
    log = None if args.quiet else print
    model, history = train_diagnosis(ds, cfg, val=val, log=log)
    save_diagnosis(model, args.out)
    print(f"saved diagnosis checkpoint to {args.out} "
          f"(final train loss {history[-1].mean_loss:.4f})")
    return 0


def cmd_train_inquiry(args) -> int:
    cfg = _settings(PpoConfig, args)
    reward = _settings(RewardParams, args)
    sim = _settings(PatientSim, args)
    onto, ds = _load_pair(args)
    diag = load_diagnosis(args.diag)
    log = None if args.quiet else print
    policy, value, history = train_inquiry(
        ds, diag, onto, cfg, reward_params=reward, sim=sim, horizon=args.horizon, log=log,
    )
    save_policy(policy, args.out, reward_params=reward, sim=sim)
    if args.value_out:
        save_value(value, args.value_out)
    if args.log:
        write_training_log(history, args.log)
    print(f"saved policy checkpoint to {args.out} "
          f"(final mean episode reward {history[-1].mean_reward:.3f})")
    return 0


def cmd_eval(args) -> int:
    sim = _settings(PatientSim, args)
    onto, ds = _load_pair(args)
    diag = load_diagnosis(args.diag)
    policy = _select_policy(args)
    report, traces = evaluate(
        policy, diag, ds, onto,
        sim=sim,
        horizon=args.horizon,
        seed=args.seed,
        ks=args.k,
        group_k=args.group_k,
    )
    fmt = args.format or ("csv" if str(args.out).endswith(".csv") else "json")
    emit_report(report, args.out, fmt)
    if args.traces:
        save_traces(traces, args.traces)
    for k in sorted(report.recall_at_k):
        print(f"recall@{k}: {report.recall_at_k[k]:.4f}")
    print(f"rediscovery precision {report.rediscovery.precision:.4f} "
          f"recall {report.rediscovery.recall:.4f} f1 {report.rediscovery.f1:.4f}")
    print(f"wrote report to {args.out}")
    return 0


def cmd_report(args) -> int:
    reports = [load_report(path) for path in args.inputs]
    for what, values in (("evaluation configs", {r.config_digest for r in reports}),
                         ("recall cut-offs", {tuple(sorted(r.recall_at_k)) for r in reports})):
        if len(values) > 1:
            raise ConfigError(f"reports come from different {what}: "
                              + ", ".join(map(str, sorted(values))))
    names = [Path(p).stem for p in args.inputs]  # the paths as given if two stems match
    rows = [["metric", *(names if len(set(names)) == len(names) else args.inputs)]]
    for k in sorted(reports[0].recall_at_k):
        rows.append([f"recall_at_{k}", *(f"{r.recall_at_k[k]:.6f}" for r in reports)])
    for name in ("precision", "recall", "f1"):
        rows.append([f"rediscovery_{name}",
                     *(f"{getattr(r.rediscovery, name):.6f}" for r in reports)])
    rows.append(["n_patients", *(str(r.n_patients) for r in reports)])
    if args.out:
        with writing(args.out) as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        print(f"wrote {args.out}")
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# Interactive consultation
# ---------------------------------------------------------------------------

class _SessionEnd(Exception):
    pass


def _ask(prompt, parse, input_fn, output_fn):
    """Prompt until the answer parses; EOF ends the session."""
    while True:
        try:
            raw = input_fn(prompt)
        except EOFError:
            raise _SessionEnd() from None
        try:
            return parse(raw)
        except ValueError:
            output_fn("please answer again")


def _parse_age(raw: str) -> int:
    age = int(raw.strip())
    if not 0 <= age <= 100:
        raise ValueError(raw)
    return age


def _parse_sex(raw: str) -> str:
    low = raw.strip().lower()
    if low in ("m", "male"):
        return "male"
    if low in ("f", "female"):
        return "female"
    raise ValueError(raw)


def _parse_yn(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("y", "yes"):
        return True
    if low in ("n", "no"):
        return False
    raise ValueError(raw)


def consult_repl(policy, diag_model, ontology, horizon: int = 10,
                 input_fn=input, output_fn=print) -> DialogueTrace:
    """Run one consultation with a human answering each question y/n.

    Open questions prompt once per unknown target element. A first-level
    "no" closes off that element's detail questions, mirroring the simulated
    environment. After the rounds (or EOF) the top-10 ranked diseases are
    printed with probabilities. Models that ``evalharness.check_models``
    refuses (another ontology, a policy of another history width than the
    ranker's) and a negative horizon are refused before the first prompt.
    """
    check_models(policy, diag_model, ontology)
    check_setting("horizon", horizon, "non-negative", integral=True)
    status = np.zeros(ontology.n_elements, dtype=np.int8)
    asked = np.zeros((1, ontology.n_questions), dtype=bool)
    rounds: list = []
    age, sex = 50, "female"
    try:
        age = _ask("patient age (0-100): ", _parse_age, input_fn, output_fn)
        sex = _ask("patient sex (m/f): ", _parse_sex, input_fn, output_fn)
    except _SessionEnd:
        output_fn("session ended before demographics; using neutral defaults")
    record = PatientRecord("human", age, sex, (), status.copy(), -1)
    # One kept input row in the ranker's layout (``diagnosis.ConsultRows``), built
    # on a view of ``status``: each answer written below is then revealed from it.
    kept = ConsultRows(diag_model, [record], status[None])
    # A policy that samples draws from one seeded stream, so a session replays.
    rngs = [np.random.default_rng(0) if getattr(policy, "draws", True) else None]

    action, revealed = None, []  # the round being answered
    try:
        for _ in range(horizon):
            mask = consult_env._legal(status[None], asked, ontology.index)
            if not mask.any():
                output_fn("no further questions are possible")
                break
            action = int(policy.select_batch(kept.inputs, mask, rngs)[0])
            asked[0, action] = True
            for t in ontology.questions[action].targets:
                if status[t] != consult_env.UNKNOWN:
                    continue
                name = ontology.elements[t].name
                yes = _ask(f"round {len(rounds) + 1}: {name}? (y/n) ",
                           _parse_yn, input_fn, output_fn)
                status[t] = CONFIRMED if yes else DENIED
                kept.reveal(0, t)
                revealed.append((t, int(status[t])))
                if not yes and ontology.elements[t].level == 1:
                    for child in ontology.children_of(t):
                        if status[child] == consult_env.UNKNOWN:
                            status[child] = DENIED
                            kept.reveal(0, child)
                            revealed.append((child, int(DENIED)))
            rounds.append((action, tuple(revealed)))
            revealed = []
    except _SessionEnd:
        # An open question cut off between two prompts keeps the answers it
        # got, so the transcript replays to the final observation.
        if revealed:
            rounds.append((action, tuple(revealed)))
        output_fn("input closed; ranking with what was gathered")

    probs = kept.rank(slice(None))[0]
    ranking = rank_from_probs(probs).tolist()
    probs = probs.tolist()
    output_fn("top diseases:")
    for pos, d in enumerate(ranking[:10], start=1):
        output_fn(f"  {pos:2d}. {diag_model.disease_names[d]}  p={probs[d]:.4f}")
    return DialogueTrace(
        patient_id="human",
        rounds=tuple(rounds),
        final_observation=status,
        ranking=tuple(ranking),
        true_label=-1,
        horizon=horizon,
    )


def cmd_consult(args) -> int:
    onto = load_ontology(args.ontology)
    diag = load_diagnosis(args.diag)
    trace = consult_repl(_select_policy(args), diag, onto, horizon=args.horizon)
    if args.transcript:
        save_traces([trace], args.transcript)
        print(f"saved transcript to {args.transcript}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "gen-ontology": cmd_gen_ontology,
    "gen-data": cmd_gen_data,
    "train-diag": cmd_train_diag,
    "train-inquiry": cmd_train_inquiry,
    "eval": cmd_eval,
    "consult": cmd_consult,
    "report": cmd_report,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        # peek at --config so file values become defaults before real parsing
        pre, _ = parser.parse_known_args(argv)
        if getattr(pre, "config", None):
            values = parse_config_file(pre.config)
            sub_name = pre.command
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    apply_config_defaults(action.choices[sub_name], values)
        args = parser.parse_args(argv)
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (InquestError, OSError) as exc:  # OSError: e.g. stdout closed under ``report``
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
