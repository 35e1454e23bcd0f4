"""Every numeric argument of the public functions meets one range rule,
``errors.check_setting``: a float where an integer belongs, NaN, a boolean or
a value that breaks the rule raises DomainError, a ConfigError, naming the
argument, before any work is done."""
import re

import pytest

from inquest.cli import consult_repl
from inquest.consult_env import Lockstep, PatientSim
from inquest.diagnosis import SlTrainConfig, new_diagnosis_model, train_epoch
from inquest.errors import ConfigError, DomainError
from inquest.evalharness import FIXED_ORDER, baseline_policy, evaluate, recall_at_k
from inquest.inquiry import (PpoConfig, RewardParams, collect_rollouts, gae_advantages,
                             new_inquiry_policy, new_value_net, ppo_update)
from inquest.nncore import init_dense
from inquest.patientgen import (
    benchmark_genmodel,
    generate_cohort,
    generate_ontology,
    split_dataset,
    streams,
    toy_genmodel,
    toy_ontology,
)


@pytest.fixture(scope="module")
def toy():
    onto = toy_ontology()
    gm = toy_genmodel(onto)
    ds = generate_cohort(gm, 4, seed=0)
    diag = new_diagnosis_model(8, 7, ds.disease_names, onto.content_digest, hidden=(4,))
    return onto, gm, ds, diag


def _evaluate(toy, **kwargs):
    onto, gm, ds, diag = toy
    return evaluate(baseline_policy(FIXED_ORDER), diag, ds, onto, **kwargs)


def _repl(toy, horizon):
    onto, gm, ds, diag = toy
    prompts = []
    try:
        consult_repl(baseline_policy(FIXED_ORDER), diag, onto, horizon=horizon,
                     input_fn=prompts.append, output_fn=prompts.append)
    finally:
        assert prompts == []


def _nets(toy):
    onto = toy[0]
    return (new_inquiry_policy(8, 7, onto.n_questions, onto.content_digest, hidden=(4,)),
            new_value_net(8, 7, onto.content_digest, hidden=(4,)))


def _rollouts(toy, n_episodes=2, iteration=0):
    onto, gm, ds, diag = toy
    return collect_rollouts(*_nets(toy), diag, ds, onto, PatientSim(), RewardParams(),
                            n_episodes, 5, 0, iteration=iteration)


def _ppo_update(toy, iteration):
    return ppo_update(*_nets(toy), _rollouts(toy), PpoConfig(update_epochs=1),
                      iteration=iteration)


# Each (function, argument): the name its error gives, a value that breaks its
# rule, and a call of the function with the argument set to a value.
SITES = {
    ("generate_ontology", "m1"): ("m1", 0, lambda t, v: generate_ontology(v, 4)),
    ("generate_ontology", "m2"): ("m2", -1, lambda t, v: generate_ontology(3, v)),
    ("generate_ontology", "n_open"): ("n_open", -1,
                                      lambda t, v: generate_ontology(3, 4, n_open=v)),
    ("benchmark_genmodel", "n_diseases"): ("n_diseases", 0,
                                           lambda t, v: benchmark_genmodel(t[0], n_diseases=v)),
    ("benchmark_genmodel", "n_flags"): ("n_flags", -1,
                                        lambda t, v: benchmark_genmodel(t[0], n_flags=v)),
    ("benchmark_genmodel", "seed"): ("seed", -1, lambda t, v: benchmark_genmodel(t[0], seed=v)),
    ("streams", "key"): ("seed", -1, lambda t, v: streams((3, v), [0])),
    ("generate_cohort", "n"): ("cohort size", 0, lambda t, v: generate_cohort(t[1], v, 0)),
    ("generate_cohort", "seed"): ("seed", -1, lambda t, v: generate_cohort(t[1], 3, v)),
    ("split_dataset", "seed"): ("seed", -1,
                                lambda t, v: split_dataset(t[2], (0.5, 0.25, 0.25), v)),
    ("generate_ontology", "n_closed"): ("n_closed", 0,
                                        lambda t, v: generate_ontology(3, 4, n_closed=v)),
    ("init_dense", "seed"): ("seed", -1, lambda t, v: init_dense((3, 2), seed=v)),
    ("init_dense", "layer_dims"): ("layer_dims", 0, lambda t, v: init_dense((3, v, 2))),
    ("new_diagnosis_model", "hidden"): ("layer_dims", 0, lambda t, v: new_diagnosis_model(
        2, 3, ("a", "b"), "d", hidden=(v,))),
    ("Lockstep", "horizon"): ("horizon", -1, lambda t, v: Lockstep(
        t[2].records, t[0], PatientSim(), streams((0,), range(len(t[2]))), v)),
    ("consult_repl", "horizon"): ("horizon", -1, _repl),
    ("evaluate", "ks"): ("ks", 0, lambda t, v: _evaluate(t, ks=(1, v))),
    ("evaluate", "group_k"): ("group_k", 0, lambda t, v: _evaluate(t, group_k=v)),
    ("evaluate", "horizon"): ("horizon", -1, lambda t, v: _evaluate(t, horizon=v)),
    ("evaluate", "seed"): ("seed", -1, lambda t, v: _evaluate(t, seed=v)),
    ("recall_at_k", "ks"): ("ks", -1, lambda t, v: recall_at_k([], (1, v))),
    ("collect_rollouts", "n_episodes"): ("n_episodes", -1,
                                         lambda t, v: _rollouts(t, n_episodes=v)),
    ("collect_rollouts", "iteration"): ("iteration", -1, lambda t, v: _rollouts(t, iteration=v)),
    ("ppo_update", "iteration"): ("iteration", -1, _ppo_update),
    ("train_epoch", "epoch"): ("epoch", -1, lambda t, v: train_epoch(
        t[3], t[2], SlTrainConfig(), epoch=v)),
    ("gae_advantages", "gamma"): ("gamma", 0, lambda t, v: gae_advantages(_rollouts(t), v, 0.95)),
    ("gae_advantages", "lam_gae"): ("lam_gae", 2,
                                    lambda t, v: gae_advantages(_rollouts(t), 0.99, v)),
}


@pytest.mark.parametrize("value", [2.5, float("nan"), True, "breaks"])
@pytest.mark.parametrize("site", SITES, ids="-".join)
def test_numeric_argument_outside_its_rule_raises_domain_error_naming_it(toy, site, value):
    name, breaks, call = SITES[site]
    value = breaks if value == "breaks" else value
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must be ") as caught:
        call(toy, value)
    assert isinstance(caught.value, ConfigError)


def test_evaluate_refuses_a_fractional_cut_off(toy):
    with pytest.raises(DomainError, match=re.escape("ks must be a tuple of integers >= 1, "
                                                    "got (1.5, 3)")):
        _evaluate(toy, ks=(1.5, 3))
