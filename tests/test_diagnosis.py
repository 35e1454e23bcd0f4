"""Disease-ranking model: encoding, training behaviour, oracle agreement."""
import numpy as np
import pytest

import inquest.diagnosis as diagnosis
import inquest.nncore as nncore
from inquest.diagnosis import (
    SlTrainConfig,
    encode_hpi_ternary,
    load_diagnosis,
    new_diagnosis_model,
    predict,
    predict_batch,
    rank_diseases,
    rank_from_probs,
    save_diagnosis,
    top1_accuracy,
    train_diagnosis,
    train_epoch,
)
from inquest.errors import DigestMismatch, DomainError, EmptyDataset, ParseError, ShapeError
from inquest.inquiry import (
    load_policy,
    load_value,
    new_inquiry_policy,
    new_value_net,
    save_policy,
    save_value,
)
from inquest.patientgen import (
    PatientDataset,
    bayes_posterior,
    benchmark_genmodel,
    benchmark_ontology,
    encode_history,
    enumerate_bayes_rate,
    full_evidence,
    generate_cohort,
    split_dataset,
    toy_genmodel,
    toy_ontology,
)

E = 5  # history width of the toy records: age, two sex slots, two flags


@pytest.fixture(scope="module")
def toy():
    return toy_genmodel()


@pytest.fixture(scope="module")
def splits(toy):
    ds = generate_cohort(toy, 8000, seed=1)
    return split_dataset(ds, (0.6, 0.1, 0.3), seed=1)


@pytest.fixture(scope="module")
def trained(toy, splits):
    train, _, _ = splits
    cfg = SlTrainConfig(epochs=30, batch_size=64, lr=1e-3, seed=0, augment=False,
                        hidden=(64, 64))
    model, history = train_diagnosis(train, cfg)
    return model, history


@pytest.fixture(scope="module")
def five_diseases():
    """A cohort on the toy ontology with five diseases; the toy model has three."""
    return generate_cohort(benchmark_genmodel(toy_ontology(), n_diseases=5, n_flags=2), 60,
                           seed=2)


def full_view_loss(model, dataset):
    """Mean cross-entropy on full records, the ``val_loss`` of the training log."""
    return diagnosis._loss(model, diagnosis._dataset_arrays(dataset, model.history_width))


def fresh_model(toy, seed=0):
    return new_diagnosis_model(E, 7, toy.disease_names, toy.ontology_digest,
                               hidden=(16, 16), seed=seed)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def test_encode_ternary_examples():
    assert np.array_equal(encode_hpi_ternary(np.array([0, 0])), [1, 0, 0, 1, 0, 0])
    assert np.array_equal(encode_hpi_ternary(np.array([1, 2])), [0, 1, 0, 0, 0, 1])
    with pytest.raises(DomainError):
        encode_hpi_ternary(np.array([0, 3]))
    with pytest.raises(DomainError):
        encode_hpi_ternary(np.array([-1, 0]))
    for bad in (3, -1):
        with pytest.raises(DomainError):
            encode_hpi_ternary(np.array([[0, 1], [2, bad]], dtype=np.int8))


def test_encode_ternary_batch_one_hot():
    obs = np.array([[0, 1, 2], [2, 2, 0]])
    enc = encode_hpi_ternary(obs)
    assert enc.shape == (2, 9)
    assert np.all(enc.sum(axis=1) == 3)
    assert np.array_equal(enc.reshape(2, 3, 3).argmax(axis=2), obs)


@pytest.mark.parametrize("shape", [(7,), (5, 7), (0, 7), (1, 90), (100, 90)])
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_encode_ternary_is_byte_equal_to_eye_indexing(shape, dtype):
    obs = np.random.default_rng(shape[0]).integers(0, 3, size=shape, dtype=dtype)
    want = np.eye(3, dtype=np.float32)[obs].reshape(*shape[:-1], 3 * shape[-1])
    got = encode_hpi_ternary(obs)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Prediction and ranking
# ---------------------------------------------------------------------------

def test_fresh_model_predicts_uniform(toy):
    model = fresh_model(toy)
    probs = predict(model, np.zeros(E), np.zeros(7, dtype=np.int8))
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)
    again = predict(model, np.zeros(E), np.zeros(7, dtype=np.int8))
    assert np.array_equal(probs, again)


def test_predict_is_distribution(toy, trained):
    model, _ = trained
    rng = np.random.default_rng(5)
    for _ in range(20):
        hist = rng.random(E)
        obs = rng.integers(0, 3, size=7).astype(np.int8)
        p = predict(model, hist, obs)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-6


def test_rank_from_probs_examples():
    assert list(rank_from_probs(np.array([0.1, 0.7, 0.2]))) == [1, 2, 0]
    probs = np.array([0.1, 0.2, 0.25, 0.1, 0.1, 0.25])
    order = list(rank_from_probs(probs))
    assert order.index(2) < order.index(5)  # exact tie: lower index first
    assert list(rank_from_probs(np.full(4, 0.25))) == [0, 1, 2, 3]


def test_rank_diseases_consistent_with_predict(toy, trained):
    model, _ = trained
    rng = np.random.default_rng(9)
    hist = rng.random(E)
    obs = rng.integers(0, 3, size=7).astype(np.int8)
    probs = predict(model, hist, obs)
    order = rank_diseases(model, hist, obs)
    assert sorted(order) == [0, 1, 2]
    assert all(probs[a] >= probs[b] for a, b in zip(order, order[1:]))


def test_shape_errors(toy):
    model = fresh_model(toy)
    with pytest.raises(ShapeError):
        predict(model, np.zeros(E + 1), np.zeros(7, dtype=np.int8))
    with pytest.raises(ShapeError):
        predict(model, np.zeros(E), np.zeros(6, dtype=np.int8))
    with pytest.raises(ShapeError):
        predict_batch(model, np.zeros((2, E)), np.zeros((3, 7), dtype=np.int8))


# ---------------------------------------------------------------------------
# Training behaviour
# ---------------------------------------------------------------------------

def test_memorizes_single_record(toy):
    record = generate_cohort(toy, 1, seed=3).records[0]
    ds = PatientDataset([record] * 8, toy.disease_names, 7, toy.ontology_digest)
    cfg = SlTrainConfig(epochs=50, batch_size=1, lr=0.05, seed=0, augment=False,
                        hidden=(16, 16))
    model, history = train_diagnosis(ds, cfg)
    assert history[-1].mean_loss < 0.01
    assert history[-1].accuracy == 1.0


def test_zero_lr_keeps_parameters(toy, splits):
    train, _, _ = splits
    model = fresh_model(toy)
    before = [w.copy() for w in model.net.weights]
    cfg = SlTrainConfig(epochs=1, batch_size=64, lr=0.0, seed=0, augment=False)
    m1 = train_epoch(model, train, cfg, epoch=0)
    m2 = train_epoch(model, train, cfg, epoch=0)
    assert all(np.array_equal(a, b) for a, b in zip(before, model.net.weights))
    assert m1.mean_loss == m2.mean_loss


def test_training_is_deterministic(toy, splits):
    train, _, _ = splits
    small = PatientDataset(train.records[:500], train.disease_names, train.m,
                           train.ontology_digest, train.genmodel_digest)
    cfg = SlTrainConfig(epochs=3, batch_size=32, lr=1e-3, seed=4, hidden=(16, 16))
    a, hist_a = train_diagnosis(small, cfg)
    b, hist_b = train_diagnosis(small, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a.net.weights, b.net.weights))
    assert [m.mean_loss for m in hist_a] == [m.mean_loss for m in hist_b]


def test_logged_run_builds_validation_arrays_once(toy, splits, monkeypatch):
    train, val, _ = splits
    small = PatientDataset(train.records[:300], train.disease_names, train.m,
                           train.ontology_digest, train.genmodel_digest)
    cfg = SlTrainConfig(epochs=3, batch_size=32, seed=4, hidden=(16, 16))
    built = []
    real = diagnosis._dataset_arrays

    def counted(dataset, width):
        built.append(len(dataset))
        return real(dataset, width)

    monkeypatch.setattr(diagnosis, "_dataset_arrays", counted)
    lines = []
    model, _ = train_diagnosis(small, cfg, val=val, log=lines.append)
    assert built == [len(small), len(val)]  # once for training, once for validation
    assert len(lines) == 3
    assert lines[-1].endswith(f" val_loss {full_view_loss(model, val):.4f}")


@pytest.mark.parametrize("logged", [False, True])
def test_validation_set_of_other_diseases_is_refused_before_the_first_epoch(
        splits, five_diseases, logged):
    train, _, _ = splits
    lines = []
    with pytest.raises(DigestMismatch, match="validation set"):
        train_diagnosis(train, SlTrainConfig(epochs=1, hidden=(16, 16)), val=five_diseases,
                        log=lines.append if logged else None)
    assert lines == []


def test_top1_accuracy_refuses_a_dataset_of_other_diseases(toy, five_diseases):
    with pytest.raises(DigestMismatch):
        top1_accuracy(fresh_model(toy), five_diseases)


def test_heldout_loss_decreases_over_first_epochs(toy, splits):
    train, val, _ = splits
    small = PatientDataset(train.records[:2000], train.disease_names, train.m,
                           train.ontology_digest, train.genmodel_digest)
    # Full observations fit fast; lr is kept low so the first five epochs
    # sit on the steep part of the curve and the decrease stays strict.
    cfg = SlTrainConfig(epochs=5, batch_size=64, lr=3e-4, seed=0, augment=False,
                        hidden=(64, 64))
    model = new_diagnosis_model(E, 7, train.disease_names, train.ontology_digest,
                                hidden=(64, 64), seed=0)
    adam = nncore.init_adam(model.net.params)
    losses = []
    for epoch in range(cfg.epochs):
        train_epoch(model, small, cfg, epoch=epoch, adam=adam)
        losses.append(full_view_loss(model, val))
    assert all(a > b for a, b in zip(losses, losses[1:])), losses


def test_converges_to_oracle_on_toy(toy, splits, trained):
    model, _ = trained
    _, _, test = splits
    rate = enumerate_bayes_rate(toy)
    acc = top1_accuracy(model, test)
    assert abs(acc - rate) <= 0.02

    sample = test.records[:2000]
    hist = np.stack([encode_history(r, E) for r in sample])
    obs = np.stack([full_evidence(r.hpi) for r in sample])
    probs = predict_batch(model, hist, obs)
    agree = np.mean([
        int(np.argmax(probs[i]))
        == int(np.argmax(bayes_posterior(toy, full_evidence(r.hpi))))
        for i, r in enumerate(sample)
    ])
    assert agree >= 0.95


def test_augmented_model_beats_uniform_on_partial_views(toy, splits):
    train, _, test = splits
    cfg = SlTrainConfig(epochs=10, batch_size=64, lr=1e-3, seed=0, augment=True,
                        hide_lo=0.0, hide_hi=0.8, hidden=(64, 64))
    model, _ = train_diagnosis(train, cfg)
    rng = np.random.default_rng(17)
    sample = test.records[:2000]
    hist = np.stack([encode_history(r, E) for r in sample])
    obs = np.stack([full_evidence(r.hpi) for r in sample])
    obs = np.where((rng.random(obs.shape) < 0.5) & (obs != 0), 0, obs)
    probs = predict_batch(model, hist, obs)
    true_p = probs[np.arange(len(sample)), [r.label for r in sample]]
    se = true_p.std(ddof=1) / np.sqrt(len(sample))
    assert true_p.mean() > 1.0 / 3.0 + 3.0 * se


def test_history_width_is_derived_from_the_training_set(toy):
    # Age, two sex slots and the flags: 2 on the toy model, 8 on the desk's.
    desk = benchmark_genmodel(benchmark_ontology())
    cfg = SlTrainConfig(epochs=1, hidden=(8,))
    for gm, width in ((toy, 5), (desk, 11)):
        ds = generate_cohort(gm, 40, seed=0)
        model, _ = train_diagnosis(ds, cfg)
        assert model.history_width == width
        assert model.net.layer_dims[0] == width + 3 * ds.m


def test_rejects_empty_and_mismatched_data(toy):
    empty = PatientDataset([], toy.disease_names, 7, toy.ontology_digest)
    cfg = SlTrainConfig()
    with pytest.raises(EmptyDataset):
        train_diagnosis(empty, cfg)
    model = fresh_model(toy)
    wrong_m = generate_cohort(toy, 4, seed=0)
    wrong_m.m = 9
    with pytest.raises(DigestMismatch):
        train_epoch(model, wrong_m, cfg)
    reversed_names = generate_cohort(toy, 4, seed=0)
    reversed_names.disease_names = reversed_names.disease_names[::-1]
    with pytest.raises(DigestMismatch):
        train_epoch(model, reversed_names, cfg)
    with pytest.raises(DomainError):
        SlTrainConfig(hide_lo=0.9, hide_hi=0.2)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, toy, trained):
    model, _ = trained
    path = tmp_path / "diag.json"
    save_diagnosis(model, path)
    assert model.net.meta == {}
    again = load_diagnosis(path)
    assert again.disease_names == model.disease_names
    assert again.ontology_digest == model.ontology_digest
    rng = np.random.default_rng(2)
    hist = rng.random((4, E))
    obs = rng.integers(0, 3, size=(4, 7)).astype(np.int8)
    assert np.array_equal(predict_batch(again, hist, obs), predict_batch(model, hist, obs))


_CHECKPOINTS = {  # kind: (writer, loader, what loading another kind's file names)
    "diagnosis": (save_diagnosis, load_diagnosis, "not a diagnosis model"),
    "policy": (save_policy, load_policy, "not an inquiry policy"),
    "value": (save_value, load_value, "not a value net"),
}
_OTHER_KIND = {"diagnosis": "policy", "policy": "value", "value": "diagnosis"}
# (kind, case): the head, output width and meta changes of a net that its
# kind's meta does not describe.
_BAD_NETS = {
    ("diagnosis", "head"): (nncore.HEAD_SCALAR, 1, {"disease_names": ["d0"]}),
    ("diagnosis", "width"): (nncore.HEAD_LOGITS, 9, {}),
    ("policy", "head"): (nncore.HEAD_SCALAR, 1, {"n_questions": 1}),
    ("policy", "width"): (nncore.HEAD_LOGITS, 9, {}),
    ("value", "head"): (nncore.HEAD_LOGITS, 1, {}),
    ("value", "width"): (nncore.HEAD_LOGITS, 5, {}),
}


@pytest.mark.parametrize("case", ["head", "width", "other-kind"])
@pytest.mark.parametrize("kind", ["diagnosis", "policy", "value"])
def test_checkpoint_kind_guard(tmp_path, toy, kind, case):
    models = {"diagnosis": fresh_model(toy),
              "policy": new_inquiry_policy(E, 7, 5, toy.ontology_digest, hidden=(16, 16)),
              "value": new_value_net(E, 7, toy.ontology_digest, hidden=(16, 16))}
    save, load, not_kind = _CHECKPOINTS[kind]
    path = tmp_path / "net.ckpt"
    if case == "other-kind":
        other = _OTHER_KIND[kind]
        _CHECKPOINTS[other][0](models[other], path)
        with pytest.raises(ParseError, match=not_kind):
            load(path)
        return
    head, width, changes = _BAD_NETS[kind, case]
    save(models[kind], path)
    meta = {**nncore.load_net(path).meta, **changes}
    nncore.save_net(nncore.init_dense((E + 3 * 7, 4, width), output_head=head), path, meta)
    with pytest.raises(ParseError, match=f"output {case}"):
        load(path)


def test_checkpoint_width_guard(tmp_path, toy):
    model = fresh_model(toy)
    path = tmp_path / "diag.json"
    save_diagnosis(model, path)
    head, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(head.replace(b'"n_elements":7', b'"n_elements":8') + b"\n" + body)
    with pytest.raises(ParseError, match="width"):
        load_diagnosis(path)
    # A layer 0 sized for the old fixed history width of 64 under a meta that
    # records the derived width E.
    padded = tmp_path / "padded.json"
    meta = nncore.load_net(tmp_path / "diag.json").meta
    nncore.save_net(nncore.init_dense((64 + 3 * 7, 16, 16, 3)), padded, meta)
    with pytest.raises(ParseError, match="width"):
        load_diagnosis(padded)


@pytest.mark.parametrize("key", ["history_width", "n_elements", "disease_names",
                                 "ontology_digest"])
def test_checkpoint_missing_meta_raises_parse_error(tmp_path, toy, key):
    model = fresh_model(toy)
    path = tmp_path / "diag.json"
    save_diagnosis(model, path)
    net = nncore.load_net(path)
    del net.meta[key]
    nncore.save_net(net, path)
    with pytest.raises(ParseError, match=key):
        load_diagnosis(path)


@pytest.mark.parametrize("key, value", [
    ("history_width", 2.7), ("n_elements", True), ("disease_names", [1, 2, 3]),
    ("disease_names", "xyz"), ("ontology_digest", 5),
])
def test_checkpoint_meta_of_another_type_raises_parse_error(tmp_path, key, value):
    # Each bad value converts to one the net fits (width 2, 1 element, 3
    # diseases), so only an exact type check refuses it.
    meta = {"kind": "diagnosis", "history_width": 2, "n_elements": 1,
            "disease_names": ["a", "b", "c"], "ontology_digest": "d"}
    net = nncore.init_dense((2 + 3 * 1, 4, 3), output_head=nncore.HEAD_LOGITS)
    path = tmp_path / "diag.ckpt"
    nncore.save_net(net, path, meta)
    assert load_diagnosis(path).disease_names == ("a", "b", "c")
    nncore.save_net(net, path, {**meta, key: value})
    with pytest.raises(ParseError, match=f"malformed '{key}'"):
        load_diagnosis(path)


@pytest.mark.parametrize("epochs", [0, -3, True])
def test_sl_config_rejects_epochs_below_one(epochs):
    with pytest.raises(DomainError, match="epochs"):
        SlTrainConfig(epochs=epochs)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1e-3, False])
def test_sl_config_rejects_bad_learning_rate(lr):
    with pytest.raises(DomainError, match="lr"):
        SlTrainConfig(lr=lr)


def test_sl_config_rejects_negative_seed():
    with pytest.raises(DomainError, match="seed must be non-negative"):
        SlTrainConfig(seed=-1)
