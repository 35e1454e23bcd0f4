"""Disease-ranking model: (history, ternary HPI observation) -> distribution.

The same network serves two callers: standalone ranking on a completed record
and in-dialogue scoring on a partial observation. Masking augmentation during
training hides random known entries so the model stays calibrated on partial
views. ``ModelSpec`` declares a model kind's net shape and checkpoint meta
once; the inquiry policy and value nets are declared with it too.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import nncore
from .errors import (DigestMismatch, DomainError, EmptyDataset, ParseError, ShapeError,
                     check_setting, check_settings, fields, setting)
from .patientgen import PatientDataset, encode_histories, full_evidence, history_width
from .nncore import DenseNet, forward_with_cache, softmax

_TAG_SL = (1 << 40) + 3

# Row v is the triple one-hot of ternary status v, in the nets' dtype so that
# the input matrices built from it need no cast.
_ONE_HOT = np.eye(3, dtype=nncore.NET_DTYPE)


@dataclass
class DiagnosisModel:
    """Trained ranking net plus the shape contract it was built for."""

    net: DenseNet
    history_width: int
    n_elements: int
    disease_names: tuple[str, ...]
    ontology_digest: str

    @property
    def n_diseases(self) -> int:
        return len(self.disease_names)


@dataclass(frozen=True)
class SlTrainConfig:
    epochs: int = setting(30, "count")
    # Records per Adam step. Each step pays for Adam over every parameter
    # (55k on the desk ranker) and the per-pass Python on top of its rows'
    # work, so the step count bounds the ranker stage. The desk ranker (12,000
    # records, 60 epochs), seeds 0-2 at one BLAS thread on a 2-core Xeon; the
    # gate reads each quality mean against the 64-row run's lowest seed:
    #
    #   batch, lr    Adam steps   ranker s, S = 0   gate
    #   64, 1e-3         11,280       10.04        (sets the floors)
    #   128, 1e-3         5,640          -         rediscovery 0.0009 short
    #   256, 1e-3         2,820        5.42        passes
    #   256, 2e-3         2,820          -         trained h10 0.0008 short
    #
    # Seconds are medians of one alternating set (BENCH_9.json). At 256,
    # perfbench's ``train`` pass fell from 0.2192 to 0.2011 s (median of 10
    # alternating pairs), and ``train_diagnosis`` on its 1,800 records from 62
    # to 40 ms (median of 25 calls, 3 alternating rounds).
    batch_size: int = setting(256, "count")
    lr: float = setting(1e-3, "non-negative")  # 0 trains nothing: the parameters stay frozen
    seed: int = setting(0, "non-negative")
    augment: bool = True
    hide_lo: float = setting(0.0, "rate")
    hide_hi: float = setting(0.8, "rate")
    hidden: tuple[int, ...] = setting((128, 128), "sizes")

    def __post_init__(self) -> None:
        check_settings(self)
        if self.hide_lo > self.hide_hi:
            raise DomainError("hide-rate range must satisfy 0 <= lo <= hi <= 1")


@dataclass
class SlEpochMetrics:
    mean_loss: float
    accuracy: float


def encode_hpi_ternary(obs: np.ndarray) -> np.ndarray:
    """Triple one-hot per element: [unknown, confirmed, denied] at slots 3i..3i+2."""
    obs = np.asarray(obs)
    flat = obs.reshape(-1, obs.shape[-1]) if obs.ndim == 2 else obs.reshape(1, -1)
    if flat.size and (flat.min() < 0 or flat.max() > 2):
        raise DomainError("ternary entries must be 0, 1 or 2")
    n, m = flat.shape
    out = _ONE_HOT.take(flat, axis=0).reshape(n, 3 * m)
    return out if obs.ndim == 2 else out[0]


def net_input(history: np.ndarray, obs: np.ndarray, dtype) -> np.ndarray:
    """The nets' (n, E + 3M) input rows in ``dtype``: each (n, E) history row,
    then the ``encode_hpi_ternary`` of its (n, M) observation row."""
    return np.hstack([history, encode_hpi_ternary(obs)], dtype=dtype)


@dataclass(frozen=True)
class ModelSpec:
    """One model kind's contract, shared by its constructor, its checkpoint
    writer and its loader. The net reads ``history_width + 3 * n_elements``
    inputs ([history, ternary status]) and ends in ``head`` with
    ``width(meta)`` outputs. ``fields`` maps each meta key, which is also an
    attribute of ``cls``, to its kind (``errors.fields``); ``what`` names the
    kind in errors."""

    cls: type
    kind: str
    what: str
    fields: dict
    head: str
    width: Callable[[dict], int]


DIAGNOSIS = ModelSpec(
    DiagnosisModel, "diagnosis", "a diagnosis model",
    {"history_width": int, "n_elements": int, "disease_names": [str], "ontology_digest": str},
    nncore.HEAD_LOGITS, lambda meta: len(meta["disease_names"]),
)


def _input_width(meta: dict) -> int:
    return meta["history_width"] + 3 * meta["n_elements"]


def new_model(spec: ModelSpec, hidden: tuple[int, ...], seed: int, **meta):
    dims = (_input_width(meta), *hidden, spec.width(meta))
    net = nncore.init_dense(dims, output_head=spec.head, seed=seed, dtype=nncore.NET_DTYPE)
    return spec.cls(net, **meta)


def new_diagnosis_model(
    history_width: int,
    n_elements: int,
    disease_names: tuple[str, ...],
    ontology_digest: str,
    hidden: tuple[int, ...],
    seed: int = 0,
) -> DiagnosisModel:
    return new_model(DIAGNOSIS, hidden, seed, history_width=history_width, n_elements=n_elements,
                     disease_names=tuple(disease_names), ontology_digest=ontology_digest)


def predict(model: DiagnosisModel, history: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Disease distribution for one (history, observation) pair."""
    return predict_batch(model, history, obs)[0]


def predict_rows(model: DiagnosisModel, inputs: np.ndarray) -> np.ndarray:
    """Disease distributions of ``net_input`` rows in the model's width and
    dtype; a row's bytes do not depend on the other rows (``nncore.forward``)."""
    return softmax(nncore.forward(model.net, inputs))


def predict_batch(model: DiagnosisModel, history: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Disease distributions, one row per (history, observation) pair
    (``predict_rows`` of their ``net_input`` rows)."""
    history = np.atleast_2d(np.asarray(history, dtype=float))
    obs = np.atleast_2d(obs)
    if history.shape[1] != model.history_width:
        raise ShapeError(f"history width {history.shape[1]} != {model.history_width}")
    if obs.shape[1] != model.n_elements:
        raise ShapeError(f"observation length {obs.shape[1]} != {model.n_elements}")
    if history.shape[0] != obs.shape[0]:
        raise ShapeError("history and observation batch sizes differ")
    return predict_rows(model, net_input(history, obs, model.net.dtype))


class ConsultRows:
    """The net input rows a consultation keeps, one per record, built from
    the (n, M) ``status`` and kept in step with it through ``reveal``.

    ``inputs`` holds ``net_input`` of the records' histories and of
    ``status`` in the ranker ``model``'s layout: its history width and dtype.
    The policy, the value net and the ranker all read these rows. ``status``
    is kept, not copied: its owner writes it in place, and ``reveal``
    re-encodes the one-hot slots it names from it. They are exact 0/1 values,
    so the rows stay the bytes that ``net_input`` builds from the new
    observations. ``rank`` runs the ranker on them.
    """

    def __init__(self, model: DiagnosisModel, records, status: np.ndarray):
        self.model = model
        self.status = status
        self.inputs = net_input(encode_histories(records, model.history_width), status,
                                model.net.dtype)
        # Splitting the last axis in two is always a view, so writing it
        # writes the rows.
        self._slots = self.inputs[:, model.history_width:].reshape(*status.shape, 3)

    def reveal(self, rows, elements) -> None:
        """Re-encode element ``elements[j]`` of row ``rows[j]`` from ``status``."""
        self._slots[rows, elements] = _ONE_HOT[self.status[rows, elements]]

    def rank(self, rows) -> np.ndarray:
        """The ranker's disease distributions of ``rows`` (``predict_rows``)."""
        return predict_rows(self.model, self.inputs[rows])


def rank_from_probs(probs: np.ndarray) -> np.ndarray:
    """Indices by descending probability (per row for a 2-D array); exact ties
    by ascending index."""
    return np.argsort(-np.asarray(probs), kind="stable")


def rank_diseases(model: DiagnosisModel, history: np.ndarray, obs: np.ndarray) -> np.ndarray:
    return rank_from_probs(predict(model, history, obs))


def _dataset_arrays(dataset: PatientDataset, width: int):
    # Records enter training as full observations: a complete interview
    # answers every question, so absence (denied or never mentioned) reads
    # as denied. Masking augmentation then hides entries to mimic the
    # partial views seen mid-dialogue.
    hist = encode_histories(dataset.records, width)
    hpi = full_evidence(np.stack([r.hpi for r in dataset.records]))
    labels = dataset.labels()
    return hist, hpi, labels


def train_epoch(
    model: DiagnosisModel,
    dataset: PatientDataset,
    cfg: SlTrainConfig,
    epoch: int = 0,
    adam: nncore.AdamState | None = None,
) -> SlEpochMetrics:
    """One shuffled minibatch pass, ceil(n / cfg.batch_size) Adam steps with
    the remainder in the last; returns mean loss and top-1 accuracy.

    Reproducible from (cfg.seed, epoch) alone: the shuffle and every
    augmentation draw come from an RNG keyed on that pair. A dataset without
    the model's findings and diseases, in order, raises DigestMismatch.
    """
    check_setting("epoch", epoch, "non-negative", integral=True)
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    check_dataset(model, dataset, "dataset")
    if adam is None:
        adam = nncore.init_adam(model.net.params)
    return _train_epoch(model, _dataset_arrays(dataset, model.history_width), cfg, epoch, adam)


def _train_epoch(model, arrays, cfg: SlTrainConfig, epoch: int, adam) -> SlEpochMetrics:
    """``train_epoch`` on the checked arrays of ``_dataset_arrays``."""
    hist, hpi, labels = arrays
    rng = np.random.default_rng([cfg.seed, _TAG_SL, epoch])
    order = rng.permutation(len(labels))
    total_loss = 0.0
    hits = 0
    for start in range(0, len(order), cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        obs = hpi[idx]
        if cfg.augment:
            rates = rng.uniform(cfg.hide_lo, cfg.hide_hi, size=len(idx))
            hide = rng.random(obs.shape) < rates[:, None]
            obs = np.where(hide, 0, obs)
        y = labels[idx]
        logits, cache = forward_with_cache(model.net, net_input(hist[idx], obs, model.net.dtype))
        loss, grad = nncore.cross_entropy(logits, y)
        total_loss += loss * len(idx)
        hits += int((logits.argmax(axis=1) == y).sum())
        nncore.backward(model.net, cache, grad, adam.grad)
        nncore.adam_step(model.net.params, adam.grad, adam, cfg.lr)
    n = len(labels)
    return SlEpochMetrics(total_loss / n, hits / n)


def train_diagnosis(
    dataset: PatientDataset,
    cfg: SlTrainConfig,
    val: PatientDataset | None = None,
    log=None,
) -> tuple[DiagnosisModel, list[SlEpochMetrics]]:
    """Full supervised run: fresh model sized to the data, cfg.epochs passes, optional val
    log. A ``val`` of other findings or diseases raises DigestMismatch before training."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    model = new_diagnosis_model(
        history_width(dataset.records), dataset.m, dataset.disease_names, dataset.ontology_digest,
        hidden=cfg.hidden, seed=cfg.seed,
    )
    if val is not None:
        check_dataset(model, val, "validation set")
    adam = nncore.init_adam(model.net.params)
    arrays = _dataset_arrays(dataset, model.history_width)
    logs_val = log is not None and val is not None and len(val)
    val_arrays = _dataset_arrays(val, model.history_width) if logs_val else None
    history = []
    for epoch in range(cfg.epochs):
        metrics = _train_epoch(model, arrays, cfg, epoch, adam)
        history.append(metrics)
        if log is not None:
            line = f"epoch {epoch}: loss {metrics.mean_loss:.4f} acc {metrics.accuracy:.4f}"
            if val_arrays is not None:
                loss, accuracy = _loss(model, val_arrays)
                line += f" val_acc {accuracy:.4f} val_loss {loss:.4f}"
            log(line)
    return model, history


def _loss(model: DiagnosisModel, arrays) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy on the arrays of
    ``_dataset_arrays``, no augmentation, from one forward pass."""
    hist, hpi, labels = arrays
    logits = nncore.forward(model.net, net_input(hist, hpi, model.net.dtype))
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    return nncore.cross_entropy(logits, labels)[0], accuracy


def check_dataset(model: DiagnosisModel, dataset: PatientDataset, what: str) -> None:
    """Raise DigestMismatch, naming ``dataset`` by ``what``, unless it has the
    findings and the diseases, in order, that ``model`` was built for."""
    if dataset.m != model.n_elements or dataset.disease_names != model.disease_names:
        raise DigestMismatch(f"{what} has other findings or diseases than the diagnosis model")


def top1_accuracy(model: DiagnosisModel, dataset: PatientDataset) -> float:
    """Share of ``dataset``'s full records whose label the ranker ranks first."""
    check_dataset(model, dataset, "dataset")
    hist, hpi, labels = _dataset_arrays(dataset, model.history_width)
    probs = predict_batch(model, hist, hpi)
    return float((probs.argmax(axis=1) == labels).mean())


def save_model(model, path: str | Path, spec: ModelSpec, **extra) -> None:
    """Checkpoint ``model`` with its kind, its ``spec.fields`` and ``extra``
    as the meta."""
    meta = {key: getattr(model, key) for key in spec.fields}
    nncore.save_net(model.net, path, {"kind": spec.kind, **meta, **extra})


def load_model(path: str | Path, spec: ModelSpec):
    """Read a ``save_model`` checkpoint of ``spec``'s kind. Raises ParseError
    when the file holds another kind, a meta field is missing or malformed, or
    the net's input width, output width or head is not what the meta and
    ``spec`` give."""
    net = nncore.load_net(path)
    if net.meta.get("kind") != spec.kind:
        raise ParseError(f"checkpoint is not {spec.what}")
    meta = fields(net.meta, spec.fields, f"{spec.kind} checkpoint meta")
    if net.layer_dims[0] != _input_width(meta):
        raise ParseError("checkpoint input width does not match recorded dimensions")
    if net.layer_dims[-1] != spec.width(meta):
        raise ParseError(f"{spec.kind} checkpoint output width {net.layer_dims[-1]} "
                         f"!= {spec.width(meta)}")
    if net.output_head != spec.head:
        raise ParseError(f"{spec.kind} checkpoint output head {net.output_head!r} "
                         f"!= {spec.head!r}")
    return spec.cls(net, **meta)


def save_diagnosis(model: DiagnosisModel, path: str | Path) -> None:
    save_model(model, path, DIAGNOSIS)


def load_diagnosis(path: str | Path) -> DiagnosisModel:
    return load_model(path, DIAGNOSIS)
