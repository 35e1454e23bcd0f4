"""Minimal dense-network engine: float64 numpy, manual backprop, Adam.

Everything is deterministic given (seed, data): no threads, no global state,
no framework. Gradients have a second, independent route through central
finite differences (``numeric_gradients``) so analytic backprop is testable.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonFinite, ParseError, ShapeError

RELU = "relu"
HEAD_LOGITS = "logits"
HEAD_SCALAR = "scalar"

_TAG_INIT = (1 << 40) + 2

# Rows per matrix product in ``forward_blocked``. A row's result from a BLAS
# product can depend on how many rows the product has (a 1-row product takes
# the gemv path; wider heads switch kernels at larger row counts), but it did
# not depend on the other rows of a fixed-size product. So inference that must
# give the same bytes for any batch size runs in zero-padded blocks of exactly
# this many rows.
BLOCK_ROWS = 8


@dataclass
class DenseNet:
    """Fully-connected net; ``weights[i]`` maps layer i to i+1.

    ``output_head`` only changes the output shape contract: "logits" returns
    (n, d_out) raw scores, "scalar" requires d_out == 1 and returns (n,).
    """

    layer_dims: tuple[int, ...]
    hidden_activation: str
    output_head: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    meta: dict = field(default_factory=dict)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_dense(
    layer_dims: tuple[int, ...] | list[int],
    output_head: str = HEAD_LOGITS,
    seed: int = 0,
    hidden_activation: str = RELU,
    zero_output: bool = True,
) -> DenseNet:
    """He-uniform init, U(+-sqrt(6/fan_in)) per layer.

    With ``zero_output`` the last layer starts at zero so the net's initial
    outputs are constant (uniform class scores / zero value estimate).
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"layer_dims must be >=2 positive sizes, got {dims}")
    if hidden_activation != RELU:
        raise ConfigError(f"unsupported activation {hidden_activation!r}")
    if output_head not in (HEAD_LOGITS, HEAD_SCALAR):
        raise ConfigError(f"unsupported output head {output_head!r}")
    if output_head == HEAD_SCALAR and dims[-1] != 1:
        raise ConfigError("scalar head requires a single output unit")
    rng = np.random.default_rng([seed, _TAG_INIT])
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(dims[i], dims[i + 1]))
        if zero_output and i == len(dims) - 2:
            w = np.zeros_like(w)
        weights.append(w)
        biases.append(np.zeros(dims[i + 1]))
    return DenseNet(dims, hidden_activation, output_head, weights, biases)


def _check_input(net: DenseNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.layer_dims[0]:
        raise ShapeError(
            f"expected input (n, {net.layer_dims[0]}), got {x.shape}"
        )
    return x


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    out, _ = forward_with_cache(net, x)
    return out


def forward_blocked(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Like ``forward``, but each row's output is the same bytes whatever the
    other rows are and however many there are (see ``BLOCK_ROWS``)."""
    x = _check_input(net, x)
    n = len(x)
    blocks = max(-(-n // BLOCK_ROWS), 1)
    h = np.zeros((blocks * BLOCK_ROWS, x.shape[1]))
    h[:n] = x
    h = h.reshape(blocks, BLOCK_ROWS, -1)
    for i in range(net.n_layers):
        # A stacked matmul issues one product per block of BLOCK_ROWS rows.
        h = h @ net.weights[i]
        h += net.biases[i]
        if i < net.n_layers - 1:
            np.maximum(h, 0.0, out=h)
    out = h.reshape(blocks * BLOCK_ROWS, -1)[:n]
    return out[:, 0] if net.output_head == HEAD_SCALAR else out


def forward_with_cache(net: DenseNet, x: np.ndarray):
    """Forward pass keeping per-layer activations for ``backward``."""
    x = _check_input(net, x)
    acts = [x]
    pres = []
    h = x
    for i in range(net.n_layers):
        z = h @ net.weights[i] + net.biases[i]
        pres.append(z)
        h = np.maximum(z, 0.0) if i < net.n_layers - 1 else z
        acts.append(h)
    out = h[:, 0] if net.output_head == HEAD_SCALAR else h
    return out, (acts, pres)


def backward(net: DenseNet, cache, grad_out: np.ndarray):
    """Backprop ``grad_out`` (d loss / d output) to parameter and input grads."""
    acts, pres = cache
    g = np.asarray(grad_out, dtype=float)
    if net.output_head == HEAD_SCALAR:
        g = g.reshape(-1, 1)
    if g.shape != pres[-1].shape:
        raise ShapeError(f"grad_out shape {g.shape} does not match output {pres[-1].shape}")
    grads_w = [None] * net.n_layers
    grads_b = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        if i < net.n_layers - 1:
            g = g * (pres[i] > 0.0)
        grads_w[i] = acts[i].T @ g
        grads_b[i] = g.sum(axis=0)
        g = g @ net.weights[i].T
    return grads_w, grads_b, g


def net_params(net: DenseNet) -> list[np.ndarray]:
    """Flat parameter list (weights then biases, layer order) sharing storage."""
    return list(net.weights) + list(net.biases)


def flat_grads(grads_w, grads_b) -> list[np.ndarray]:
    return list(grads_w) + list(grads_b)


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def init_adam(params: list[np.ndarray]) -> AdamState:
    return AdamState([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads and Adam state are inconsistent")
    state.t += 1
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not np.all(np.isfinite(g)):
            raise NonFinite("gradient contains non-finite values")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**state.t)
        v_hat = v / (1.0 - beta2**state.t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Losses and softmax
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer ``labels`` under the logits."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    nll = -log_softmax(logits)[np.arange(len(labels)), labels]
    value = float(nll.mean())
    if not np.isfinite(value):
        raise NonFinite("cross entropy is not finite")
    return value


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean NLL)/d(logits): (softmax - onehot) / n."""
    n = len(labels)
    g = softmax(np.asarray(logits, dtype=float))
    g[np.arange(n), labels] -= 1.0
    return g / n


def squared_error(pred: np.ndarray, target: np.ndarray) -> float:
    d = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    return float(0.5 * np.mean(d * d))


def squared_error_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    d = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    return d / d.size


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def numeric_gradients(net: DenseNet, loss_of_net, eps: float = 1e-6):
    """Central-difference gradient of ``loss_of_net(net)`` wrt every parameter.

    Slow by design; intended as the independent second route for gradient
    tests on small nets.
    """
    probe = copy.deepcopy(net)

    def grad_of(arrs):
        out = []
        for a in arrs:
            g = np.zeros_like(a)
            it = np.nditer(a, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = a[idx]
                a[idx] = orig + eps
                up = loss_of_net(probe)
                a[idx] = orig - eps
                down = loss_of_net(probe)
                a[idx] = orig
                g[idx] = (up - down) / (2.0 * eps)
            out.append(g)
        return out

    return grad_of(probe.weights), grad_of(probe.biases)


def relative_error(a, b, floor: float = 1e-8) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor) over matching arrays."""
    worst = 0.0
    for x, y in zip(a, b):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), floor)
        worst = max(worst, float((np.abs(x - y) / denom).max()))
    return worst


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_net(net: DenseNet, path: str | Path) -> None:
    """JSON checkpoint; byte-identical for identical nets."""
    payload = {
        "layer_dims": list(net.layer_dims),
        "hidden_activation": net.hidden_activation,
        "output_head": net.output_head,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "meta": net.meta,
    }
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise NonFinite("checkpoint holds non-finite values; nothing written") from None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def checkpoint_meta(net: DenseNet, kind: str, what: str, fields: dict) -> dict:
    """Typed meta of a loaded checkpoint: ``fields`` maps each required key to
    its converter (``int``, ``str``, ...). Raises ParseError, naming ``what``
    the checkpoint should hold, when the kind differs or a key is missing or
    malformed."""
    meta = net.meta if isinstance(net.meta, dict) else {}
    if meta.get("kind") != kind:
        raise ParseError(f"checkpoint is not {what}")
    out = {}
    for key, convert in fields.items():
        if key not in meta:
            raise ParseError(f"{kind} checkpoint meta lacks {key!r}")
        try:
            out[key] = convert(meta[key])
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{kind} checkpoint meta has a malformed {key!r}") from None
    return out


def load_net(path: str | Path) -> DenseNet:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed checkpoint: {exc}") from None
    for key in ("layer_dims", "hidden_activation", "output_head", "weights", "biases"):
        if key not in payload:
            raise ParseError(f"checkpoint missing field {key!r}")
    dims = tuple(payload["layer_dims"])
    weights = [np.asarray(w, dtype=float) for w in payload["weights"]]
    biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
    if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
        raise ParseError("checkpoint layer count does not match layer_dims")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
            raise ParseError(f"checkpoint layer {i} has wrong shape")
    return DenseNet(
        dims, payload["hidden_activation"], payload["output_head"], weights, biases,
        payload.get("meta", {}),
    )
