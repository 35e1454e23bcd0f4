"""Minimal dense-network engine: float32 or float64 numpy, manual backprop, Adam.

Everything is deterministic given (seed, data): no threads, no global state,
no framework. Each loss returns its value and gradient from one pass.
Gradients have a second, independent route through central finite
differences (``numeric_gradients``) so analytic backprop is testable.

Buffers: a ``DenseNet`` owns one contiguous buffer, ``net.params``, whose
element type is the net's dtype (float32 or float64). It is laid out layer by
layer as ``weights[0], biases[0], weights[1], ...``, and
``net.weights[i]`` and ``net.biases[i]`` are views into it. Parameters are
written in place (``w += ...``, ``w[...] = ...``); ``net.weights[i]`` is never
rebound, because a rebound entry would leave the buffer that ``adam_step``
updates and ``save_net`` checks. A net holds no gradient. A gradient is a
second buffer with the same layout (``param_views``): a training run keeps
one in its ``AdamState``, so it lives exactly as long as the run, and a
loaded, inference-only net carries its parameters alone. Activations,
gradients and Adam's moments and scratch are in the net's dtype too: inputs
are cast to it on entry. The model nets (ranker, policy, value) are built in
``NET_DTYPE``; ``init_dense`` defaults to float64, which finite differences
need.

Checkpoints: ``save_net`` writes one JSON header line, the fields of
``HEADER``, and then the body, the raw little-endian bytes of ``net.params``;
``load_net`` checks every field and keeps the file's dtype.
"""
from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigError, NonFinite, ParseError, ShapeError, check_setting, fields,
                     json_line, reading, writing)

RELU = "relu"
HEAD_LOGITS = "logits"
HEAD_SCALAR = "scalar"

_TAG_INIT = (1 << 40) + 2

# Rows per matrix product in ``forward``. A row's result from a BLAS
# product can depend on how many rows the product has (a 1-row product takes
# the gemv path; wider heads switch kernels at larger row counts), but it did
# not depend on the other rows of a fixed-size product. So inference that must
# give the same bytes for any batch size runs in zero-padded blocks of exactly
# this many rows. On scipy-openblas 0.3.31 (Haswell kernels), 4-row blocks give
# every row the same bytes as 8-row blocks: checked on the desk policy, ranker
# and value nets and a 256-wide ranker, float32 and float64, for 1-640 rows
# (``tests/test_lockstep.py`` pins them). Microseconds per float32 ``forward``
# at one BLAS thread, 2-core Xeon, best of 7, by block size:
#
#   net, rows         1      2      4      8     16
#   policy, 1      14.5   14.7   16.6   20.3   27.7
#   policy, 64      207    110     82     78     76
#   policy, 640    2011    990    718    692    667
#   ranker, 1      12.8   15.1   17.3   21.8   31.0
#   ranker, 640    1713   1429    854    800    831
#
# A consultation asks one question at a time, so the lone row weighs most;
# 4 rows cost batches 4-7% against 8, where 1 and 2 rows cost 1.3-2.9x.
BLOCK_ROWS = 4

# Adam's (beta1, beta2, eps), as in Kingma and Ba (2015).
ADAM_BETAS_EPS = (0.9, 0.999, 1e-8)

# Element type of the ranker, policy and value nets.
NET_DTYPE = np.float32

# Checkpoint header fields and their kinds (``errors.fields``): ``kind`` is
# always ``CHECKPOINT_KIND``, ``meta`` the caller's object, ``dtype`` the
# body's element type, one of ``DTYPES``'s keys (a net's buffer has the
# matching native type), and ``nbytes`` and ``sha256`` describe the body.
CHECKPOINT_KIND = "dense-net"
DTYPES = {"<f4": np.float32, "<f8": np.float64}
HEADER = {"kind": str, "meta": dict, "layer_dims": [int], "hidden_activation": str,
          "output_head": str, "dtype": str, "nbytes": int, "sha256": str}


def n_params(layer_dims) -> int:
    return sum(a * b + b for a, b in zip(layer_dims, layer_dims[1:]))


def param_views(layer_dims, buf: np.ndarray, dtype):
    """(weights, biases) views into a flat ``dtype`` buffer laid out like
    ``net.params``."""
    if buf.shape != (n_params(layer_dims),) or buf.dtype != dtype:
        raise ShapeError(f"buffer {buf.shape} {buf.dtype} does not fit layers {layer_dims}")
    weights, biases, at = [], [], 0
    for d_in, d_out in zip(layer_dims, layer_dims[1:]):
        weights.append(buf[at : at + d_in * d_out].reshape(d_in, d_out))
        at += d_in * d_out
        biases.append(buf[at : at + d_out])
        at += d_out
    return weights, biases


@dataclass
class DenseNet:
    """Fully-connected net; ``weights[i]`` maps layer i to i+1.

    ``output_head`` only changes the output shape contract: "logits" returns
    (n, d_out) raw scores, "scalar" requires d_out == 1 and returns (n,).
    ``weights`` and ``biases`` are views into ``params`` (see the module
    docstring).
    """

    layer_dims: tuple[int, ...]
    hidden_activation: str
    output_head: str
    params: np.ndarray
    meta: dict = field(default_factory=dict)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.params.dtype not in DTYPES.values():
            raise ShapeError(f"unsupported parameter dtype {self.params.dtype}")
        self.weights, self.biases = param_views(self.layer_dims, self.params, self.dtype)

    def __setstate__(self, state):
        # Copies (``copy.deepcopy``, pickle) copy the views one by one, which
        # would leave them outside the copy's buffer; rebuild them on it.
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype


def _spec_problem(dims: tuple, hidden_activation, output_head) -> str | None:
    """What is wrong with a net's declared geometry, or None."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        return f"layer_dims must be >=2 positive sizes, got {dims}"
    if hidden_activation != RELU:
        return f"unsupported activation {hidden_activation!r}"
    if output_head not in (HEAD_LOGITS, HEAD_SCALAR):
        return f"unsupported output head {output_head!r}"
    if output_head == HEAD_SCALAR and dims[-1] != 1:
        return "scalar head requires a single output unit"
    return None


def init_dense(
    layer_dims: tuple[int, ...] | list[int],
    output_head: str = HEAD_LOGITS,
    seed: int = 0,
    zero_output: bool = True,
    dtype=np.float64,
) -> DenseNet:
    """He-uniform init, U(+-sqrt(6/fan_in)) per layer, in ``dtype``, with
    ReLU hidden layers.

    With ``zero_output`` the last layer starts at zero so the net's initial
    outputs are constant (uniform class scores / zero value estimate). The
    draws are float64 whatever ``dtype`` is, so a float32 net starts at the
    rounded float64 net. A layer size that is not an integer >= 1 (a
    fractional size, NaN or a boolean among them), fewer than two layers, an
    unknown head or a negative seed raise ConfigError.
    """
    check_setting("layer_dims", tuple(layer_dims), "sizes", integral=True)
    dims = tuple(int(d) for d in layer_dims)
    problem = _spec_problem(dims, RELU, output_head)
    if problem:
        raise ConfigError(problem)
    check_setting("seed", seed, "non-negative", integral=True)
    rng = np.random.default_rng([seed, _TAG_INIT])
    net = DenseNet(dims, RELU, output_head, np.zeros(n_params(dims), dtype))
    for i, w in enumerate(net.weights):
        if zero_output and i == net.n_layers - 1:
            break  # the last draw: skipping it changes no other layer
        limit = np.sqrt(6.0 / dims[i])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return net


def _check_input(net: DenseNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=net.dtype)
    if x.ndim != 2 or x.shape[1] != net.layer_dims[0]:
        raise ShapeError(
            f"expected input (n, {net.layer_dims[0]}), got {x.shape}"
        )
    return x


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Inference pass: (n, d_in) inputs to the head's outputs. Each row's
    output is the same bytes whatever the other rows are and however many
    there are (see ``BLOCK_ROWS``)."""
    x = _check_input(net, x)
    n = len(x)
    blocks = max(-(-n // BLOCK_ROWS), 1)
    h = np.zeros((blocks * BLOCK_ROWS, x.shape[1]), net.dtype)
    h[:n] = x
    h = h.reshape(blocks, BLOCK_ROWS, -1)
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        # A stacked matmul issues one product per block of BLOCK_ROWS rows.
        h = h @ w
        h += b
        if i < last:
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
        z = h @ net.weights[i]
        z += net.biases[i]
        pres.append(z)
        h = np.maximum(z, 0.0) if i < net.n_layers - 1 else z
        acts.append(h)
    out = h[:, 0] if net.output_head == HEAD_SCALAR else h
    return out, (acts, pres)


def backward(net: DenseNet, cache, grad_out: np.ndarray, out: np.ndarray | None = None):
    """Backprop ``grad_out`` (d loss / d output) to the parameter gradients.

    Writes them into ``out``, a flat buffer laid out like ``net.params``
    (allocated when None), and returns its ``(grads_w, grads_b)`` views. The
    gradient with respect to the input is not computed.
    """
    acts, pres = cache
    g = np.asarray(grad_out, dtype=net.dtype)
    if net.output_head == HEAD_SCALAR:
        g = g.reshape(-1, 1)
    if g.shape != pres[-1].shape:
        raise ShapeError(f"grad_out shape {g.shape} does not match output {pres[-1].shape}")
    buf = np.empty_like(net.params) if out is None else out
    grads_w, grads_b = param_views(net.layer_dims, buf, net.dtype)
    for i in range(net.n_layers - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grads_w[i])
        np.add.reduce(g, axis=0, out=grads_b[i])
        if i:
            g = g @ net.weights[i].T
            g *= pres[i - 1] > 0.0
    return grads_w, grads_b


def _all_finite(a: np.ndarray) -> bool:
    # min and max propagate NaN, and one of them is infinite when any entry
    # is; unlike ``isfinite(a).all()`` this allocates nothing of a's size.
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass
class AdamState:
    """Adam moments of one flat parameter buffer of n elements, plus the
    training run's gradient buffer ``grad`` and ``adam_step``'s (2, n)
    scratch, all in the parameters' dtype."""

    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    scratch: np.ndarray
    t: int = 0


def init_adam(params: np.ndarray) -> AdamState:
    return AdamState(
        np.zeros_like(params), np.zeros_like(params), np.zeros_like(params),
        np.empty((2, params.size), params.dtype),
    )


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the flat buffer ``params``, in place.

    The whole gradient is checked before anything is written, so a
    non-finite gradient leaves parameters, moments and step count as they
    were. Each ufunc makes one pass over the whole buffer, with no
    allocation, in the arithmetic order m = b1*m + (1-b1)*g, m = 0 where |m| < tiny,
    v = b2*v + ((1-b2)*g)*g, p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), with
    (b1, b2, eps) = ``ADAM_BETAS_EPS``, which fixes its bytes. ``tiny`` is the
    dtype's smallest normal number: a unit whose gradient stays zero decays
    its m into the subnormal range, where arithmetic runs many times slower,
    and rounding keeps it there.
    """
    if not (params.shape == grads.shape == state.m.shape
            and params.dtype == grads.dtype == state.m.dtype):
        raise ShapeError("params, grads and Adam state are inconsistent")
    if not _all_finite(grads):
        raise NonFinite("gradient contains non-finite values")
    beta1, beta2, eps = ADAM_BETAS_EPS
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    tiny = np.finfo(params.dtype).tiny
    m, v = state.m, state.v
    a, b = state.scratch
    m *= beta1
    np.multiply(grads, 1.0 - beta1, out=a)
    m += a
    np.abs(m, out=a)
    np.greater_equal(a, tiny, out=a)
    m *= a
    v *= beta2
    np.multiply(grads, 1.0 - beta2, out=a)
    a *= grads
    v += a
    np.divide(m, c1, out=a)
    a *= lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    params -= a


# ---------------------------------------------------------------------------
# Losses and softmax
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in float64 whatever the logits' dtype."""
    logits = np.asarray(logits, dtype=float)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer ``labels`` under the logits and
    its gradient, (softmax - onehot) / n, from one float64 softmax."""
    logits = np.asarray(logits, dtype=float)
    rows = np.arange(len(labels))
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    value = float((np.log(total[:, 0]) - z[rows, labels]).mean())
    if not np.isfinite(value):
        raise NonFinite("cross entropy is not finite")
    grad = e / total
    grad[rows, labels] -= 1.0
    return value, grad / len(labels)


def squared_error(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Half the mean squared difference and its gradient with respect to ``pred``."""
    d = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    return 0.5 * (float((d * d).sum()) / d.size), d / d.size


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

def save_net(net: DenseNet, path: str | Path, meta: dict | None = None) -> None:
    """Write a checkpoint; byte-identical for identical nets and meta.

    ``meta`` defaults to ``net.meta``. The file is one JSON header line
    (keys sorted) and then the raw little-endian bytes of ``net.params``, in
    the net's dtype. Non-finite parameters or meta raise NonFinite before
    the file is created.
    """
    if not _all_finite(net.params):
        raise NonFinite("checkpoint holds non-finite values; nothing written")
    little = net.params.astype(net.dtype.newbyteorder("<"), copy=False)
    body = little.tobytes()
    header = {
        "kind": CHECKPOINT_KIND, "meta": net.meta if meta is None else meta,
        "layer_dims": list(net.layer_dims), "hidden_activation": net.hidden_activation,
        "output_head": net.output_head, "dtype": little.dtype.str, "nbytes": len(body),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    line = json_line(header, "checkpoint meta").encode("ascii")
    with writing(path, binary=True) as fh:
        fh.write(line)
        fh.write(body)


def load_net(path: str | Path) -> DenseNet:
    """Read a ``save_net`` checkpoint. A file that is not one (a header that
    is not a JSON object with every field, another kind, layer_dims that are
    not integers, an unsupported activation, head or dtype, a body whose
    length or sha256 differs from the header's, a non-finite value) raises
    ParseError, and a file that cannot be read IoError. The net keeps the
    file's dtype."""
    with reading(f"checkpoint {path}"):
        blob = Path(path).read_bytes()
    end = blob.find(b"\n")
    if end < 0:
        raise ParseError("malformed checkpoint: no header line")
    with reading("checkpoint header"):  # bad JSON or UTF-8; deep nesting
        header = fields(json.loads(blob[:end]), HEADER, "checkpoint header")
    if header["kind"] != CHECKPOINT_KIND:
        raise ParseError(f"checkpoint kind is not {CHECKPOINT_KIND!r}")
    dims = header["layer_dims"]
    problem = _spec_problem(dims, header["hidden_activation"], header["output_head"])
    if problem:
        raise ParseError(f"checkpoint: {problem}")
    code = header["dtype"]
    if code not in DTYPES:
        raise ParseError(f"checkpoint dtype must be one of {sorted(DTYPES)}")
    body = memoryview(blob)[end + 1 :]
    if not len(body) == header["nbytes"] == np.dtype(code).itemsize * n_params(dims):
        raise ParseError(f"checkpoint body of {len(body)} bytes does not match the layer shapes")
    if hashlib.sha256(body).hexdigest() != header["sha256"]:
        raise ParseError("checkpoint body does not match its sha256")
    params = np.frombuffer(body, dtype=code).astype(DTYPES[code])
    if not _all_finite(params):
        raise ParseError("checkpoint holds non-finite values")
    return DenseNet(dims, header["hidden_activation"], header["output_head"], params,
                    header["meta"])
