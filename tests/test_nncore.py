"""Gradient correctness against finite differences, Adam, checkpoints."""
import copy
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inquest.errors import ConfigError, InquestError, NonFinite, ParseError, ShapeError
from inquest.nncore import (
    AdamState,
    DenseNet,
    adam_step,
    backward,
    cross_entropy,
    forward,
    forward_with_cache,
    init_adam,
    init_dense,
    load_net,
    numeric_gradients,
    param_views,
    relative_error,
    save_net,
    softmax,
    squared_error,
)


def sample_away_from_kinks(net, n, seed, margin=1e-3, tries=200):
    """Inputs whose hidden preactivations stay clear of the ReLU corner,
    so central differences see a locally smooth function."""
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        x = rng.normal(size=(n, net.layer_dims[0]))
        _, (_, pres) = forward_with_cache(net, x)
        if all(np.abs(p).min() > margin for p in pres[:-1]):
            return x
    raise AssertionError("could not sample inputs away from ReLU kinks")


def randomized(net, seed):
    rng = np.random.default_rng(seed)
    for w in net.weights:
        w += rng.normal(scale=0.4, size=w.shape)
    for b in net.biases:
        b += rng.normal(scale=0.2, size=b.shape)
    return net


class ReferenceAdam:
    def __init__(self, params):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array Adam step that the flat in-place one replaced."""
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


def reference_backward(weights, output_head, cache, grad_out):
    """The allocating backward that the buffer-writing one replaced; it also
    returns the input gradient."""
    acts, pres = cache
    g = np.asarray(grad_out, dtype=float)
    if output_head == "scalar":
        g = g.reshape(-1, 1)
    n_layers = len(weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            g = g * (pres[i] > 0.0)
        grads_w[i] = acts[i].T @ g
        grads_b[i] = g.sum(axis=0)
        g = g @ weights[i].T
    return grads_w, grads_b, g


def same_bytes(xs, ys):
    return [x.tobytes() for x in xs] == [y.tobytes() for y in ys]


def test_backprop_matches_finite_differences_logits():
    net = randomized(init_dense((4, 8, 6, 3), seed=1), seed=2)
    x = sample_away_from_kinks(net, 5, seed=3)
    labels = np.array([0, 2, 1, 2, 0])

    logits, cache = forward_with_cache(net, x)
    gw, gb = backward(net, cache, cross_entropy(logits, labels)[1])
    nw, nb = numeric_gradients(net, lambda p: cross_entropy(forward(p, x), labels)[0])
    assert relative_error(gw, nw) < 1e-6
    assert relative_error(gb, nb) < 1e-6


def test_backprop_matches_finite_differences_scalar():
    net = randomized(init_dense((5, 7, 1), output_head="scalar", seed=4), seed=5)
    x = sample_away_from_kinks(net, 6, seed=6)
    target = np.random.default_rng(7).normal(size=6)

    pred, cache = forward_with_cache(net, x)
    assert pred.shape == (6,)
    gw, gb = backward(net, cache, squared_error(pred, target)[1])
    nw, nb = numeric_gradients(net, lambda p: squared_error(forward(p, x), target)[0])
    assert relative_error(gw, nw) < 1e-6
    assert relative_error(gb, nb) < 1e-6


def test_single_linear_layer_closed_form():
    # 0.5 * mean((x w + b - y)^2): gradient is x^T r / n and sum(r) / n.
    net = init_dense((2, 1), output_head="scalar", seed=0, zero_output=False)
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
    y = np.array([1.0, -2.0, 0.25])
    pred, cache = forward_with_cache(net, x)
    gw, gb = backward(net, cache, squared_error(pred, y)[1])
    r = (pred - y) / len(y)
    assert np.allclose(gw[0], x.T @ r.reshape(-1, 1), atol=1e-14)
    assert np.allclose(gb[0], r.sum(), atol=1e-14)


def test_zero_output_layer_gives_uniform_start():
    net = init_dense((6, 16, 4), seed=3)
    x = np.random.default_rng(0).normal(size=(9, 6))
    probs = softmax(forward(net, x))
    assert np.allclose(probs, 0.25, atol=1e-12)

    value = init_dense((6, 16, 1), output_head="scalar", seed=3)
    assert np.allclose(forward(value, x), 0.0, atol=1e-12)


def test_he_uniform_bounds_and_determinism():
    a = init_dense((10, 20, 5), seed=42, zero_output=False)
    b = init_dense((10, 20, 5), seed=42, zero_output=False)
    c = init_dense((10, 20, 5), seed=43, zero_output=False)
    for w, dim_in in zip(a.weights, (10, 20)):
        assert np.abs(w).max() <= np.sqrt(6.0 / dim_in)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))



def test_init_dense_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        init_dense((3, 2), seed=-1)


def test_adam_single_step_closed_form():
    p = np.array([1.0])
    g = np.array([0.3])
    state = init_adam(p)
    adam_step(p, g, state, lr=0.1)
    # After one bias-corrected step the update is lr * g / (|g| + eps).
    assert p[0] == pytest.approx(1.0 - 0.1 * 0.3 / (0.3 + 1e-8), abs=1e-14)
    assert state.t == 1


def test_adam_converges_on_quadratic():
    p = np.array([5.0, -3.0])
    state = init_adam(p)
    for _ in range(2000):
        adam_step(p, p.copy(), state, lr=0.05)
    assert np.abs(p).max() < 1e-3


def test_adam_rejects_nonfinite_gradient():
    p = np.array([1.0])
    state = init_adam(p)
    with pytest.raises(NonFinite):
        adam_step(p, np.array([np.nan]), state, lr=0.1)


@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.integers(1, 9), min_size=2, max_size=4),
    scalar=st.booleans(),
    rows=st.integers(1, 5),
    lr=st.sampled_from([0.0, 1e-3, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_backward_and_adam_match_per_array_reference(dims, scalar, rows, lr, seed):
    head = "scalar" if scalar else "logits"
    if scalar:
        dims[-1] = 1
    net = randomized(init_dense(dims, head, seed=seed % 997, zero_output=False), seed)
    ref_params = [a.copy() for a in net.weights + net.biases]
    ref = ReferenceAdam(ref_params)
    state = init_adam(net.params)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        out, cache = forward_with_cache(net, rng.normal(size=(rows, dims[0])))
        grad_out = rng.normal(size=out.shape)
        gw, gb = backward(net, cache, grad_out, state.grad)
        rw, rb, _ = reference_backward(ref_params[: net.n_layers], head, cache, grad_out)
        assert same_bytes(gw + gb, rw + rb)
        adam_step(net.params, state.grad, state, lr)
        reference_adam_step(ref_params, rw + rb, ref, lr)
        assert same_bytes(net.weights + net.biases, ref_params)
        for moment, ref_moment in ((state.m, ref.m), (state.v, ref.v)):
            mw, mb = param_views(net.layer_dims, moment, net.dtype)
            assert same_bytes(mw + mb, ref_moment)
        assert state.t == ref.t


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_rejects_nonfinite_gradient_before_writing_anything(bad):
    net = randomized(init_dense((4, 5, 3), seed=1), seed=2)
    state = init_adam(net.params)
    state.grad[:] = np.random.default_rng(3).normal(size=state.grad.shape)
    adam_step(net.params, state.grad, state, lr=0.1)
    before = [a.copy() for a in (net.params, state.m, state.v)]
    state.grad[-1] = bad  # the last bias gradient, checked last per array before
    with pytest.raises(NonFinite):
        adam_step(net.params, state.grad, state, lr=0.1)
    assert same_bytes([net.params, state.m, state.v], before)
    assert state.t == 1


def test_adam_step_allocates_almost_nothing():
    net = init_dense((281, 256, 256, 20), seed=0)  # twice the desk ranker's width
    state = init_adam(net.params)
    state.grad[:] = np.random.default_rng(0).normal(size=state.grad.shape)
    adam_step(net.params, state.grad, state, lr=1e-3)
    tracemalloc.start()
    try:
        adam_step(net.params, state.grad, state, lr=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * net.params.nbytes


def test_copies_and_loaded_nets_keep_views_into_their_own_buffer(tmp_path):
    net = randomized(init_dense((4, 6, 3), seed=3), seed=4)
    save_net(net, tmp_path / "net.json")
    for other in (copy.deepcopy(net), load_net(tmp_path / "net.json")):
        assert other.params.tobytes() == net.params.tobytes()
        assert not np.shares_memory(other.params, net.params)
        other.params[:] = 0.0
        assert all((a == 0.0).all() for a in other.weights + other.biases)
        assert (net.params != 0.0).any()


def test_softmax_is_stable_and_normalized():
    logits = np.array([[1000.0, 999.0, 998.0], [-1000.0, -1000.0, -1000.0]])
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_matches_manual():
    logits = np.array([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
    labels = np.array([0, 2])
    manual = -(np.log(softmax(logits))[[0, 1], labels]).mean()
    assert cross_entropy(logits, labels)[0] == pytest.approx(manual, abs=1e-14)


def test_forward_shape_errors():
    net = init_dense((4, 3), seed=0)
    with pytest.raises(ShapeError):
        forward(net, np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        forward(net, np.zeros(4))
    with pytest.raises(ConfigError):
        init_dense((4,))
    with pytest.raises(ConfigError):
        init_dense((4, 2), output_head="scalar")
    with pytest.raises(ConfigError):
        init_dense((4, 2), output_head="other")


def test_checkpoint_round_trip(tmp_path):
    net = randomized(init_dense((5, 9, 4), seed=11), seed=12)
    meta = {"input_width": 5, "note": "round trip"}
    x = np.random.default_rng(13).normal(size=(7, 5))
    path = tmp_path / "net.json"
    save_net(net, path, meta)
    assert net.meta == {}
    again = load_net(path)
    assert again.layer_dims == net.layer_dims
    assert again.meta == meta
    assert np.array_equal(forward(again, x), forward(net, x))

    save_net(again, tmp_path / "second.json")
    assert (tmp_path / "second.json").read_bytes() == path.read_bytes()


def test_float32_checkpoint_round_trip_keeps_dtype_and_bytes(tmp_path):
    net = randomized(init_dense((5, 9, 4), seed=11), seed=12)
    net32 = DenseNet(net.layer_dims, net.hidden_activation, net.output_head,
                     net.params.astype(np.float32))
    path = tmp_path / "net.json"
    save_net(net32, path, {"note": "f4"})
    header, body = _read_checkpoint(path)
    assert header["dtype"] == "<f4"
    assert header["nbytes"] == 4 * net.params.size == len(body)
    again = load_net(path)
    assert again.dtype == np.float32
    assert again.params.tobytes() == net32.params.tobytes()
    x = np.random.default_rng(13).normal(size=(7, 5))
    assert forward(again, x).dtype == np.float32
    assert forward(again, x).tobytes() == forward(net32, x).tobytes()
    save_net(again, tmp_path / "second.json")
    assert (tmp_path / "second.json").read_bytes() == path.read_bytes()


def test_float32_net_trains_entirely_in_float32():
    net = randomized(init_dense((6, 8, 3), seed=5), seed=6)
    ref = copy.deepcopy(net)
    net = DenseNet(net.layer_dims, net.hidden_activation, net.output_head,
                   net.params.astype(np.float32))
    state, ref_state = init_adam(net.params), init_adam(ref.params)
    assert {a.dtype for a in (net.params, state.m, state.v, state.grad, state.scratch)} \
        == {np.dtype(np.float32)}
    x = sample_away_from_kinks(ref, 16, seed=1, margin=1e-2)
    labels = np.arange(16) % 3
    for _ in range(3):
        logits, cache = forward_with_cache(net, x)
        ref_logits, ref_cache = forward_with_cache(ref, x)
        assert logits.dtype == np.float32
        # float32 keeps about 7 significant digits; a few roundings per value.
        assert relative_error([logits], [ref_logits], floor=1e-3) < 1e-4
        backward(net, cache, cross_entropy(logits, labels)[1], state.grad)
        backward(ref, ref_cache, cross_entropy(ref_logits, labels)[1], ref_state.grad)
        assert relative_error([state.grad], [ref_state.grad], floor=1e-3) < 1e-3
        adam_step(net.params, state.grad, state, lr=1e-2)
        adam_step(ref.params, ref_state.grad, ref_state, lr=1e-2)
        assert relative_error([net.params], [ref.params], floor=1e-3) < 1e-4
    assert net.params.dtype == np.float32
    with pytest.raises(ShapeError):
        adam_step(net.params, state.grad.astype(np.float64), state, lr=1e-2)
    with pytest.raises(ShapeError):
        backward(net, cache, cross_entropy(logits, labels)[1], np.zeros(net.params.size))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_moment_of_a_silent_unit_reaches_zero_without_going_subnormal(dtype):
    params = np.zeros(4, dtype)
    state = init_adam(params)
    tiny = np.finfo(dtype).tiny
    state.grad[:] = [1.0, -1.0, 0.0, 1e-3]
    adam_step(params, state.grad, state, lr=1e-3)
    state.grad[:] = 0.0
    steps = 0
    while state.m.any():
        adam_step(params, state.grad, state, lr=1e-3)
        steps += 1
        assert not ((state.m != 0) & (np.abs(state.m) < tiny)).any(), steps
    assert steps < 8000
    assert np.isfinite(params).all()


def test_checkpoint_rejects_corruption(tmp_path):
    net = init_dense((3, 2), seed=0)
    path = tmp_path / "net.json"
    save_net(net, path)
    head, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(head.replace(b'"output_head"', b'"head_kind"') + b"\n" + body)
    with pytest.raises(ParseError, match="output_head"):
        load_net(path)
    path.write_bytes(b"{broken\n")
    with pytest.raises(ParseError, match="malformed"):
        load_net(path)


def test_save_net_writes_the_exact_layout(tmp_path):
    net = randomized(init_dense((5, 4, 3), seed=7), seed=8)
    meta = {"kind": "x", "names": ["\u00e9t\u00e9", "b"], "nested": {"z": 1, "a": [0.5, 2]}}
    body = b"".join(a.astype("<f8").tobytes() for w, b in zip(net.weights, net.biases)
                    for a in (w, b))
    header = {
        "kind": "dense-net",
        "meta": meta,
        "layer_dims": [5, 4, 3],
        "hidden_activation": "relu",
        "output_head": "logits",
        "dtype": "<f8",
        "nbytes": 8 * (5 * 4 + 4 + 4 * 3 + 3),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    save_net(net, tmp_path / "net.json", meta)
    want = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body
    assert (tmp_path / "net.json").read_bytes() == want


def _read_checkpoint(path):
    head, body = path.read_bytes().split(b"\n", 1)
    return json.loads(head), bytearray(body)


def _write_checkpoint(path, header, body):
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(body))


def _seal(header, body):
    """Make the header's nbytes and sha256 match an edited body."""
    header["nbytes"], header["sha256"] = len(body), hashlib.sha256(body).hexdigest()


def _set_header(**fields):
    return lambda header, body: header.update(fields)


def _drop_header(key):
    return lambda header, body: header.pop(key)


def _set_value(i, raw, seal=True):
    def edit(header, body):
        body[8 * i : 8 * i + 8] = raw
        if seal:
            _seal(header, body)
    return edit


def _resize_body(delta):
    def edit(header, body):
        if delta < 0:
            del body[delta:]
        else:
            body.extend(bytes(delta))
        _seal(header, body)
    return edit


# The (3, 4, 2) net has 26 parameters; the last is the last output bias.
@pytest.mark.parametrize("edit, match", [
    pytest.param(_set_value(0, b'"x"     ', seal=False), "sha256", id="string-weight"),
    pytest.param(_resize_body(-8), "shapes", id="ragged-row"),
    pytest.param(_resize_body(8), "shapes", id="extra-value"),
    pytest.param(_resize_body(-3), "shapes", id="partial-value"),
    pytest.param(_set_value(0, np.float64(np.nan).tobytes()), "non-finite", id="nan-literal"),
    pytest.param(_set_value(25, np.float64(np.inf).tobytes()), "non-finite",
                 id="infinity-literal"),
    pytest.param(_set_header(hidden_activation="tanh"), "activation", id="tanh"),
    pytest.param(_set_header(output_head="scalar"), "scalar head", id="scalar-head-on-2-units"),
    pytest.param(_set_header(layer_dims=[3.0, 4, 2]), "integers", id="float-layer-dims"),
    pytest.param(_set_header(layer_dims=[3, True, 2]), "integers", id="bool-layer-dims"),
    pytest.param(_set_header(dtype="<f4"), "shapes", id="float32-dtype"),
    pytest.param(_set_header(dtype=">f8"), "dtype", id="big-endian-dtype"),
    pytest.param(_set_header(dtype="<f2"), "dtype", id="float16-dtype"),
    pytest.param(_set_header(dtype="<i8"), "dtype", id="int64-dtype"),
    pytest.param(_set_header(dtype=["<f8"]), "dtype", id="list-dtype"),
    pytest.param(_set_header(nbytes=200), "shapes", id="nbytes-mismatch"),
    pytest.param(_set_header(sha256="0" * 64), "sha256", id="sha256-mismatch"),
    pytest.param(_set_header(kind="cohort"), "kind", id="other-kind"),
    pytest.param(_set_header(meta=["kind", "diagnosis"]), "meta", id="meta-not-an-object"),
    pytest.param(_drop_header("sha256"), "sha256", id="missing-sha256"),
    pytest.param(_drop_header("meta"), "meta", id="missing-meta"),
])
def test_load_net_rejects_malformed_checkpoints(tmp_path, edit, match):
    path = tmp_path / "net.json"
    save_net(init_dense((3, 4, 2), seed=0), path)
    header, body = _read_checkpoint(path)
    edit(header, body)
    _write_checkpoint(path, header, body)
    with pytest.raises(ParseError, match=match):
        load_net(path)


def test_load_net_rejects_the_previous_json_layout(tmp_path):
    net = init_dense((3, 2), seed=0, zero_output=False)
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "layer_dims": [3, 2], "hidden_activation": "relu", "output_head": "logits",
        "weights": [w.tolist() for w in net.weights], "biases": [b.tolist() for b in net.biases],
        "meta": {},
    }))
    with pytest.raises(ParseError, match="header"):
        load_net(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_net_fuzz_raises_only_inquest_errors(fuzz_dir, data):
    path = fuzz_dir / "net.json"
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    save_net(init_dense((3, 4, 2), seed=0, zero_output=False, dtype=dtype), path,
             {"kind": "diagnosis"})
    blob = bytearray(path.read_bytes())
    body_at = blob.index(b"\n") + 1
    kind = data.draw(st.sampled_from(["bytes", "json", "truncate", "flip", "header"]))
    if kind == "bytes":
        blob = data.draw(st.binary(max_size=200))
    elif kind == "json":
        blob = json.dumps(data.draw(JSON_VALUES)).encode()
    elif kind == "truncate":
        del blob[data.draw(st.integers(body_at, len(blob) - 1)):]
    elif kind == "flip":
        blob[data.draw(st.integers(body_at, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    else:
        header, body = json.loads(blob[:body_at]), blob[body_at:]
        node, key = header, data.draw(st.sampled_from(sorted(header)))
        while isinstance(node[key], (list, dict)) and node[key] and data.draw(st.booleans()):
            child = node[key]
            node, key = child, data.draw(
                st.sampled_from(sorted(child)) if isinstance(child, dict)
                else st.integers(0, len(child) - 1))
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES)
        blob = json.dumps(header).encode() + b"\n" + body
    path.write_bytes(blob)
    try:
        net = load_net(path)
    except InquestError:
        return
    assert kind == "header", "a truncated or flipped body loaded"
    assert net.params.size == sum(w.size + b.size for w, b in zip(net.weights, net.biases))


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    net = init_dense((3, 2), seed=0)
    path = tmp_path / "net.json"
    save_net(net, path)
    head, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(head.replace(b'"layer_dims":[3,2]', b'"layer_dims":[4,2]') + b"\n" + body)
    with pytest.raises(ParseError, match="shape"):
        load_net(path)


def test_training_reduces_loss_deterministically():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(64, 6))
    labels = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)

    def run():
        net = init_dense((6, 16, 2), seed=5)
        state = init_adam(net.params)
        losses = []
        for _ in range(120):
            logits, cache = forward_with_cache(net, x)
            loss, grad = cross_entropy(logits, labels)
            losses.append(loss)
            backward(net, cache, grad, state.grad)
            adam_step(net.params, state.grad, state, lr=1e-2)
        return net, losses

    net_a, losses_a = run()
    net_b, losses_b = run()
    assert losses_a == losses_b
    assert all(np.array_equal(w1, w2) for w1, w2 in zip(net_a.weights, net_b.weights))
    assert losses_a[-1] < 0.25 < losses_a[0]


def test_save_net_refuses_non_finite_values(tmp_path):
    net = init_dense([3, 2], seed=0)
    net.weights[0][0, 0] = np.nan
    path = tmp_path / "net.json"
    with pytest.raises(NonFinite):
        save_net(net, path)
    assert not path.exists()
    with pytest.raises(NonFinite):
        save_net(init_dense([3, 2], seed=0), path, {"scale": float("inf")})
    assert not path.exists()


# Trains the desk ranker's shape for 300 Adam steps at batch 64 and 300 at
# batch 256, then three PPO iterations of desk-shaped policy and value nets on
# a small desk-ontology cohort, so that both training loops' products run at
# whatever BLAS thread count the environment sets; the test runs it at one and
# at two. It prints the thread count OpenBLAS reports (read as
# ``perfbench/run.py`` reads it) and the sha256 of the four nets' parameter
# bytes. The ranker's (64 x 281) . (281 x 128) and (256 x 281) . (281 x 128)
# products and the default (64, 64) PPO nets' (128 x 281) .
# (281 x 64) minibatch products are far above OpenBLAS's size threshold for
# splitting a gemm over threads.
_THREAD_RUN = """
import hashlib, importlib.util, json, sys
import numpy as np
from inquest import nncore
from inquest.diagnosis import new_diagnosis_model
from inquest.inquiry import PpoConfig, train_inquiry
from inquest.patientgen import (benchmark_genmodel, benchmark_ontology, generate_cohort,
                                history_width)
spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
def ranker_shaped(rows):
    net = nncore.init_dense((281, 128, 128, 20), seed=0, dtype=nncore.NET_DTYPE)
    state = nncore.init_adam(net.params)
    rng = np.random.default_rng(0)
    for _ in range(300):
        logits, cache = nncore.forward_with_cache(net, rng.standard_normal((rows, 281)))
        _, grad = nncore.cross_entropy(logits, rng.integers(20, size=rows))
        nncore.backward(net, cache, grad, state.grad)
        nncore.adam_step(net.params, state.grad, state, lr=1e-3)
    return net
# 256 is the ranker's minibatch, SlTrainConfig.batch_size.
nets = [ranker_shaped(64), ranker_shaped(256)]
onto = benchmark_ontology()
cohort = generate_cohort(benchmark_genmodel(onto), 200, seed=0)
diag = new_diagnosis_model(history_width(cohort.records), onto.n_elements,
                           cohort.disease_names, onto.content_digest, hidden=(16, 16))
policy, value, _ = train_inquiry(cohort, diag, onto, PpoConfig(iterations=3, episodes_per_iter=64))
digest = hashlib.sha256()
for params in (*(net.params for net in nets), policy.net.params, value.net.params):
    digest.update(params.tobytes())
print(json.dumps({"threads": bench.blas_threads(), "sha256": digest.hexdigest()}))
"""


def test_training_gives_the_same_bytes_at_one_and_two_blas_threads():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS runs one thread when the process may use one CPU")
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):  # one after the other, so the second has both cores
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", _THREAD_RUN, str(root / "perfbench" / "run.py")],
                             env=env, capture_output=True, text=True, check=True, timeout=60)
        runs.append(json.loads(out.stdout))
    one, two = runs
    if one["threads"] is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert (one["threads"], two["threads"]) == (1, 2)
    assert one["sha256"] == two["sha256"]
