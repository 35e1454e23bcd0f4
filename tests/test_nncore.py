"""Gradient correctness against finite differences, Adam, checkpoints."""
import numpy as np
import pytest

from inquest.errors import ConfigError, NonFinite, ParseError, ShapeError
from inquest.nncore import (
    AdamState,
    DenseNet,
    adam_step,
    backward,
    cross_entropy,
    cross_entropy_grad,
    flat_grads,
    forward,
    forward_with_cache,
    init_adam,
    init_dense,
    load_net,
    log_softmax,
    net_params,
    numeric_gradients,
    relative_error,
    save_net,
    softmax,
    squared_error,
    squared_error_grad,
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


def test_backprop_matches_finite_differences_logits():
    net = randomized(init_dense((4, 8, 6, 3), seed=1), seed=2)
    x = sample_away_from_kinks(net, 5, seed=3)
    labels = np.array([0, 2, 1, 2, 0])

    logits, cache = forward_with_cache(net, x)
    gw, gb, _ = backward(net, cache, cross_entropy_grad(logits, labels))
    nw, nb = numeric_gradients(net, lambda p: cross_entropy(forward(p, x), labels))
    assert relative_error(gw, nw) < 1e-6
    assert relative_error(gb, nb) < 1e-6


def test_backprop_matches_finite_differences_scalar():
    net = randomized(init_dense((5, 7, 1), output_head="scalar", seed=4), seed=5)
    x = sample_away_from_kinks(net, 6, seed=6)
    target = np.random.default_rng(7).normal(size=6)

    pred, cache = forward_with_cache(net, x)
    assert pred.shape == (6,)
    gw, gb, _ = backward(net, cache, squared_error_grad(pred, target))
    nw, nb = numeric_gradients(net, lambda p: squared_error(forward(p, x), target))
    assert relative_error(gw, nw) < 1e-6
    assert relative_error(gb, nb) < 1e-6


def test_input_gradient_matches_finite_differences():
    net = randomized(init_dense((3, 6, 2), seed=8), seed=9)
    x = sample_away_from_kinks(net, 4, seed=10)
    labels = np.array([1, 0, 1, 0])

    logits, cache = forward_with_cache(net, x)
    _, _, gx = backward(net, cache, cross_entropy_grad(logits, labels))

    eps = 1e-6
    num = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            for sign in (1.0, -1.0):
                xp = x.copy()
                xp[i, j] += sign * eps
                num[i, j] += sign * cross_entropy(forward(net, xp), labels)
    num /= 2 * eps
    assert relative_error([gx], [num]) < 1e-6


def test_single_linear_layer_closed_form():
    # 0.5 * mean((x w + b - y)^2): gradient is x^T r / n and sum(r) / n.
    net = init_dense((2, 1), output_head="scalar", seed=0, zero_output=False)
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
    y = np.array([1.0, -2.0, 0.25])
    pred, cache = forward_with_cache(net, x)
    gw, gb, _ = backward(net, cache, squared_error_grad(pred, y))
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


def test_adam_single_step_closed_form():
    p = np.array([1.0])
    g = np.array([0.3])
    state = init_adam([p])
    adam_step([p], [g], state, lr=0.1)
    # After one bias-corrected step the update is lr * g / (|g| + eps).
    assert p[0] == pytest.approx(1.0 - 0.1 * 0.3 / (0.3 + 1e-8), abs=1e-14)
    assert state.t == 1


def test_adam_converges_on_quadratic():
    p = np.array([5.0, -3.0])
    state = init_adam([p])
    for _ in range(2000):
        adam_step([p], [p.copy()], state, lr=0.05)
    assert np.abs(p).max() < 1e-3


def test_adam_rejects_nonfinite_gradient():
    p = np.array([1.0])
    state = init_adam([p])
    with pytest.raises(NonFinite):
        adam_step([p], [np.array([np.nan])], state, lr=0.1)


def test_softmax_is_stable_and_normalized():
    logits = np.array([[1000.0, 999.0, 998.0], [-1000.0, -1000.0, -1000.0]])
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.exp(log_softmax(logits)), p, atol=1e-12)


def test_cross_entropy_matches_manual():
    logits = np.array([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
    labels = np.array([0, 2])
    manual = -(np.log(softmax(logits))[[0, 1], labels]).mean()
    assert cross_entropy(logits, labels) == pytest.approx(manual, abs=1e-14)


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
    net.meta = {"input_width": 5, "note": "round trip"}
    x = np.random.default_rng(13).normal(size=(7, 5))
    path = tmp_path / "net.json"
    save_net(net, path)
    again = load_net(path)
    assert again.layer_dims == net.layer_dims
    assert again.meta == net.meta
    assert np.array_equal(forward(again, x), forward(net, x))

    save_net(again, tmp_path / "second.json")
    assert (tmp_path / "second.json").read_bytes() == path.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    net = init_dense((3, 2), seed=0)
    path = tmp_path / "net.json"
    save_net(net, path)
    blob = path.read_text().replace('"output_head"', '"head_kind"')
    path.write_text(blob)
    with pytest.raises(ParseError, match="output_head"):
        load_net(path)
    path.write_text("{broken")
    with pytest.raises(ParseError, match="malformed"):
        load_net(path)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    net = init_dense((3, 2), seed=0)
    path = tmp_path / "net.json"
    save_net(net, path)
    blob = path.read_text().replace('"layer_dims":[3,2]', '"layer_dims":[4,2]')
    path.write_text(blob)
    with pytest.raises(ParseError, match="shape"):
        load_net(path)


def test_training_reduces_loss_deterministically():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(64, 6))
    labels = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)

    def run():
        net = init_dense((6, 16, 2), seed=5)
        state = init_adam(net_params(net))
        losses = []
        for _ in range(120):
            logits, cache = forward_with_cache(net, x)
            losses.append(cross_entropy(logits, labels))
            gw, gb, _ = backward(net, cache, cross_entropy_grad(logits, labels))
            adam_step(net_params(net), flat_grads(gw, gb), state, lr=1e-2)
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
