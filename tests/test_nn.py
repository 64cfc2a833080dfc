import numpy as np
import pytest

from conftest import finite_diff_grads, max_rel_grad_error
from qrrn import nn


def test_forward_zero_net():
    net = nn.DenseNet([np.zeros((3, 2)), np.zeros((2, 3))],
                      [np.zeros(3), np.zeros(2)], ["relu", "identity"])
    np.testing.assert_array_equal(nn.forward(net, [1.0, -2.0]), [0.0, 0.0])


def test_forward_identity_layer():
    net = nn.DenseNet([np.eye(4)], [np.zeros(4)], ["identity"])
    x = np.array([0.5, -1.0, 2.0, 0.0])
    np.testing.assert_array_equal(nn.forward(net, x), x)


def test_forward_hand_computed_fixture():
    # relu([W1 x + b1]) through  W2 . + b2, worked out by hand once
    net = nn.DenseNet(
        [np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[1.0, -1.0], [2.0, 0.0]])],
        [np.array([0.5, -1.0]), np.array([0.0, 1.0])],
        ["relu", "identity"])
    np.testing.assert_allclose(nn.forward(net, [1.0, 1.0]), [3.5, 8.0],
                               atol=1e-12)
    np.testing.assert_allclose(nn.forward(net, [-1.0, 0.0]), [0.0, 1.0],
                               atol=1e-12)


def test_forward_batched_matches_single():
    # batched matmul may take a different BLAS path, so compare numerically
    net = nn.init([3, 5, 2], seed=0)
    xs = np.random.default_rng(1).normal(size=(6, 3))
    batch = nn.forward(net, xs)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(batch[i], nn.forward(net, x),
                                   rtol=1e-12, atol=1e-14)


def test_forward_dim_mismatch():
    net = nn.init([3, 2], seed=0)
    with pytest.raises(nn.DimMismatch):
        nn.forward(net, [1.0, 2.0])


def test_backward_zero_grad_out():
    net = nn.init([4, 8, 6], seed=3)
    grads = nn.backward(net, np.ones(4), np.zeros(6))
    assert all(np.all(g == 0) for g in grads)


def test_backward_linear_closed_form():
    net = nn.DenseNet([np.random.default_rng(0).normal(size=(3, 4))],
                      [np.zeros(3)], ["identity"])
    x = np.array([1.0, -2.0, 0.5, 3.0])
    g = np.array([0.3, -1.2, 2.0])
    dw, db = nn.backward(net, x, g)
    np.testing.assert_allclose(dw, np.outer(g, x), atol=1e-12)
    np.testing.assert_allclose(db, g, atol=1e-12)


def test_backward_finite_difference_4886():
    rng = np.random.default_rng(42)
    net = nn.init([4, 8, 8, 6], seed=7)
    x = rng.normal(size=4)
    g = rng.normal(size=6)
    analytic = nn.backward(net, x, g)
    fd = finite_diff_grads(net, x, g, h=1e-5)
    assert max_rel_grad_error(analytic, fd) < 1e-4


def test_backward_batch_accumulates():
    rng = np.random.default_rng(5)
    net = nn.init([3, 4, 2], seed=9)
    xs = rng.normal(size=(5, 3))
    gs = rng.normal(size=(5, 2))
    batched = nn.backward(net, xs, gs)
    summed = [np.zeros_like(p) for p in nn.params(net)]
    for x, g in zip(xs, gs):
        for acc, part in zip(summed, nn.backward(net, x, g)):
            acc += part
    for a, b in zip(batched, summed):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_backward_dim_mismatch():
    net = nn.init([3, 2], seed=0)
    with pytest.raises(nn.DimMismatch):
        nn.backward(net, np.ones(3), np.ones(3))


# ---------------------------------------------------------------------------

def test_init_seed_reproducible():
    a, b = nn.init([5, 7, 3], seed=11), nn.init([5, 7, 3], seed=11)
    for pa, pb in zip(nn.params(a), nn.params(b)):
        np.testing.assert_array_equal(pa, pb)
    c = nn.init([5, 7, 3], seed=12)
    assert any(not np.array_equal(pa, pc)
               for pa, pc in zip(nn.params(a), nn.params(c)))


def test_init_biases_zero_weights_bounded():
    net = nn.init([30, 20, 10], seed=2)
    for b in net.biases:
        assert np.all(b == 0)
    for w in net.weights:
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)


def test_init_weight_mean_near_zero():
    net = nn.init([300, 334], seed=13)
    w = net.weights[0].ravel()
    limit = np.sqrt(6.0 / (300 + 334))
    sigma = limit / np.sqrt(3.0)
    assert abs(w.mean()) < 3.0 * sigma / np.sqrt(w.size)


def test_init_bad_dims():
    for dims in ([4], [4, 0], [0, 3], []):
        with pytest.raises(nn.BadDims):
            nn.init(dims, seed=0)


# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    net = nn.init([3, 4, 2], seed=1)
    before = [p.copy() for p in nn.params(net)]
    state = nn.AdamState.for_params(nn.params(net))
    grads = [np.zeros_like(p) for p in nn.params(net)]
    nn.adam_step(nn.params(net), grads, state, lr=0.1)
    assert state.t == 1
    for p, q in zip(nn.params(net), before):
        np.testing.assert_array_equal(p, q)


def test_adam_constant_gradient_step_magnitude():
    net = nn.init([2, 2], seed=4)
    state = nn.AdamState.for_params(nn.params(net))
    grads = [np.full_like(p, 0.7) for p in nn.params(net)]
    lr = 1e-3
    prev = [p.copy() for p in nn.params(net)]
    for _ in range(10_000):
        prev = [p.copy() for p in nn.params(net)]
        nn.adam_step(nn.params(net), grads, state, lr)
    for p, q in zip(nn.params(net), prev):
        steps = np.abs(p - q)
        np.testing.assert_allclose(steps, lr, rtol=1e-2)


def test_sgd_step():
    net = nn.DenseNet([np.ones((2, 2))], [np.zeros(2)], ["identity"])
    grads = [np.full((2, 2), 2.0), np.array([1.0, -1.0])]
    nn.sgd_step(nn.params(net), grads, lr=0.5)
    np.testing.assert_allclose(net.weights[0], np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(net.biases[0], [-0.5, 0.5], atol=1e-15)


def test_clone_is_independent():
    net = nn.init([3, 3], seed=0)
    twin = nn.clone(net)
    net.weights[0][0, 0] += 1.0
    assert twin.weights[0][0, 0] != net.weights[0][0, 0]


def test_gradient_check_many_random_nets():
    # biases are randomized so no pre-activation sits exactly on the relu
    # kink (all-zero init biases can put a whole layer there, where finite
    # differences are meaningless)
    rng = np.random.default_rng(2024)
    for trial in range(20):
        depth = rng.integers(1, 4)
        dims = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        net = nn.init(dims, seed=int(rng.integers(1 << 30)))
        for b in net.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        x = rng.normal(size=dims[0])
        g = rng.normal(size=dims[-1])
        analytic = nn.backward(net, x, g)
        fd = finite_diff_grads(net, x, g, h=1e-5)
        assert max_rel_grad_error(analytic, fd) < 1e-4, f"net {trial} dims {dims}"
