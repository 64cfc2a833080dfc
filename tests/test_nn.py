from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dense_net, finite_diff_grads, max_rel_grad_error
from qrrn import nn


def test_forward_zero_net():
    net = dense_net([np.zeros((3, 2)), np.zeros((2, 3))],
                    [np.zeros(3), np.zeros(2)], ["relu", "identity"])
    np.testing.assert_array_equal(nn.forward(net, [1.0, -2.0]), [0.0, 0.0])


def test_forward_identity_layer():
    net = dense_net([np.eye(4)], [np.zeros(4)], ["identity"])
    x = np.array([0.5, -1.0, 2.0, 0.0])
    np.testing.assert_array_equal(nn.forward(net, x), x)


def test_forward_hand_computed_fixture():
    # relu([W1 x + b1]) through  W2 . + b2, worked out by hand once
    net = dense_net(
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
    net = dense_net([np.random.default_rng(0).normal(size=(3, 4))],
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
    state = nn.AdamState.for_params(net.flat)
    nn.adam_step(net.flat, np.zeros_like(net.flat), state, lr=0.1)
    assert state.t == 1
    for p, q in zip(nn.params(net), before):
        np.testing.assert_array_equal(p, q)


def test_adam_constant_gradient_step_magnitude():
    net = nn.init([2, 2], seed=4)
    state = nn.AdamState.for_params(net.flat)
    grad = np.full_like(net.flat, 0.7)
    lr = 1e-3
    prev = [p.copy() for p in nn.params(net)]
    for _ in range(10_000):
        prev = [p.copy() for p in nn.params(net)]
        nn.adam_step(net.flat, grad, state, lr)
    for p, q in zip(nn.params(net), prev):
        steps = np.abs(p - q)
        np.testing.assert_allclose(steps, lr, rtol=1e-2)


def test_sgd_step():
    net = dense_net([np.ones((2, 2))], [np.zeros(2)], ["identity"])
    grad = np.array([2.0, 2.0, 2.0, 2.0, 1.0, -1.0])   # dW, then db
    nn.sgd_step(net.flat, grad, lr=0.5)
    np.testing.assert_allclose(net.weights[0], np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(net.biases[0], [-0.5, 0.5], atol=1e-15)


def test_optimizers_reject_mismatched_gradient():
    p = np.zeros(6)
    with pytest.raises(nn.DimMismatch):
        nn.adam_step(p, np.zeros(5), nn.AdamState.for_params(p), lr=0.1)
    with pytest.raises(nn.DimMismatch):
        nn.sgd_step(p, np.zeros((6, 1)), lr=0.1)


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


# ---------------------------------------------------------------------------
# The flat optimizers and the in-place backward pass against the per-array
# versions they replaced, copied verbatim below. Same operations in the same
# order per element, so every byte must agree.

def adam_step_per_array(ps, grads, state, lr: float) -> None:
    """One Adam update with bias correction of a parameter list, in place."""
    if len(grads) != len(ps):
        raise nn.DimMismatch("gradient list does not match parameter list")
    state.t += 1
    b1, b2, t = state.beta1, state.beta2, state.t
    for p, g, m, v in zip(ps, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + state.eps)


def sgd_step_per_array(ps, grads, lr: float) -> None:
    """Plain gradient step p <- p - lr * g on a parameter list, in place."""
    if len(grads) != len(ps):
        raise nn.DimMismatch("gradient list does not match parameter list")
    for p, g in zip(ps, grads):
        p -= lr * g


def backward_allocating(net, x, grad_out, onehot: bool = False, trace=None):
    """Gradients of sum_b grad_out[b] . output[b] w.r.t. all parameters."""
    xb, single = nn._as_input(net, x, onehot)
    gb, gsingle = nn._as_batch(grad_out, net.output_dim, "grad_out")
    if single != gsingle or xb.shape[0] != gb.shape[0]:
        raise nn.DimMismatch("input and grad_out batch sizes differ")
    hs, zs = trace if trace is not None else nn._forward_trace(net, xb, onehot)[1:]
    grads = [None] * (2 * len(net.weights))
    g = gb
    for i in range(len(net.weights) - 1, -1, -1):
        if net.activations[i] == "relu":
            g = g * (zs[i] > 0.0)
        h = nn._onehot_rows(hs[0], net.input_dim) if onehot and i == 0 else hs[i]
        grads[2 * i] = g.T @ h           # dW
        grads[2 * i + 1] = g.sum(axis=0)  # db
        if i > 0:
            g = g @ net.weights[i]
    return grads


def bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=float).tobytes()


SHAPES = st.lists(st.sampled_from([(1,), (3,), (7,), (2, 3), (5, 4), (17,),
                                   (2, 2, 3)]), min_size=1, max_size=5)
# magnitudes from 1e-8 to 1e2, both signed zeros, and exact small values
GRADS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]),
                  st.floats(1e-8, 1e2), st.floats(-1e2, -1e-8))


@settings(max_examples=150)
@given(SHAPES, st.sampled_from([1e-3, 0.1, 0.5]), st.data())
def test_flat_optimizers_match_per_array_steps(shapes, lr, data):
    sizes = [int(np.prod(s)) for s in shapes]
    p0 = data.draw(arrays(float, sum(sizes), elements=st.floats(-3.0, 3.0)))
    flat, state = p0.copy(), nn.AdamState.for_params(p0)
    slots = [p.copy() for p in nn.split(p0, shapes)]
    ref = SimpleNamespace(m=[np.zeros(s) for s in shapes],
                          v=[np.zeros(s) for s in shapes], t=0,
                          beta1=0.9, beta2=0.999, eps=1e-8)
    sgd_flat, sgd_slots = p0.copy(), [p.copy() for p in nn.split(p0, shapes)]
    for _ in range(4):
        g = data.draw(arrays(float, sum(sizes), elements=GRADS))
        nn.adam_step(flat, g, state, lr)
        adam_step_per_array(slots, nn.split(g, shapes), ref, lr)
        nn.sgd_step(sgd_flat, g, lr)
        sgd_step_per_array(sgd_slots, nn.split(g, shapes), lr)
        join = lambda xs: b"".join(bits(x) for x in xs)
        assert bits(flat) == join(slots)
        assert bits(state.m) == join(ref.m) and bits(state.v) == join(ref.v)
        assert state.t == ref.t
        assert bits(sgd_flat) == join(sgd_slots)


@settings(max_examples=100)
@given(st.lists(st.integers(1, 9), min_size=2, max_size=4),
       st.sampled_from([1, 3, 12, 16, 17, 64]), st.booleans(), st.data())
def test_backward_in_place_matches_allocating(dims, b, onehot, data):
    net = nn.init(dims, seed=data.draw(st.integers(0, 2**16)))
    net.biases[0] += data.draw(arrays(float, dims[1], elements=st.floats(-1, 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    x = rng.integers(0, dims[0], size=b) if onehot else rng.normal(size=(b, dims[0]))
    g = rng.normal(size=(b, dims[-1]))
    want = backward_allocating(net, x, g, onehot)
    out = nn.split(np.full(net.flat.size, np.nan), [p.shape for p in nn.params(net)])
    _, trace = nn.forward_trace(net, x, onehot)
    for got in (nn.backward(net, x, g, onehot),
                nn.backward(net, x, g, onehot, trace=trace, out=out)):
        assert [bits(a) for a in got] == [bits(a) for a in want]


def test_net_parameters_are_views_of_one_vector():
    net = nn.init([4, 6, 3], seed=5)
    twin = nn.clone(net)
    for a, b in ((net, twin), (twin, net)):
        for p in nn.params(a):
            assert np.shares_memory(p, a.flat)
            assert not np.shares_memory(p, b.flat)
    assert bits(net.flat) == b"".join(bits(p) for p in nn.params(net))
    net.flat += 1.0
    assert net.weights[1][0, 0] == twin.weights[1][0, 0] + 1.0


@pytest.mark.parametrize("dims, seed", [([4, 6, 3], 5), ([18, 64, 64, 12], (1, 4)),
                                        ([3, 2], None)])
def test_init_draws_the_glorot_reference(dims, seed):
    # each weight matrix drawn whole, in layer order, from the seed's
    # generator; biases zero; with no seed everything is zero
    net = nn.init(dims, seed=seed)
    rng = None if seed is None else np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(list(seed) if isinstance(seed, tuple)
                                               else seed)))
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        limit = np.sqrt(6.0 / (dims[i] + dims[i + 1]))
        want = np.zeros((dims[i + 1], dims[i])) if rng is None else \
            rng.uniform(-limit, limit, size=(dims[i + 1], dims[i]))
        assert bits(w) == bits(want)
        assert bits(b) == bits(np.zeros(dims[i + 1]))
    assert [p.shape for p in nn.params(net)] == nn.layer_shapes(dims)


BATCH_SIZES = [*range(1, 20), 32, 63, 64, 65, 100, 128]


@settings(max_examples=300)
@given(st.sampled_from([(64, 64), (5,), (4, 3), (32,)]),
       st.sampled_from([4, 18, 40]), st.sampled_from(BATCH_SIZES), st.data())
def test_a_rows_forward_bits_do_not_depend_on_the_other_rows(hidden, n_states,
                                                             b, data):
    # the premise of the learner's bootstrap table: a state's output row in
    # a b-row batch has the same bits at any position, whatever the other
    # rows hold (across row counts the bits may differ); it rests on the
    # linked BLAS's gemm
    net = nn.init([n_states, *hidden, 12], seed=0)
    net.flat[:] = np.random.default_rng(data.draw(st.integers(0, 2**16))) \
        .normal(size=net.flat.size)
    states = arrays(np.int64, b, elements=st.integers(0, n_states - 1))
    x, y = data.draw(states), data.draw(states)
    i, j = data.draw(st.integers(0, b - 1)), data.draw(st.integers(0, b - 1))
    y[j] = x[i]
    assert bits(nn.forward(net, x, onehot=True)[i]) == \
        bits(nn.forward(net, y, onehot=True)[j])
