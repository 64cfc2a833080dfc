"""The fused quantile-regression update against its unfused definition.

The reference below is the update written out step by step: residuals
from the target-side greedy action, ``quantile_huber_grad``, its mean over
target atoms, ``np.add.at`` into the table (or a one-hot forward and
backward pass for the network) and the optimizer arithmetic. Parameters
and optimizer moments must agree bit for bit; the loss, which the kernel
forms from its own intermediates, within 1e-12 relative.
"""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qrrn import nn
from qrrn.learner import Agent, AgentConfig, Batch, _quantile_step
from qrrn.quantdist import midpoints, quantile_huber, quantile_huber_grad

# exact zeros and ties are where signs and rounding order show
VALUES = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0, -3.0]),
                   st.floats(-20.0, 20.0, allow_subnormal=False))
SETTINGS = settings(max_examples=150)   # on the conftest profile


def bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=float).tobytes()


def onehot(states, width):
    x = np.zeros((len(states), width))
    x[np.arange(len(states)), states] = 1.0
    return x


def snapshot(agent: Agent) -> SimpleNamespace:
    """The learner state as separate per-slot arrays, copied from the agent,
    for the reference to update."""
    slots = lambda flat: [a.copy() for a in nn.split(flat, agent.head.shapes)]
    return SimpleNamespace(params=slots(agent.head.params),
                           target=slots(agent.head.target),
                           m=slots(agent.adam.m), v=slots(agent.adam.v),
                           t=agent.adam.t)


def reference_update(agent: Agent, ref: SimpleNamespace, batch: Batch) -> float:
    """One update of ``ref``, with the agent's config and dims."""
    cfg, n, b = agent.cfg, agent.n, len(batch)
    if cfg.backend == "tabular":
        th = ref.params[0][batch.s, batch.a]
        tt_all = ref.target[0][batch.s_next]
    else:
        acts = agent.head.net.activations
        net = nn.DenseNet(ref.params[0::2], ref.params[1::2], acts)
        net_target = nn.DenseNet(ref.target[0::2], ref.target[1::2], acts)
        x = onehot(batch.s, agent.n_states)
        th = nn.forward(net, x).reshape(b, -1, n)[np.arange(b), batch.a]
        tt_all = nn.forward(net_target, onehot(batch.s_next, agent.n_states))
        tt_all = tt_all.reshape(b, -1, n)
    a_star = tt_all.mean(axis=2).argmax(axis=1)
    tt = tt_all[np.arange(b), a_star]
    alive = (~batch.done).astype(float)[:, None]
    target = batch.r[:, None] + cfg.gamma * alive * tt
    delta = target[:, None, :] - th[:, :, None]
    taus = midpoints(n).reshape(1, -1, 1)
    rho = quantile_huber(delta, taus, cfg.kappa)
    g = -quantile_huber_grad(delta, taus, cfg.kappa).mean(axis=2)
    if cfg.backend == "tabular":
        grad = np.zeros_like(ref.params[0])
        np.add.at(grad, (batch.s, batch.a), g)
        grads = [grad]
    else:
        grad_out = np.zeros((b, agent.n_actions * n))
        cols = batch.a[:, None] * n + np.arange(n)[None, :]
        grad_out[np.arange(b)[:, None], cols] = g / b
        grads = nn.backward(net, x, grad_out)
    # Adam and plain SGD written out on every parameter array
    if cfg.optimizer == "sgd":
        for p, grad in zip(ref.params, grads):
            p -= cfg.lr * grad
    else:
        ref.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for p, grad, m, v in zip(ref.params, grads, ref.m, ref.v):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            m_hat = m / (1.0 - b1 ** ref.t)
            v_hat = v / (1.0 - b2 ** ref.t)
            p -= cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
    return float(rho.mean(axis=2).sum(axis=1).mean())


def state_bits(agent: Agent) -> list:
    return [bits(agent.head.params), bits(agent.adam.m), bits(agent.adam.v),
            agent.adam.t]


def ref_bits(ref: SimpleNamespace) -> list:
    # the slots laid end to end, in checkpoint order, are the flat vectors
    join = lambda slots: b"".join(bits(a) for a in slots)
    return [join(ref.params), join(ref.m), join(ref.v), ref.t]


@st.composite
def cases(draw, backend):
    n = draw(st.integers(1, 9))
    n_actions = draw(st.integers(1, 3))
    n_states = draw(st.integers(1, 4))
    b = draw(st.sampled_from([1, 7, 64]))
    cfg = AgentConfig(n_quantiles=n, kappa=draw(st.sampled_from([0.05, 0.7, 1.0, 3.0])),
                      gamma=draw(st.sampled_from([0.0, 0.5, 0.99])),
                      lr=draw(st.sampled_from([1e-3, 0.1])),
                      optimizer=draw(st.sampled_from(["adam", "sgd"])),
                      backend=backend,
                      hidden=draw(st.sampled_from([(), (5,), (4, 3)])))
    agent = Agent(cfg, n_states, n_actions, seed=draw(st.integers(0, 2**16)))
    shape = (n_states, n_actions, n)
    if backend == "tabular":
        agent.head.theta[:] = draw(arrays(float, shape, elements=VALUES))
        agent.head.theta_target[:] = draw(arrays(float, shape, elements=VALUES))
    else:
        for bias in agent.head.net.biases + agent.head.net_target.biases:
            bias += draw(arrays(float, bias.shape, elements=VALUES))
    states = st.integers(0, n_states - 1)
    batch = Batch(s=draw(arrays(np.int64, b, elements=states)),
                  a=draw(arrays(np.int64, b, elements=st.integers(0, n_actions - 1))),
                  r=draw(arrays(float, b, elements=VALUES)),
                  s_next=draw(arrays(np.int64, b, elements=states)),
                  done=draw(arrays(bool, b)))
    return agent, batch


def check_against_reference(agent: Agent, batch: Batch) -> None:
    ref = snapshot(agent)
    for _ in range(3):              # later steps see nonzero Adam moments
        loss = agent.qr_update(batch)
        want = reference_update(agent, ref, batch)
        assert state_bits(agent) == ref_bits(ref)
        assert loss == pytest.approx(want, rel=1e-12, abs=1e-300)


@SETTINGS
@given(cases("tabular"))
def test_tabular_kernel_matches_reference(case):
    check_against_reference(*case)


@SETTINGS
@given(cases("network"))
def test_network_kernel_matches_reference(case):
    check_against_reference(*case)


@SETTINGS
@given(st.integers(1, 9), st.sampled_from([1, 7, 64]),
       st.sampled_from([0.05, 0.7, 1.0, 3.0]), st.data())
def test_kernel_gradient_and_loss_match_quantile_huber(n, b, kappa, data):
    # per-transition terms, before any scatter could hide a signed zero
    u = data.draw(arrays(float, (n, n, b), elements=VALUES))
    agent = Agent(AgentConfig(n_quantiles=n), n_states=1, n_actions=1)
    g, loss = _quantile_step(u.copy(), agent._kernel_weights(b), kappa)
    # C order, as the unfused code built it: the mean's summation order
    # depends on the layout
    delta = np.ascontiguousarray(u.transpose(2, 0, 1))
    taus = midpoints(n).reshape(1, -1, 1)
    want = -quantile_huber_grad(delta, taus, kappa).mean(axis=2)
    assert bits(g.T) == bits(want)
    rho = quantile_huber(delta, taus, kappa)
    assert loss == pytest.approx(float(rho.mean(axis=2).sum(axis=1).mean()),
                                 rel=1e-12, abs=1e-300)


def permuted(u: np.ndarray) -> np.ndarray:
    """u's values laid out in memory as (b, i, j), the layout broadcasting
    gave the residuals before they were written in C order."""
    return np.ascontiguousarray(u.transpose(2, 0, 1)).transpose(1, 2, 0)


@SETTINGS
@given(st.integers(1, 9), st.sampled_from([1, 7, 64]),
       st.sampled_from([0.05, 0.7, 1.0, 3.0]), st.data())
def test_kernel_output_does_not_depend_on_layout(n, b, kappa, data):
    u = data.draw(arrays(float, (n, n, b), elements=VALUES))
    weights = Agent(AgentConfig(n_quantiles=n), 1, 1)._kernel_weights(b)
    other = permuted(u)
    assert not other.flags.c_contiguous or min(n, b) == 1
    g, loss = _quantile_step(u, weights, kappa)
    g_other, loss_other = _quantile_step(other, weights, kappa)
    assert bits(g) == bits(g_other)
    assert bits(loss) == bits(loss_other)


@SETTINGS
@given(st.sampled_from(["tabular", "network"]).flatmap(cases))
def test_residuals_are_c_ordered_with_unchanged_values(case):
    agent, batch = case
    u, _ = agent._residuals(batch)
    assert u.flags.c_contiguous
    # the residuals as broadcasting built them, before the C-order writes
    th, _ = agent.head.online(batch.s, batch.a)
    target = agent.head.bootstrap(batch.s_next).T * np.where(
        batch.done, 0.0, agent.cfg.gamma)
    target += batch.r
    want = target[None, :, :] - th.T[:, None, :]
    assert bits(agent.td_deltas(batch)) == bits(want.transpose(2, 0, 1))


def test_td_deltas_terminal_rows_and_bootstrap_choice():
    agent = Agent(AgentConfig(n_quantiles=3), n_states=3, n_actions=2)
    agent.head.theta[:] = np.arange(18.0).reshape(3, 2, 3)
    agent.head.theta_target[:] = -agent.head.theta
    batch = Batch(s=np.array([0, 2]), a=np.array([1, 0]), r=np.array([-1.0, 2.0]),
                  s_next=np.array([1, 1]), done=np.array([False, True]))
    delta = agent.td_deltas(batch)
    assert delta.shape == (2, 3, 3)
    # a* at s' = 1 is action 0: mean -7 beats -10
    boot = -1.0 + 0.99 * np.array([-6.0, -7.0, -8.0])
    np.testing.assert_allclose(delta[0], boot[None, :] - np.array([[3.0], [4.0], [5.0]]),
                               rtol=1e-15)
    # terminal: the bare reward is the target for every j
    np.testing.assert_array_equal(delta[1], np.repeat([[-10.0], [-11.0], [-12.0]], 3, axis=1))
