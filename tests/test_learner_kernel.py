"""The fused quantile-regression update against its unfused definition.

The reference below is the update written out step by step: residuals
from the target-side greedy action, ``quantile_huber_grad``, its mean over
target atoms, ``np.add.at`` into the table (or a one-hot forward and
backward pass for the network) and the optimizer arithmetic. Parameters
and optimizer moments must agree bit for bit; the loss, which the kernel
forms from its own intermediates, within 1e-12 relative.
"""
import copy

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
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=float).tobytes()


def onehot(states, width):
    x = np.zeros((len(states), width))
    x[np.arange(len(states)), states] = 1.0
    return x


def reference_update(agent: Agent, batch: Batch) -> float:
    cfg, n, b = agent.cfg, agent.n, len(batch)
    if cfg.backend == "tabular":
        th = agent.theta[batch.s, batch.a]
        tt_all = agent.theta_target[batch.s_next]
    else:
        x = onehot(batch.s, agent.n_states)
        th = nn.forward(agent.net, x).reshape(b, -1, n)[np.arange(b), batch.a]
        tt_all = nn.forward(agent.net_target, onehot(batch.s_next,
                                                     agent.n_states))
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
        grad = np.zeros_like(agent.theta)
        np.add.at(grad, (batch.s, batch.a), g)
        if cfg.optimizer == "sgd":
            agent.theta -= cfg.lr * grad
        else:
            agent.opt_t += 1
            b1, b2, eps = 0.9, 0.999, 1e-8
            agent.opt_m *= b1
            agent.opt_m += (1.0 - b1) * grad
            agent.opt_v *= b2
            agent.opt_v += (1.0 - b2) * grad * grad
            m_hat = agent.opt_m / (1.0 - b1 ** agent.opt_t)
            v_hat = agent.opt_v / (1.0 - b2 ** agent.opt_t)
            agent.theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
    else:
        grad_out = np.zeros((b, agent.n_actions * n))
        cols = batch.a[:, None] * n + np.arange(n)[None, :]
        grad_out[np.arange(b)[:, None], cols] = g / b
        grads = nn.backward(agent.net, x, grad_out)
        if cfg.optimizer == "adam":
            nn.adam_step(agent.net, grads, agent.adam, cfg.lr)
        else:
            nn.sgd_step(agent.net, grads, cfg.lr)
    return float(rho.mean(axis=2).sum(axis=1).mean())


def state_bits(agent: Agent) -> list:
    if agent.cfg.backend == "tabular":
        return [bits(agent.theta), bits(agent.opt_m), bits(agent.opt_v),
                agent.opt_t]
    return ([bits(p) for p in nn.params(agent.net)]
            + [bits(m) for m in agent.adam.m] + [bits(v) for v in agent.adam.v]
            + [agent.adam.t])


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
        agent.theta = draw(arrays(float, shape, elements=VALUES))
        agent.theta_target = draw(arrays(float, shape, elements=VALUES))
    else:
        for bias in agent.net.biases + agent.net_target.biases:
            bias += draw(arrays(float, bias.shape, elements=VALUES))
    states = st.integers(0, n_states - 1)
    batch = Batch(s=draw(arrays(np.int64, b, elements=states)),
                  a=draw(arrays(np.int64, b, elements=st.integers(0, n_actions - 1))),
                  r=draw(arrays(float, b, elements=VALUES)),
                  s_next=draw(arrays(np.int64, b, elements=states)),
                  done=draw(arrays(bool, b)))
    return agent, batch


def check_against_reference(agent: Agent, batch: Batch) -> None:
    ref = copy.deepcopy(agent)
    for _ in range(3):              # later steps see nonzero Adam moments
        loss = agent.qr_update(batch)
        want = reference_update(ref, batch)
        assert state_bits(agent) == state_bits(ref)
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
    g, loss = _quantile_step(u.copy(), agent._consts(b)[2], kappa)
    # C order, as the unfused code built it: the mean's summation order
    # depends on the layout
    delta = np.ascontiguousarray(u.transpose(2, 0, 1))
    taus = midpoints(n).reshape(1, -1, 1)
    want = -quantile_huber_grad(delta, taus, kappa).mean(axis=2)
    assert bits(g.T) == bits(want)
    rho = quantile_huber(delta, taus, kappa)
    assert loss == pytest.approx(float(rho.mean(axis=2).sum(axis=1).mean()),
                                 rel=1e-12, abs=1e-300)


def test_td_deltas_terminal_rows_and_bootstrap_choice():
    agent = Agent(AgentConfig(n_quantiles=3), n_states=3, n_actions=2)
    agent.theta[:] = np.arange(18.0).reshape(3, 2, 3)
    agent.theta_target[:] = -agent.theta
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
