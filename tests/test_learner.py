from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrrn import nn
from qrrn.env import EnvConfig, stream_rng
from qrrn.learner import (Agent, AgentConfig, Batch, EmptyBatch, EmptyBuffer,
                          ReplayBuffer, epsilon)
from qrrn.oracle import value_iteration
from qrrn.policies import greedy


def cfg(**kw):
    return AgentConfig(**kw)


class Transition(NamedTuple):
    s: int
    a: int
    r: float
    s_next: int
    done: bool


def batch_of(*ts):
    """The transitions as one column-wise batch."""
    return Batch(s=np.array([t.s for t in ts], dtype=np.int64),
                 a=np.array([t.a for t in ts], dtype=np.int64),
                 r=np.array([t.r for t in ts], dtype=float),
                 s_next=np.array([t.s_next for t in ts], dtype=np.int64),
                 done=np.array([t.done for t in ts], dtype=bool))


# ---------------------------------------------------------------------------
# exploration schedule

def test_epsilon_fixtures():
    c = cfg()
    assert epsilon(0, 100_000, c) == 1.0
    assert epsilon(2000, 100_000, c) == pytest.approx(0.1, abs=1e-12)
    assert epsilon(1000, 100_000, c) == pytest.approx(0.55, abs=1e-12)
    assert epsilon(50_000, 100_000, c) == pytest.approx(0.1, abs=1e-12)


def test_epsilon_monotone_and_bounded():
    c = cfg()
    vals = [epsilon(s, 10_000, c) for s in range(0, 10_001, 50)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0 and vals[-1] == c.exploration_final_eps


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon(-1, 100, cfg())
    with pytest.raises(ValueError):
        epsilon(101, 100, cfg())


def test_agent_config_validation():
    with pytest.raises(ValueError):
        cfg(gamma=1.0)
    with pytest.raises(ValueError):
        cfg(n_quantiles=0)
    with pytest.raises(ValueError):
        cfg(backend="cnn")
    with pytest.raises(ValueError):
        cfg(optimizer="rmsprop")
    with pytest.raises(ValueError):
        AgentConfig.from_dict({"lr": 1e-3, "bogus": 1})
    assert cfg().sync_interval == 1
    assert cfg(backend="network").sync_interval == 1000
    assert cfg(target_sync_interval=7).sync_interval == 7


# ---------------------------------------------------------------------------
# behavior policy

def test_behavior_uniform_at_full_exploration():
    agent = Agent(cfg(), n_states=3, n_actions=4)
    rng = stream_rng(0)
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        counts[agent.behavior_action(0, 0, 100, rng)] += 1
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) < 3 * sigma)


def test_behavior_greedy_when_eps_zero():
    agent = Agent(cfg(exploration_final_eps=0.0), n_states=2, n_actions=3)
    agent.head.theta[0, 2, :] = 5.0
    rng = stream_rng(1)
    assert all(agent.behavior_action(0, 90, 100, rng) == 2 for _ in range(50))


def test_behavior_reproducible():
    seqs = []
    for _ in range(2):
        agent = Agent(cfg(), n_states=2, n_actions=3)
        rng = stream_rng(5)
        seqs.append([agent.behavior_action(0, s, 1000, rng)
                     for s in range(200)])
    assert seqs[0] == seqs[1]


# ---------------------------------------------------------------------------
# TD residuals

def test_td_deltas_terminal_converged_is_zero():
    agent = Agent(cfg(), n_states=2, n_actions=1)
    agent.head.theta[0, 0] = -3.0
    b = batch_of(Transition(0, 0, -3.0, 1, True))
    np.testing.assert_allclose(agent.td_deltas(b), np.zeros((1, 4, 4)),
                               atol=1e-15)


def test_td_deltas_single_atom_fixture():
    agent = Agent(cfg(n_quantiles=1, gamma=0.99), n_states=2, n_actions=1)
    agent.head.theta[0, 0] = [-5.0]
    agent.head.theta_target[1, 0] = [-10.0]
    b = batch_of(Transition(0, 0, -1.0, 1, False))
    np.testing.assert_allclose(agent.td_deltas(b), [[[-5.9]]], atol=1e-12)


def test_td_deltas_two_atom_hand_expansion():
    agent = Agent(cfg(n_quantiles=2, gamma=0.5), n_states=2, n_actions=1)
    agent.head.theta[0, 0] = [0.0, 1.0]
    agent.head.theta_target[1, 0] = [2.0, 4.0]
    b = batch_of(Transition(0, 0, 1.0, 1, False))
    np.testing.assert_allclose(agent.td_deltas(b),
                               [[[2.0, 3.0], [1.0, 2.0]]], atol=1e-12)


def test_td_deltas_bootstrap_uses_target_argmax():
    agent = Agent(cfg(n_quantiles=1, gamma=1.0 - 1e-9), n_states=2,
                  n_actions=2)
    agent.head.theta_target[1, 0] = [-4.0]
    agent.head.theta_target[1, 1] = [-2.0]   # larger mean: bootstrap action
    agent.head.theta[1, 0] = [99.0]          # online values must be ignored
    b = batch_of(Transition(0, 0, 0.0, 1, False))
    assert agent.td_deltas(b)[0, 0, 0] == pytest.approx(-2.0, abs=1e-6)


def test_td_deltas_empty_batch():
    agent = Agent(cfg(), n_states=2, n_actions=1)
    with pytest.raises(EmptyBatch):
        agent.td_deltas(batch_of())


# ---------------------------------------------------------------------------
# updates

def test_qr_update_zero_residual_fixed_point():
    for optimizer in ("sgd", "adam"):
        agent = Agent(cfg(optimizer=optimizer), n_states=2, n_actions=1)
        agent.head.theta[0, 0] = -1.0
        agent.sync_target()
        before = agent.head.theta.copy()
        loss = agent.qr_update(batch_of(Transition(0, 0, -1.0, 1, True)))
        assert loss == 0.0
        np.testing.assert_array_equal(agent.head.theta, before)


def test_qr_update_point_mass_bandit_sgd():
    # deterministic terminal reward -1: every atom is the -1 quantile
    agent = Agent(cfg(lr=1e-2, optimizer="sgd"), n_states=1, n_actions=1)
    b = batch_of(Transition(0, 0, -1.0, 0, True))
    for _ in range(10_000):
        agent.qr_update(b)
    np.testing.assert_allclose(agent.head.theta[0, 0], -1.0, atol=1e-2)


def test_qr_update_moves_toward_target_adam():
    agent = Agent(cfg(lr=1e-2, optimizer="adam"), n_states=1, n_actions=1)
    b = batch_of(Transition(0, 0, -1.0, 0, True))
    for _ in range(2_000):
        agent.qr_update(b)
    np.testing.assert_allclose(agent.head.theta[0, 0], -1.0, atol=0.05)


def test_qr_update_tn_bandit_quantiles_sgd():
    # terminal rewards from a truncated normal: atoms approach its
    # quantile midpoints (small kappa keeps the Huber smoothing bias low)
    from qrrn.oracle import truncated_normal_quantile, truncated_normal_samples

    agent = Agent(cfg(lr=1e-3, optimizer="sgd", kappa=0.05),
                  n_states=1, n_actions=1)
    rng = stream_rng(77)
    pool = truncated_normal_samples(500_000, -3.0, 1.0, -6.0, 0.0, rng)
    k = 0
    for _ in range(20_000):
        rs = pool[k:k + 16]
        k = (k + 16) % (len(pool) - 16)
        b = Batch(s=np.zeros(16, np.int64), a=np.zeros(16, np.int64),
                  r=rs, s_next=np.zeros(16, np.int64),
                  done=np.ones(16, bool))
        agent.qr_update(b)
    want = [truncated_normal_quantile(t, -3.0, 1.0, -6.0, 0.0)
            for t in (0.125, 0.375, 0.625, 0.875)]
    np.testing.assert_allclose(np.sort(agent.head.theta[0, 0]), want, atol=0.15)


def test_qr_update_loss_value_matches_manual():
    from qrrn.quantdist import midpoints, quantile_huber

    agent = Agent(cfg(n_quantiles=2, gamma=0.5, optimizer="sgd"),
                  n_states=2, n_actions=1)
    agent.head.theta[0, 0] = [0.0, 1.0]
    agent.head.theta_target[1, 0] = [2.0, 4.0]
    b = batch_of(Transition(0, 0, 1.0, 1, False))
    deltas = np.array([[2.0, 3.0], [1.0, 2.0]])
    taus = midpoints(2)
    want = sum(quantile_huber(deltas[i, j], taus[i], 1.0) / 2
               for i in range(2) for j in range(2))
    assert agent.qr_update(b) == pytest.approx(want, rel=1e-12)


def test_tabular_sgd_matches_linear_net_sgd():
    # a bias-free linear net over one-hot inputs is the table; one plain
    # gradient step must move W exactly like the table entries
    n_states, n_actions, n = 3, 2, 4
    tab = Agent(cfg(optimizer="sgd", lr=0.05), n_states, n_actions)
    neta = Agent(cfg(optimizer="sgd", lr=0.05, backend="network", hidden=()),
                 n_states, n_actions)
    rng = stream_rng(3)
    theta0 = rng.normal(size=(n_states, n_actions, n))
    tab.head.theta[:] = theta0
    w0 = np.zeros((n_actions * n, n_states))
    for s in range(n_states):
        w0[:, s] = theta0[s].reshape(-1)
    neta.head.net.weights[0][:] = w0
    neta.head.net.biases[0][:] = 0.0
    tab.sync_target()
    neta.sync_target()

    t = Transition(0, 1, -2.0, 2, False)
    tab.qr_update(batch_of(t))
    neta.qr_update(batch_of(t))
    delta_tab = tab.head.theta - theta0
    delta_w = neta.head.net.weights[0] - w0
    for s in range(n_states):
        np.testing.assert_allclose(delta_w[:, s], delta_tab[s].reshape(-1),
                                   atol=1e-8)


def test_mean_consistency_single_atom_matches_value_iteration(chain2_map):
    env_cfg = EnvConfig(r_base=1.0)
    q_star = value_iteration(chain2_map, env_cfg, gamma=0.99)
    agent = Agent(cfg(n_quantiles=1, gamma=0.99, lr=0.1, optimizer="sgd"),
                  chain2_map.n_states, chain2_map.action_dim)
    batch = batch_of(Transition(0, 0, -1.0, 1, False),
                     Transition(1, 0, 0.0, 2, True))
    for _ in range(2_000):
        agent.qr_update(batch)
        agent.sync_target()
    assert agent.head.theta[0, 0, 0] == pytest.approx(q_star[0, 0], abs=1e-2)
    assert agent.head.theta[1, 0, 0] == pytest.approx(q_star[1, 0], abs=1e-2)


def test_network_output_layout_is_action_major():
    # action a's n_quantiles atoms occupy output slots a*n .. a*n + n - 1
    agent = Agent(cfg(backend="network", hidden=(), n_quantiles=3),
                  n_states=2, n_actions=2, seed=0)
    agent.head.net.weights[0][:] = 0.0
    agent.head.net.biases[0][:] = np.arange(6, dtype=float)
    np.testing.assert_array_equal(agent.action_dists(0),
                                  [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])


def test_network_update_runs_and_reduces_loss():
    agent = Agent(cfg(backend="network", hidden=(16,), lr=1e-3),
                  n_states=4, n_actions=2, seed=0)
    b = batch_of(Transition(0, 0, -1.0, 1, True),
                 Transition(1, 1, -2.0, 2, True))
    first = agent.qr_update(b)
    for _ in range(500):
        last = agent.qr_update(b)
    assert last < first


def test_sync_target():
    agent = Agent(cfg(), n_states=2, n_actions=1)
    agent.head.theta[0, 0] = 3.0
    assert not np.array_equal(agent.head.theta, agent.head.theta_target)
    agent.sync_target()
    np.testing.assert_array_equal(agent.head.theta, agent.head.theta_target)

    netagent = Agent(cfg(backend="network", hidden=(8,)), 4, 2, seed=1)
    b = batch_of(Transition(0, 0, -1.0, 1, True))
    for _ in range(20):
        netagent.qr_update(b)
    dist_on = netagent.action_dists(0)
    dist_t = netagent.action_dists(0, target=True)
    assert not np.allclose(dist_on, dist_t)
    netagent.sync_target()
    np.testing.assert_allclose(netagent.action_dists(0, target=True), dist_on,
                               atol=1e-14)


@settings(max_examples=40)
@given(backend=st.sampled_from(["tabular", "network"]),
       seed=st.integers(0, 2**16),
       states=st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_action_dists_table_serves_the_forwards_bits(backend, seed, states):
    agent = Agent(cfg(backend=backend, hidden=(8,), n_quantiles=3),
                  n_states=6, n_actions=3, seed=seed)
    rng = np.random.default_rng(seed)

    def check():
        for s in states:
            for _ in range(2):              # a first and a repeated call
                got = agent.action_dists(s)
                assert not got.flags.writeable
                want = agent.head.dists(s)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    check()
    for _ in range(3):
        b = int(rng.integers(1, 9))
        agent.qr_update(Batch(s=rng.integers(0, 6, b), a=rng.integers(0, 3, b),
                              r=rng.normal(size=b),
                              s_next=rng.integers(0, 6, b),
                              done=rng.random(b) < 0.3))
        check()
        agent.sync_target()
        check()


@pytest.mark.parametrize("b", [1, 7, 64])
def test_bootstrap_table_matches_the_uncached_gather(b, monkeypatch):
    agent = Agent(cfg(backend="network", hidden=(16, 8), n_quantiles=5),
                  n_states=18, n_actions=3, seed=3)
    head, rng = agent.head, np.random.default_rng(b)

    def uncached(s):
        boot = head.dists(s, target=True)
        return boot[np.arange(len(s)), greedy(boot)]

    forwards = []
    forward = nn.forward
    monkeypatch.setattr(nn, "forward",
                        lambda *a, **k: forwards.append(1) or forward(*a, **k))
    for _ in range(3):
        # a few states repeated, then the same again, then unseen ones
        for s in (rng.integers(0, 3, b), rng.integers(0, 3, b),
                  rng.integers(0, 18, b)):
            forwards.clear()
            got = head.bootstrap(s)
            assert len(forwards) <= 1
            assert got.tobytes() == uncached(s).tobytes()
        # an update moves the online net, which the table must not see
        # until the sync; then it must not keep the old target's rows
        agent.qr_update(Batch(s, rng.integers(0, 3, b), rng.normal(size=b),
                              rng.integers(0, 18, b), np.zeros(b, bool)))
        assert head.bootstrap(s).tobytes() == uncached(s).tobytes()
        agent.sync_target()
    forwards.clear()
    head.bootstrap(s)
    head.bootstrap(s)
    assert len(forwards) == 1          # the second call is served whole


def test_update_determinism():
    losses = []
    for _ in range(2):
        agent = Agent(cfg(lr=1e-3), n_states=3, n_actions=2)
        rng = stream_rng(123)
        buf = agent.buffer
        run = []
        for i in range(500):
            buf.push(int(rng.integers(3)), int(rng.integers(2)),
                     float(rng.normal()), int(rng.integers(3)), False)
            if len(buf) >= 32:
                run.append(agent.qr_update(buf.sample(32, rng)))
        losses.append(run)
    assert losses[0] == losses[1]


# ---------------------------------------------------------------------------
# replay buffer

def contents(buf: ReplayBuffer) -> list:
    """Transitions the buffer holds, oldest first."""
    order = (np.arange(buf.size) + (buf.cursor - buf.size)) % buf.capacity \
        if buf.size == buf.capacity else np.arange(buf.size)
    return [Transition(int(buf.s[i]), int(buf.a[i]), float(buf.r[i]),
                       int(buf.s_next[i]), bool(buf.done[i])) for i in order]


def test_buffer_fifo_overwrite():
    buf = ReplayBuffer(2)
    for i in range(3):
        buf.push(i, 0, float(i), i, False)
    assert len(buf) == 2
    held = {t.s for t in contents(buf)}
    assert held == {1, 2}
    assert [t.s for t in contents(buf)] == [1, 2]


def test_buffer_sample_with_replacement():
    buf = ReplayBuffer(8)
    buf.push(7, 1, -1.0, 3, True)
    got = buf.sample(64, stream_rng(0))
    assert len(got) == 64
    assert np.all(got.s == 7) and np.all(got.done)


def test_buffer_sample_uniform():
    buf = ReplayBuffer(16)
    for i in range(16):
        buf.push(i, 0, 0.0, 0, False)
    counts = np.zeros(16)
    rng = stream_rng(9)
    n = 100_000
    idx = buf.sample(n, rng).s
    for i in range(16):
        counts[i] = np.sum(idx == i)
    sigma = np.sqrt(n * (1 / 16) * (15 / 16))
    assert np.all(np.abs(counts - n / 16) < 3 * sigma)


def test_buffer_empty_raises():
    with pytest.raises(EmptyBuffer):
        ReplayBuffer(4).sample(1, stream_rng(0))
    with pytest.raises(ValueError):
        ReplayBuffer(0)
