import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrrn import oracle
from qrrn.env import EnvConfig, reward_sample, state_dict, stream_rng
from qrrn.oracle import (NonterminatingPolicy, TooFewSamples,
                         empirical_quantiles, greedy_rollout, mc_returns,
                         ssd_grid_check, truncated_normal_moments,
                         truncated_normal_quantile, truncated_normal_samples,
                         value_iteration)
from qrrn.quantdist import ssd_dominates
from qrrn.roadnet import build_map, shortest_path, transition


def test_value_iteration_chain_hand_values(chain2_map):
    q = value_iteration(chain2_map, EnvConfig(r_base=1.0), gamma=0.99)
    # reaching the goal pays 0; one step earlier pays the base reward once
    assert q[1, 0] == pytest.approx(0.0, abs=1e-9)
    assert q[0, 0] == pytest.approx(-1.0, abs=1e-9)
    assert np.all(q[2] == 0.0)   # absorbing goal row


def test_value_iteration_loopback_values(diamond_map):
    q = value_iteration(diamond_map, EnvConfig(r_base=1.0), gamma=0.99)
    # both routes cost two steps: -1 - 0.99 * 0
    assert q[0, 0] == pytest.approx(-1.0, abs=1e-9)
    assert q[0, 1] == pytest.approx(-1.0, abs=1e-9)
    # the undefined action at node 1 loops back: -1 + 0.99 * V(1)
    assert q[1, 1] == pytest.approx(-1.0 + 0.99 * 0.0, abs=1e-9)
    with pytest.raises(ValueError):
        value_iteration(diamond_map, EnvConfig(), gamma=1.0)


def test_value_iteration_greedy_matches_dijkstra(two_route_map):
    q = value_iteration(two_route_map, EnvConfig(r_base=3.0, r_loopback=18.0),
                        gamma=0.99)
    assert greedy_rollout(q, two_route_map).nodes == \
        shortest_path(two_route_map).nodes


def test_value_iteration_blind_to_crosswalks(two_route_map):
    cfg = EnvConfig(r_base=3.0, r_loopback=18.0)
    q = value_iteration(two_route_map, cfg, gamma=0.99)
    stripped = build_map("stripped", two_route_map.n_states,
                         [(e.src, e.dst, e.action) for e in two_route_map.edges],
                         start=two_route_map.start, goals=two_route_map.goals,
                         crosswalks=())
    q2 = value_iteration(stripped, cfg, gamma=0.99)
    np.testing.assert_allclose(q, q2, atol=1e-9)


def test_greedy_rollout_flags_nontermination(chain2_map):
    q = np.zeros((3, 1))
    m = build_map("loopy", 4, [(0, 1, 0), (0, 3, 1), (1, 2, 1), (3, 2, 0)],
                  start=0, goals={2})
    with pytest.raises(NonterminatingPolicy):
        greedy_rollout(np.zeros((4, 2)), m, max_steps=50)   # argmax loops at 1
    assert greedy_rollout(np.zeros((3, 1)), chain2_map).nodes == [0, 1, 2]
    del q


# ---------------------------------------------------------------------------

def test_mc_returns_deterministic_route(chain3_map):
    cfg = EnvConfig(r_base=1.0)
    samples = mc_returns(chain3_map, cfg, [0, 0, 0, 0], start=0, gamma=0.99,
                         episodes=64, seed=3)
    np.testing.assert_allclose(samples, -1.99, atol=1e-12)
    assert samples.std() == 0.0


def test_mc_returns_crosswalk_route(two_route_map):
    cfg = EnvConfig(r_base=3.0, r_loopback=18.0)
    sp = shortest_path(two_route_map)
    policy = np.zeros(two_route_map.n_states, dtype=int)   # action 0 everywhere
    samples = mc_returns(two_route_map, cfg, policy, start=0, gamma=0.99,
                         episodes=50_000, seed=11)
    det_value = -3.0 * sum(0.99 ** k for k in range(7))
    assert samples.mean() == pytest.approx(det_value, abs=0.02)
    # all randomness enters through the crosswalk at discount gamma^3
    w = 3.0 * 0.99 ** 3
    assert samples.min() >= det_value - w - 1e-9
    assert samples.max() <= det_value + w + 1e-9
    assert samples.std() > 0.5 * 0.99 ** 3
    assert any(v in two_route_map.crosswalks for v in sp.nodes)


def test_mc_returns_crosswalk_free_route_zero_variance(two_route_map):
    policy = np.zeros(two_route_map.n_states, dtype=int)
    policy[0] = 1    # take the robust branch, then follow the chain
    samples = mc_returns(two_route_map, EnvConfig(r_base=3.0), policy,
                         start=0, gamma=0.99, episodes=200, seed=0)
    assert samples.std() == 0.0


def test_crosswalk_free_batch_builds_no_generator_and_no_state(
        two_route_map, monkeypatch):
    def refuse(*args):
        raise AssertionError("a route without a draw loads no stream")
    monkeypatch.setattr(oracle, "stream_rng", refuse)
    monkeypatch.setattr(oracle, "state_dict", refuse)
    policy = np.zeros(two_route_map.n_states, dtype=int)
    policy[0] = 1    # the robust branch
    samples = mc_returns(two_route_map, EnvConfig(r_base=3.0), policy,
                         start=0, gamma=0.99, episodes=100, seed=(4, 2))
    assert np.all(samples == samples[0])


def test_crosswalk_batch_loads_one_vessel(two_route_map, monkeypatch):
    made, loaded = [], []
    monkeypatch.setattr(oracle, "stream_rng",
                        lambda *keys: made.append(keys) or stream_rng(*keys))
    monkeypatch.setattr(oracle, "state_dict",
                        lambda *words: loaded.append(words) or state_dict(*words))
    policy = np.zeros(two_route_map.n_states, dtype=int)   # the noisy route
    samples = mc_returns(two_route_map, EnvConfig(r_base=3.0), policy,
                         start=0, gamma=0.99, episodes=100, seed=(4, 2))
    assert len(made) == 1 and len(loaded) == 100
    assert samples.std() > 0.0


def test_mc_returns_refuses_more_episodes_than_stream_words(two_route_map):
    policy = np.zeros(two_route_map.n_states, dtype=int)
    with pytest.raises(ValueError, match=r"episodes must be <= 2\*\*32"):
        mc_returns(two_route_map, EnvConfig(), policy, start=0, gamma=0.99,
                   episodes=2**32 + 1, seed=0)


def test_mc_returns_nonterminating(two_route_map):
    cfg = EnvConfig(r_base=3.0, episode_cap=50)
    policy = np.ones(two_route_map.n_states, dtype=int)  # loops after node 8
    with pytest.raises(NonterminatingPolicy):
        mc_returns(two_route_map, cfg, policy, start=0, gamma=0.99,
                   episodes=20, seed=0)


def test_mc_returns_validation(chain2_map):
    with pytest.raises(ValueError):
        mc_returns(chain2_map, EnvConfig(), [0], start=0, gamma=0.99,
                   episodes=4, seed=0)


def per_episode_returns(m, cfg, policy, start, gamma, episodes, seed=0):
    """The oracle's former loop: each episode walks the route again with
    its own reward stream."""
    policy = np.asarray(policy, dtype=np.int64)
    if policy.shape != (m.n_states,):
        raise ValueError(f"policy must assign an action to each of "
                         f"{m.n_states} states")
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    returns = np.empty(episodes)
    cap_hits = 0
    for ep in range(episodes):
        rng = stream_rng(seed, ep)
        cur = start
        total = 0.0
        disc = 1.0
        reached = False
        for _ in range(cfg.episode_cap):
            nxt = transition(m, cur, int(policy[cur]))
            total += disc * reward_sample(m, nxt, cur, cfg, rng)
            disc *= gamma
            cur = nxt
            if cur in m.goals:
                reached = True
                break
        if not reached:
            cap_hits += 1
        returns[ep] = total
    if 2 * cap_hits > episodes:
        raise NonterminatingPolicy(
            f"{cap_hits}/{episodes} rollouts hit the {cfg.episode_cap}-step cap")
    return np.sort(returns)


@st.composite
def walks(draw):
    """A random map with a full action table and a random action map on it.

    Each node has an edge to its successor under one action, so every goal
    is reachable; all other slots point anywhere, the node itself included.
    Goals, crosswalks and the walk's start may overlap, so loopbacks,
    revisited crosswalks, goal starts and cap hits all occur.
    """
    n = draw(st.integers(2, 8))
    a_dim = draw(st.integers(1, 3))
    edges = []
    for s in range(n):
        chain = draw(st.integers(0, a_dim - 1))
        for a in range(a_dim):
            dst = (s + 1) % n if a == chain else draw(st.integers(0, n - 1))
            edges.append((s, dst, a))
    goals = {n - 1} | draw(st.sets(st.integers(1, n - 1), max_size=1))
    marks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    crosswalks = [v for v in range(n) if marks[v]]
    m = build_map("walk", n, edges, start=0, goals=goals,
                  crosswalks=crosswalks)
    policy = draw(st.lists(st.integers(0, a_dim - 1), min_size=n, max_size=n))
    return m, policy, draw(st.integers(0, n - 1))


@given(walks(),
       st.builds(EnvConfig, r_base=st.floats(0.5, 5.0),
                 r_loopback=st.floats(0.0, 20.0),
                 crosswalk_std=st.floats(0.1, 5.0),
                 episode_cap=st.integers(1, 12)),
       st.floats(0.0, 0.999), st.integers(1, 50),
       st.one_of(st.integers(0, 1000), st.integers(-3, -1),
                 st.integers(2**32 - 1, 2**73),
                 st.tuples(st.integers(-3, 99), st.integers(0, 99)),
                 st.tuples(st.integers(-3, -1), st.integers(0, 99)),
                 st.tuples(st.integers(0, 2**64 + 5), st.integers(2**32, 2**40))))
@settings(max_examples=300)
def test_mc_returns_matches_per_episode_loop(walk, cfg, gamma, episodes, seed):
    m, policy, start = walk

    def outcome(fn):
        try:
            return fn(m, cfg, policy, start, gamma, episodes, seed).tobytes()
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(mc_returns) == outcome(per_episode_returns)


# ---------------------------------------------------------------------------

def test_empirical_quantiles_order_statistics():
    np.testing.assert_allclose(empirical_quantiles([4.0, 2.0, 1.0, 3.0], 4),
                               [1.0, 2.0, 3.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(empirical_quantiles([5.0] * 10, 3),
                               [5.0, 5.0, 5.0], atol=1e-15)


def test_empirical_quantiles_too_few():
    with pytest.raises(TooFewSamples):
        empirical_quantiles([1.0, 2.0], 4)


def test_empirical_quantiles_match_inverse_cdf():
    rng = stream_rng(21)
    samples = truncated_normal_samples(1_000_000, -3.0, 1.0, -6.0, 0.0, rng)
    got = empirical_quantiles(samples, 4)
    want = [truncated_normal_quantile(p, -3.0, 1.0, -6.0, 0.0)
            for p in (0.125, 0.375, 0.625, 0.875)]
    np.testing.assert_allclose(got, want, atol=0.01)


def test_truncated_normal_moments_against_quadrature():
    lo, hi = -3.0, 3.0
    xs = np.linspace(lo, hi, 400_001)
    pdf = np.exp(-0.5 * xs * xs) / np.sqrt(2 * np.pi)
    z = np.trapezoid(pdf, xs)
    mean_num = np.trapezoid(xs * pdf, xs) / z
    var_num = np.trapezoid(xs * xs * pdf, xs) / z - mean_num ** 2
    m, s = truncated_normal_moments(0.0, 1.0, lo, hi)
    assert m == pytest.approx(mean_num, abs=1e-9)
    assert s == pytest.approx(np.sqrt(var_num), abs=1e-9)
    # shifted and scaled variant
    m2, s2 = truncated_normal_moments(-3.0, 1.0, -6.0, 0.0)
    assert m2 == pytest.approx(-3.0, abs=1e-12)
    assert s2 == pytest.approx(s, abs=1e-12)


# ---------------------------------------------------------------------------

def test_ssd_grid_check_fixtures():
    assert ssd_grid_check([1.0, 1.0], [0.0, 0.0])
    assert not ssd_grid_check([0.0, 0.0], [1.0, 1.0])
    d = [-2.0, -1.0, 1.0, 2.0]
    assert ssd_grid_check(d, d)
    assert ssd_grid_check([0.0] * 4, d)
    assert not ssd_grid_check(d, [0.0] * 4)
    with pytest.raises(ValueError):
        ssd_grid_check([0.0], [1.0], grid_points=10)


def test_ssd_grid_check_agrees_with_exact():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        a = rng.uniform(-20, 0, size=rng.integers(1, 9))
        b = rng.uniform(-20, 0, size=rng.integers(1, 9))
        assert ssd_grid_check(a, b) == ssd_dominates(a, b)


def test_mc_mean_matches_value_iteration(two_route_map):
    cfg = EnvConfig(r_base=3.0, r_loopback=18.0)
    q = value_iteration(two_route_map, cfg, gamma=0.99)
    policy = q.argmax(axis=1)
    samples = mc_returns(two_route_map, cfg, policy, start=0, gamma=0.99,
                         episodes=20_000, seed=5)
    stderr = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - q[0].max()) < 3 * stderr + 1e-9
