import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrrn.env import (EnvConfig, EpisodeFinished, RoadEnv, reward_sample,
                      state_dict, stream_rng, stream_states, trunc_normal)
from qrrn.oracle import truncated_normal_moments
from qrrn.roadnet import InvalidAction, build_map


def test_env_config_validation():
    EnvConfig()   # defaults are legal
    with pytest.raises(ValueError):
        EnvConfig(r_base=0.0)
    with pytest.raises(ValueError):
        EnvConfig(r_loopback=-1.0)
    with pytest.raises(ValueError):
        EnvConfig(episode_cap=0)
    with pytest.raises(ValueError):
        EnvConfig(obs_encoding="pixels")
    with pytest.raises(ValueError):
        EnvConfig.from_dict({"r_base": 1.0, "bogus": 2})


# ---------------------------------------------------------------------------
# reward model

def test_reward_precedence_and_values(two_route_map):
    m = two_route_map
    rng = stream_rng(0)
    goal = next(iter(m.goals))
    cross = next(iter(m.crosswalks))
    cfg3 = EnvConfig(r_base=3.0, r_loopback=18.0)

    assert reward_sample(m, goal, 7, cfg3, rng) == 0.0
    # goal precedence even when the agent loops at the goal
    assert reward_sample(m, goal, goal, cfg3, rng) == 0.0
    # loopback pays the full penalty
    assert reward_sample(m, 2, 2, cfg3, rng) == -21.0
    # loopback wins over crosswalk for hand-written self-loops
    assert reward_sample(m, cross, cross, cfg3, rng) == -21.0
    # ordinary arrival
    assert reward_sample(m, 2, 1, cfg3, rng) == -3.0
    assert reward_sample(m, 2, 1, EnvConfig(r_base=1.0), rng) == -1.0


def test_crosswalk_reward_statistics(two_route_map):
    cfg = EnvConfig(r_base=3.0)
    cross = next(iter(two_route_map.crosswalks))
    rng = stream_rng(123)
    draws = np.array([reward_sample(two_route_map, cross, 3, cfg, rng)
                      for _ in range(100_000)])
    assert draws.min() >= -6.0 and draws.max() <= 0.0
    assert draws.mean() == pytest.approx(-3.0, abs=0.02)
    _, true_std = truncated_normal_moments(-3.0, 1.0, -6.0, 0.0)
    assert draws.std() == pytest.approx(true_std, rel=0.02)


def test_reward_support_property(two_route_map):
    cfg = EnvConfig(r_base=3.0, r_loopback=18.0)
    env = RoadEnv(two_route_map, cfg, seed=9)
    env.reset()
    rng = stream_rng(99)
    allowed_points = {0.0, -3.0, -21.0}
    for _ in range(2000):
        a = int(rng.integers(two_route_map.action_dim))
        r, done = env.step(a)
        assert r in allowed_points or -6.0 <= r <= 0.0
        if done:
            env.reset()


# ---------------------------------------------------------------------------
# truncated normal sampler

def test_trunc_normal_support_and_moments():
    rng = stream_rng(4)
    xs = np.array([trunc_normal(0.0, 1.0, -3.0, 3.0, rng)
                   for _ in range(100_000)])
    assert xs.min() >= -3.0 and xs.max() <= 3.0
    true_mean, true_std = truncated_normal_moments(0.0, 1.0, -3.0, 3.0)
    assert true_mean == pytest.approx(0.0, abs=1e-12)
    assert xs.mean() == pytest.approx(0.0, abs=0.02)
    assert xs.std() / true_std == pytest.approx(1.0, abs=0.02)


def test_trunc_normal_high_rejection_regime():
    rng = stream_rng(5)
    xs = np.array([trunc_normal(0.0, 1.0, -0.1, 0.1, rng) for _ in range(2000)])
    assert xs.min() >= -0.1 and xs.max() <= 0.1


def test_trunc_normal_validation():
    rng = stream_rng(0)
    with pytest.raises(ValueError):
        trunc_normal(0.0, 1.0, 2.0, 1.0, rng)
    with pytest.raises(ValueError):
        trunc_normal(0.0, 0.0, -1.0, 1.0, rng)


# ---------------------------------------------------------------------------
# episode lifecycle

def test_reset_determinism(two_route_map):
    cfg = EnvConfig(r_base=3.0, r_loopback=18.0)
    env1 = RoadEnv(two_route_map, cfg, 42)
    env2 = RoadEnv(two_route_map, cfg, 42)
    env1.reset(episode=0)
    env2.reset(episode=0)
    np.testing.assert_array_equal(env1.observe(), env2.observe())
    assert (env1.current, env1.steps, env1.done) == (env2.current, env2.steps,
                                                     env2.done)
    rng = stream_rng(1)
    actions = [int(rng.integers(two_route_map.action_dim)) for _ in range(300)]
    trace1, trace2 = [], []
    for env, trace in ((env1, trace1), (env2, trace2)):
        for a in actions:
            if env.done:
                env.reset()
            trace.append(env.step(a)[0])
    assert trace1 == trace2   # bit-exact reward replay


def test_one_hot_observation():
    m = build_map("wide", 12,
                  [(3, i, i if i < 3 else i - 1) for i in range(12) if i != 3],
                  start=3, goals={5})
    env = RoadEnv(m, EnvConfig(), seed=0)
    env.reset()
    obs = env.observe()
    assert obs.shape == (12,)
    assert obs[3] == 1.0 and obs.sum() == 1.0
    np.testing.assert_array_equal(obs, env.observe(3))


def test_index_observation(two_route_map):
    env = RoadEnv(two_route_map, EnvConfig(obs_encoding="index"), seed=0)
    env.reset()
    np.testing.assert_array_equal(env.observe(3), [3.0])


def test_observation_deterministic_across_episodes(two_route_map):
    env = RoadEnv(two_route_map, EnvConfig(), seed=0)
    env.reset()
    first = env.observe(5).copy()
    env.step(0)
    env = RoadEnv(two_route_map, EnvConfig(), seed=77)
    env.reset()
    np.testing.assert_array_equal(env.observe(5), first)


def test_goal_step_reward_and_done(chain2_map):
    env = RoadEnv(chain2_map, EnvConfig(r_base=3.0), seed=0)
    env.reset()
    r, done = env.step(0)
    assert (r, done) == (-3.0, False)
    r, done = env.step(0)
    assert (r, done) == (0.0, True)
    assert env.at_goal()
    with pytest.raises(EpisodeFinished):
        env.step(0)


def test_episode_cap_terminates():
    # at node 1 only action 1 is a real edge, so action 0 loops forever
    m = build_map("loopy", 4, [(0, 1, 0), (0, 3, 1), (1, 2, 1), (3, 2, 0)],
                  start=0, goals={2})
    env = RoadEnv(m, EnvConfig(episode_cap=5), seed=0)
    env.reset()
    done = False
    steps = 0
    while not done:
        _, done = env.step(0)   # action 0 at node 1 is a loopback
        steps += 1
    assert steps == 5 and not env.at_goal()


def test_invalid_action(two_route_map):
    env = RoadEnv(two_route_map, EnvConfig(), seed=0)
    env.reset()
    with pytest.raises(InvalidAction):
        env.step(5)


def test_step_before_reset_raises(two_route_map):
    env = RoadEnv(two_route_map, EnvConfig(), seed=0)
    with pytest.raises(EpisodeFinished):
        env.step(0)


def test_env_state_snapshot_roundtrip(two_route_map):
    cfg = EnvConfig(r_base=3.0)
    env = RoadEnv(two_route_map, cfg, seed=8)
    env.reset()
    for a in (0, 0, 1):
        env.step(a)
    snap = env.get_state()
    ref = RoadEnv(two_route_map, cfg, seed=8)
    ref.set_state(snap)
    seq_a = [env.step(0)[0] for _ in range(3)]
    seq_b = [ref.step(0)[0] for _ in range(3)]
    assert seq_a == seq_b


def test_stream_rng_rejects_negative():
    for keys, flat in (((-1,), "[-1]"), ((-1, 0), "[-1, 0]"),
                       (((3, -2), 7), "[3, -2, 7]")):
        with pytest.raises(ValueError) as err:
            stream_rng(*keys)
        assert str(err.value) == f"stream keys must be non-negative, got {flat}"
    # the batch names the key of its first episode, as stream_rng would
    for prefix, flat in (((-1,), "[-1, 0]"), (((3, -2),), "[3, -2, 0]")):
        with pytest.raises(ValueError) as err:
            stream_states(prefix, 5)
        assert str(err.value) == f"stream keys must be non-negative, got {flat}"


# stream key words: numpy hashes one of 2**32 or more as several 32-bit words
WORDS = st.one_of(st.integers(0, 2**32 - 1),
                  st.sampled_from([0, 2**32, 2**64 + 5]),
                  st.integers(2**32, 2**73))


@given(st.lists(st.one_of(WORDS, st.tuples(WORDS, WORDS)), max_size=7),
       st.sampled_from([0, 1, 2, 100, 1000]))
@settings(max_examples=150)
def test_stream_states_match_stream_rng(prefix, n):
    # pins the re-implemented hash, and the word split both share, to
    # numpy's own SeedSequence on a list of Python ints; prefixes of 0 to 7
    # words put the episode word inside the pool and past it
    prefix = tuple(prefix)
    flat = [w for k in prefix for w in (k if isinstance(k, tuple) else (k,))]
    want = [np.random.PCG64(np.random.SeedSequence([*flat, ep])).state
            for ep in range(n)]
    assert [stream_rng(*prefix, ep).bit_generator.state
            for ep in range(n)] == want
    columns = stream_states(prefix, n)
    assert columns.shape == (4, n) and columns.dtype == np.uint64
    assert [state_dict(*c) for c in columns.T.tolist()] == want


def test_stream_states_refuse_more_than_one_column_word():
    # episode 2**32 would wrap to episode 0's word, which numpy hashes as
    # two words; the refusal comes before any column is allocated
    for n in (-1, 2**32 + 1):
        with pytest.raises(ValueError, match=r"n must lie in \[0, 2\*\*32\]"):
            stream_states((1,), n)

