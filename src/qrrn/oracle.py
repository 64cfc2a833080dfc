"""Independent verification machinery.

Everything here exists to cross-check the learner and the distributional
statistics from a different direction: expected-value value iteration,
Monte-Carlo return distributions under fixed policies, empirical quantile
extraction, grid-integrated stochastic dominance, and closed-form
truncated-normal moments. None of it shares numerical code with the
learner or with ``quantdist``, so agreement between the two sides is
evidence rather than tautology.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .env import (MAX_STREAMS, EnvConfig, fixed_reward, reward_sample,
                  state_dict, stream_rng, stream_states)
from .roadnet import GraphMap, Route, transition


class NonterminatingPolicy(RuntimeError):
    """More than half of the rollouts hit the episode cap."""


class TooFewSamples(ValueError):
    pass


def expected_reward(m: GraphMap, nxt: int, prev: int, cfg: EnvConfig) -> float:
    """Mean one-step reward for arriving at nxt from prev.

    The crosswalk draw is symmetric about -r_base, so its expectation
    equals the base reward; expected-value planning cannot see crosswalks.
    """
    r = fixed_reward(m, nxt, prev, cfg)
    return -cfg.r_base if r is None else r


def value_iteration(m: GraphMap, cfg: EnvConfig, gamma: float,
                    tol: float = 1e-10, max_iters: int = 1_000_000) -> np.ndarray:
    """Q* table (n_states, action_dim) under expected rewards.

    Goal states are absorbing with value 0. Deterministic transitions make
    all expectations degenerate, so each sweep is a direct table update;
    iteration stops when the sup-norm change drops below ``tol``.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    n, a_dim = m.n_states, m.action_dim
    nxt = m.trans
    goal = np.zeros(n, dtype=bool)
    goal[sorted(m.goals)] = True
    r = np.empty((n, a_dim))
    for s in range(n):
        for a in range(a_dim):
            r[s, a] = expected_reward(m, int(nxt[s, a]), s, cfg)
    r[goal, :] = 0.0

    q = np.zeros((n, a_dim))
    for _ in range(max_iters):
        v = q.max(axis=1)
        v[goal] = 0.0
        nq = r + gamma * v[nxt]
        nq[goal, :] = 0.0
        change = float(np.abs(nq - q).max())
        q = nq
        if change < tol:
            break
    return q


def greedy_rollout(q: np.ndarray, m: GraphMap, max_steps: int | None = None) -> Route:
    """Follow argmax-Q actions from the start until a goal.

    Ties break toward the lower action index. Raises NonterminatingPolicy
    if no goal is reached within ``max_steps`` (default 4x the state count).
    """
    limit = 4 * m.n_states if max_steps is None else max_steps
    s = m.start
    nodes = [s]
    for _ in range(limit):
        if s in m.goals:
            return Route(nodes)
        s = transition(m, s, int(np.argmax(q[s])))
        nodes.append(s)
    if s in m.goals:
        return Route(nodes)
    raise NonterminatingPolicy(f"greedy rollout did not reach a goal in {limit} steps")


def mc_returns(m: GraphMap, cfg: EnvConfig, policy, start: int, gamma: float,
               episodes: int, seed=0) -> np.ndarray:
    """Sorted discounted returns of rollouts under a fixed action map.

    ``policy`` assigns one action to every state. Transitions are
    deterministic, so the route is walked once, up to ``cfg.episode_cap``
    steps, recording each step's discount and its fixed reward or a
    crosswalk draw. A walk that reaches no goal would hit the cap in every
    episode and raises NonterminatingPolicy. Episode ``ep`` draws its
    crosswalk rewards in walk order from stream (seed, ep), so at most
    2**32 episodes have a stream each. The states of all streams are
    derived as columns before the walk, also on a route that never draws,
    so a bad seed fails first, as in a per-episode loop. Only a walk with a
    crosswalk turns them into state dicts and loads them, one episode at a
    time, into one generator; a route without one costs the derivation
    alone. Returns are summed step by step in walk order as one vector
    over the episodes: the same float operations per episode as walking
    each episode on its own.
    """
    policy = np.asarray(policy, dtype=np.int64)
    if policy.shape != (m.n_states,):
        raise ValueError(f"policy must assign an action to each of "
                         f"{m.n_states} states")
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if episodes > MAX_STREAMS:
        raise ValueError(f"episodes must be <= 2**32, got {episodes}")
    states = stream_states((seed,), episodes)
    steps = []                  # (discount, arrival, departure, fixed reward)
    cur, disc = start, 1.0
    for _ in range(cfg.episode_cap):
        nxt = transition(m, cur, int(policy[cur]))
        steps.append((disc, nxt, cur, fixed_reward(m, nxt, cur, cfg)))
        disc *= gamma
        cur = nxt
        if cur in m.goals:
            break
    else:
        raise NonterminatingPolicy(f"{episodes}/{episodes} rollouts hit the "
                                   f"{cfg.episode_cap}-step cap")
    crossings = [(nxt, prev) for _, nxt, prev, r in steps if r is None]
    draws = []                  # episode-major, each episode in walk order
    if crossings:
        rng = stream_rng(0)     # a vessel: each episode loads its own state
        for column in states.T.tolist():
            rng.bit_generator.state = state_dict(*column)
            draws.extend([reward_sample(m, nxt, prev, cfg, rng)
                          for nxt, prev in crossings])
    columns = iter(np.reshape(draws, (episodes, len(crossings))).T)
    returns = np.zeros(episodes)
    for disc, nxt, prev, r in steps:
        returns += disc * (next(columns) if r is None else r)
    return np.sort(returns)


def empirical_quantiles(samples, n: int) -> np.ndarray:
    """Midpoint-method quantiles of a sample at levels (2i - 1) / (2n).

    Order statistic k is placed at probability (k - 0.5) / len(samples)
    and levels in between are linearly interpolated, so n samples at n
    atoms reproduce the order statistics exactly.
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    if n < 1:
        raise ValueError("n must be >= 1")
    if arr.ndim != 1 or arr.size < n:
        raise TooFewSamples(f"need at least {n} samples, got {arr.size}")
    levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return np.quantile(arr, levels, method="hazen")


def ssd_grid_check(a, b, grid_points: int = 10_000) -> bool:
    """Brute-force dominance test via numerically integrated CDFs.

    Both CDFs are accumulated with the same Riemann rule on a shared
    uniform grid spanning the joint atom range plus one unit of margin;
    the comparison tolerance scales with the grid span.
    """
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")
    aa = np.sort(np.asarray(a, dtype=float))
    bb = np.sort(np.asarray(b, dtype=float))
    allatoms = np.concatenate([aa, bb])
    lo = float(allatoms.min()) - 1.0
    hi = float(allatoms.max()) + 1.0
    xs = np.linspace(lo, hi, grid_points)
    dx = xs[1] - xs[0]
    f2a = np.cumsum(np.searchsorted(aa, xs, side="right") / aa.size) * dx
    f2b = np.cumsum(np.searchsorted(bb, xs, side="right") / bb.size) * dx
    tol = 1e-6 * (hi - lo)
    return bool(np.all(f2a <= f2b + tol))


# ---------------------------------------------------------------------------
# truncated normal closed forms (standard-normal algebra via NormalDist)

_PHI = NormalDist()


def truncated_normal_moments(mean: float, std: float, lo: float, hi: float):
    """Exact (mean, std) of Normal(mean, std) conditioned on [lo, hi]."""
    a = (lo - mean) / std
    b = (hi - mean) / std
    z = _PHI.cdf(b) - _PHI.cdf(a)
    pa, pb = _PHI.pdf(a), _PHI.pdf(b)
    m = mean + std * (pa - pb) / z
    var = std * std * (1.0 + (a * pa - b * pb) / z - ((pa - pb) / z) ** 2)
    return m, math.sqrt(var)


def truncated_normal_quantile(p: float, mean: float, std: float,
                              lo: float, hi: float) -> float:
    """Inverse CDF of the truncated normal at probability p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    a = (lo - mean) / std
    b = (hi - mean) / std
    ca, cb = _PHI.cdf(a), _PHI.cdf(b)
    return mean + std * _PHI.inv_cdf(ca + p * (cb - ca))


def truncated_normal_samples(n: int, mean: float, std: float, lo: float,
                             hi: float, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling; independent of the simulator's rejection path."""
    a = (lo - mean) / std
    b = (hi - mean) / std
    ca, cb = _PHI.cdf(a), _PHI.cdf(b)
    u = ca + rng.random(n) * (cb - ca)
    return mean + std * np.array([_PHI.inv_cdf(x) for x in u])
