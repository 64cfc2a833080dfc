"""MDP over a road network: episode lifecycle, observations, reward model.

Transitions are fully deterministic (see ``roadnet.transition``); the only
stochastic element is the crosswalk travel-time reward, drawn from a
truncated Gaussian. Rewards encode travel-time cost:

* arriving at a goal pays 0 (routes end there),
* a loopback (staying put) pays -(r_base + r_loopback),
* arriving at a crosswalk pays a truncated-normal draw with mean -r_base,
  standard deviation ``crosswalk_std``, support [-2 r_base, 0],
* anything else pays -r_base.

Precedence for overlapping cases is goal > loopback > crosswalk > base,
so terminal arrivals always pay 0.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import Config
from .roadnet import GraphMap, InvalidState, transition


class EpisodeFinished(RuntimeError):
    """step() was called on a finished episode."""


class InternalError(RuntimeError):
    """Rejection sampling failed to accept within the retry cap."""


_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash (pool size 4) and PCG64's seeding multiplier
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MAX_STREAMS = 2**32     # episode words per prefix: one uint32 column


def _key_words(keys) -> np.ndarray:
    """A stream key as the uint32 words SeedSequence hashes.

    Tuples are flattened, and each integer is split into 32-bit words, low
    word first, as numpy splits one; 0 is one word.
    """
    flat: list[int] = []
    for k in keys:
        if isinstance(k, (tuple, list)):
            flat.extend(int(x) for x in k)
        else:
            flat.append(int(k))
    if any(x < 0 for x in flat):
        raise ValueError(f"stream keys must be non-negative, got {flat}")
    words = []
    for x in flat:
        words.append(x & _MASK32)
        while x > _MASK32:
            x >>= 32
            words.append(x & _MASK32)
    return np.array(words, dtype=np.uint32)


def stream_rng(*keys) -> np.random.Generator:
    """Deterministic PCG64 generator for a hierarchical stream key.

    Keys are non-negative integers (tuples are flattened), hashed through
    numpy's SeedSequence so distinct keys give independent streams. Used to
    derive per-episode, per-trial and per-evaluation streams that never
    collide across parallel runs.
    """
    seq = np.random.SeedSequence(_key_words(keys))
    return np.random.Generator(np.random.PCG64(seq))


# The hash below runs on Python ints and uint32 arrays alike. Every Python
# int that meets an array lies in [0, 2**32), so the array stays uint32
# under legacy and NEP 50 promotion both, and wraps as numpy's C code does.

def _mul32(x, c: int):
    """x * c mod 2**32 for a Python int or a uint32 array x."""
    if isinstance(x, np.ndarray):
        return x * np.uint32(c)
    return (x * c) & _MASK32


@functools.lru_cache(maxsize=64)
def _hash_consts(const: int, mult: int, calls: int) -> np.ndarray:
    """The hash constants c_0 = const, ..., c_calls as a read-only uint32
    column: call j xors in c_j and multiplies by c_(j+1) = c_j * mult, so
    the constants follow from the call count alone."""
    c = [const]
    for _ in range(calls):
        c.append(c[-1] * mult & _MASK32)
    col = np.array(c, dtype=np.uint32)[:, None]
    col.flags.writeable = False
    return col


def _hashes(init: int, mult: int):
    """SeedSequence's running hash: each call xors in the constant, steps
    it and multiplies by the new one. Returns ``hashmix(x, rows=0)``: one
    call on x, or with ``rows=m`` the next m calls, call j on row j of x
    (an (m, n) array, or one row that broadcasts), as one pass per
    operation."""
    const = init

    def hashmix(x, rows: int = 0):
        nonlocal const
        if rows:
            c = _hash_consts(const, mult, rows)
            const = int(c[-1, 0])
            x = (x ^ c[:-1]) * c[1:]
        else:
            x = x ^ const
            const = (const * mult) & _MASK32
            x = _mul32(x, const)
        return x ^ (x >> _XSHIFT)
    return hashmix


def _mix(x, y):
    r = (_mul32(x, _MIX_MULT_L) - _mul32(y, _MIX_MULT_R)) & _MASK32
    return r ^ (r >> _XSHIFT)


_U32 = np.uint64(_MASK32)
_S32 = np.uint64(32)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of a * b, for a uint64 column a and b < 2**64,
    summed from 32-bit partial products."""
    a0, a1 = a & _U32, a >> _S32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _S32) + (p01 & _U32) + (p10 & _U32)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _add128(hi, lo, hi2, lo2):
    """(hi, lo) + (hi2, lo2) mod 2**128 on uint64 halves."""
    lo = lo + lo2
    return hi + hi2 + (lo < lo2), lo


def stream_states(prefix, n: int) -> np.ndarray:
    """The PCG64 states of ``stream_rng(*prefix, ep)`` for ep in range(n),
    as uint64 columns (state hi, state lo, inc hi, inc lo): shape (4, n).

    SeedSequence is re-implemented over the episode column: the prefix
    words are the same in every key and are hashed once as Python ints.
    The episode word is one uint32 column. Inside the pool (a key of four
    words or fewer) it meets the pool's cross-mix column by column; past
    it, it mixes into all four pool words as one (4, n) pass. Then
    ``generate_state(4, uint64)`` as one (8, n) pass, and PCG64's seeding
    step on uint64 halves. ``state_dict`` turns a column into
    ``bit_generator.state``; the states match ``stream_rng`` bit for bit.
    A bad prefix fails with the message of ``stream_rng(*prefix, 0)``.
    """
    if not 0 <= n <= MAX_STREAMS:
        raise ValueError(f"n must lie in [0, 2**32], got {n}")
    prefix_words = _key_words((*prefix, 0)).tolist()[:-1]
    episode = np.arange(n, dtype=np.uint32)
    words = [*prefix_words, episode]
    # SeedSequence.mix_entropy: hash the first words into the pool (zeros
    # past the key's end), mix every pool word into every other, then mix
    # each remaining word into the whole pool
    hashmix = _hashes(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:-1]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    if len(words) > _POOL:      # the episode word, past the pool
        pool = _mix(np.array(pool, dtype=np.uint32)[:, None],
                    hashmix(episode, rows=_POOL))
    # generate_state(4, uint64): every pool word has met the column by now;
    # output word i hashes pool word i % 4, and words pair little-endian
    out = _hashes(_INIT_B, _MULT_B)(np.vstack([pool, pool]), rows=2 * _POOL)
    out = out.astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = out[0::2] | (out[1::2] << _S32)
    # PCG64's seeding: inc = initseq << 1 | 1, then state 0, one step, add
    # the seed, one step: state = (inc + seed) * mult + inc, mod 2**128
    one = np.uint64(1)
    i_hi, i_lo = (i_hi << one) | (i_lo >> np.uint64(63)), (i_lo << one) | one
    hi, lo = _add128(s_hi, s_lo, i_hi, i_lo)
    m_hi, m_lo = _PCG_MULT >> 64, _PCG_MULT & (2**64 - 1)
    hi = _mulhi64(lo, m_lo) + hi * np.uint64(m_lo) + lo * np.uint64(m_hi)
    hi, lo = _add128(hi, lo * np.uint64(m_lo), i_hi, i_lo)
    return np.stack([hi, lo, i_hi, i_lo])


def state_dict(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> dict:
    """``bit_generator.state`` of the PCG64 stream whose (state hi, state
    lo, inc hi, inc lo) words are a column of ``stream_states``."""
    return {"bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0, "uinteger": 0}


@dataclass
class EnvConfig(Config):
    r_base: float = 1.0
    r_loopback: float = 0.0
    crosswalk_std: float = 1.0
    episode_cap: int = 1000
    obs_encoding: str = "one-hot"

    def __post_init__(self):
        if not 0 < self.r_base < math.inf:
            raise ValueError(f"r_base must be finite and > 0, got {self.r_base}")
        if not 0 <= self.r_loopback < math.inf:
            raise ValueError(f"r_loopback must be finite and >= 0, "
                             f"got {self.r_loopback}")
        if not 0 < self.crosswalk_std < math.inf:
            raise ValueError(f"crosswalk_std must be finite and > 0, "
                             f"got {self.crosswalk_std}")
        if self.episode_cap < 1:
            raise ValueError(f"episode_cap must be >= 1, got {self.episode_cap}")
        if self.obs_encoding not in ("one-hot", "index"):
            raise ValueError(f"unknown obs_encoding {self.obs_encoding!r}")


def trunc_normal(mean: float, std: float, lo: float, hi: float,
                 rng: np.random.Generator, max_tries: int = 1_000_000) -> float:
    """Sample Normal(mean, std) conditioned on [lo, hi] by rejection."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not std > 0:
        raise ValueError(f"std must be > 0, got {std}")
    for _ in range(max_tries):
        x = rng.normal(mean, std)
        if lo <= x <= hi:
            return float(x)
    raise InternalError(f"no acceptance in {max_tries} draws for [{lo}, {hi}]")


def fixed_reward(m: GraphMap, nxt: int, prev: int,
                 cfg: EnvConfig) -> float | None:
    """Reward for arriving at ``nxt`` coming from ``prev``, or None where
    it is a crosswalk draw; the one place the precedence is decided."""
    if nxt in m.goals:
        return 0.0
    if nxt == prev:
        return -(cfg.r_base + cfg.r_loopback)
    if nxt in m.crosswalks:
        return None
    return -cfg.r_base


def reward_sample(m: GraphMap, nxt: int, prev: int, cfg: EnvConfig,
                  rng: np.random.Generator) -> float:
    """Reward for arriving at ``nxt`` coming from ``prev``."""
    r = fixed_reward(m, nxt, prev, cfg)
    if r is None:
        return trunc_normal(-cfg.r_base, cfg.crosswalk_std,
                            -2.0 * cfg.r_base, 0.0, rng)
    return r


class RoadEnv:
    """Single-owner mutable episode state over an immutable GraphMap.

    The reward stream of episode ``e`` is derived from the stream key
    (seed, e), so replaying a seed reproduces every trace bit-exactly and
    parallel trials never share randomness.
    """

    def __init__(self, graph: GraphMap, cfg: EnvConfig, seed=0):
        self.graph = graph
        self.cfg = cfg
        self._seed = seed
        self.episode = -1
        self.current = graph.start
        self.prev = graph.start
        self.steps = 0
        self.done = True   # must reset() before stepping
        self.rng = None

    def observe(self, s: int | None = None) -> np.ndarray:
        """Deterministic encoding of a state; identical on every visit."""
        s = self.current if s is None else s
        if self.cfg.obs_encoding == "index":
            return np.array([float(s)])
        vec = np.zeros(self.graph.n_states)
        vec[s] = 1.0
        return vec

    def reset(self, seed=None, episode: int | None = None) -> None:
        if seed is not None:
            self._seed = seed
            self.episode = -1
        self.episode = self.episode + 1 if episode is None else episode
        self.rng = stream_rng(self._seed, self.episode)
        self.current = self.graph.start
        self.prev = self.graph.start
        self.steps = 0
        self.done = False

    def step(self, action: int):
        """Advance one step; returns (reward, done). ``observe`` encodes the
        new state on demand."""
        if self.done:
            raise EpisodeFinished("episode is over; call reset()")
        nxt = transition(self.graph, self.current, action)
        reward = reward_sample(self.graph, nxt, self.current, self.cfg, self.rng)
        self.prev = self.current
        self.current = nxt
        self.steps += 1
        self.done = (nxt in self.graph.goals) or (self.steps >= self.cfg.episode_cap)
        return reward, self.done

    def at_goal(self) -> bool:
        return self.current in self.graph.goals

    # snapshot hooks used by training checkpoints
    def get_state(self) -> dict:
        return {
            "current": self.current,
            "prev": self.prev,
            "steps": self.steps,
            "episode": self.episode,
            "done": self.done,
            "rng": None if self.rng is None else self.rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        self.current = int(state["current"])
        self.prev = int(state["prev"])
        for s in (self.current, self.prev):
            if not 0 <= s < self.graph.n_states:
                raise InvalidState(f"state {s} outside 0..{self.graph.n_states - 1}")
        self.steps = int(state["steps"])
        self.episode = int(state["episode"])
        self.done = bool(state["done"])
        if state["rng"] is None:
            self.rng = None
        else:
            self.rng = stream_rng(0)
            self.rng.bit_generator.state = state["rng"]

