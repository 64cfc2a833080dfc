"""Quantile-regression TD learning with replay and epsilon-greedy behavior.

The agent maintains N quantile atoms per (state, action), either as a
dense table or as a small dense network over one-hot state encodings, plus
a target copy used for bootstrap targets. Updates minimize the quantile
Huber regression loss over TD residuals

    delta[i, j] = r + gamma * theta_target_j(s', a*) - theta_i(s, a)

where a* maximizes the target-side mean at s' and the bootstrap term is
dropped on terminal transitions. "Terminal" means the transition entered a
goal state; hitting the episode step cap truncates an episode without
marking the transition terminal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
# huber_terms is not called here; it stays importable under this name
# because benchmarks/spans.py wraps it here to count its calls
from .quantdist import huber_terms, midpoints  # noqa: F401


class EmptyBuffer(ValueError):
    pass


class EmptyBatch(ValueError):
    pass


@dataclass(frozen=True)
class Transition:
    s: int
    a: int
    r: float
    s_next: int
    done: bool


@dataclass
class Batch:
    """Column-wise minibatch of transitions."""

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    done: np.ndarray

    def __len__(self) -> int:
        return len(self.s)

    @classmethod
    def from_transitions(cls, transitions) -> "Batch":
        ts = list(transitions)
        return cls(
            s=np.array([t.s for t in ts], dtype=np.int64),
            a=np.array([t.a for t in ts], dtype=np.int64),
            r=np.array([t.r for t in ts], dtype=float),
            s_next=np.array([t.s_next for t in ts], dtype=np.int64),
            done=np.array([t.done for t in ts], dtype=bool),
        )


class ReplayBuffer:
    """Fixed-capacity ring of transitions with FIFO overwrite."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.s = np.zeros(capacity, dtype=np.int64)
        self.a = np.zeros(capacity, dtype=np.int64)
        self.r = np.zeros(capacity, dtype=float)
        self.s_next = np.zeros(capacity, dtype=np.int64)
        self.done = np.zeros(capacity, dtype=bool)
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def push(self, s: int, a: int, r: float, s_next: int, done: bool) -> None:
        i = self.cursor
        self.s[i] = s
        self.a[i] = a
        self.r[i] = r
        self.s_next[i] = s_next
        self.done[i] = done
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, k: int, rng: np.random.Generator) -> Batch:
        """k transitions drawn uniformly with replacement."""
        if self.size == 0:
            raise EmptyBuffer("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=k)
        return Batch(self.s[idx], self.a[idx], self.r[idx],
                     self.s_next[idx], self.done[idx])

    def contents(self):
        """Transitions currently held, oldest first."""
        order = (np.arange(self.size) + (self.cursor - self.size)) % self.capacity \
            if self.size == self.capacity else np.arange(self.size)
        return [Transition(int(self.s[i]), int(self.a[i]), float(self.r[i]),
                           int(self.s_next[i]), bool(self.done[i])) for i in order]


def buffer_push(buf: ReplayBuffer, t: Transition) -> None:
    buf.push(t.s, t.a, t.r, t.s_next, t.done)


def buffer_sample(buf: ReplayBuffer, k: int, rng: np.random.Generator) -> Batch:
    return buf.sample(k, rng)


@dataclass
class AgentConfig:
    n_quantiles: int = 4
    gamma: float = 0.99
    lr: float = 5e-4
    buffer_size: int = 2048
    batch_size: int = 64
    gradient_steps: int = 1
    exploration_fraction: float = 0.02
    exploration_final_eps: float = 0.1
    target_sync_interval: int | None = None   # backend default: tabular 1, network 1000
    backend: str = "tabular"
    kappa: float = 1.0
    hidden: tuple = (64, 64)
    optimizer: str = "adam"                   # "adam" | "sgd" (plain gradient step)

    def __post_init__(self):
        if self.n_quantiles < 1:
            raise ValueError("n_quantiles must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.buffer_size < 1 or self.batch_size < 1 or self.gradient_steps < 1:
            raise ValueError("buffer_size, batch_size, gradient_steps must be >= 1")
        if not 0.0 < self.exploration_fraction <= 1.0:
            raise ValueError("exploration_fraction must lie in (0, 1]")
        if not 0.0 <= self.exploration_final_eps <= 1.0:
            raise ValueError("exploration_final_eps must lie in [0, 1]")
        if self.target_sync_interval is not None and self.target_sync_interval < 1:
            raise ValueError("target_sync_interval must be >= 1")
        if self.backend not in ("tabular", "network"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not self.kappa > 0:
            raise ValueError("kappa must be > 0")
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    @property
    def sync_interval(self) -> int:
        if self.target_sync_interval is not None:
            return self.target_sync_interval
        return 1 if self.backend == "tabular" else 1000

    def to_dict(self) -> dict:
        return {
            "n_quantiles": self.n_quantiles,
            "gamma": self.gamma,
            "lr": self.lr,
            "buffer_size": self.buffer_size,
            "batch_size": self.batch_size,
            "gradient_steps": self.gradient_steps,
            "exploration_fraction": self.exploration_fraction,
            "exploration_final_eps": self.exploration_final_eps,
            "target_sync_interval": self.target_sync_interval,
            "backend": self.backend,
            "kappa": self.kappa,
            "hidden": list(self.hidden),
            "optimizer": self.optimizer,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AgentConfig":
        unknown = set(doc) - set(cls().to_dict())
        if unknown:
            raise ValueError(f"unknown agent config keys {sorted(unknown)}")
        return cls(**doc)


def epsilon(step: int, total_steps: int, cfg: AgentConfig) -> float:
    """Exploration rate: linear from 1 to the final value over the initial
    ``exploration_fraction`` share of training, constant afterwards."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside 0..{total_steps}")
    window = cfg.exploration_fraction * total_steps
    if step >= window:
        return cfg.exploration_final_eps
    return 1.0 + (cfg.exploration_final_eps - 1.0) * (step / window)


class Agent:
    """QR learner state: online atoms, target copy, replay buffer."""

    def __init__(self, cfg: AgentConfig, n_states: int, n_actions: int, seed=0):
        if n_states < 1 or n_actions < 1:
            raise ValueError("need at least one state and one action")
        self.cfg = cfg
        self.n_states = n_states
        self.n_actions = n_actions
        self.n = cfg.n_quantiles
        self.taus = midpoints(self.n)
        self._kernel_consts: dict = {}
        self.buffer = ReplayBuffer(cfg.buffer_size)
        self.steps_done = 0
        if cfg.backend == "tabular":
            self.theta = np.zeros((n_states, n_actions, self.n))
            self.theta_target = self.theta.copy()
            self.opt_m = np.zeros_like(self.theta)
            self.opt_v = np.zeros_like(self.theta)
            self.opt_t = 0
            self.net = None
            self.net_target = None
            self.adam = None
        else:
            dims = [n_states, *cfg.hidden, n_actions * self.n]
            self.theta = None
            self.theta_target = None
            self.net = nn.init(dims, seed)
            self.net_target = nn.clone(self.net)
            self.adam = nn.AdamState.for_net(self.net)

    # ----- distribution access ------------------------------------------

    def action_dists(self, s: int, target: bool = False) -> np.ndarray:
        """Per-action atoms at state s, shape (n_actions, n_quantiles)."""
        if self.cfg.backend == "tabular":
            table = self.theta_target if target else self.theta
            return table[s]
        net = self.net_target if target else self.net
        return nn.forward(net, s, onehot=True).reshape(self.n_actions, self.n)

    def greedy_action(self, s: int) -> int:
        # inline argmax-of-means (policies.greedy_action semantics, hot path)
        return int(self.action_dists(s).mean(axis=1).argmax())

    def behavior_action(self, s: int, step: int, total_steps: int,
                        rng: np.random.Generator) -> int:
        """Epsilon-greedy over the online distribution means."""
        eps = epsilon(step, total_steps, self.cfg)
        if rng.random() < eps:
            return int(rng.integers(self.n_actions))
        return self.greedy_action(s)

    # ----- updates --------------------------------------------------------

    def _residuals(self, batch: Batch):
        """TD residuals laid out atoms first, u[i, j, b], and the online
        network's forward trace (None for the table).

        u[i, j, b] = r_b + gamma * theta_target_j(s'_b, a*_b)
        - theta_i(s_b, a_b), with the bootstrap term dropped on terminal
        transitions.
        """
        b = len(batch)
        if b == 0:
            raise EmptyBatch("batch is empty")
        rows = self._consts(b)[0]
        if self.cfg.backend == "tabular":
            th = self.theta[batch.s, batch.a]
            # bootstrap atoms of every state; s' picks the rows
            boot, nxt = self.theta_target, batch.s_next
            trace = None
        else:
            y, trace = nn.forward_trace(self.net, batch.s, onehot=True)
            th = y.reshape(b, self.n_actions, self.n)[rows, batch.a]
            boot = nn.forward(self.net_target, batch.s_next, onehot=True
                              ).reshape(b, self.n_actions, self.n)
            nxt = rows
        # mean over the contiguous atom axis, as ndarray.mean sums it
        a_star = (np.add.reduce(boot, axis=-1) / self.n).argmax(axis=1)
        target = boot[nxt, a_star[nxt]].T * np.where(batch.done, 0.0,
                                                     self.cfg.gamma)
        target += batch.r
        return target[None, :, :] - th.T[:, None, :], trace

    def td_deltas(self, batch: Batch) -> np.ndarray:
        """Residual tensor delta[b, i, j] for a minibatch, a transposed
        view of the residuals ``qr_update`` works on.

        The bootstrap action a* is the target-side greedy action at s';
        terminal transitions use the bare reward as the target.
        """
        return self._residuals(batch)[0].transpose(2, 0, 1)

    def qr_update(self, batch: Batch) -> float:
        """One optimizer step on the quantile regression loss; returns it.

        The loss per transition is sum_i E_j[rho_taui(delta_ij)], averaged
        over the batch. It is computed from the gradient's intermediates
        rather than from ``quantile_huber``, so it agrees with that
        definition to rounding (1e-12 relative), not bit for bit; the
        parameter update itself is bit-identical to taking
        ``quantile_huber_grad``, its mean over j and the optimizer step in
        that order. The tabular gradient is accumulated per sampled
        transition (a pair occurring twice in the batch contributes twice)
        and fed to the configured optimizer; "sgd" is the plain step
        theta <- theta - lr * grad, "adam" (the default) normalizes
        per-atom step sizes, which keeps rarely visited actions converging
        at the same pace as frequently visited ones. The network backend
        takes one batch-mean gradient. Target parameters are untouched.
        """
        b = len(batch)
        u, trace = self._residuals(batch)
        rows, atoms, weights = self._consts(b)
        g, loss = _quantile_step(u, weights, self.cfg.kappa)
        if self.cfg.backend == "tabular":
            cells = (batch.s * self.n_actions + batch.a) * self.n
            # bincount adds each cell's terms in batch order, as np.add.at
            grad = np.bincount((cells + atoms).ravel(), g.ravel(),
                               self.theta.size).reshape(self.theta.shape)
            if self.cfg.optimizer == "sgd":
                self.theta -= self.cfg.lr * grad
            else:
                self.opt_t += 1
                nn.adam_update(self.theta, grad, self.opt_m, self.opt_v,
                               self.opt_t, self.cfg.lr)
        else:
            grad_out = np.zeros((b, self.n_actions * self.n))
            cols = batch.a[:, None] * self.n + atoms.T
            grad_out[rows[:, None], cols] = g.T / b
            grads = nn.backward(self.net, batch.s, grad_out, onehot=True,
                                trace=trace)
            if self.cfg.optimizer == "adam":
                nn.adam_step(self.net, grads, self.adam, self.cfg.lr)
            else:
                nn.sgd_step(self.net, grads, self.cfg.lr)
        return loss

    def _consts(self, b: int):
        """Batch row indices, atom indices as a column, and the kernel's
        (n, n, b) weights 1 - tau_i and tau_i for batch size b, built on
        first use."""
        if b not in self._kernel_consts:
            col = self.taus.reshape(-1, 1, 1)
            shape = (self.n, self.n, b)
            weights = (np.broadcast_to(1.0 - col, shape).copy(),
                       np.broadcast_to(col, shape).copy())
            self._kernel_consts[b] = (np.arange(b), np.arange(self.n)[:, None],
                                      weights)
        return self._kernel_consts[b]

    def sync_target(self) -> None:
        if self.cfg.backend == "tabular":
            np.copyto(self.theta_target, self.theta)
        else:
            self.net_target = nn.clone(self.net)


def _quantile_step(u: np.ndarray, weights, kappa: float):
    """Loss gradient per online atom, g[i, b], and the loss.

    ``u`` holds residuals u[i, j, b] and ``weights`` the arrays 1 - tau_i
    and tau_i at u's shape. Each term |tau_i - [u < 0]| * psi(u), with
    psi(u) = clip(u / kappa, -1, 1), is the same product that
    ``quantile_huber_grad`` forms, and g = -mean_j of the terms is summed
    in ndarray.mean's order and negated last, so every bit of g agrees with
    the unfused definition, signed zeros included.
    """
    n = u.shape[0]
    psi = u / kappa
    np.maximum(psi, -1.0, out=psi)
    np.minimum(psi, 1.0, out=psi)
    terms = np.where(u < 0.0, *weights)
    terms *= psi
    if n < 8:
        # for fewer than eight terms numpy's pairwise sum adds in order
        g = np.add.reduce(terms, axis=1)
    else:
        g = np.add.reduce(terms.transpose(0, 2, 1).copy(), axis=-1)
    g /= -n                     # -(sum / n), bit for bit
    # rho = w |psi| (|u| - kappa |psi| / 2) = terms * (u - kappa psi / 2)
    psi *= 0.5 * kappa
    np.subtract(u, psi, out=psi)
    loss = float(np.dot(terms.ravel(), psi.ravel())) / (n * u.shape[2])
    return g, loss


# functional aliases over the agent methods --------------------------------

def behavior_action(agent: Agent, s: int, step: int, total_steps: int,
                    rng: np.random.Generator) -> int:
    return agent.behavior_action(s, step, total_steps, rng)


def td_deltas(batch: Batch, agent: Agent) -> np.ndarray:
    return agent.td_deltas(batch)


def qr_update(agent: Agent, batch: Batch) -> float:
    return agent.qr_update(batch)


def sync_target(agent: Agent) -> None:
    agent.sync_target()
