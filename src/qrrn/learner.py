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

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import Config
from .policies import greedy
# huber_terms is not called here; it stays importable under this name
# because benchmarks/spans.py wraps it here to count its calls
from .quantdist import huber_terms, midpoints  # noqa: F401


class EmptyBuffer(ValueError):
    pass


class EmptyBatch(ValueError):
    pass


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


@dataclass
class AgentConfig(Config):
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
    hidden: tuple[int, ...] = (64, 64)
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
        if self.batch_size > self.buffer_size:
            # updates start once the buffer holds a batch: never, here
            raise ValueError(f"batch_size {self.batch_size} exceeds "
                             f"buffer_size {self.buffer_size}")
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
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    @property
    def sync_interval(self) -> int:
        if self.target_sync_interval is not None:
            return self.target_sync_interval
        return 1 if self.backend == "tabular" else 1000


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


# A head holds the online and target atoms behind one interface: ``params``
# and ``target`` (one flat vector each, updated in place), ``shapes`` (the
# slots the vectors are cut into, see ``nn.split``), ``names`` (checkpoint
# names of the slots of the online, target, Adam m and Adam v vectors),
# ``layout`` (names and shapes from the sizes alone, before anything is
# allocated), ``dists``, ``online`` (atoms of the taken actions and a trace
# for ``grads``), ``bootstrap`` (target atoms of the target-greedy action),
# ``grads`` (a flat vector like ``params``), ``greedy`` (the online greedy
# action at one state), ``sync`` (target <- online) and ``version`` (a count
# of changes to ``params``, which ``Agent.qr_update`` moves).

class TableHead:
    """Atoms as a dense (state, action, atom) table and its target copy.
    A table has no layers and no drawn init, so ``hidden`` and ``seed`` go
    unused.

    Every state's greedy action is one pass over a whole table, kept with
    the ``version`` of the params it came from. ``sync`` records that the
    target holds the current version; a new head, and so a loaded agent,
    starts with it unknown, as a checkpoint's target may differ from its
    params. ``bootstrap`` reads the table of the target's version, filling
    it if missing. ``greedy`` fills it only when the target holds the
    current version, so the next bootstrap reuses it; otherwise it takes
    the one state's pick. That is one pass per sync window, not one per
    update and step. The table is derived state; a checkpoint omits it.
    """

    names = (["theta"], ["theta_target"], ["opt_m"], ["opt_v"])

    @staticmethod
    def layout(n_states: int, n_actions: int, n: int, hidden):
        return TableHead.names, [(n_states, n_actions, n)]

    def __init__(self, n_states: int, n_actions: int, n: int, hidden, seed):
        _, self.shapes = self.layout(n_states, n_actions, n, hidden)
        shape = self.shapes[0]
        size = math.prod(shape)
        self.params, self.target = np.zeros(size), np.zeros(size)
        self.theta = self.params.reshape(shape)
        self.theta_target = self.target.reshape(shape)
        self._rows = self.params.reshape(-1, n)     # one row per (s, a) cell
        self._atoms = np.arange(n)[:, None]
        self.version = 0
        self._target_version = None                 # unknown until a sync
        self._greedy, self._greedy_version = None, None

    def dists(self, states, target: bool = False) -> np.ndarray:
        return (self.theta_target if target else self.theta)[states]

    def online(self, states, actions):
        # the flat (s, a) cell index is the trace ``grads`` scatters with
        cells = states * self.theta.shape[1] + actions
        return self._rows.take(cells, axis=0), cells

    def _greedy_table(self, version, table) -> np.ndarray:
        if self._greedy_version != version:
            self._greedy, self._greedy_version = greedy(table), version
        return self._greedy

    def greedy(self, s: int):
        if self._target_version == self.version:
            return self._greedy_table(self.version, self.theta)[s]
        return greedy(self.theta[s])

    def bootstrap(self, next_states) -> np.ndarray:
        tt, v = self.theta_target, self._target_version
        a_star = greedy(tt) if v is None else self._greedy_table(v, tt)
        return tt[next_states, a_star[next_states]]

    def grads(self, states, actions, g, trace) -> np.ndarray:
        # bincount adds each cell's terms in batch order, as np.add.at
        idx = trace * self.theta.shape[2] + self._atoms
        return np.bincount(idx.ravel(), g.ravel(), self.params.size)

    def sync(self) -> None:
        np.copyto(self.target, self.params)
        self._target_version = self.version


class NetHead:
    """Atoms as the output of a dense network over one-hot states, and a
    target copy of the network. With ``seed=None`` both nets start from
    zeros and nothing is drawn.

    Between syncs a state's bootstrap atoms cannot change, so ``bootstrap``
    keeps them in a table per batch size b: a ``known`` mask over states
    and each state's target-greedy atom row. A minibatch whose states are
    all known is served from the table; one that holds a new state runs the
    target forward over itself, as without a table, and stores every row.
    A stored row has the bits a later minibatch's forward would give it
    because a state's row in a b-row forward has the same bits whatever the
    other rows hold (``tests/test_nn.py`` pins this for the linked BLAS);
    across row counts the bits can differ. ``sync`` empties the table. The
    table pays where states repeat within a sync window, as on small maps;
    where they do not, an update does the forward it did without one, plus
    the mask check and the stores. It is derived state:
    a checkpoint does not hold it, and a loaded agent starts without it.
    """

    @staticmethod
    def layout(n_states: int, n_actions: int, n: int, hidden):
        shapes = nn.layer_shapes([n_states, *hidden, n_actions * n])
        online = [f"{p}{i}" for i in range(len(shapes) // 2) for p in "wb"]
        slots = range(len(shapes))
        names = (online, ["t" + k for k in online], [f"am{i}" for i in slots],
                 [f"av{i}" for i in slots])
        return names, shapes

    def __init__(self, n_states: int, n_actions: int, n: int, hidden, seed):
        self.names, self.shapes = self.layout(n_states, n_actions, n, hidden)
        self.net = nn.init([n_states, *hidden, n_actions * n], seed)
        self.net_target = nn.clone(self.net)
        self.params, self.target = self.net.flat, self.net_target.flat
        self.shape = (n_actions, n)
        self._grad = np.empty_like(self.params)
        self._grad_slots = nn.split(self._grad, self.shapes)
        self._boot: dict = {}       # b -> (known, atom rows)
        self.version = 0

    def dists(self, states, target: bool = False) -> np.ndarray:
        y = nn.forward(self.net_target if target else self.net, states,
                       onehot=True)
        return y.reshape(y.shape[:-1] + self.shape)

    def online(self, states, actions):
        y, trace = nn.forward_trace(self.net, states, onehot=True)
        return y.reshape(-1, *self.shape)[np.arange(len(y)), actions], trace

    def greedy(self, s: int):
        return greedy(self.dists(s))

    def bootstrap(self, next_states) -> np.ndarray:
        b = len(next_states)
        if b not in self._boot:
            n_states = self.net.input_dim
            self._boot[b] = (np.zeros(n_states, dtype=bool),
                             np.empty((n_states, self.shape[1])))
        known, rows = self._boot[b]
        if known[next_states].all():
            return rows.take(next_states, axis=0)
        boot = self.dists(next_states, target=True)
        out = boot[np.arange(b), greedy(boot)]
        rows[next_states], known[next_states] = out, True
        return out

    def grads(self, states, actions, g, trace) -> np.ndarray:
        b = len(states)
        grad_out = np.zeros((b, self.net.output_dim))
        grad_out.reshape(b, *self.shape)[np.arange(b), actions] = g.T / b
        nn.backward(self.net, states, grad_out, onehot=True, trace=trace,
                    out=self._grad_slots)
        return self._grad

    def sync(self) -> None:
        np.copyto(self.target, self.params)
        self._boot.clear()


_HEADS = {"tabular": TableHead, "network": NetHead}


class Agent:
    """QR learner state: a head of online and target atoms, its optimizer
    state and the replay buffer. ``seed`` seeds a network's init; None
    starts it from zeros, like a table, and draws nothing."""

    def __init__(self, cfg: AgentConfig, n_states: int, n_actions: int, seed=0):
        if n_states < 1 or n_actions < 1:
            raise ValueError("need at least one state and one action")
        self.cfg = cfg
        self.n_states = n_states
        self.n_actions = n_actions
        self.n = cfg.n_quantiles
        self.taus = midpoints(self.n)
        self._kernel: dict = {}     # b -> weights and scratch
        self.buffer = ReplayBuffer(cfg.buffer_size)
        self.steps_done = 0
        self._online: dict = {}     # state -> read-only online atom row
        self.head = _HEADS[cfg.backend](n_states, n_actions, self.n,
                                        cfg.hidden, seed)
        self.adam = nn.AdamState.for_params(self.head.params)

    @staticmethod
    def layout(cfg: AgentConfig, n_states: int, n_actions: int):
        """(names, shapes) of the head such an agent holds, as the head's
        ``names`` and ``shapes``, found without allocating anything."""
        return _HEADS[cfg.backend].layout(n_states, n_actions, cfg.n_quantiles,
                                          cfg.hidden)

    # ----- distribution access ------------------------------------------

    def action_dists(self, s: int, target: bool = False) -> np.ndarray:
        """Per-action atoms at state s, shape (n_actions, n_quantiles).

        Online atoms are read-only rows of a table: the first call at a
        state stores the one-row ``head.dists`` output that later calls
        would repeat, and ``qr_update`` empties the table before it changes
        the params. This rests on the online params changing only there, or
        in ``Checkpoint.build_agent`` before the agent is returned. Target
        atoms are never stored, and ``head.dists`` keeps nothing: the
        behaviour policy calls it between updates.
        """
        if target:
            return self.head.dists(s, target)
        d = self._online.get(s)
        if d is None:
            d = self._online[s] = self.head.dists(s)
            d.flags.writeable = False
        return d

    def greedy_action(self, s: int) -> int:
        return int(self.head.greedy(s))

    def behavior_action(self, s: int, step: int, total_steps: int,
                        rng: np.random.Generator) -> int:
        """Epsilon-greedy over the online distribution means."""
        eps = epsilon(step, total_steps, self.cfg)
        if rng.random() < eps:
            return int(rng.integers(self.n_actions))
        return self.greedy_action(s)

    # ----- updates --------------------------------------------------------

    def _residuals(self, batch: Batch):
        """TD residuals laid out atoms first, u[i, j, b], in a C-ordered
        array, and the head's trace of the online atoms for ``grads``.

        u[i, j, b] = r_b + gamma * theta_target_j(s'_b, a*_b)
        - theta_i(s_b, a_b), with the bootstrap term dropped on terminal
        transitions.
        """
        if len(batch) == 0:
            raise EmptyBatch("batch is empty")
        th, trace = self.head.online(batch.s, batch.a)
        # written in C order: a ufunc over the transposed views' layout
        # walks memory out of order, about 2x slower in the kernel
        b, n = th.shape
        target = np.multiply(self.head.bootstrap(batch.s_next).T,
                             np.where(batch.done, 0.0, self.cfg.gamma),
                             out=np.empty((n, b)))
        target += batch.r
        u = np.subtract(target[None, :, :], th.T[:, None, :],
                        out=np.empty((n, n, b)))
        return u, trace

    def td_deltas(self, batch: Batch) -> np.ndarray:
        """Residual tensor delta[b, i, j] for a minibatch, a transposed
        view of the residuals ``qr_update`` works on.

        The bootstrap action a* is the target-side greedy action at s';
        terminal transitions use the bare reward as the target.
        """
        return self._residuals(batch)[0].transpose(2, 0, 1)

    def td_loss(self, batch: Batch) -> float:
        """The quantile regression loss of a minibatch at the current
        params: per transition sum_i E_j[rho_taui(delta_ij)], averaged over
        the batch. It is formed from the kernel's intermediates, so it
        agrees with ``quantile_huber`` to rounding (1e-12 relative), not
        bit for bit. Draws nothing and changes no param."""
        u, _ = self._residuals(batch)
        return _quantile_loss(u, self._kernel_arrays(len(batch)),
                              self.cfg.kappa)

    def qr_update(self, batch: Batch) -> None:
        """One optimizer step on the quantile regression loss (see
        ``td_loss``, which this does not compute).

        The parameter update is bit-identical to taking
        ``quantile_huber_grad``, its mean over j and the optimizer step in
        that order. The tabular gradient is accumulated per sampled
        transition (a pair occurring twice in the batch contributes twice)
        and fed to the configured optimizer; "sgd" is the plain step
        theta <- theta - lr * grad, "adam" (the default) normalizes
        per-atom step sizes, which keeps rarely visited actions converging
        at the same pace as frequently visited ones. The network backend
        takes one batch-mean gradient. Target parameters are untouched.
        """
        u, trace = self._residuals(batch)
        g = _quantile_step(u, self._kernel_arrays(len(batch)), self.cfg.kappa)
        grad = self.head.grads(batch.s, batch.a, g, trace)
        self._online.clear()
        self.head.version += 1
        if self.cfg.optimizer == "adam":
            nn.adam_step(self.head.params, grad, self.adam, self.cfg.lr)
        else:
            nn.sgd_step(self.head.params, grad, self.cfg.lr)

    def _kernel_arrays(self, b: int):
        """The kernel's (n, n, b) weights 1 - tau_i and tau_i for batch
        size b, and scratch of that shape for psi and the sign mask, built
        on first use."""
        if b not in self._kernel:
            col = self.taus.reshape(-1, 1, 1)
            shape = (self.n, self.n, b)
            self._kernel[b] = (np.broadcast_to(1.0 - col, shape).copy(),
                               np.broadcast_to(col, shape).copy(),
                               np.empty(shape), np.empty(shape, dtype=bool))
        return self._kernel[b]

    def sync_target(self) -> None:
        self.head.sync()


def _kernel_terms(u: np.ndarray, arrays, kappa: float):
    """The terms |tau_i - [u < 0]| * psi(u), with psi(u) = clip(u / kappa,
    -1, 1), as a fresh C-ordered array, and psi, in the scratch of
    ``arrays`` (``Agent._kernel_arrays`` at u's shape)."""
    lo, hi, psi, neg = arrays
    np.divide(u, kappa, out=psi)
    np.maximum(psi, -1.0, out=psi)
    np.minimum(psi, 1.0, out=psi)
    terms = np.where(np.less(u, 0.0, out=neg), lo, hi)
    terms *= psi
    return terms, psi


def _quantile_step(u: np.ndarray, arrays, kappa: float) -> np.ndarray:
    """Loss gradient per online atom, g[i, b], from residuals u[i, j, b].

    Each term is the same product that ``quantile_huber_grad`` forms, and
    g = -mean_j of the terms is summed in ndarray.mean's order and negated
    last, so every bit of g agrees with the unfused definition, signed
    zeros included.
    """
    n = u.shape[0]
    terms, _ = _kernel_terms(u, arrays, kappa)
    if n < 8:
        # for fewer than eight terms numpy's pairwise sum adds in order
        g = np.add.reduce(terms, axis=1)
    else:
        g = np.add.reduce(terms.transpose(0, 2, 1).copy(), axis=-1)
    g /= -n                     # -(sum / n), bit for bit
    return g


def _quantile_loss(u: np.ndarray, arrays, kappa: float) -> float:
    """The loss of residuals u[i, j, b]: the sum of the terms rho, averaged
    over j and the batch."""
    terms, psi = _kernel_terms(u, arrays, kappa)
    # rho = w |psi| (|u| - kappa |psi| / 2) = terms * (u - kappa psi / 2)
    psi *= 0.5 * kappa
    np.subtract(u, psi, out=psi)
    return float(np.dot(terms.ravel(), psi.ravel())) / (u.shape[0] * u.shape[2])
