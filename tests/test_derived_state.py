"""A shadow-agent model check of the learner's derived state.

An agent keeps tables it derives from its params: the online atom rows it
served (``Agent._online``), the table head's greedy actions per params
version, the network head's bootstrap rows per batch size
(``NetHead._boot``) and the kernel's weights and scratch per batch size.
The machine below drives an agent and a shadow through the same calls,
empties every such table of the shadow before each call, and requires the
two to agree byte for byte: params, target, Adam m, v and t, and every
served action, atom row and loss. The agent alone is also saved and built
back from the file, which can land in the middle of a sync window.
"""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from qrrn.learner import Agent, AgentConfig, Batch, TableHead
from qrrn.trainer import read_checkpoint, save_checkpoint

N_STATES, N_ACTIONS = 5, 3
states = st.integers(0, N_STATES - 1)
batch_sizes = st.sampled_from([1, 2, 7, 64])
seeds = st.integers(0, 2**32 - 1)


def forget(agent: Agent) -> None:
    """Empty every table the agent derives from its params."""
    agent._online.clear()
    agent._kernel.clear()
    head = agent.head
    if isinstance(head, TableHead):
        head._greedy = head._greedy_version = None
    else:
        head._boot.clear()


def learner_state(agent: Agent) -> tuple:
    return (agent.head.params.tobytes(), agent.head.target.tobytes(),
            agent.adam.m.tobytes(), agent.adam.v.tobytes(), agent.adam.t)


def served(x) -> tuple:
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def random_batch(b: int, seed: int) -> Batch:
    rng = np.random.default_rng(seed)
    return Batch(s=rng.integers(0, N_STATES, b), a=rng.integers(0, N_ACTIONS, b),
                 r=rng.normal(size=b), s_next=rng.integers(0, N_STATES, b),
                 done=rng.random(b) < 0.2)


class DerivedState(RuleBasedStateMachine):
    backend = None

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.agent = self.shadow = None
        self.steps = 0

    def teardown(self):
        self.dir.cleanup()

    @initialize(interval=st.sampled_from([1, 3]), n=st.sampled_from([1, 3]),
                seed=st.integers(0, 2**16))
    def build(self, interval, n, seed):
        cfg = AgentConfig(backend=self.backend, n_quantiles=n, hidden=(6,),
                          lr=0.05, buffer_size=8, batch_size=8,
                          target_sync_interval=interval)
        self.agent, self.shadow = (Agent(cfg, N_STATES, N_ACTIONS, seed=seed)
                                   for _ in range(2))

    def both(self, call) -> tuple:
        """``call`` on the agent and on the shadow, its tables emptied."""
        forget(self.shadow)
        return call(self.agent), call(self.shadow)

    def agree(self, call) -> None:
        got, want = self.both(call)
        assert served(got) == served(want)

    @precondition(lambda self: self.agent is not None)
    @rule(b=batch_sizes, steps=st.integers(1, 3), seed=seeds)
    def update(self, b, steps, seed):
        # a trainer's steps: each update, then the sync its interval asks for
        batch = random_batch(b, seed)
        for _ in range(steps):
            self.agree(lambda agent: agent.qr_update(batch))
            self.steps += 1
            if self.steps % self.agent.cfg.sync_interval == 0:
                self.both(Agent.sync_target)

    @precondition(lambda self: self.agent is not None)
    @rule()
    def sync(self):
        self.both(Agent.sync_target)

    @precondition(lambda self: self.agent is not None)
    @rule(s=states)
    def greedy_action(self, s):
        self.agree(lambda agent: agent.greedy_action(s))

    @precondition(lambda self: self.agent is not None)
    @rule(s=states, of_target=st.booleans())
    def action_dists(self, s, of_target):
        self.agree(lambda agent: agent.action_dists(s, of_target))

    @precondition(lambda self: self.agent is not None)
    @rule(b=batch_sizes, seed=seeds)
    def bootstrap(self, b, seed):
        s_next = random_batch(b, seed).s_next
        self.agree(lambda agent: agent.head.bootstrap(s_next))

    @precondition(lambda self: self.agent is not None)
    @rule(b=batch_sizes, seed=seeds)
    def td_loss(self, b, seed):
        batch = random_batch(b, seed)
        self.agree(lambda agent: agent.td_loss(batch))

    @precondition(lambda self: self.agent is not None)
    @rule()
    def reload(self):
        path = str(Path(self.dir.name) / "agent.qrrn")
        save_checkpoint(self.agent, path)
        self.agent = read_checkpoint(path).build_agent()

    @invariant()
    def same_learner_state(self):
        if self.agent is not None:
            assert learner_state(self.agent) == learner_state(self.shadow)


class TableMachine(DerivedState):
    backend = "tabular"


class NetworkMachine(DerivedState):
    backend = "network"


MACHINE_SETTINGS = settings(max_examples=100, stateful_step_count=30)
TestTableDerivedState = TableMachine.TestCase
TestTableDerivedState.settings = MACHINE_SETTINGS
TestNetworkDerivedState = NetworkMachine.TestCase
TestNetworkDerivedState.settings = MACHINE_SETTINGS
