"""In-memory span tracing of qrrn's layers, installed from outside the package.

Each layer entry point is replaced, at every name its callers look it up
by, with a wrapper that records one span: the layer name, the index of the
enclosing span, and the start and end times. Self time is a span's
duration minus the time its direct child spans cover. Nothing in
``src/qrrn`` is edited; ``Tracer.uninstall`` restores the original objects.
"""
from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

from qrrn import cli, env, learner, nn, oracle, policies, roadnet, trainer


def layer_bindings():
    """(layer name, [(owner, attribute), ...]) for every traced entry point.

    An owner is the module or class through which a caller looks the
    function up: ``trainer.train_one`` calls ``evaluate`` through the
    ``trainer`` module, ``RoadEnv.step`` calls ``transition`` through
    ``env``, and so on. Methods are wrapped on their class.
    """
    return [
        ("cli.main", [(cli, "main")]),
        ("trainer.run_trials", [(cli, "run_trials")]),
        ("trainer.train_one", [(trainer, "train_one")]),
        ("trainer.evaluate", [(trainer, "evaluate"), (cli, "evaluate")]),
        ("trainer.classify_trace", [(trainer, "classify_trace")]),
        ("trainer.save_checkpoint", [(trainer, "save_checkpoint")]),
        ("trainer.read_checkpoint", [(trainer, "read_checkpoint"),
                                     (cli, "read_checkpoint")]),
        ("trainer.Checkpoint.build_agent", [(trainer.Checkpoint, "build_agent")]),
        ("trainer.curves_csv_text", [(cli, "curves_csv_text")]),
        ("learner.Agent.qr_update", [(learner.Agent, "qr_update")]),
        ("learner.Agent.td_deltas", [(learner.Agent, "td_deltas")]),
        ("learner.Agent.behavior_action", [(learner.Agent, "behavior_action")]),
        ("learner.Agent.sync_target", [(learner.Agent, "sync_target")]),
        ("learner.ReplayBuffer.push", [(learner.ReplayBuffer, "push")]),
        ("learner.ReplayBuffer.sample", [(learner.ReplayBuffer, "sample")]),
        ("quantdist.huber_terms", [(learner, "huber_terms")]),
        ("nn.forward", [(nn, "forward")]),
        ("nn.backward", [(nn, "backward")]),
        ("nn.adam_step", [(nn, "adam_step")]),
        ("nn.clone", [(nn, "clone")]),
        ("env.RoadEnv.step", [(env.RoadEnv, "step")]),
        ("env.RoadEnv.reset", [(env.RoadEnv, "reset")]),
        ("env.RoadEnv.observe", [(env.RoadEnv, "observe")]),
        ("env.stream_rng", [(env, "stream_rng"), (oracle, "stream_rng"),
                            (trainer, "stream_rng")]),
        ("env.reward_sample", [(env, "reward_sample"), (oracle, "reward_sample")]),
        ("roadnet.transition", [(env, "transition"), (oracle, "transition")]),
        ("roadnet.enumerate_routes", [(roadnet, "enumerate_routes"),
                                      (trainer, "enumerate_routes"),
                                      (cli, "enumerate_routes")]),
        ("roadnet.render_routes", [(cli, "render_routes")]),
        ("policies.ExecPolicy.select", [(policies.ExecPolicy, "select")]),
        ("oracle.mc_returns", [(oracle, "mc_returns")]),
        ("oracle.value_iteration", [(oracle, "value_iteration")]),
        ("oracle.empirical_quantiles", [(oracle, "empirical_quantiles")]),
    ]


def _observe_evaluate(counters, args, kwargs, trace):
    counters["evaluate.steps"] += len(trace.actions)
    counters["evaluate.goals"] += bool(trace.reached_goal)


def _observe_save(counters, args, kwargs, result):
    counters["save_checkpoint.bytes"] += os.path.getsize(args[1])


OBSERVERS = {
    "trainer.evaluate": _observe_evaluate,
    "trainer.save_checkpoint": _observe_save,
}


class Tracer:
    """Records spans for the layer table while installed."""

    def __init__(self):
        self.names = [name for name, _ in layer_bindings()]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {"evaluate.steps": 0, "evaluate.goals": 0,
                         "save_checkpoint.bytes": 0}
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, nid, observe):
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for nid, (name, owners) in enumerate(layer_bindings()):
            for owner, attr in owners:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, nid, OBSERVERS.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_stats(self) -> dict:
        """name -> (calls, mean self time in microseconds)."""
        n = len(self.names)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=self_time, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            c = int(calls[i])
            out[name] = (c, 1e6 * float(total[i]) / c if c else 0.0)
        return out
