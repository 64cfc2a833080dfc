"""Training orchestration: single trials, multi-seed studies, persistence.

A trial interleaves epsilon-greedy acting, replay updates and periodic
greedy-free evaluation rollouts, one per configured execution policy.
Randomness is split into named streams derived from the trial seed, so
trials are independent of each other and reruns are bit-reproducible:

* (seed, 1): training environment, re-derived per episode,
* (seed, 2, eval_index, policy_index): evaluation environments,
* (seed, 3): exploration and replay sampling,
* (seed, 4): network weight init.

Checkpoints capture the complete training state (parameters, target,
optimizer, replay contents, RNG states, episode position and finished
curve rows), so a run split across a checkpoint is bit-identical to an
uninterrupted one.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .config import Config
from .env import EnvConfig, RoadEnv, stream_rng
from .learner import Agent, AgentConfig
from .nn import split
from .policies import ExecPolicy
from .roadnet import (GraphMap, enumerate_routes, generate_scenario,
                      map_from_dict, map_to_dict, parse_map, ScenarioParams)

STREAM_TRAIN_ENV = 1
STREAM_EVAL_ENV = 2
STREAM_EXPLORE = 3
STREAM_INIT = 4

CHECKPOINT_MAGIC = b"QRRN"
CHECKPOINT_VERSION = 1
_BUFFER_COLUMNS = ("s", "a", "r", "s_next", "done")     # as buf_*, in file order


class VersionMismatch(RuntimeError):
    pass


class CorruptCheckpoint(RuntimeError):
    pass


@contextlib.contextmanager
def open_replacing(path: str, mode: str, **kwargs):
    """Open a temp file beside ``path`` for writing and move it over
    ``path`` once the block completes. If anything fails first, the temp
    file is removed and an earlier file at ``path`` is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


CURVE_HEADER = ["seed", "exec_policy", "step", "discounted_return",
                "reached_goal", "route_class"]
AGG_HEADER = ["exec_policy", "step", "mean_return", "stderr_return", "n_seeds"]


@dataclass
class RunConfig(Config):
    map: dict | str
    env: EnvConfig = field(default_factory=EnvConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    total_steps: int = 100_000
    eval_interval: int = 10_000
    eval_episode_cap: int = 1000
    exec_policies: list[ExecPolicy] = field(
        default_factory=lambda: [ExecPolicy("greedy")])
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str = "runs/out"

    def __post_init__(self):
        if self.eval_interval < 1 or self.eval_episode_cap < 1:
            raise ValueError("eval_interval and eval_episode_cap must be >= 1")
        steps, interval = self.total_steps, self.eval_interval
        if steps < interval or steps % interval:
            # the last evaluation, which the final route classes read, is
            # at the last step
            raise ValueError(f"total_steps must be a multiple of eval_interval "
                             f"({interval}), got {steps}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be non-negative")
        if len(set(self.seeds)) != len(self.seeds):
            # rows and checkpoints are keyed by seed
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if not self.exec_policies:
            raise ValueError("exec_policies must be non-empty")
        labels = [p.label for p in self.exec_policies]
        if len(set(labels)) != len(labels):
            # rows, aggregates and route files are keyed by label alone
            raise ValueError(f"exec_policies labels must be unique, got {labels}")


# the benchmark reads run configs under this name
load_run_config = RunConfig.from_dict


def resolve_graph(cfg: RunConfig) -> GraphMap:
    """Materialize the configured map (document, generator spec or path)."""
    src = cfg.map
    if isinstance(src, str):
        with open(src, "r", encoding="utf-8") as fh:
            return parse_map(fh.read())
    if "kind" in src:
        spec = dict(src)
        kind = spec.pop("kind")
        return generate_scenario(kind, ScenarioParams.from_dict(spec))
    return map_from_dict(src)


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EpisodeTrace:
    visited: list
    actions: list
    rewards: list
    discounted_return: float
    reached_goal: bool


@dataclass(frozen=True)
class EvalRow:
    seed: int
    exec_policy: str
    step: int
    discounted_return: float
    reached_goal: bool
    route_class: str


def evaluate(agent: Agent, policy: ExecPolicy, graph: GraphMap,
             env_cfg: EnvConfig, gamma: float, eval_cap: int, seed) -> EpisodeTrace:
    """One deterministic rollout (no exploration) under an execution policy.

    Runs in a fresh environment seeded independently of training; stops at
    a goal or after ``eval_cap`` steps.
    """
    env = RoadEnv(graph, replace(env_cfg, episode_cap=eval_cap), seed)
    env.reset(episode=0)
    visited = [env.current]
    actions: list = []
    rewards: list = []
    done = env.done
    while not done:
        a = policy.select(agent.action_dists(env.current))
        r, done = env.step(a)
        actions.append(a)
        rewards.append(r)
        visited.append(env.current)
    total = 0.0
    disc = 1.0
    for r in rewards:
        total += disc * r
        disc *= gamma
    return EpisodeTrace(visited=visited, actions=actions, rewards=rewards,
                        discounted_return=total, reached_goal=env.at_goal())


def ranked_crosswalk_free_routes(graph: GraphMap):
    """Simple crosswalk-free start-to-goal routes, shortest first."""
    return [r for r in enumerate_routes(graph)
            if not any(v in graph.crosswalks for v in r.nodes)]


def classify_trace(trace: EpisodeTrace, graph: GraphMap, ranked=None) -> str:
    """Label a rollout: timeout, noisy (visited a crosswalk), robust-k
    (exactly the k-th shortest crosswalk-free simple route) or other."""
    if not trace.reached_goal:
        return "timeout"
    if any(v in graph.crosswalks for v in trace.visited):
        return "noisy"
    if ranked is None:
        ranked = ranked_crosswalk_free_routes(graph)
    for k, route in enumerate(ranked, start=1):
        if trace.visited == route.nodes:
            return f"robust-{k}"
    return "other"


# ---------------------------------------------------------------------------
# single-trial training

@dataclass
class TrainResult:
    agent: Agent
    rows: list
    graph: GraphMap
    final_traces: dict      # policy label -> EpisodeTrace at the last eval


def train_one(cfg: RunConfig, seed: int, *, graph: GraphMap | None = None,
              stop_at: int | None = None, checkpoint_path: str | None = None,
              resume=None) -> TrainResult:
    """Run one seed's training loop and periodic evaluations.

    ``stop_at`` ends the loop early after that step (checkpointing there
    when ``checkpoint_path`` is given); ``resume`` continues bit-exactly
    from a checkpoint produced that way, for the same seed and config.
    """
    if graph is None:
        graph = resolve_graph(cfg)
    gamma = cfg.agent.gamma
    ranked = ranked_crosswalk_free_routes(graph)

    if resume is not None:
        ck = resume if isinstance(resume, Checkpoint) else read_checkpoint(resume)
        ck_seed, ck_cfg, env, train_rng, rows = ck.resume_state(graph)
        if seed != ck_seed:
            raise ValueError(f"resume seed {seed} differs from the "
                             f"checkpoint's seed {ck_seed}")
        if json.loads(json.dumps(cfg.to_dict())) != ck_cfg.to_dict():
            raise ValueError("resume config differs from the checkpoint's")
        agent = ck.build_agent()
        start_step = agent.steps_done
    else:
        agent = Agent(cfg.agent, graph.n_states, graph.action_dim,
                      seed=(seed, STREAM_INIT))
        env = RoadEnv(graph, cfg.env, (seed, STREAM_TRAIN_ENV))
        env.reset(episode=0)
        train_rng = stream_rng(seed, STREAM_EXPLORE)
        rows = []
        start_step = 0

    sync_every = cfg.agent.sync_interval
    last = cfg.total_steps if stop_at is None else min(stop_at, cfg.total_steps)
    final_traces: dict = {}

    for step in range(start_step + 1, last + 1):
        s = env.current
        a = agent.behavior_action(s, step - 1, cfg.total_steps, train_rng)
        r, done = env.step(a)
        agent.buffer.push(s, a, r, env.current, env.at_goal())
        agent.steps_done = step
        if len(agent.buffer) >= cfg.agent.batch_size:
            for _ in range(cfg.agent.gradient_steps):
                agent.qr_update(agent.buffer.sample(cfg.agent.batch_size, train_rng))
        if step % sync_every == 0:
            agent.sync_target()
        if done:
            env.reset()
        if step % cfg.eval_interval == 0:
            k = step // cfg.eval_interval
            for p_idx, pol in enumerate(cfg.exec_policies):
                trace = evaluate(agent, pol, graph, cfg.env, gamma,
                                 cfg.eval_episode_cap,
                                 (seed, STREAM_EVAL_ENV, k, p_idx))
                rows.append(EvalRow(seed=seed, exec_policy=pol.label, step=step,
                                    discounted_return=trace.discounted_return,
                                    reached_goal=trace.reached_goal,
                                    route_class=classify_trace(trace, graph, ranked)))
                if step == cfg.total_steps:
                    final_traces[pol.label] = trace

    if checkpoint_path is not None:
        save_checkpoint(agent, checkpoint_path, run_cfg=cfg, seed=seed,
                        graph=graph, env=env, train_rng=train_rng, rows=rows)
    return TrainResult(agent=agent, rows=rows, graph=graph,
                       final_traces=final_traces)


# ---------------------------------------------------------------------------
# multi-seed studies

@dataclass
class AggRow:
    exec_policy: str
    step: int
    mean_return: float
    stderr_return: float
    n_seeds: int


@dataclass
class TrialReport:
    rows: list
    aggregate: list
    final_routes: dict       # (seed, policy label) -> route class
    final_traces: dict       # (seed, policy label) -> visited node list
    n_seeds: int

    def route_histogram(self, policy: str) -> dict:
        hist: dict = {}
        for (seed, pol), cls in sorted(self.final_routes.items()):
            if pol == policy:
                hist[cls] = hist.get(cls, 0) + 1
        return hist


def aggregate_rows(rows, policies) -> list:
    out = []
    by_key: dict = {}
    for row in rows:
        by_key.setdefault((row.exec_policy, row.step), []).append(
            row.discounted_return)
    steps = sorted({row.step for row in rows})
    for pol in policies:
        for step in steps:
            vals = np.array(by_key.get((pol.label, step), []))
            if len(vals) == 0:
                continue
            stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) \
                if len(vals) > 1 else 0.0
            out.append(AggRow(exec_policy=pol.label, step=step,
                              mean_return=float(vals.mean()),
                              stderr_return=stderr, n_seeds=len(vals)))
    return out


def _trial_job(args):
    cfg, graph, seed, checkpoint_path = args
    res = train_one(cfg, seed, graph=graph, checkpoint_path=checkpoint_path)
    traces = {label: t.visited for label, t in res.final_traces.items()}
    return seed, res.rows, traces


def run_trials(cfg: RunConfig, jobs: int = 1,
               checkpoint_dir: str | None = None) -> TrialReport:
    """Train every configured seed and aggregate learning curves.

    Trials are independent (per-seed RNG streams), so results do not
    depend on ``jobs`` or on which other seeds are present.
    """
    graph = resolve_graph(cfg)
    args = []
    for seed in cfg.seeds:
        path = (f"{checkpoint_dir}/checkpoint_seed{seed}.qrrn"
                if checkpoint_dir is not None else None)
        args.append((cfg, graph, seed, path))
    if jobs > 1 and len(args) > 1:
        # imported here: a single-job run never starts a worker
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_trial_job, args))
    else:
        results = [_trial_job(a) for a in args]

    rows: list = []
    final_routes: dict = {}
    final_traces: dict = {}
    for seed, trial_rows, traces in results:
        rows.extend(trial_rows)
        for row in trial_rows:
            if row.step == cfg.total_steps:
                final_routes[(seed, row.exec_policy)] = row.route_class
        for label, visited in traces.items():
            final_traces[(seed, label)] = visited
    agg = aggregate_rows(rows, cfg.exec_policies)
    return TrialReport(rows=rows, aggregate=agg, final_routes=final_routes,
                       final_traces=final_traces, n_seeds=len(cfg.seeds))


def run_lr_sweep(cfg: RunConfig, lrs, jobs: int = 1) -> dict:
    """Trial reports per learning rate (plumbing for sensitivity studies).
    Every rate's config is built, and so checked, before any training, and
    the rates must be distinct: reports are keyed by rate."""
    lrs = [float(lr) for lr in lrs]
    if len(set(lrs)) != len(lrs):
        raise ValueError(f"learning rates must be distinct, got {lrs}")
    swept = {lr: replace(cfg, agent=replace(cfg.agent, lr=lr)) for lr in lrs}
    return {lr: run_trials(c, jobs=jobs) for lr, c in swept.items()}


def curve_auc(report: TrialReport, policy: str, eval_interval: int) -> float:
    """Area under the mean learning curve (sum of means x interval)."""
    vals = [a.mean_return for a in report.aggregate if a.exec_policy == policy]
    return float(sum(vals) * eval_interval)


# ---------------------------------------------------------------------------
# CSV / SVG artifacts

def curves_csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVE_HEADER)
    for row in rows:
        writer.writerow([row.seed, row.exec_policy, row.step,
                         repr(row.discounted_return), row.reached_goal,
                         row.route_class])
    return buf.getvalue()


def aggregate_csv_text(agg) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(AGG_HEADER)
    for row in agg:
        writer.writerow([row.exec_policy, row.step, repr(row.mean_return),
                         repr(row.stderr_return), row.n_seeds])
    return buf.getvalue()


def curves_svg_text(agg, width: int = 640, height: int = 400) -> str:
    """Self-contained SVG of mean curves with stderr bands per policy."""
    if not agg:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>'
    palette = ["#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00"]
    policies = sorted({a.exec_policy for a in agg})
    steps = sorted({a.step for a in agg})
    lo = min(a.mean_return - 2 * a.stderr_return for a in agg)
    hi = max(a.mean_return + 2 * a.stderr_return for a in agg)
    if hi - lo < 1e-9:
        hi = lo + 1.0
    pad = 40

    def px(step):
        span = max(steps[-1] - steps[0], 1)
        return pad + (width - 2 * pad) * (step - steps[0]) / span

    def py(v):
        return height - pad - (height - 2 * pad) * (v - lo) / (hi - lo)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for i, pol in enumerate(policies):
        color = palette[i % len(palette)]
        rows = sorted((a for a in agg if a.exec_policy == pol),
                      key=lambda a: a.step)
        band = [(px(a.step), py(a.mean_return + a.stderr_return)) for a in rows]
        band += [(px(a.step), py(a.mean_return - a.stderr_return))
                 for a in reversed(rows)]
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in band)
        parts.append(f'<polygon points="{pts}" fill="{color}" opacity="0.15"/>')
        line = " ".join(f"{px(a.step):.1f},{py(a.mean_return):.1f}" for a in rows)
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{pad + 4}" y="{pad + 14 + 14 * i}" '
                     f'fill="{color}" font-size="12">{pol}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# checkpoints

@dataclass
class Checkpoint:
    """A checkpoint file's JSON ``header`` and float64 ``arrays``, read-only
    views of the file's bytes. The header is outside input, read only by
    ``build_agent``, ``build_graph``, ``run_config`` and ``resume_state``:
    each parses the fields it needs when called, and a missing or ill-typed
    field is a ``CorruptCheckpoint`` (exit 2 in the CLI)."""
    header: dict
    arrays: dict

    def build_agent(self) -> Agent:
        """The agent the checkpoint holds; an array that is missing or
        disagrees with the dims is corrupt too. Every array the header
        implies is checked against the array table, whose sizes the file's
        length bounds, before the agent is allocated; so a header cannot
        size the load's memory. The agent starts from zeros, not a drawn
        init, and each array is copied into it once."""
        h = self.header
        with _reading("agent"):
            cfg = AgentConfig.from_dict(_field(h, "config", "agent"))
            n_states = _count(h, "dims", "n_states")
            n_actions = _count(h, "dims", "n_actions")
            if _count(h, "buffer", "capacity") != cfg.buffer_size:
                raise CorruptCheckpoint("buffer capacity mismatch")
            if (_field(h, "backend") != cfg.backend
                    or _count(h, "dims", "n_quantiles") != cfg.n_quantiles):
                raise CorruptCheckpoint("backend or dims.n_quantiles "
                                        "disagrees with config.agent")
            names, shapes = Agent.layout(cfg, n_states, n_actions)
            for slot_names in names:        # online, target, Adam m and v
                for name, shape in zip(slot_names, shapes):
                    self._array(name, shape)
            for col in _BUFFER_COLUMNS:
                self._array(f"buf_{col}", (cfg.buffer_size,))
            agent = Agent(cfg, n_states, n_actions, seed=None)
            flats = (agent.head.params, agent.head.target, agent.adam.m,
                     agent.adam.v)
            for flat, slot_names in zip(flats, names):
                np.concatenate([self.arrays[k].ravel() for k in slot_names],
                               out=flat)
            agent.adam.t = _count(h, "adam_t")
            buf = agent.buffer
            size = _count(h, "buffer", "size")
            cursor = _count(h, "buffer", "cursor")
            if not (size <= buf.capacity and cursor < buf.capacity):
                raise CorruptCheckpoint("buffer position outside its capacity")
            buf.size, buf.cursor = size, cursor
            for col in _BUFFER_COLUMNS:     # cast from float64, as astype does
                getattr(buf, col)[:] = self.arrays[f"buf_{col}"]
            agent.steps_done = _count(h, "step")
        return agent

    def _array(self, name: str, shape) -> np.ndarray:
        if name not in self.arrays:
            raise CorruptCheckpoint(f"checkpoint lacks array {name}")
        if self.arrays[name].shape != shape:
            raise CorruptCheckpoint(f"array {name} does not match dims")
        return self.arrays[name]

    def build_graph(self) -> GraphMap:
        with _reading("map document"):
            return map_from_dict(_field(self.header, "config", "map_document"))

    def run_config(self) -> RunConfig | None:
        """The run config the agent was trained under; None when the
        checkpoint was saved without one."""
        config = _field(self.header, "config")
        if isinstance(config, dict) and "run" not in config:
            return None
        with _reading("run config"):
            return RunConfig.from_dict(_field(self.header, "config", "run"))

    def resume_state(self, graph: GraphMap) -> tuple:
        """(seed, run config, training environment on ``graph``, exploration
        RNG, curve rows) as ``train_one`` left them at the checkpoint."""
        h = self.header
        env_state, rng_state = _field(h, "env_state"), _field(h, "rng", "train")
        cfg = self.run_config()
        if env_state is None or rng_state is None or cfg is None:
            raise CorruptCheckpoint("no training state (config.run, env, rng)")
        with _reading("training state"):
            seed = _count(h, "seed")
            env = RoadEnv(graph, cfg.env, (seed, STREAM_TRAIN_ENV))
            env.set_state(env_state)
            train_rng = stream_rng(0)
            train_rng.bit_generator.state = rng_state
            rows = [EvalRow(**row) for row in _field(h, "curve_rows")]
        return seed, cfg, env, train_rng, rows


def _field(doc, *keys):
    """``doc[keys[0]][keys[1]]...``; a missing key is a corrupt header."""
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            raise CorruptCheckpoint(f"checkpoint header lacks {'.'.join(keys)}")
        doc = doc[key]
    return doc


def _count(doc, *keys) -> int:
    """An integer field ``_field`` finds; a bool, a float, a string or a
    negative number there is a corrupt header."""
    value = _field(doc, *keys)
    if type(value) is not int or value < 0:
        raise CorruptCheckpoint(f"checkpoint header {'.'.join(keys)} must be "
                                f"an integer >= 0, got {value!r}")
    return value


@contextlib.contextmanager
def _reading(what: str):
    """An error that an ill-typed header value raises while ``what`` is
    built from it becomes a ``CorruptCheckpoint``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptCheckpoint(f"unreadable {what}: {exc!r}") from exc


def _learner_arrays(agent: Agent) -> list:
    """(name, view) pairs of the slots of the head's online and target
    parameters and their Adam moments, in file order (m and v alternate per
    slot). Each view shares memory with its flat vector."""
    h = agent.head
    online, target, m_names, v_names = h.names
    pairs = [*zip(online, split(h.params, h.shapes)),
             *zip(target, split(h.target, h.shapes))]
    for m_name, m, v_name, v in zip(m_names, split(agent.adam.m, h.shapes),
                                    v_names, split(agent.adam.v, h.shapes)):
        pairs += [(m_name, m), (v_name, v)]
    return pairs


def _agent_arrays(agent: Agent) -> dict:
    arrays = dict(_learner_arrays(agent))
    for col in _BUFFER_COLUMNS:
        arrays[f"buf_{col}"] = getattr(agent.buffer, col).astype(float)
    return arrays


def save_checkpoint(agent: Agent, path: str, *, run_cfg: RunConfig | None = None,
                    seed: int | None = None, graph: GraphMap | None = None,
                    env: RoadEnv | None = None, train_rng=None,
                    rows=None) -> None:
    """Serialize the full training state to a single binary file.

    Layout: magic, u16 format version, u32 header length, UTF-8 JSON
    header, then the declared arrays as little-endian float64 in order.
    The file is written beside ``path`` and moved over it, so a failed save
    leaves an earlier checkpoint at ``path`` whole.
    """
    arrays = _agent_arrays(agent)
    config: dict = {"agent": agent.cfg.to_dict()}
    if run_cfg is not None:
        config["run"] = run_cfg.to_dict()
    if graph is not None:
        config["map_document"] = map_to_dict(graph)
    header = {
        "backend": agent.cfg.backend,
        "seed": seed,
        "step": agent.steps_done,
        "config": config,
        "dims": {"n_states": agent.n_states, "n_actions": agent.n_actions,
                 "n_quantiles": agent.n},
        "adam_t": agent.adam.t,
        "buffer": {"size": agent.buffer.size, "cursor": agent.buffer.cursor,
                   "capacity": agent.buffer.capacity},
        "rng": {
            "train": None if train_rng is None else train_rng.bit_generator.state,
        },
        "env_state": None if env is None else env.get_state(),
        "curve_rows": [] if rows is None else [vars(r) for r in rows],
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }
    payload = json.dumps(header).encode("utf-8")
    with open_replacing(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for _, arr in arrays.items():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 10 or blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint("bad magic bytes")
    version = struct.unpack("<H", blob[4:6])[0]
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"checkpoint format {version}, "
                              f"expected {CHECKPOINT_VERSION}")
    hlen = struct.unpack("<I", blob[6:10])[0]
    if len(blob) < 10 + hlen:
        raise CorruptCheckpoint("truncated header")
    try:
        header = json.loads(blob[10:10 + hlen].decode("utf-8"))
    except ValueError as exc:       # bad UTF-8 or JSON, or an overlong int
        raise CorruptCheckpoint(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptCheckpoint("header is not a JSON object")
    # one read-only view over the payload's whole floats; arrays slice it
    start = 10 + hlen
    payload = np.frombuffer(blob, dtype="<f8", count=(len(blob) - start) // 8,
                            offset=start)
    arrays, end = {}, 0
    with _reading("array table"):
        for spec in _field(header, "arrays"):
            name, shape = _field(spec, "name"), tuple(_field(spec, "shape"))
            if not all(type(d) is int and d >= 0 for d in shape):
                raise CorruptCheckpoint(f"array {name} has bad shape {list(shape)}")
            size = math.prod(shape)
            if end + size > len(payload):
                raise CorruptCheckpoint(f"truncated array {name}")
            arrays[name] = payload[end:end + size].reshape(shape)
            end += size
    if start + 8 * end != len(blob):
        raise CorruptCheckpoint("trailing bytes after declared arrays")
    return Checkpoint(header=header, arrays=arrays)
