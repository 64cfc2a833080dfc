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

import csv
import io
import json
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .env import EnvConfig, RoadEnv, stream_rng
from .learner import Agent, AgentConfig
from .policies import ExecPolicy
from .roadnet import (GraphMap, enumerate_routes, generate_scenario,
                      map_from_dict, map_to_dict, parse_map, ScenarioParams)

STREAM_TRAIN_ENV = 1
STREAM_EVAL_ENV = 2
STREAM_EXPLORE = 3
STREAM_INIT = 4

CHECKPOINT_MAGIC = b"QRRN"
CHECKPOINT_VERSION = 1


class VersionMismatch(RuntimeError):
    pass


class CorruptCheckpoint(RuntimeError):
    pass


CURVE_HEADER = ["seed", "exec_policy", "step", "discounted_return",
                "reached_goal", "route_class"]
AGG_HEADER = ["exec_policy", "step", "mean_return", "stderr_return", "n_seeds"]


@dataclass
class RunConfig:
    map_source: dict | str
    env: EnvConfig = field(default_factory=EnvConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    total_steps: int = 100_000
    eval_interval: int = 10_000
    eval_episode_cap: int = 1000
    exec_policies: list = field(default_factory=lambda: [ExecPolicy("greedy")])
    seeds: list = field(default_factory=lambda: [0])
    out_dir: str = "runs/out"

    def __post_init__(self):
        if self.total_steps < self.eval_interval:
            raise ValueError("total_steps must be >= eval_interval")
        if self.eval_interval < 1 or self.eval_episode_cap < 1:
            raise ValueError("eval_interval and eval_episode_cap must be >= 1")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if any(int(s) < 0 for s in self.seeds):
            raise ValueError("seeds must be non-negative")
        if not self.exec_policies:
            raise ValueError("exec_policies must be non-empty")
        labels = [p.label for p in self.exec_policies]
        if len(set(labels)) != len(labels):
            # rows, aggregates and route files are keyed by label alone
            raise ValueError(f"exec_policies labels must be unique, got {labels}")

    def to_dict(self) -> dict:
        return {
            "map": self.map_source,
            "env": self.env.to_dict(),
            "agent": self.agent.to_dict(),
            "total_steps": self.total_steps,
            "eval_interval": self.eval_interval,
            "eval_episode_cap": self.eval_episode_cap,
            "exec_policies": [p.to_dict() for p in self.exec_policies],
            "seeds": list(self.seeds),
            "out_dir": self.out_dir,
        }


_RUN_KEYS = {"map", "env", "agent", "total_steps", "eval_interval",
             "eval_episode_cap", "exec_policies", "seeds", "out_dir"}


def load_run_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, applying defaults."""
    if not isinstance(doc, dict):
        raise ValueError("run config must be a JSON object")
    unknown = set(doc) - _RUN_KEYS
    if unknown:
        raise ValueError(f"unknown run config keys {sorted(unknown)}")
    if "map" not in doc:
        raise ValueError("run config missing 'map'")
    kwargs = {"map_source": doc["map"]}
    if "env" in doc:
        kwargs["env"] = EnvConfig.from_dict(doc["env"])
    if "agent" in doc:
        kwargs["agent"] = AgentConfig.from_dict(doc["agent"])
    for key, attr in (("total_steps", "total_steps"),
                      ("eval_interval", "eval_interval"),
                      ("eval_episode_cap", "eval_episode_cap"),
                      ("out_dir", "out_dir")):
        if key in doc:
            kwargs[attr] = doc[key]
    if "exec_policies" in doc:
        kwargs["exec_policies"] = [ExecPolicy.from_dict(p)
                                   for p in doc["exec_policies"]]
    if "seeds" in doc:
        kwargs["seeds"] = [int(s) for s in doc["seeds"]]
    return RunConfig(**kwargs)


def resolve_graph(cfg: RunConfig) -> GraphMap:
    """Materialize the configured map (document, generator spec or path)."""
    src = cfg.map_source
    if isinstance(src, str):
        with open(src, "r", encoding="utf-8") as fh:
            return parse_map(fh.read())
    if not isinstance(src, dict):
        raise ValueError("map must be a path or an object")
    if "kind" in src:
        spec = dict(src)
        kind = spec.pop("kind")
        unknown = set(spec) - {"noisy_len", "robust_len", "robust2_len"}
        if unknown:
            raise ValueError(f"unknown scenario keys {sorted(unknown)}")
        missing = {"noisy_len", "robust_len"} - set(spec)
        if missing:
            raise ValueError(f"scenario spec missing keys {sorted(missing)}")
        params = ScenarioParams(noisy_len=int(spec["noisy_len"]),
                                robust_len=int(spec["robust_len"]),
                                robust2_len=(int(spec["robust2_len"])
                                             if "robust2_len" in spec else None))
        return generate_scenario(kind, params)
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
        _, r, done = env.step(a)
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
    from a checkpoint produced that way.
    """
    if graph is None:
        graph = resolve_graph(cfg)
    gamma = cfg.agent.gamma
    ranked = ranked_crosswalk_free_routes(graph)

    if resume is not None:
        ck = resume if isinstance(resume, Checkpoint) else read_checkpoint(resume)
        if ck.header.get("env_state") is None or \
                ck.header.get("rng", {}).get("train") is None:
            raise CorruptCheckpoint(
                "checkpoint lacks training state (env/rng); only checkpoints "
                "written by train_one can be resumed")
        agent = ck.build_agent()
        env = RoadEnv(graph, cfg.env, (seed, STREAM_TRAIN_ENV))
        env.set_state(ck.header["env_state"])
        train_rng = stream_rng(0)
        train_rng.bit_generator.state = ck.header["rng"]["train"]
        rows = [EvalRow(**row) for row in ck.header["curve_rows"]]
        start_step = int(ck.header["step"])
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
        _, r, done = env.step(a)
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


def aggregate_rows(rows, policies, seeds) -> list:
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
    cfg_doc, seed, checkpoint_path = args
    cfg = load_run_config(cfg_doc)
    res = train_one(cfg, seed, checkpoint_path=checkpoint_path)
    traces = {label: t.visited for label, t in res.final_traces.items()}
    return seed, res.rows, traces


def run_trials(cfg: RunConfig, jobs: int = 1,
               checkpoint_dir: str | None = None) -> TrialReport:
    """Train every configured seed and aggregate learning curves.

    Trials are independent (per-seed RNG streams), so results do not
    depend on ``jobs`` or on which other seeds are present.
    """
    args = []
    for seed in cfg.seeds:
        path = (f"{checkpoint_dir}/checkpoint_seed{seed}.qrrn"
                if checkpoint_dir is not None else None)
        args.append((cfg.to_dict(), int(seed), path))
    if jobs > 1 and len(args) > 1:
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
    agg = aggregate_rows(rows, cfg.exec_policies, cfg.seeds)
    return TrialReport(rows=rows, aggregate=agg, final_routes=final_routes,
                       final_traces=final_traces, n_seeds=len(cfg.seeds))


def run_lr_sweep(cfg: RunConfig, lrs, jobs: int = 1) -> dict:
    """Trial reports per learning rate (plumbing for sensitivity studies)."""
    out = {}
    for lr in lrs:
        swept = replace(cfg, agent=replace(cfg.agent, lr=float(lr)))
        out[float(lr)] = run_trials(swept, jobs=jobs)
    return out


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
    version: int
    header: dict
    arrays: dict

    def build_agent(self) -> Agent:
        h = self.header
        cfg = AgentConfig.from_dict(h["config"]["agent"])
        agent = Agent(cfg, h["dims"]["n_states"], h["dims"]["n_actions"])
        if cfg.backend == "tabular":
            agent.theta = self.arrays["theta"].copy()
            agent.theta_target = self.arrays["theta_target"].copy()
            agent.opt_m = self.arrays["opt_m"].copy()
            agent.opt_v = self.arrays["opt_v"].copy()
            agent.opt_t = int(h["adam_t"] or 0)
        else:
            for i in range(len(agent.net.weights)):
                agent.net.weights[i] = self.arrays[f"w{i}"].copy()
                agent.net.biases[i] = self.arrays[f"b{i}"].copy()
                agent.net_target.weights[i] = self.arrays[f"tw{i}"].copy()
                agent.net_target.biases[i] = self.arrays[f"tb{i}"].copy()
            agent.adam = nn.AdamState.for_net(agent.net)
            agent.adam.t = int(h["adam_t"])
            for i in range(len(agent.adam.m)):
                agent.adam.m[i] = self.arrays[f"am{i}"].copy()
                agent.adam.v[i] = self.arrays[f"av{i}"].copy()
        buf = agent.buffer
        meta = h["buffer"]
        if meta["capacity"] != buf.capacity:
            raise CorruptCheckpoint("buffer capacity mismatch")
        buf.size = int(meta["size"])
        buf.cursor = int(meta["cursor"])
        buf.s[:] = self.arrays["buf_s"].astype(np.int64)
        buf.a[:] = self.arrays["buf_a"].astype(np.int64)
        buf.r[:] = self.arrays["buf_r"]
        buf.s_next[:] = self.arrays["buf_s_next"].astype(np.int64)
        buf.done[:] = self.arrays["buf_done"] != 0.0
        agent.steps_done = int(h["step"])
        return agent

    def build_graph(self) -> GraphMap:
        return map_from_dict(self.header["config"]["map_document"])


def _agent_arrays(agent: Agent) -> dict:
    arrays = {}
    if agent.cfg.backend == "tabular":
        arrays["theta"] = agent.theta
        arrays["theta_target"] = agent.theta_target
        arrays["opt_m"] = agent.opt_m
        arrays["opt_v"] = agent.opt_v
    else:
        for i, (w, b) in enumerate(zip(agent.net.weights, agent.net.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        for i, (w, b) in enumerate(zip(agent.net_target.weights,
                                       agent.net_target.biases)):
            arrays[f"tw{i}"] = w
            arrays[f"tb{i}"] = b
        for i, (m, v) in enumerate(zip(agent.adam.m, agent.adam.v)):
            arrays[f"am{i}"] = m
            arrays[f"av{i}"] = v
    buf = agent.buffer
    arrays["buf_s"] = buf.s.astype(float)
    arrays["buf_a"] = buf.a.astype(float)
    arrays["buf_r"] = buf.r
    arrays["buf_s_next"] = buf.s_next.astype(float)
    arrays["buf_done"] = buf.done.astype(float)
    return arrays


def save_checkpoint(agent: Agent, path: str, *, run_cfg: RunConfig | None = None,
                    seed: int | None = None, graph: GraphMap | None = None,
                    env: RoadEnv | None = None, train_rng=None,
                    rows=None) -> None:
    """Serialize the full training state to a single binary file.

    Layout: magic, u16 format version, u32 header length, UTF-8 JSON
    header, then the declared arrays as little-endian float64 in order.
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
        "adam_t": agent.opt_t if agent.cfg.backend == "tabular" else agent.adam.t,
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
    with open(path, "wb") as fh:
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"unreadable header: {exc}") from exc
    arrays = {}
    offset = 10 + hlen
    for spec in header.get("arrays", []):
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = 8 * count
        if offset + nbytes > len(blob):
            raise CorruptCheckpoint(f"truncated array {spec['name']}")
        arrays[spec["name"]] = np.frombuffer(
            blob[offset:offset + nbytes], dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise CorruptCheckpoint("trailing bytes after declared arrays")
    return Checkpoint(version=version, header=header, arrays=arrays)


def load_checkpoint(path: str) -> Agent:
    """Rebuild just the agent from a checkpoint file."""
    return read_checkpoint(path).build_agent()
