"""Command-line entry point.

Subcommands:

* ``gen-map``: write a synthetic scenario map and print its route inventory
* ``train``: train a single seed and write a checkpoint plus curve CSV
* ``eval``: roll out a checkpointed agent under an execution policy
* ``trials``: the multi-seed study driver (CSV/DOT/SVG/checkpoint outputs)
* ``oracle``: value iteration, shortest path and Monte-Carlo statistics
* ``inspect``: per-action return distributions stored in a checkpoint

Exit codes are stable for scripting: 0 success, 1 runtime failure,
2 usage error or a damaged or ill-typed run config, map or checkpoint,
3 I/O failure. Diagnostics go to stderr only.
The environment variable ``QRRN_SEED_OFFSET`` (integer) is added to all
configured seeds, which lets clusters shard studies without editing
configs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import oracle as oracle_mod
from .config import read
from .env import EnvConfig
from .policies import ExecPolicy
from .quantdist import cvar, mean as dist_mean, variance as dist_variance
from .roadnet import (MapError, Route, ScenarioParams, emit_map,
                      enumerate_routes, generate_scenario, parse_map,
                      render_routes, shortest_path)
from .trainer import (CorruptCheckpoint, RunConfig,
                      VersionMismatch, aggregate_csv_text, curve_auc,
                      curves_csv_text, curves_svg_text, evaluate,
                      open_replacing, read_checkpoint,
                      resolve_graph, run_lr_sweep, run_trials, train_one)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _err(msg: str) -> None:
    print(f"qrrn: {msg}", file=sys.stderr)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigFailure(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open_replacing(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


class ConfigFailure(Exception):
    """Bad input: config, map document, flags. Exit 2."""


class IoFailure(Exception):
    """Output-side I/O problem. Exit 3."""


def _seed_offset() -> int:
    raw = os.environ.get("QRRN_SEED_OFFSET", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigFailure(f"QRRN_SEED_OFFSET must be an integer, got {raw!r}") \
            from exc


def _load_config(path: str, seeds=None, total_steps=None, out_dir=None) -> RunConfig:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigFailure(f"config {path} is not valid JSON: {exc}") from exc
    try:
        cfg = RunConfig.from_dict(doc)
        if seeds is not None:
            cfg = replace(cfg, seeds=seeds)
        if total_steps is not None:
            cfg = replace(cfg, total_steps=total_steps)
        if out_dir is not None:
            cfg = replace(cfg, out_dir=out_dir)
        offset = _seed_offset()
        if offset:
            cfg = replace(cfg, seeds=[s + offset for s in cfg.seeds])
        return cfg
    except (TypeError, ValueError) as exc:     # ill-typed or invalid values
        raise ConfigFailure(f"bad config {path}: {exc}") from exc


def _parse_seed_list(text: str):
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigFailure(f"bad seed list {text!r}") from exc


# ---------------------------------------------------------------------------

def cmd_gen_map(args) -> int:
    params = ScenarioParams(noisy_len=args.noisy_len, robust_len=args.robust_len,
                            robust2_len=args.robust2_len)
    graph = generate_scenario(args.kind, params)
    _write_text(args.out, emit_map(graph))
    print(f"wrote {args.out}: {graph.n_states} states, "
          f"action_dim {graph.action_dim}")
    print("route inventory (start -> goal, simple paths):")
    for route in enumerate_routes(graph):
        noisy = any(v in graph.crosswalks for v in route.nodes)
        flag = "crosswalk" if noisy else "clear"
        print(f"  length {route.length:3d}  [{flag}]  "
              + "-".join(str(v) for v in route.nodes))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config, seeds=None, total_steps=args.total_steps,
                       out_dir=args.out)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    seed += _seed_offset() if args.seed is not None else 0
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {cfg.out_dir}: {exc}") from exc
    ck_path = os.path.join(cfg.out_dir, f"checkpoint_seed{seed}.qrrn")
    result = train_one(cfg, seed, checkpoint_path=ck_path)
    _write_text(os.path.join(cfg.out_dir, f"curves_seed{seed}.csv"),
                curves_csv_text(result.rows))
    print(f"trained seed {seed} for {cfg.total_steps} steps")
    print(f"checkpoint: {ck_path}")
    for row in result.rows[-len(cfg.exec_policies):]:
        print(f"  final {row.exec_policy}: return {row.discounted_return:.4f} "
              f"route {row.route_class}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ck, agent = _load_ck(args.checkpoint)
    graph = ck.build_graph()
    run = ck.run_config()
    env_cfg = EnvConfig() if run is None else run.env
    policy = ExecPolicy(kind=args.policy, ssd_thres=args.ssd_thres)
    trace = evaluate(agent, policy, graph, env_cfg, agent.cfg.gamma,
                     args.episode_cap, args.seed)
    print(f"policy {policy.label}: return {trace.discounted_return:.6f} "
          f"reached_goal {trace.reached_goal}")
    print("route: " + "-".join(str(v) for v in trace.visited))
    return EXIT_OK


def _load_ck(path: str):
    """The checkpoint at ``path`` and the agent it holds."""
    try:
        ck = read_checkpoint(path)
    except FileNotFoundError as exc:
        raise ConfigFailure(f"no such checkpoint: {path}") from exc
    return ck, ck.build_agent()


def cmd_trials(args) -> int:
    if args.jobs < 0:
        raise ConfigFailure(f"--jobs must be >= 0 (0 picks one per seed, "
                            f"capped at cores), got {args.jobs}")
    seeds = _parse_seed_list(args.seeds) if args.seeds else None
    cfg = _load_config(args.config, seeds=seeds, total_steps=args.total_steps,
                       out_dir=args.out)
    graph = resolve_graph(cfg)      # a bad map fails here, before any trial
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {cfg.out_dir}: {exc}") from exc
    jobs = args.jobs if args.jobs else min(len(cfg.seeds), os.cpu_count() or 1)

    if args.lr_sweep:
        try:
            lrs = [float(x) for x in args.lr_sweep.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigFailure(f"bad lr list {args.lr_sweep!r}") from exc
        reports = run_lr_sweep(cfg, lrs, jobs=jobs)
        print("learning-rate sweep (area under the mean curve):")
        for lr, rep in reports.items():
            sub = os.path.join(cfg.out_dir, f"lr_{lr:g}")
            os.makedirs(sub, exist_ok=True)
            _write_text(os.path.join(sub, "curves.csv"),
                        curves_csv_text(rep.rows))
            _write_text(os.path.join(sub, "aggregate.csv"),
                        aggregate_csv_text(rep.aggregate))
            for pol in cfg.exec_policies:
                auc = curve_auc(rep, pol.label, cfg.eval_interval)
                print(f"  lr {lr:g}  {pol.label:8s} auc {auc:.2f}")
        return EXIT_OK

    report = run_trials(cfg, jobs=jobs, checkpoint_dir=cfg.out_dir)

    _write_text(os.path.join(cfg.out_dir, "curves.csv"),
                curves_csv_text(report.rows))
    _write_text(os.path.join(cfg.out_dir, "aggregate.csv"),
                aggregate_csv_text(report.aggregate))
    if args.svg:
        _write_text(os.path.join(cfg.out_dir, "curves.svg"),
                    curves_svg_text(report.aggregate))
    for pol in cfg.exec_policies:
        routes = {}
        for (seed, label), visited in sorted(report.final_traces.items()):
            if label == pol.label:
                # loopback steps re-enter the same node; they are not edges
                walk = [v for i, v in enumerate(visited)
                        if i == 0 or v != visited[i - 1]]
                routes.setdefault(tuple(walk), []).append(seed)
        overlays = []
        for visited, route_seeds in sorted(routes.items()):
            cls = report.final_routes.get((route_seeds[0], pol.label), "?")
            overlays.append((Route(list(visited)),
                             f"{cls} ({len(route_seeds)} seeds)"))
        _write_text(os.path.join(cfg.out_dir, f"route_{pol.label}.dot"),
                    render_routes(graph, overlays))

    print(f"{len(cfg.seeds)} seeds x {cfg.total_steps} steps on {graph.name}")
    print("final route classes:")
    for pol in cfg.exec_policies:
        hist = report.route_histogram(pol.label)
        pretty = ", ".join(f"{k}: {v}" for k, v in sorted(hist.items()))
        print(f"  {pol.label:8s} {pretty}")
    print(f"artifacts in {cfg.out_dir}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        graph = parse_map(_read_text(args.map))
    except MapError as exc:
        raise ConfigFailure(f"bad map {args.map}: {exc}") from exc
    env_cfg = EnvConfig(r_base=args.r_base, r_loopback=args.r_loopback)
    q = oracle_mod.value_iteration(graph, env_cfg, args.gamma)
    print(f"value iteration (gamma={args.gamma}, r_base={args.r_base}, "
          f"r_loopback={args.r_loopback}):")
    for s in range(graph.n_states):
        row = "  ".join(f"a{a}={q[s, a]:+.6f}" for a in range(graph.action_dim))
        print(f"  state {s:3d}: {row}")
    sp = shortest_path(graph)
    print(f"shortest path ({sp.length} edges): "
          + "-".join(str(v) for v in sp.nodes))

    if args.mc_policy:
        route = _load_route(args.mc_policy, graph)
        policy = np.zeros(graph.n_states, dtype=np.int64)
        edge_action = {(e.src, e.dst): e.action for e in graph.edges}
        for u, v in zip(route.nodes, route.nodes[1:]):
            if (u, v) not in edge_action:
                raise ConfigFailure(f"route edge {u}->{v} not in map")
            policy[u] = edge_action[(u, v)]
        samples = oracle_mod.mc_returns(graph, env_cfg, policy, graph.start,
                                        args.gamma, args.episodes, seed=args.seed)
        qs = oracle_mod.empirical_quantiles(samples, args.quantiles)
        print(f"monte-carlo over {args.episodes} episodes of the given route:")
        print(f"  mean {samples.mean():+.6f}  std {samples.std(ddof=1):.6f}  "
              f"min {samples.min():+.6f}  max {samples.max():+.6f}")
        print("  quantile atoms: " + "  ".join(f"{v:+.6f}" for v in qs))
    return EXIT_OK


def _load_route(path: str, graph) -> Route:
    """The route in file ``path``: from the map's start to a goal, passing
    no other goal and no node twice, so that its action map walks it."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigFailure(f"route file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):                  # a bare list of node ids
        doc = {"nodes": doc}
    nodes = read(doc, {"nodes": list[int]}, {"nodes"}, "route")["nodes"]
    if not nodes or nodes[0] != graph.start:
        raise ConfigFailure(f"route {path} must start at start node {graph.start}")
    if nodes[-1] not in graph.goals or any(v in graph.goals for v in nodes[:-1]):
        raise ConfigFailure(f"route {path} must end at its first goal")
    if len(set(nodes)) != len(nodes):
        raise ConfigFailure(f"route {path} repeats a node")
    return Route(nodes)


def cmd_inspect(args) -> int:
    ck, agent = _load_ck(args.checkpoint)
    run = ck.run_config()
    if not (0 <= args.state < agent.n_states):
        raise ConfigFailure(f"state {args.state} outside 0..{agent.n_states - 1}")
    dists = agent.action_dists(args.state)
    print(f"state {args.state} (checkpoint step {agent.steps_done}):")
    for a in range(agent.n_actions):
        atoms = "  ".join(f"{v:+.4f}" for v in dists[a])
        print(f"  action {a}: atoms [{atoms}]  mean {dist_mean(dists[a]):+.4f}  "
              f"var {dist_variance(dists[a]):.4f}  "
              f"cvar(0.5) {cvar(dists[a], 0.5):+.4f}")
    pols = run.exec_policies if run else [ExecPolicy("greedy"), ExecPolicy("ssd")]
    if args.ssd_thres is not None:
        pols = [p for p in pols if p.kind != "t-ssd"]
        pols.append(ExecPolicy("t-ssd", ssd_thres=args.ssd_thres))
    for pol in pols:
        suffix = f"(thres={pol.ssd_thres:g})" if pol.kind == "t-ssd" else ""
        print(f"  {pol.label}{suffix} -> action {pol.select(dists)}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrrn",
        description="Distributional RL route planning on stochastic road networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-map", help="generate a synthetic scenario map")
    p.add_argument("kind", choices=["two-route", "three-route"])
    p.add_argument("--noisy-len", type=int, required=True)
    p.add_argument("--robust-len", type=int, required=True)
    p.add_argument("--robust2-len", type=int, default=None)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_map)

    p = sub.add_parser("train", help="train one seed from a run config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--total-steps", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="roll out a checkpointed agent")
    p.add_argument("checkpoint")
    p.add_argument("--policy", default="greedy",
                   choices=["greedy", "ssd", "t-ssd"])
    p.add_argument("--ssd-thres", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episode-cap", type=int, default=1000)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trials", help="run a multi-seed study")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (default: seeds, capped at cores)")
    p.add_argument("--seeds", default=None, help="comma list override")
    p.add_argument("--total-steps", type=int, default=None)
    p.add_argument("--svg", action="store_true",
                   help="also draw mean/stderr bands as SVG")
    p.add_argument("--lr-sweep", default=None,
                   help="comma list of learning rates; run the study per "
                        "rate and report curve areas instead of routes")
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser("oracle", help="value iteration and MC statistics")
    p.add_argument("map")
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--r-base", type=float, default=1.0)
    p.add_argument("--r-loopback", type=float, default=0.0)
    p.add_argument("--mc-policy", default=None,
                   help="JSON route file; rolls out its fixed policy")
    p.add_argument("--episodes", type=int, default=10_000)
    p.add_argument("--quantiles", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("inspect", help="print learned distributions at a state")
    p.add_argument("checkpoint")
    p.add_argument("--state", type=int, required=True)
    p.add_argument("--ssd-thres", type=float, default=None)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigFailure, ValueError) as exc:     # MapError is a ValueError
        _err(str(exc))
        return EXIT_USAGE
    except (CorruptCheckpoint, VersionMismatch) as exc:
        _err(f"bad checkpoint: {exc}")
        return EXIT_USAGE
    except IoFailure as exc:
        _err(str(exc))
        return EXIT_IO
    except OSError as exc:
        _err(f"i/o failure: {exc}")
        return EXIT_IO
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    raise SystemExit(main())
