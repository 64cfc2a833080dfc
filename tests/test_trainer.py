import math

import numpy as np
import pytest

from qrrn.env import EnvConfig
from qrrn.learner import Agent, AgentConfig
from qrrn.policies import ExecPolicy
from qrrn.trainer import (AggRow, Checkpoint, CorruptCheckpoint, EpisodeTrace,
                          EvalRow, RunConfig, VersionMismatch, aggregate_rows,
                          aggregate_csv_text, classify_trace, curve_auc,
                          curves_csv_text, curves_svg_text, evaluate,
                          load_checkpoint, load_run_config,
                          ranked_crosswalk_free_routes, read_checkpoint,
                          resolve_graph, run_lr_sweep, run_trials,
                          save_checkpoint, train_one)

POLS = [ExecPolicy("greedy"), ExecPolicy("ssd"), ExecPolicy("t-ssd", 15.0)]


def small_cfg(**kw):
    base = dict(
        map_source={"kind": "two-route", "noisy_len": 8, "robust_len": 10},
        env=EnvConfig(r_base=3.0, r_loopback=18.0),
        agent=AgentConfig(),
        total_steps=4000,
        eval_interval=2000,
        exec_policies=POLS,
        seeds=[1, 2],
    )
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing

def test_run_config_validation():
    with pytest.raises(ValueError):
        small_cfg(total_steps=100)          # below eval_interval
    with pytest.raises(ValueError):
        small_cfg(seeds=[])
    with pytest.raises(ValueError):
        small_cfg(seeds=[-3])
    with pytest.raises(ValueError):
        small_cfg(exec_policies=[])
    with pytest.raises(ValueError, match="unique"):
        small_cfg(exec_policies=[ExecPolicy("t-ssd", 1.0),
                                 ExecPolicy("t-ssd", 15.0)])


def test_load_run_config_defaults_and_strictness():
    cfg = load_run_config({"map": {"kind": "two-route", "noisy_len": 8,
                                   "robust_len": 10}})
    assert cfg.eval_interval == 10_000
    assert cfg.agent.lr == 5e-4 and cfg.agent.n_quantiles == 4
    assert cfg.env.episode_cap == 1000
    assert [p.kind for p in cfg.exec_policies] == ["greedy"]
    with pytest.raises(ValueError):
        load_run_config({"map": "m.json", "bogus": 1})
    with pytest.raises(ValueError):
        load_run_config({"total_steps": 100})   # map missing


def test_resolve_graph_variants(tmp_path, two_route_map):
    by_spec = resolve_graph(small_cfg())
    assert by_spec == two_route_map
    from qrrn.roadnet import emit_map, map_to_dict
    path = tmp_path / "m.json"
    path.write_text(emit_map(two_route_map))
    assert resolve_graph(small_cfg(map_source=str(path))) == two_route_map
    assert resolve_graph(small_cfg(map_source=map_to_dict(two_route_map))) \
        == two_route_map
    with pytest.raises(ValueError):
        resolve_graph(small_cfg(map_source={"kind": "two-route", "noisy_len": 8,
                                            "robust_len": 10, "spare": 1}))
    with pytest.raises(ValueError, match="robust_len"):
        resolve_graph(small_cfg(map_source={"kind": "two-route", "noisy_len": 8}))


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_forced_route(two_route_map):
    agent = Agent(AgentConfig(), two_route_map.n_states,
                  two_route_map.action_dim)
    agent.theta[0, 1, :] = 1.0   # robust branch looks better at the fork
    trace = evaluate(agent, ExecPolicy("greedy"), two_route_map,
                     EnvConfig(r_base=3.0), gamma=0.99, eval_cap=100, seed=0)
    robust = ranked_crosswalk_free_routes(two_route_map)[0]
    assert trace.visited == robust.nodes
    assert trace.reached_goal


def test_evaluate_untrained_agent_total(two_route_map):
    agent = Agent(AgentConfig(), two_route_map.n_states,
                  two_route_map.action_dim)
    trace = evaluate(agent, ExecPolicy("t-ssd", 15.0), two_route_map,
                     EnvConfig(r_base=3.0), gamma=0.99, eval_cap=50, seed=1)
    assert isinstance(trace.reached_goal, bool)
    assert math.isfinite(trace.discounted_return)
    assert len(trace.visited) == len(trace.rewards) + 1


def test_evaluate_chain_return(chain3_map):
    agent = Agent(AgentConfig(), chain3_map.n_states, chain3_map.action_dim)
    trace = evaluate(agent, ExecPolicy("greedy"), chain3_map,
                     EnvConfig(r_base=1.0), gamma=0.99, eval_cap=100, seed=0)
    assert trace.discounted_return == pytest.approx(-1.99, abs=1e-12)
    assert trace.reached_goal and trace.visited == [0, 1, 2, 3]


def test_trace_return_recomputable(two_route_map):
    agent = Agent(AgentConfig(), two_route_map.n_states,
                  two_route_map.action_dim)
    trace = evaluate(agent, ExecPolicy("greedy"), two_route_map,
                     EnvConfig(r_base=3.0), gamma=0.99, eval_cap=1000, seed=3)
    manual = sum(r * 0.99 ** k for k, r in enumerate(trace.rewards))
    assert trace.discounted_return == pytest.approx(manual, abs=1e-12)


def test_classify_trace(two_route_map):
    ranked = ranked_crosswalk_free_routes(two_route_map)
    robust = ranked[0].nodes
    noisy = [0, 1, 2, 3, 4, 5, 6, 7, 17]

    def trace(visited, reached=True):
        return EpisodeTrace(visited, [], [], 0.0, reached)

    assert classify_trace(trace(noisy), two_route_map) == "noisy"
    assert classify_trace(trace(robust), two_route_map) == "robust-1"
    assert classify_trace(trace(robust, reached=False),
                          two_route_map) == "timeout"
    wander = [0, 8, 8] + robust[1:]     # reaches the goal but loops once
    assert classify_trace(trace(wander), two_route_map) == "other"


def test_classify_robust2(three_route_map):
    ranked = ranked_crosswalk_free_routes(three_route_map)
    assert len(ranked) == 2
    t = EpisodeTrace(ranked[1].nodes, [], [], 0.0, True)
    assert classify_trace(t, three_route_map) == "robust-2"


# ---------------------------------------------------------------------------
# training loop

def test_single_eval_point():
    cfg = small_cfg(total_steps=2000, eval_interval=2000, seeds=[1])
    res = train_one(cfg, 1)
    assert len(res.rows) == len(POLS)
    assert all(r.step == 2000 for r in res.rows)
    assert set(res.final_traces) == {"greedy", "ssd", "t-ssd"}


def test_same_seed_reproducible():
    cfg = small_cfg(seeds=[1])
    a = train_one(cfg, 1)
    b = train_one(cfg, 1)
    assert a.rows == b.rows
    np.testing.assert_array_equal(a.agent.theta, b.agent.theta)
    assert curves_csv_text(a.rows) == curves_csv_text(b.rows)


def test_greedy_converges_to_noisy_route_level(two_route_map):
    cfg = small_cfg(total_steps=60_000, eval_interval=60_000, seeds=[1],
                    exec_policies=[ExecPolicy("greedy")])
    res = train_one(cfg, 1)
    noisy_value = -3.0 * sum(0.99 ** k for k in range(7))
    row = res.rows[-1]
    assert row.route_class == "noisy"
    assert row.discounted_return == pytest.approx(noisy_value, abs=3.0)


def test_seed_isolation():
    both = run_trials(small_cfg(seeds=[1, 2]))
    solo = run_trials(small_cfg(seeds=[2]))
    assert [r for r in both.rows if r.seed == 2] == solo.rows


def test_parallel_jobs_match_serial():
    serial = run_trials(small_cfg(seeds=[1, 2]), jobs=1)
    parallel = run_trials(small_cfg(seeds=[1, 2]), jobs=2)
    assert serial.rows == parallel.rows
    assert serial.final_routes == parallel.final_routes


def test_aggregate_stats():
    rows = [EvalRow(1, "greedy", 10, -5.0, True, "noisy"),
            EvalRow(2, "greedy", 10, -7.0, True, "noisy")]
    agg = aggregate_rows(rows, [ExecPolicy("greedy")], [1, 2])
    assert agg == [AggRow("greedy", 10, -6.0,
                          pytest.approx(np.std([-5, -7], ddof=1) / np.sqrt(2)),
                          2)]
    single = aggregate_rows(rows[:1], [ExecPolicy("greedy")], [1])
    assert single[0].stderr_return == 0.0


def test_report_histogram_and_csv_shapes():
    cfg = small_cfg()
    report = run_trials(cfg)
    points = cfg.total_steps // cfg.eval_interval
    assert len(report.rows) == len(cfg.seeds) * len(POLS) * points
    hist = report.route_histogram("greedy")
    assert sum(hist.values()) == len(cfg.seeds)
    curves = curves_csv_text(report.rows)
    assert curves.splitlines()[0] == \
        "seed,exec_policy,step,discounted_return,reached_goal,route_class"
    assert len(curves.splitlines()) == 1 + len(report.rows)
    agg = aggregate_csv_text(report.aggregate)
    assert agg.splitlines()[0] == \
        "exec_policy,step,mean_return,stderr_return,n_seeds"
    svg = curves_svg_text(report.aggregate)
    assert svg.startswith("<svg") and "polyline" in svg


def test_lr_sweep_plumbing():
    cfg = small_cfg(total_steps=2000, eval_interval=2000, seeds=[1],
                    exec_policies=[ExecPolicy("greedy")])
    out = run_lr_sweep(cfg, [1e-3, 5e-4])
    assert set(out) == {1e-3, 5e-4}
    for rep in out.values():
        auc = curve_auc(rep, "greedy", cfg.eval_interval)
        assert math.isfinite(auc)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_bitexact(tmp_path, two_route_map):
    cfg = small_cfg(total_steps=2000, eval_interval=2000, seeds=[1])
    res = train_one(cfg, 1, checkpoint_path=str(tmp_path / "a.qrrn"))
    agent = load_checkpoint(str(tmp_path / "a.qrrn"))
    np.testing.assert_array_equal(agent.theta, res.agent.theta)
    np.testing.assert_array_equal(agent.theta_target, res.agent.theta_target)
    np.testing.assert_array_equal(agent.buffer.r, res.agent.buffer.r)
    assert agent.steps_done == res.agent.steps_done
    assert agent.cfg == res.agent.cfg
    ck = read_checkpoint(str(tmp_path / "a.qrrn"))
    assert ck.build_graph() == two_route_map


def test_checkpoint_network_roundtrip(tmp_path):
    agent = Agent(AgentConfig(backend="network", hidden=(8, 8)), 6, 2, seed=3)
    x = np.eye(6)
    from qrrn import nn
    before = nn.forward(agent.net, x)
    save_checkpoint(agent, str(tmp_path / "n.qrrn"))
    again = load_checkpoint(str(tmp_path / "n.qrrn"))
    np.testing.assert_array_equal(nn.forward(again.net, x), before)
    assert again.adam.t == agent.adam.t


def test_checkpoint_corruption_cases(tmp_path):
    agent = Agent(AgentConfig(), 4, 2)
    path = tmp_path / "c.qrrn"
    save_checkpoint(agent, str(path))
    blob = path.read_bytes()

    (tmp_path / "magic.qrrn").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(str(tmp_path / "magic.qrrn"))

    (tmp_path / "trunc.qrrn").write_bytes(blob[:-16])
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(str(tmp_path / "trunc.qrrn"))

    (tmp_path / "extra.qrrn").write_bytes(blob + b"\0" * 8)
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(str(tmp_path / "extra.qrrn"))

    (tmp_path / "vers.qrrn").write_bytes(blob[:4] + b"\x63\x00" + blob[6:])
    with pytest.raises(VersionMismatch):
        read_checkpoint(str(tmp_path / "vers.qrrn"))


def test_split_run_equivalence(tmp_path):
    cfg = small_cfg(total_steps=6000, eval_interval=2000, seeds=[1])
    full = train_one(cfg, 1)

    ck = str(tmp_path / "mid.qrrn")
    train_one(cfg, 1, stop_at=3000, checkpoint_path=ck)
    resumed = train_one(cfg, 1, resume=ck)

    assert resumed.rows == full.rows
    np.testing.assert_array_equal(resumed.agent.theta, full.agent.theta)
    np.testing.assert_array_equal(resumed.agent.opt_m, full.agent.opt_m)
    np.testing.assert_array_equal(resumed.agent.opt_v, full.agent.opt_v)
    np.testing.assert_array_equal(resumed.agent.buffer.s, full.agent.buffer.s)
    assert resumed.agent.opt_t == full.agent.opt_t


def test_network_backend_trains_and_resumes(tmp_path):
    cfg = small_cfg(total_steps=3000, eval_interval=1000, seeds=[4],
                    agent=AgentConfig(backend="network", hidden=(16,),
                                      lr=1e-3, buffer_size=256,
                                      batch_size=16),
                    exec_policies=[ExecPolicy("greedy")])
    full = train_one(cfg, 4)
    assert len(full.rows) == 3

    ck = str(tmp_path / "net.qrrn")
    train_one(cfg, 4, stop_at=1500, checkpoint_path=ck)
    resumed = train_one(cfg, 4, resume=ck)
    assert resumed.rows == full.rows
    for a, b in zip(resumed.agent.net.weights, full.agent.net.weights):
        np.testing.assert_array_equal(a, b)
    assert resumed.agent.adam.t == full.agent.adam.t
