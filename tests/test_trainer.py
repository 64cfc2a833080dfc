import contextlib
import importlib.util
import io
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import FIXTURE, damaged_fixture, header_edit
from hypothesis import given, settings, strategies as st

from qrrn import cli, nn, trainer as trainer_mod
from qrrn.env import EnvConfig
from qrrn.learner import Agent, AgentConfig
from qrrn.policies import ExecPolicy
from qrrn.roadnet import ScenarioParams
from qrrn.trainer import (AggRow, Checkpoint, CorruptCheckpoint, EpisodeTrace,
                          EvalRow, RunConfig, VersionMismatch, aggregate_rows,
                          aggregate_csv_text, classify_trace, curve_auc,
                          curves_csv_text, curves_svg_text, evaluate,
                          load_run_config,
                          ranked_crosswalk_free_routes, read_checkpoint,
                          resolve_graph, run_lr_sweep, run_trials,
                          save_checkpoint, train_one, _agent_arrays,
                          _learner_arrays)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
POLS = [ExecPolicy("greedy"), ExecPolicy("ssd"), ExecPolicy("t-ssd", 15.0)]


def small_cfg(**kw):
    base = dict(
        map={"kind": "two-route", "noisy_len": 8, "robust_len": 10},
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
    with pytest.raises(ValueError, match="distinct"):
        small_cfg(seeds=[1, 1])
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
    assert resolve_graph(small_cfg(map=str(path))) == two_route_map
    assert resolve_graph(small_cfg(map=map_to_dict(two_route_map))) \
        == two_route_map
    with pytest.raises(ValueError):
        resolve_graph(small_cfg(map={"kind": "two-route", "noisy_len": 8,
                                     "robust_len": 10, "spare": 1}))
    with pytest.raises(ValueError, match="robust_len"):
        resolve_graph(small_cfg(map={"kind": "two-route", "noisy_len": 8}))


# the JSON types each config field takes; any other one is rejected
INT, NUMBER, TEXT, LIST, OBJECT = ({"int"}, {"int", "float"}, {"string"},
                                   {"list"}, {"object"})
FIELD_TYPES = {
    EnvConfig: dict(r_base=NUMBER, r_loopback=NUMBER, crosswalk_std=NUMBER,
                    episode_cap=INT, obs_encoding=TEXT),
    AgentConfig: dict(n_quantiles=INT, gamma=NUMBER, lr=NUMBER,
                      buffer_size=INT, batch_size=INT, gradient_steps=INT,
                      exploration_fraction=NUMBER,
                      exploration_final_eps=NUMBER,
                      target_sync_interval=INT | {"null"}, backend=TEXT,
                      kappa=NUMBER, hidden=LIST, optimizer=TEXT),
    RunConfig: dict(map=OBJECT | TEXT, env=OBJECT, agent=OBJECT,
                    total_steps=INT, eval_interval=INT, eval_episode_cap=INT,
                    exec_policies=LIST, seeds=LIST, out_dir=TEXT),
    ScenarioParams: dict(noisy_len=INT, robust_len=INT,
                         robust2_len=INT | {"null"}),
}
JSON_VALUES = {"string": "7", "bool": True, "int": 7, "float": 7.5,
               "object": {}, "list": [7], "null": None}

sizes = st.integers(1, 10**6)
numbers = st.one_of(st.integers(1, 10**6),
                    st.floats(1e-6, 1e6, allow_infinity=False))
fractions = st.floats(0.0, 1.0)
names = st.text(max_size=8)
env_configs = st.builds(EnvConfig, r_base=numbers, r_loopback=numbers,
                        crosswalk_std=numbers, episode_cap=sizes,
                        obs_encoding=st.sampled_from(["one-hot", "index"]))
agent_configs = st.builds(
    AgentConfig, n_quantiles=sizes, gamma=st.floats(0.0, 0.999), lr=numbers,
    buffer_size=sizes, batch_size=sizes, gradient_steps=sizes,
    exploration_fraction=st.floats(1e-6, 1.0), exploration_final_eps=fractions,
    target_sync_interval=st.none() | sizes,
    backend=st.sampled_from(["tabular", "network"]), kappa=numbers,
    hidden=st.lists(sizes, max_size=3).map(tuple),
    optimizer=st.sampled_from(["adam", "sgd"]))
scenario_params = st.builds(ScenarioParams, noisy_len=st.integers(),
                            robust_len=st.integers(),
                            robust2_len=st.none() | st.integers())
# total_steps is a multiple of eval_interval: 10**6 = 2**6 * 5**6
DIVISORS = sorted(2**i * 5**j for i in range(7) for j in range(7))
run_configs = st.builds(
    RunConfig, map=names | st.dictionaries(names, st.integers(), max_size=3),
    env=env_configs, agent=agent_configs, total_steps=st.just(10**6),
    eval_interval=st.sampled_from(DIVISORS), eval_episode_cap=sizes,
    exec_policies=st.lists(st.sampled_from(POLS), min_size=1, max_size=3,
                           unique=True),
    seeds=st.lists(st.integers(0, 10**9), min_size=1, max_size=4,
                   unique=True),
    out_dir=names)
configs = st.one_of(env_configs, agent_configs, scenario_params, run_configs)


@given(configs)
def test_config_round_trips_through_json(config):
    text = json.dumps(config.to_dict())
    back = type(config).from_dict(json.loads(text))
    assert back == config
    assert json.dumps(back.to_dict()) == text


@given(configs, st.data())
def test_config_field_of_another_json_type_is_rejected(config, data):
    doc = json.loads(json.dumps(config.to_dict()))
    key = data.draw(st.sampled_from(sorted(doc)))
    other = data.draw(st.sampled_from(
        sorted(JSON_VALUES.keys() - FIELD_TYPES[type(config)][key])))
    doc[key] = JSON_VALUES[other]
    with pytest.raises(ValueError, match=key):
        type(config).from_dict(doc)


def test_fixture_config_reserialises_to_the_same_bytes():
    config = read_checkpoint(str(FIXTURE)).header["config"]
    for cls, key in ((RunConfig, "run"), (AgentConfig, "agent")):
        assert json.dumps(cls.from_dict(config[key]).to_dict()) \
            == json.dumps(config[key])


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_forced_route(two_route_map):
    agent = Agent(AgentConfig(), two_route_map.n_states,
                  two_route_map.action_dim)
    agent.head.theta[0, 1, :] = 1.0   # robust branch looks better at the fork
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


def test_a_frozen_network_agent_forwards_each_state_once(tmp_path, monkeypatch):
    cfg = small_cfg(total_steps=2000, eval_interval=2000, seeds=[1],
                    agent=AgentConfig(backend="network"))
    path = str(tmp_path / "c.qrrn")
    graph = train_one(cfg, 1, checkpoint_path=path).graph
    agent = read_checkpoint(path).build_agent()
    forwards = []
    counted = nn.forward
    monkeypatch.setattr(nn, "forward",
                        lambda *a, **k: forwards.append(1) or counted(*a, **k))

    def rollouts():
        return [evaluate(agent, pol, graph, cfg.env, cfg.agent.gamma,
                         cfg.eval_episode_cap, seed=(1, 2, k))
                for pol in POLS for k in range(10)]

    cached = rollouts()
    decided = {s for t in cached for s in t.visited[:-1]}
    assert len(forwards) == len(decided)
    forwards.clear()
    table_action_dists = agent.action_dists
    monkeypatch.setattr(agent, "action_dists", lambda s, target=False: (
        agent._online.clear(), table_action_dists(s, target))[1])
    assert rollouts() == cached
    assert len(forwards) == sum(len(t.actions) for t in cached)


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
    np.testing.assert_array_equal(a.agent.head.theta,
                                  b.agent.head.theta)
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
    agg = aggregate_rows(rows, [ExecPolicy("greedy")])
    assert agg == [AggRow("greedy", 10, -6.0,
                          pytest.approx(np.std([-5, -7], ddof=1) / np.sqrt(2)),
                          2)]
    single = aggregate_rows(rows[:1], [ExecPolicy("greedy")])
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
    agent = read_checkpoint(str(tmp_path / "a.qrrn")).build_agent()
    np.testing.assert_array_equal(agent.head.theta, res.agent.head.theta)
    np.testing.assert_array_equal(agent.head.theta_target,
                                  res.agent.head.theta_target)
    np.testing.assert_array_equal(agent.buffer.r, res.agent.buffer.r)
    assert agent.steps_done == res.agent.steps_done
    assert agent.cfg == res.agent.cfg
    ck = read_checkpoint(str(tmp_path / "a.qrrn"))
    assert ck.build_graph() == two_route_map


def test_checkpoint_network_roundtrip(tmp_path):
    agent = Agent(AgentConfig(backend="network", hidden=(8, 8)), 6, 2, seed=3)
    x = np.eye(6)
    before = nn.forward(agent.head.net, x)
    save_checkpoint(agent, str(tmp_path / "n.qrrn"))
    again = read_checkpoint(str(tmp_path / "n.qrrn")).build_agent()
    np.testing.assert_array_equal(nn.forward(again.head.net, x), before)
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


def used_agent(backend: str) -> Agent:
    """An agent whose every saved field is off its initial value: trained
    params, target and Adam moments, a buffer that has wrapped around."""
    agent = Agent(AgentConfig(backend=backend, hidden=(6,), buffer_size=24,
                              batch_size=8), 5, 3, seed=7)
    rng = np.random.default_rng(0)
    for _ in range(30):
        agent.buffer.push(int(rng.integers(5)), int(rng.integers(3)),
                          float(rng.normal()), int(rng.integers(5)),
                          bool(rng.random() < 0.2))
    for _ in range(3):
        agent.qr_update(agent.buffer.sample(8, rng))
    agent.sync_target()
    agent.qr_update(agent.buffer.sample(8, rng))
    agent.steps_done = 123
    return agent


@pytest.mark.parametrize("backend", ["tabular", "network"])
def test_load_rebuilds_every_saved_field_byte_for_byte(tmp_path, backend):
    agent = used_agent(backend)
    path = str(tmp_path / "c.qrrn")
    save_checkpoint(agent, path)
    again = read_checkpoint(path).build_agent()
    pairs = [(agent.head.params, again.head.params),
             (agent.head.target, again.head.target),
             (agent.adam.m, again.adam.m), (agent.adam.v, again.adam.v)]
    pairs += [(getattr(agent.buffer, c), getattr(again.buffer, c))
              for c in ("s", "a", "r", "s_next", "done")]
    for want, got in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (again.buffer.cursor, again.buffer.size) == (6, 24)
    assert (again.adam.t, again.steps_done) == (4, 123)
    assert_slots_are_views(again)


def test_loaded_arrays_are_read_only_views(tmp_path):
    path = str(tmp_path / "c.qrrn")
    save_checkpoint(used_agent("network"), path)
    ck = read_checkpoint(path)
    assert all(not a.flags.writeable for a in ck.arrays.values())
    with pytest.raises(ValueError, match="read-only"):
        ck.arrays["w0"][0, 0] = 1.0


def test_loading_a_network_draws_no_init(tmp_path, monkeypatch):
    path = str(tmp_path / "c.qrrn")
    agent = used_agent("network")
    save_checkpoint(agent, path)
    ck = read_checkpoint(path)

    def refuse(*args, **kwargs):
        raise AssertionError("a load drew randomness")
    for name in ("SeedSequence", "PCG64", "Generator"):
        monkeypatch.setattr(np.random, name, refuse)
    again = ck.build_agent()
    assert again.head.params.tobytes() == agent.head.params.tobytes()


@pytest.mark.parametrize("bad", [-1, True, 2.0, "2"],
                         ids=["negative", "bool", "float", "string"])
def test_array_table_rejects_a_bad_dimension(tmp_path, bad):
    path = damaged_fixture(tmp_path / "shape.qrrn",
                           header_edit("arrays.0.shape.0", bad))
    with pytest.raises(CorruptCheckpoint, match="array theta has bad shape"):
        read_checkpoint(path)


class _Unwritable:
    """An array entry whose serialisation fails after the header and the
    earlier arrays have been written."""
    shape = (1,)

    def __array__(self, *args, **kwargs):
        raise OSError("disk full")


def test_failed_save_keeps_earlier_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "c.qrrn"
    agent = Agent(AgentConfig(), 4, 2)
    save_checkpoint(agent, str(path))
    before = path.read_bytes()
    agent.head.theta += 1.0
    real = trainer_mod._agent_arrays
    monkeypatch.setattr(trainer_mod, "_agent_arrays",
                        lambda a: {**real(a), "tail": _Unwritable()})
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(agent, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.qrrn"]


def test_checkpoint_array_shape_must_match_dims(tmp_path):
    path = str(tmp_path / "c.qrrn")
    save_checkpoint(Agent(AgentConfig(), 4, 2), path)
    ck = read_checkpoint(path)
    ck.arrays["theta"] = ck.arrays["theta"][:1]     # one state of four
    with pytest.raises(CorruptCheckpoint, match="theta"):
        ck.build_agent()


def test_split_run_equivalence(tmp_path):
    cfg = small_cfg(total_steps=6000, eval_interval=2000, seeds=[1])
    full = train_one(cfg, 1)

    ck = str(tmp_path / "mid.qrrn")
    train_one(cfg, 1, stop_at=3000, checkpoint_path=ck)
    resumed = train_one(cfg, 1, resume=ck)

    assert resumed.rows == full.rows
    np.testing.assert_array_equal(resumed.agent.head.theta,
                                  full.agent.head.theta)
    np.testing.assert_array_equal(resumed.agent.adam.m,
                                  full.agent.adam.m)
    np.testing.assert_array_equal(resumed.agent.adam.v,
                                  full.agent.adam.v)
    np.testing.assert_array_equal(resumed.agent.buffer.s, full.agent.buffer.s)
    assert resumed.agent.adam.t == full.agent.adam.t


def test_resume_rejects_other_seed(tmp_path):
    cfg = small_cfg(total_steps=2000, eval_interval=1000, seeds=[1])
    ck = str(tmp_path / "mid.qrrn")
    train_one(cfg, 1, stop_at=500, checkpoint_path=ck)
    with pytest.raises(ValueError, match="seed"):
        train_one(cfg, 7, resume=ck)


def test_resume_rejects_other_config(tmp_path):
    cfg = small_cfg(total_steps=2000, eval_interval=1000, seeds=[1])
    ck = str(tmp_path / "mid.qrrn")
    train_one(cfg, 1, stop_at=500, checkpoint_path=ck)
    other = small_cfg(total_steps=2000, eval_interval=1000, seeds=[1],
                      agent=AgentConfig(lr=0.01))
    with pytest.raises(ValueError, match="config"):
        train_one(other, 1, resume=ck)


def test_fixture_checkpoint_rebuilds_same_arrays():
    # a stored v1 checkpoint loads into an agent whose arrays are written
    # back under the same names, in the same order, with the same bytes
    ck = read_checkpoint(str(FIXTURE))
    arrays = _agent_arrays(ck.build_agent())
    assert list(arrays) == list(ck.arrays)
    for name, want in ck.arrays.items():
        got = np.ascontiguousarray(arrays[name], dtype="<f8")
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_network_backend_trains_and_resumes(tmp_path):
    cfg = small_cfg(total_steps=3000, eval_interval=1000, seeds=[4],
                    agent=AgentConfig(backend="network", hidden=(16,),
                                      lr=1e-3, buffer_size=256,
                                      batch_size=16),
                    exec_policies=[ExecPolicy("greedy")])
    full = train_one(cfg, 4)
    assert len(full.rows) == 3

    # step 1500 lies inside a sync window (every 1000 steps): the resumed
    # run refills the bootstrap table that the full run kept since step 1000
    ck = str(tmp_path / "net.qrrn")
    train_one(cfg, 4, stop_at=1500, checkpoint_path=ck)
    resumed = train_one(cfg, 4, resume=ck)
    assert resumed.rows == full.rows
    for flat in ("params", "target"):
        assert getattr(resumed.agent.head, flat).tobytes() == \
            getattr(full.agent.head, flat).tobytes()
    assert resumed.agent.adam.m.tobytes() == full.agent.adam.m.tobytes()
    assert resumed.agent.adam.v.tobytes() == full.agent.adam.v.tobytes()
    assert resumed.agent.adam.t == full.agent.adam.t


# ---------------------------------------------------------------------------
# damaged checkpoints

@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A directory holding a copy of the stored tabular fixture and a small
    network checkpoint, to write damaged copies beside."""
    scratch = tmp_path_factory.mktemp("damaged")
    (scratch / "fixture.qrrn").write_bytes(FIXTURE.read_bytes())
    net = Agent(AgentConfig(backend="network", hidden=(4,), buffer_size=32),
                5, 2, seed=1)
    save_checkpoint(net, str(scratch / "network.qrrn"))
    return scratch


@settings(max_examples=200)
@given(st.sampled_from(["fixture", "network"]), st.data())
def test_every_truncation_is_corrupt(saved, which, data):
    blob = (saved / f"{which}.qrrn").read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1))
    path = saved / "cut.qrrn"
    path.write_bytes(blob[:cut])
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(str(path))


def flip_header_bit(saved, which, data, name):
    """A copy of ``saved/<which>.qrrn`` with one bit of its header flipped;
    the header is the fixed prefix (magic, version, length) and the JSON."""
    blob = bytearray((saved / f"{which}.qrrn").read_bytes())
    header_bits = 8 * (10 + struct.unpack("<I", blob[6:10])[0])
    bit = data.draw(st.integers(0, header_bits - 1))
    blob[bit // 8] ^= 1 << (bit % 8)
    path = saved / name
    path.write_bytes(bytes(blob))
    return path


@settings(max_examples=500)
@given(st.sampled_from(["fixture", "network"]), st.data())
def test_header_bit_flip_loads_or_raises_a_checkpoint_error(saved, which, data):
    path = flip_header_bit(saved, which, data, "flip.qrrn")
    try:
        read_checkpoint(str(path)).build_agent()
    except (CorruptCheckpoint, VersionMismatch):
        pass


@settings(max_examples=500)
@given(st.sampled_from(["fixture", "network"]), st.data())
def test_header_bit_flip_runs_or_is_a_usage_error(saved, which, data):
    # eval and inspect on a flipped header succeed or exit 2, never with a
    # traceback; eval also reads the map document and the run config
    path = flip_header_bit(saved, which, data, "flip-cli.qrrn")
    for argv in (["inspect", str(path), "--state", "0"],
                 ["eval", str(path), "--episode-cap", "50"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


# header edits that would have the load allocate about 15 to 80 MB if it
# built the agent before checking the arrays; no edit touches the table
OVERSIZED_HEADERS = [
    pytest.param("fixture", {"dims.n_states": 2**16}, id="n_states"),
    pytest.param("fixture", {"dims.n_actions": 2**13}, id="n_actions"),
    pytest.param("fixture", {"config.agent.n_quantiles": 2**12},
                 id="n_quantiles"),
    pytest.param("fixture", {"config.agent.buffer_size": 2**21},
                 id="buffer_size"),
    pytest.param("fixture", {"config.agent.buffer_size": 2**21,
                             "buffer.capacity": 2**21}, id="capacity"),
    pytest.param("network", {"dims.n_states": 2**16}, id="net-n_states"),
    pytest.param("network", {"config.agent.hidden": [2**16]}, id="hidden"),
    pytest.param("network", {"config.agent.hidden": [4, 2**10, 2**10]},
                 id="hidden-layers"),
]


@pytest.mark.parametrize("which, edits", OVERSIZED_HEADERS)
def test_header_cannot_size_the_loads_memory(saved, which, edits):
    ck = read_checkpoint(str(saved / f"{which}.qrrn"))
    for path, value in edits.items():
        header_edit(path, value)(ck.header)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptCheckpoint):
            ck.build_agent()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.fixture(scope="module")
def paused(tmp_path_factory):
    """A tabular run stopped at step 500, for resumes from damaged copies."""
    cfg = small_cfg(total_steps=2000, eval_interval=1000, seeds=[1])
    path = str(tmp_path_factory.mktemp("paused") / "mid.qrrn")
    train_one(cfg, 1, stop_at=500, checkpoint_path=path)
    return cfg, path


@pytest.mark.parametrize("edit, names", [
    pytest.param(header_edit("seed"), "seed", id="no-seed"),
    pytest.param(header_edit("config.run"), "config.run", id="no-run-config"),
    pytest.param(header_edit("curve_rows"), "curve_rows", id="no-curve-rows"),
    pytest.param(header_edit("env_state"), "env_state", id="no-env-state"),
    pytest.param(header_edit("rng"), "rng.train", id="no-rng"),
    pytest.param(header_edit("rng", None), "rng.train", id="null-rng"),
    pytest.param(header_edit("step"), "step", id="no-step"),
    pytest.param(header_edit("env_state.current"), "current",
                 id="env-state-short"),
    pytest.param(header_edit("curve_rows", None), "training state",
                 id="null-curve-rows"),
    pytest.param(lambda h: h["curve_rows"].append({"seed": 1}),
                 "training state", id="curve-row-short"),
    pytest.param(header_edit("rng.train", {"bit_generator": "MT19937"}),
                 "training state", id="rng-other-generator"),
    pytest.param(header_edit("env_state.current", 99), "training state",
                 id="env-state-off-map"),
    pytest.param(header_edit("env_state.prev", -1), "training state",
                 id="env-prev-off-map"),
])
def test_resume_from_damaged_header_is_corrupt(paused, edit, names):
    cfg, path = paused
    ck = read_checkpoint(path)
    edit(ck.header)
    with pytest.raises(CorruptCheckpoint, match=names):
        train_one(cfg, 1, resume=ck)


def test_build_graph_names_missing_map_document(paused):
    ck = read_checkpoint(paused[1])
    del ck.header["config"]["map_document"]
    with pytest.raises(CorruptCheckpoint, match="config.map_document"):
        ck.build_graph()
    ck.header["config"] = None
    with pytest.raises(CorruptCheckpoint, match="config.map_document"):
        ck.build_graph()


def test_build_agent_names_missing_header_key_or_array():
    ck = read_checkpoint(str(FIXTURE))
    del ck.header["buffer"]["cursor"]
    with pytest.raises(CorruptCheckpoint, match="buffer.cursor"):
        ck.build_agent()
    ck = read_checkpoint(str(FIXTURE))
    del ck.arrays["buf_done"]
    with pytest.raises(CorruptCheckpoint, match="buf_done"):
        ck.build_agent()
    ck = read_checkpoint(str(FIXTURE))
    ck.header["buffer"]["size"] = ck.header["buffer"]["capacity"] + 1
    with pytest.raises(CorruptCheckpoint, match="buffer"):
        ck.build_agent()


# ---------------------------------------------------------------------------
# flat parameter vectors

def assert_slots_are_views(agent: Agent) -> None:
    """Every slot a checkpoint names, and every array the head reads its
    atoms from, is a view of the flat vector the optimizer and the target
    sync update; a rebinding that detached one would go stale silently."""
    h = agent.head
    flats = [h.params, h.target, agent.adam.m, agent.adam.v]
    for i, a in enumerate(flats):
        for b in flats[i + 1:]:
            assert not np.shares_memory(a, b)
    names = dict.fromkeys(h.names[0], h.params)
    names.update(dict.fromkeys(h.names[1], h.target))
    names.update(dict.fromkeys(h.names[2], agent.adam.m))
    names.update(dict.fromkeys(h.names[3], agent.adam.v))
    pairs = _learner_arrays(agent)
    assert sorted(name for name, _ in pairs) == sorted(names)
    for name, view in pairs:
        assert np.shares_memory(view, names[name]), name
    for flat in flats:
        sizes = [v.size for name, v in pairs if names[name] is flat]
        assert sum(sizes) == flat.size
    if agent.cfg.backend == "tabular":
        assert np.shares_memory(h.theta, h.params)
        assert np.shares_memory(h.theta_target, h.target)
    else:
        for p in nn.params(h.net):
            assert np.shares_memory(p, h.params)
        for p in nn.params(h.net_target):
            assert np.shares_memory(p, h.target)


@pytest.mark.parametrize("backend", ["tabular", "network"])
def test_head_slots_share_the_flat_vectors(tmp_path, backend):
    agent = Agent(AgentConfig(backend=backend, hidden=(5, 3)), 4, 3, seed=2)
    assert_slots_are_views(agent)
    path = str(tmp_path / "c.qrrn")
    save_checkpoint(agent, path)
    assert_slots_are_views(read_checkpoint(path).build_agent())
    assert_slots_are_views(read_checkpoint(str(FIXTURE)).build_agent())


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCHMARKS / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_stay_on_the_training_path(tmp_path):
    # the benchmark's tracer wraps these names where callers look them up;
    # a step that bypassed one would vanish from the per-layer table
    cfg = small_cfg(total_steps=600, eval_interval=300, seeds=[4],
                    agent=AgentConfig(backend="network", hidden=(8,),
                                      buffer_size=64, batch_size=8,
                                      target_sync_interval=100),
                    exec_policies=[ExecPolicy("greedy")])
    path = str(tmp_path / "c.qrrn")
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        train_one(cfg, 4, checkpoint_path=path)
        read_checkpoint(path).build_agent()
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    updates = cfg.total_steps - cfg.agent.batch_size + 1
    assert stats["learner.Agent.qr_update"][0] == updates
    assert stats["nn.adam_step"][0] == updates
    assert stats["nn.backward"][0] == updates
    # an update's one nn.forward is the target forward that fills the
    # bootstrap table (the online pass is forward_trace): none in a step
    # the table serves whole, and a fill at least once per sync window
    ids = np.frombuffer(tracer.name_id, dtype=np.int32)
    parents = np.frombuffer(tracer.parent, dtype=np.int32)
    forward, update = (tracer.names.index(k) for k in
                       ("nn.forward", "learner.Agent.qr_update"))
    per_update = np.bincount(parents[(ids == forward) & (parents >= 0)],
                             minlength=len(ids))[ids == update]
    assert set(per_update) == {0, 1}
    assert stats["learner.Agent.sync_target"][0] <= per_update.sum()
    assert stats["nn.clone"][0] == 2
    assert stats["learner.Agent.sync_target"][0] == 6
