import json
import math
import os
import tracemalloc
from importlib import resources

import pytest
from conftest import damaged_fixture, header_edit

from qrrn.cli import main
from qrrn.learner import Agent, AgentConfig
from qrrn.roadnet import (ScenarioParams, build_map, emit_map,
                          generate_scenario, parse_map, shortest_path)
from qrrn.trainer import save_checkpoint


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(path, **overrides):
    doc = {
        "map": {"kind": "two-route", "noisy_len": 8, "robust_len": 10},
        "env": {"r_base": 3.0, "r_loopback": 18.0},
        "agent": {"n_quantiles": 4, "gamma": 0.99, "lr": 0.0005,
                  "backend": "tabular"},
        "total_steps": 4000,
        "eval_interval": 2000,
        "exec_policies": [{"exec_policy": "greedy"}, {"exec_policy": "ssd"},
                          {"exec_policy": "t-ssd", "ssd_thres": 15.0}],
        "seeds": [1, 2],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------

def test_gen_map_writes_valid_map(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, stdout, _ = run(capsys, "gen-map", "two-route", "--noisy-len", "8",
                          "--robust-len", "10", "-o", str(out))
    assert code == 0
    graph = parse_map(out.read_text())
    assert shortest_path(graph).length == 8
    assert "route inventory" in stdout
    assert "crosswalk" in stdout and "clear" in stdout


def test_gen_map_bad_params(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "gen-map", "two-route", "--noisy-len",
                               "10", "--robust-len", "8", "-o",
                               str(tmp_path / "m.json"))
    assert code == 2
    assert stdout == ""
    assert "noisy_len" in stderr


def test_gen_map_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, _, stderr = run(capsys, "gen-map", "two-route", "--noisy-len", "8",
                          "--robust-len", "10", "-o",
                          str(blocker / "m.json"))
    assert code == 3
    assert "cannot write" in stderr


def test_failed_write_keeps_earlier_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "m.json"
    out.write_text("earlier")

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", fail)
    code, _, stderr = run(capsys, "gen-map", "two-route", "--noisy-len", "8",
                          "--robust-len", "10", "-o", str(out))
    assert code == 3
    assert "cannot write" in stderr
    assert out.read_text() == "earlier"
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_missing_subcommand_usage_error(capsys):
    assert main([]) == 2


# ---------------------------------------------------------------------------

def test_trials_outputs_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out1 = tmp_path / "run1"
    code, stdout, _ = run(capsys, "trials", str(cfg), "--out", str(out1),
                          "--jobs", "1", "--svg")
    assert code == 0
    curves = (out1 / "curves.csv").read_text()
    # 2 seeds x 3 policies x 2 eval points
    assert len(curves.splitlines()) == 1 + 2 * 3 * 2
    assert (out1 / "aggregate.csv").exists()
    assert (out1 / "curves.svg").exists()
    for pol in ("greedy", "ssd", "t-ssd"):
        assert (out1 / f"route_{pol}.dot").exists()
    for seed in (1, 2):
        assert (out1 / f"checkpoint_seed{seed}.qrrn").exists()
    assert "final route classes" in stdout

    out2 = tmp_path / "run2"
    code, _, _ = run(capsys, "trials", str(cfg), "--out", str(out2),
                     "--jobs", "1")
    assert code == 0
    assert (out2 / "curves.csv").read_text() == curves
    assert (out2 / "aggregate.csv").read_bytes() == \
        (out1 / "aggregate.csv").read_bytes()


def test_trials_seed_and_step_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "o"
    code, _, _ = run(capsys, "trials", str(cfg), "--out", str(out),
                     "--seeds", "5", "--total-steps", "2000")
    assert code == 0
    lines = (out / "curves.csv").read_text().splitlines()
    assert len(lines) == 1 + 3
    assert all(line.startswith("5,") for line in lines[1:])


def test_total_steps_off_the_eval_grid_is_a_usage_error(tmp_path, capsys):
    # 250 steps at an interval of 100 once ran no evaluation at the last
    # step, and printed an empty final route class per policy with exit 0
    cfg = write_config(tmp_path / "cfg.json", total_steps=250,
                       eval_interval=100, seeds=[1])
    out = tmp_path / "o"
    for argv in (["trials", str(cfg)], ["train", str(cfg)],
                 ["trials", str(write_config(tmp_path / "ok.json")),
                  "--total-steps", "5000"]):
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 2, argv
        assert "total_steps must be a multiple of eval_interval" in stderr
        assert "final route classes" not in stdout
    assert not out.exists()


def test_trials_lr_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", seeds=[1], total_steps=2000,
                       exec_policies=[{"exec_policy": "greedy"}])
    out = tmp_path / "sweep"
    code, stdout, _ = run(capsys, "trials", str(cfg), "--out", str(out),
                          "--lr-sweep", "0.001,0.0005")
    assert code == 0
    assert "learning-rate sweep" in stdout
    assert (out / "lr_0.001" / "aggregate.csv").exists()
    assert (out / "lr_0.0005" / "curves.csv").exists()
    assert stdout.count("auc") == 2


def test_trials_empty_seed_list(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", seeds=[])
    code, stdout, stderr = run(capsys, "trials", str(cfg), "--out",
                               str(tmp_path / "o"))
    assert code == 2
    assert "seeds" in stderr


def test_trials_repeated_seeds_flag(tmp_path, capsys):
    # rows and checkpoints are keyed by seed; seed 1 once trained twice
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    code, _, stderr = run(capsys, "trials", str(cfg), "--seeds", "1,1",
                          "--out", str(out))
    assert code == 2
    assert "distinct" in stderr
    assert not out.exists()


def test_trials_rejects_duplicate_policy_labels(tmp_path, capsys):
    # two t-ssd entries would share rows, aggregates and route_t-ssd.dot
    cfg = write_config(tmp_path / "cfg.json", exec_policies=[
        {"exec_policy": "t-ssd", "ssd_thres": 1.0},
        {"exec_policy": "t-ssd", "ssd_thres": 15.0}])
    out = tmp_path / "o"
    code, _, stderr = run(capsys, "trials", str(cfg), "--out", str(out))
    assert code == 2
    assert "unique" in stderr and "t-ssd" in stderr
    assert not out.exists()


def test_trials_map_spec_missing_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       map={"kind": "two-route", "noisy_len": 8})
    out = tmp_path / "o"
    code, _, stderr = run(capsys, "trials", str(cfg), "--out", str(out),
                          "--jobs", "1")
    assert code == 2
    assert "robust_len" in stderr and "Traceback" not in stderr
    assert not out.exists()


def test_trials_inline_map_with_bool_node_id(tmp_path, capsys,
                                             two_route_map):
    doc = json.loads(emit_map(two_route_map))
    doc["nodes"][0]["id"] = False
    cfg = write_config(tmp_path / "cfg.json", map=doc)
    out = tmp_path / "o"
    code, _, stderr = run(capsys, "trials", str(cfg), "--out", str(out))
    assert code == 2
    assert "id" in stderr and "Traceback" not in stderr
    assert not out.exists()


def test_trials_missing_config(tmp_path, capsys):
    code, _, stderr = run(capsys, "trials", str(tmp_path / "none.json"))
    assert code == 2
    assert "cannot read" in stderr


def test_seed_offset_env_var(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", seeds=[1],
                       total_steps=2000)
    monkeypatch.setenv("QRRN_SEED_OFFSET", "41")
    out = tmp_path / "o"
    code, _, _ = run(capsys, "trials", str(cfg), "--out", str(out))
    assert code == 0
    lines = (out / "curves.csv").read_text().splitlines()[1:]
    assert all(line.startswith("42,") for line in lines)


def test_bundled_config_parses_and_runs(tmp_path, capsys):
    bundled = resources.files("qrrn") / "configs" / "mini-town-a.json"
    code, stdout, _ = run(capsys, "trials", str(bundled), "--out",
                          str(tmp_path / "o"), "--seeds", "1",
                          "--total-steps", "10000")
    assert code == 0
    assert "two-route-8-10" in stdout


# ---------------------------------------------------------------------------

def test_train_and_eval_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", total_steps=2000)
    out = tmp_path / "t"
    code, stdout, _ = run(capsys, "train", str(cfg), "--seed", "3",
                          "--out", str(out))
    assert code == 0
    ck = out / "checkpoint_seed3.qrrn"
    assert ck.exists() and (out / "curves_seed3.csv").exists()

    code, stdout, _ = run(capsys, "eval", str(ck), "--policy", "t-ssd",
                          "--ssd-thres", "15")
    assert code == 0
    assert "route:" in stdout and "reached_goal" in stdout


def test_eval_missing_checkpoint(tmp_path, capsys):
    code, _, stderr = run(capsys, "eval", str(tmp_path / "no.qrrn"))
    assert code == 2
    assert "checkpoint" in stderr


# ---------------------------------------------------------------------------

def test_oracle_chain_values(tmp_path, capsys, chain2_map):
    path = tmp_path / "chain.json"
    path.write_text(emit_map(chain2_map))
    code, stdout, _ = run(capsys, "oracle", str(path), "--gamma", "0.99",
                          "--r-base", "1.0")
    assert code == 0
    assert "state   0: a0=-1.000000" in stdout
    assert "state   1: a0=+0.000000" in stdout
    assert "shortest path (2 edges): 0-1-2" in stdout


def test_oracle_mc_policy_reports_spread(tmp_path, capsys, two_route_map):
    mpath = tmp_path / "m.json"
    mpath.write_text(emit_map(two_route_map))
    route = shortest_path(two_route_map)
    rpath = tmp_path / "route.json"
    rpath.write_text(json.dumps({"nodes": route.nodes}))
    code, stdout, _ = run(capsys, "oracle", str(mpath), "--r-base", "3.0",
                          "--mc-policy", str(rpath), "--episodes", "2000")
    assert code == 0
    line = next(l for l in stdout.splitlines() if "std" in l)
    std = float(line.split("std")[1].split()[0])
    assert std > 0.1
    assert "quantile atoms:" in stdout


ROUTE_MAPS = {
    "two-route": generate_scenario("two-route", ScenarioParams(8, 10)),
    # 0 -> 1 -> 2 -> 3(goal), a back edge 1 -> 0 and a shortcut 0 -> 3
    "loop": build_map("loop", 4, [(0, 1, 0), (0, 3, 1), (1, 2, 0), (1, 0, 1),
                                  (2, 3, 0)], start=0, goals={3}),
    "two-goals": build_map("two-goals", 3, [(0, 1, 0), (1, 2, 0)], start=0,
                           goals={1, 2}),
}
# route files that are not a simple start-to-goal walk of integer node
# ids; each once reported Monte-Carlo statistics with exit 0
BAD_ROUTES = {
    "robust-minus-start": ("two-route", {"nodes": list(range(8, 18))}),
    "fork-only": ("two-route", {"nodes": [0, 8, 9]}),
    "noisy-minus-goal": ("two-route", {"nodes": list(range(8))}),
    "empty": ("two-route", {"nodes": []}),
    "repeated-node": ("loop", {"nodes": [0, 1, 0, 3]}),
    "past-a-goal": ("two-goals", {"nodes": [0, 1, 2]}),
    # false == 0 once passed the start check and then set no action, so
    # the noisy route's statistics were printed for the robust route
    "bool-start": ("two-route", [False] + list(range(8, 18))),
    "unknown-key": ("two-route", {"nodes": [0] + list(range(8, 18)),
                                  "nodez": 1}),     # a typo was ignored
}


@pytest.mark.parametrize("map_name, payload", BAD_ROUTES.values(),
                         ids=BAD_ROUTES.keys())
def test_oracle_rejects_route_that_is_not_a_simple_walk(tmp_path, capsys,
                                                        map_name, payload):
    mpath = tmp_path / "m.json"
    mpath.write_text(emit_map(ROUTE_MAPS[map_name]))
    rpath = tmp_path / "route.json"
    rpath.write_text(json.dumps(payload))
    code, stdout, stderr = run(capsys, "oracle", str(mpath), "--mc-policy",
                               str(rpath), "--episodes", "20")
    assert code == 2
    assert "monte-carlo" not in stdout
    assert "route" in stderr and "Traceback" not in stderr


def test_oracle_negative_seed_on_a_route_without_draws(tmp_path, capsys,
                                                       two_route_map):
    mpath = tmp_path / "m.json"
    mpath.write_text(emit_map(two_route_map))
    rpath = tmp_path / "route.json"
    rpath.write_text(json.dumps([0] + list(range(8, 18))))
    code, _, stderr = run(capsys, "oracle", str(mpath), "--mc-policy",
                          str(rpath), "--seed", "-1")
    assert code == 2
    assert "stream keys must be non-negative, got [-1, 0]" in stderr


def test_oracle_episodes_beyond_the_stream_words(tmp_path, capsys,
                                                two_route_map):
    # one uint32 word per episode: 2**32 + 1 episodes once asked for a
    # 16 GiB column and died with a traceback; the refusal allocates nothing
    mpath = tmp_path / "m.json"
    mpath.write_text(emit_map(two_route_map))
    rpath = tmp_path / "route.json"
    rpath.write_text(json.dumps(shortest_path(two_route_map).nodes))
    tracemalloc.start()
    try:
        code, stdout, stderr = run(capsys, "oracle", str(mpath), "--mc-policy",
                                   str(rpath), "--episodes", str(2**32 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "episodes must be <= 2**32, got 4294967297" in stderr
    assert "monte-carlo" not in stdout and "Traceback" not in stderr
    assert peak < 2**20


@pytest.mark.parametrize("flag", ["--r-base", "--r-loopback"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_oracle_non_finite_reward_is_a_usage_error(tmp_path, capsys,
                                                   chain2_map, flag, value):
    # --r-base inf once printed a nan/-inf Q table with exit 0
    path = tmp_path / "m.json"
    path.write_text(emit_map(chain2_map))
    code, stdout, stderr = run(capsys, "oracle", str(path), f"{flag}={value}")
    assert code == 2
    assert "must be finite" in stderr and "Traceback" not in stderr
    assert "value iteration" not in stdout


def test_oracle_missing_map(tmp_path, capsys):
    code, _, stderr = run(capsys, "oracle", str(tmp_path / "none.json"))
    assert code == 2


def test_oracle_rejects_bad_map(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    code, _, stderr = run(capsys, "oracle", str(bad))
    assert code == 2


# ---------------------------------------------------------------------------

def test_inspect_trained_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", total_steps=2000)
    out = tmp_path / "t"
    assert run(capsys, "train", str(cfg), "--seed", "1", "--out",
               str(out))[0] == 0
    ck = str(out / "checkpoint_seed1.qrrn")
    code, stdout, _ = run(capsys, "inspect", ck, "--state", "0")
    assert code == 0
    assert "action 0" in stdout and "action 1" in stdout
    assert "greedy" in stdout and "t-ssd" in stdout
    assert "mean" in stdout and "var" in stdout

    code, _, stderr = run(capsys, "inspect", ck, "--state", "99")
    assert code == 2
    assert "state" in stderr


def test_inspect_shows_policy_disagreement(tmp_path, capsys):
    # a near-tied fork: greedy takes the higher mean, t-ssd the lower
    # variance, and inspect must surface both choices
    agent = Agent(AgentConfig(), 3, 2)
    agent.head.theta[0, 0] = [-14.0, -10.0, -6.0, -2.0]
    agent.head.theta[0, 1] = [-10.0, -10.0, -10.0, -10.0]
    path = tmp_path / "fork.qrrn"
    save_checkpoint(agent, str(path))
    code, stdout, _ = run(capsys, "inspect", str(path), "--state", "0",
                          "--ssd-thres", "15")
    assert code == 0
    assert "greedy -> action 0" in stdout
    assert "t-ssd(thres=15) -> action 1" in stdout


def test_inspect_untrained_checkpoint(tmp_path, capsys):
    agent = Agent(AgentConfig(), 5, 2)
    path = tmp_path / "fresh.qrrn"
    save_checkpoint(agent, str(path))
    code, stdout, _ = run(capsys, "inspect", str(path), "--state", "2",
                          "--ssd-thres", "15")
    assert code == 0
    assert "+0.0000" in stdout


def test_inspect_corrupt_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.qrrn"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code, _, stderr = run(capsys, "inspect", str(bad), "--state", "0")
    assert code == 2


def test_checkpoint_missing_header_key_is_a_usage_error(tmp_path, capsys):
    ck = damaged_fixture(tmp_path / "nostep.qrrn", header_edit("step"))
    for argv in (["eval", ck], ["inspect", ck, "--state", "0"]):
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert "step" in stderr and "Traceback" not in stderr


def test_checkpoint_without_map_document_is_a_usage_error(tmp_path, capsys):
    ck = damaged_fixture(tmp_path / "nomap.qrrn",
                         header_edit("config.map_document"))
    code, _, stderr = run(capsys, "eval", ck)
    assert code == 2
    assert "config.map_document" in stderr and "Traceback" not in stderr


def test_checkpoint_arrays_not_matching_dims_is_a_usage_error(tmp_path, capsys):
    ck = damaged_fixture(tmp_path / "dims.qrrn",
                         header_edit("dims.n_states", 5))
    for argv in (["eval", ck], ["inspect", ck, "--state", "0"]):
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert "theta" in stderr and "Traceback" not in stderr


# header values of the wrong type; each once made eval or inspect exit 1
# with a traceback, or made eval fall back to a default env config
ILL_TYPED_HEADERS = [
    ("config.run", 3), ("config.run", [1]),
    ("config.run.exec_policies", 5), ("config.run.env.episode_cap", "x"),
    ("config.agent", 5), ("config.agent.hidden", 5),
    ("dims.n_states", "18"), ("dims.n_states", [18]),
    ("buffer.size", [1]), ("step", [1]),
    ("arrays", 7), ("arrays.0.shape", 5), ("arrays.0.shape", ["a"]),
]


@pytest.mark.parametrize("path, value", ILL_TYPED_HEADERS,
                         ids=[f"{p}={v!r}" for p, v in ILL_TYPED_HEADERS])
def test_ill_typed_checkpoint_header_is_a_usage_error(tmp_path, capsys,
                                                      path, value):
    ck = damaged_fixture(tmp_path / "typed.qrrn", header_edit(path, value))
    for argv in (["eval", ck], ["inspect", ck, "--state", "0"]):
        code, _, stderr = run(capsys, *argv)
        assert code == 2, argv
        assert "Traceback" not in stderr


ILL_TYPED_CONFIGS = {
    "episode_cap": {"env": {"episode_cap": "x"}}, "lr": {"agent": {"lr": "x"}},
    "hidden": {"agent": {"hidden": 5}}, "agent": {"agent": 5},
    "total_steps": {"total_steps": "x"},
    # each of these once trained without error on a coerced or ignored
    # value, or failed mid-run with a traceback
    "seeds-string": {"seeds": "12"}, "seeds-bool": {"seeds": [True]},
    "seeds-float": {"seeds": [1.7]}, "hidden-string": {"agent": {"hidden": "64"}},
    "eval_interval-float": {"eval_interval": 100.5},
    "eval_episode_cap-float": {"eval_episode_cap": 50.5},
    "target_sync_interval-float": {"agent": {"target_sync_interval": 2.5}},
    "episode_cap-float": {"env": {"episode_cap": 10.5}},
    "crosswalk_std-bool": {"env": {"crosswalk_std": True}},
    "out_dir-int": {"out_dir": 5},
    "total_steps-float": {"total_steps": 4000.0},
    "batch_size-float": {"agent": {"batch_size": 8.0}},
    "map-spec-lengths": {"map": {"kind": "two-route", "noisy_len": 8.9,
                                 "robust_len": "10"}},
    "ssd_thres-bool": {"exec_policies": [{"exec_policy": "t-ssd",
                                          "ssd_thres": True}]},
    # well-typed values that are still refused: seed 1 once trained twice,
    # and greedy or ssd ran with the threshold dropped
    "seeds-repeated": {"seeds": [1, 1]},
    "ssd_thres-on-greedy": {"exec_policies": [{"exec_policy": "greedy",
                                               "ssd_thres": 15.0}]},
    "ssd_thres-on-ssd": {"exec_policies": [{"exec_policy": "ssd",
                                            "ssd_thres": 15.0}]},
    # an integer beyond float range once died with an OverflowError
    # traceback; with lr, only at the first optimizer step
    "r_base-huge-int": {"env": {"r_base": 10**400, "r_loopback": 18.0}},
    "ssd_thres-huge-int": {"exec_policies": [
        {"exec_policy": "greedy"}, {"exec_policy": "ssd"},
        {"exec_policy": "t-ssd", "ssd_thres": 10**400}]},
    "lr-huge-int": {"agent": {"lr": 10**400}},
    # t-ssd under its legacy name is an unknown exec policy
    "exec_policy-thresholded_ssd": {"exec_policies": [
        {"exec_policy": "thresholded_ssd", "ssd_thres": 15.0}]},
}


# Python's JSON reader takes Infinity and NaN as floats. An infinite
# r_base once wrote -inf returns with exit 0, an infinite crosswalk_std
# gave up rejection sampling with a traceback, and a NaN r_loopback
# failed only after training
NON_FINITE_ENVS = {
    "r_base-inf": {"r_base": math.inf},
    "crosswalk_std-inf": {"crosswalk_std": math.inf},
    "r_loopback-nan": {"r_loopback": math.nan},
    "r_base-nan": {"r_base": math.nan},
    "r_loopback-inf": {"r_loopback": math.inf},
    "crosswalk_std-nan": {"crosswalk_std": math.nan},
}


@pytest.mark.parametrize("env", NON_FINITE_ENVS.values(),
                         ids=NON_FINITE_ENVS.keys())
def test_non_finite_env_value_is_a_usage_error(tmp_path, capsys, env):
    cfg = write_config(tmp_path / "cfg.json", env={"r_base": 3.0, **env},
                       total_steps=200, eval_interval=100, seeds=[1])
    assert "Infinity" in cfg.read_text() or "NaN" in cfg.read_text()
    out = tmp_path / "o"
    code, _, stderr = run(capsys, "trials", str(cfg), "--out", str(out))
    assert code == 2
    assert "must be finite" in stderr and "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize("override", ILL_TYPED_CONFIGS.values(),
                         ids=ILL_TYPED_CONFIGS.keys())
def test_ill_typed_run_config_is_a_usage_error(tmp_path, capsys, override):
    cfg = write_config(tmp_path / "cfg.json", **override)
    code, _, stderr = run(capsys, "train", str(cfg), "--out",
                          str(tmp_path / "out"))
    assert code == 2
    assert "Traceback" not in stderr
