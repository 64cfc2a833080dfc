import json
import os
from importlib import resources

from qrrn.cli import main
from qrrn.learner import Agent, AgentConfig
from qrrn.roadnet import parse_map, shortest_path
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
    from qrrn.roadnet import emit_map
    path = tmp_path / "chain.json"
    path.write_text(emit_map(chain2_map))
    code, stdout, _ = run(capsys, "oracle", str(path), "--gamma", "0.99",
                          "--r-base", "1.0")
    assert code == 0
    assert "state   0: a0=-1.000000" in stdout
    assert "state   1: a0=+0.000000" in stdout
    assert "shortest path (2 edges): 0-1-2" in stdout


def test_oracle_mc_policy_reports_spread(tmp_path, capsys, two_route_map):
    from qrrn.roadnet import emit_map
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
    agent.theta[0, 0] = [-14.0, -10.0, -6.0, -2.0]
    agent.theta[0, 1] = [-10.0, -10.0, -10.0, -10.0]
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
