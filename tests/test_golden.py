"""Golden digests of short fixed studies.

Each case runs a short two-seed study through ``run_trials`` and pins the
sha256 of ``curves.csv``, ``aggregate.csv`` and of every seed's checkpoint
arrays (names, shapes and float64 bytes, as ``read_checkpoint`` returns
them). Seed 1's checkpoint is also pinned as a whole file, header and
arrays in their written order, which the sorted array digest cannot see.
It also pins the Monte-Carlo oracle: the sorted ``mc_returns`` samples
of every route of the two bundled configs, and the stdout of
``qrrn oracle --mc-policy`` on town-a's crosswalk route.
A change that moves any output byte fails here, even if reruns
still agree with each other. A PR that changes numbers on purpose
regenerates the table with ``python tests/test_golden.py`` and says so in
CHANGES.md.
"""
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from importlib import resources

import numpy as np
import pytest

from qrrn.cli import main
from qrrn.env import EnvConfig
from qrrn.learner import AgentConfig
from qrrn.oracle import mc_returns
from qrrn.policies import ExecPolicy
from qrrn.roadnet import emit_map, enumerate_routes
from qrrn.trainer import (RunConfig, aggregate_csv_text, curves_csv_text,
                          read_checkpoint, resolve_graph, run_trials)

POLS = [ExecPolicy("greedy"), ExecPolicy("ssd"), ExecPolicy("t-ssd", 15.0)]
TWO_ROUTE = {"kind": "two-route", "noisy_len": 8, "robust_len": 10}
THREE_ROUTE = {"kind": "three-route", "noisy_len": 8, "robust_len": 10,
               "robust2_len": 11}

# name -> (map, agent config, total steps, eval interval)
CASES = {
    "two-route-tabular": (TWO_ROUTE, AgentConfig(), 4000, 2000),
    "two-route-network": (TWO_ROUTE, AgentConfig(backend="network"), 2000, 1000),
    "three-route-tabular": (THREE_ROUTE, AgentConfig(), 4000, 2000),
    # nine atoms reach numpy's pairwise summation over the atom axis
    "two-route-tabular-n9-sgd": (
        TWO_ROUTE, AgentConfig(n_quantiles=9, kappa=0.7, optimizer="sgd",
                               lr=0.01), 2000, 1000),
    "two-route-network-n9": (
        TWO_ROUTE, AgentConfig(backend="network", n_quantiles=9, kappa=3.0,
                               hidden=(16,), target_sync_interval=50),
        1000, 500),
}

GOLDEN = {
    "two-route-tabular": {
        "curves.csv":
            "ba0ca3a1c4a445e596a943052e31478011538b951314973aced2c705b76a21ca",
        "aggregate.csv":
            "9205ad958759cc882269f3b2a86f039e7f205e9485a8598bcff02cffc2cef330",
        "checkpoint_seed1":
            "f623b0df457c83fb693bac095d365ee9c7b7b3a65038ed52822ab8623ca4f33a",
        "checkpoint_seed2":
            "46f9122b2d47b06272189fec63c564567dfc956f8d099f8d29bb678d301aa3ff",
        "checkpoint_seed1.qrrn":
            "fc505fed8192214c904a0ec8fdb60a5d7a3958eaed49cdaaa93667b740eb5c2a",
    },
    "two-route-network": {
        "curves.csv":
            "65fa19fe3d53ec4a772385e179b01569f478cbde0c30075181978c792dbc6f71",
        "aggregate.csv":
            "18c2dfec5fcb0c29189ad41f7dbd495ac2d3f24c6ca5c71b4f859dd1b6757c52",
        "checkpoint_seed1":
            "b29244e92c9d7b34188a746df6b6f46ed3d3fcdd48df17af8d7fae2b15bccc47",
        "checkpoint_seed2":
            "d383fad289b3baf62946860bb652b26d5ba7cbf5941b5f7c6c1a5f030e4c3965",
        "checkpoint_seed1.qrrn":
            "de4115f0d4cee8286f1f5ed690dfa358155c167f6df2044c21abcff602777523",
    },
    "three-route-tabular": {
        "curves.csv":
            "1a1eccf2d9c077737e6c16d008289a2f0ce884b7646e03e62b6ae4651605bf5a",
        "aggregate.csv":
            "3999046a2533665f68b5528888c926b8367a2a0094f5fa50add23982a3ebf584",
        "checkpoint_seed1":
            "0187d5933d69f8b79400d60efe276abe3038c7f3e3bfd7bbf1ba0165f5b63a7d",
        "checkpoint_seed2":
            "a593d096fb61319d8a1f700c8f5ec4c666dc061db7960e55299e5b7ca545614a",
        "checkpoint_seed1.qrrn":
            "e4b6974d061c8826355a42e960e305f9be0651d927d8481c31fcb5f65bb99d2a",
    },
    "two-route-tabular-n9-sgd": {
        "curves.csv":
            "7efc1b75b7579d4ef6330db496cf15f7234d908d4f129e11796d3686afab36ee",
        "aggregate.csv":
            "da635bd0a02ceacb1faee076fa0dd3fda162b08d2655a2242d2d89a835741269",
        "checkpoint_seed1":
            "8f1fd233deebe24f83488be2dd0db2f4435fb9752d147c7fa32ad0097874ed20",
        "checkpoint_seed2":
            "aa9e551b5007a72312338ef5501876bd92147b5d6ad46d47eccefd9e61a4c5fb",
        "checkpoint_seed1.qrrn":
            "9682d1230236de3d520763601ca4ed21fbcca28ad6350f32d1d7335e2c148d50",
    },
    "two-route-network-n9": {
        "curves.csv":
            "294276137c1fb2d4ebcd0dd3b429e1a67135a5172983a450f09ae6fba4c3e57f",
        "aggregate.csv":
            "e0b7b404a6d2fcfaa442b68a66f2250c32f36c29dc0b8b2d840108253d9e4a65",
        "checkpoint_seed1":
            "237772a8b1bfc13112b834aaa7aaadfc297486f095748cb584ea550633bf7b00",
        "checkpoint_seed2":
            "b3d8bff295b0b866a272848a760b1c7a279485ca97a0d5af5a8f706b815b985b",
        "checkpoint_seed1.qrrn":
            "dc31109b63460762a0bbb2227874bb77ad8200598d3de5600249c517e07ff672",
    },
}


# bundled config -> mc_digests, one per enumerate_routes route
GOLDEN_MC = {
    "mini-town-a.json": [
        "e968a3e8aea4833b6acce325205024c50f63dea1445eceabf5788f8f5b1e3cfc",
        "b4f1bfd736bfa7cb0afc9471637f4631f7db34f81346d0ed49ade7396a8a107a",
    ],
    "mini-town-b.json": [
        "e968a3e8aea4833b6acce325205024c50f63dea1445eceabf5788f8f5b1e3cfc",
        "b4f1bfd736bfa7cb0afc9471637f4631f7db34f81346d0ed49ade7396a8a107a",
        "af395687a4d1dfd8fd2095092e255675d6d33ece7836edbce21e05561fb561be",
    ],
}

GOLDEN_ORACLE_STDOUT = \
    "9e3b830cd9987f290429e60db4c40b844e236931d16cd202bc8cc6e277924ce2"


def arrays_digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        h.update(f"{name}{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def study_digests(name: str, out_dir) -> dict:
    graph_doc, agent, total, interval = CASES[name]
    cfg = RunConfig(map=graph_doc,
                    env=EnvConfig(r_base=3.0, r_loopback=18.0), agent=agent,
                    total_steps=total, eval_interval=interval,
                    exec_policies=POLS, seeds=[1, 2])
    report = run_trials(cfg, checkpoint_dir=str(out_dir))
    out = {
        "curves.csv": hashlib.sha256(
            curves_csv_text(report.rows).encode()).hexdigest(),
        "aggregate.csv": hashlib.sha256(
            aggregate_csv_text(report.aggregate).encode()).hexdigest(),
    }
    for seed in cfg.seeds:
        ck = read_checkpoint(f"{out_dir}/checkpoint_seed{seed}.qrrn")
        out[f"checkpoint_seed{seed}"] = arrays_digest(ck.arrays)
    with open(f"{out_dir}/checkpoint_seed1.qrrn", "rb") as fh:
        out["checkpoint_seed1.qrrn"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def bundled_config(name: str) -> RunConfig:
    text = (resources.files("qrrn") / "configs" / name).read_text()
    return RunConfig.from_dict(json.loads(text))


def route_policy(graph, route) -> np.ndarray:
    """One action per state: the route's edge out of each of its nodes."""
    edge_action = {(e.src, e.dst): e.action for e in graph.edges}
    policy = np.zeros(graph.n_states, dtype=np.int64)
    for u, v in zip(route.nodes, route.nodes[1:]):
        policy[u] = edge_action[(u, v)]
    return policy


def mc_digests(config: str) -> list:
    """sha256 of the sorted ``mc_returns`` float64 bytes of each route of
    a bundled config, 500 episodes at seed (1, 2, route index)."""
    cfg = bundled_config(config)
    graph = resolve_graph(cfg)
    out = []
    for r, route in enumerate(enumerate_routes(graph)):
        samples = mc_returns(graph, cfg.env, route_policy(graph, route),
                             graph.start, cfg.agent.gamma, 500, seed=(1, 2, r))
        out.append(hashlib.sha256(
            samples.astype("<f8").tobytes()).hexdigest())
    return out


def oracle_stdout_digest(tmp) -> str:
    """sha256 of ``qrrn oracle --mc-policy`` on town-a's crosswalk route."""
    cfg = bundled_config("mini-town-a.json")
    graph = resolve_graph(cfg)
    noisy = next(r for r in enumerate_routes(graph)
                 if any(v in graph.crosswalks for v in r.nodes))
    with open(f"{tmp}/map.json", "w", encoding="utf-8") as fh:
        fh.write(emit_map(graph))
    with open(f"{tmp}/route.json", "w", encoding="utf-8") as fh:
        json.dump({"nodes": noisy.nodes}, fh)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["oracle", f"{tmp}/map.json", "--r-base", "3.0",
                     "--r-loopback", "18.0", "--mc-policy", f"{tmp}/route.json"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


# network digests rest on the BLAS's gemm, and on its rows being computed
# independently of each other (see test_nn.py), as well as on numpy
def blas_version() -> str:
    # numpy before 1.25 has no mode="dicts"; this message must still print
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


VERSIONS = (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"BLAS {blas_version()}; digests were "
            f"recorded with python 3.11.7, numpy 2.4.6, BLAS scipy-openblas "
            f"0.3.31.188.0")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    got = study_digests(name, tmp_path)
    for key, want in GOLDEN[name].items():
        assert got[key] == want, f"{name} {key} changed ({VERSIONS})"


@pytest.mark.parametrize("config", sorted(GOLDEN_MC))
def test_golden_mc_digests(config):
    assert mc_digests(config) == GOLDEN_MC[config], \
        f"{config} Monte-Carlo samples changed ({VERSIONS})"


def test_golden_oracle_stdout(tmp_path):
    assert oracle_stdout_digest(tmp_path) == GOLDEN_ORACLE_STDOUT, \
        f"qrrn oracle --mc-policy output changed ({VERSIONS})"


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {study_digests(case, tmp)!r},")
    for config in ("mini-town-a.json", "mini-town-b.json"):
        print(f"    {config!r}: {mc_digests(config)!r},")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"GOLDEN_ORACLE_STDOUT = {oracle_stdout_digest(tmp)!r}")
