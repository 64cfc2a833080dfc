"""Golden digests of short fixed studies.

Each case runs a short two-seed study through ``run_trials`` and pins the
sha256 of ``curves.csv``, ``aggregate.csv`` and of every seed's checkpoint
arrays (names, shapes and float64 bytes, as ``read_checkpoint`` returns
them). A change that moves any output byte fails here, even if reruns
still agree with each other. A PR that changes numbers on purpose
regenerates the table with ``python tests/test_golden.py`` and says so in
CHANGES.md.
"""
import hashlib
import sys

import numpy as np
import pytest

from qrrn.env import EnvConfig
from qrrn.learner import AgentConfig
from qrrn.policies import ExecPolicy
from qrrn.trainer import (RunConfig, aggregate_csv_text, curves_csv_text,
                          read_checkpoint, run_trials)

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
    },
}


def arrays_digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        h.update(f"{name}{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def study_digests(name: str, out_dir) -> dict:
    graph_doc, agent, total, interval = CASES[name]
    cfg = RunConfig(map_source=graph_doc,
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
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    got = study_digests(name, tmp_path)
    versions = (f"python {sys.version.split()[0]}, numpy {np.__version__}; "
                f"digests were recorded with python 3.11.7, numpy 2.4.6")
    for key, want in GOLDEN[name].items():
        assert got[key] == want, f"{name} {key} changed ({versions})"


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {study_digests(case, tmp)!r},")
