"""Acceptance suite: one test per shipping criterion, printed as a
PASS/FAIL line. The route-selection studies run full multi-seed trainings,
so this module is the slow part of the test suite (about ten minutes on
one core); run it with ``pytest tests/test_acceptance.py -s`` to watch the
lines appear.
"""
import time

import numpy as np
import pytest

from conftest import finite_diff_grads, max_rel_grad_error
from qrrn import nn
from qrrn.env import EnvConfig, reward_sample, stream_rng
from qrrn.learner import Agent, AgentConfig, Batch
from qrrn.oracle import (empirical_quantiles, greedy_rollout, ssd_grid_check,
                         truncated_normal_moments, truncated_normal_samples,
                         value_iteration)
from qrrn.policies import ExecPolicy
from qrrn.quantdist import midpoints, quantile_huber, ssd_dominates
from qrrn.roadnet import build_map, shortest_path
from qrrn.trainer import (RunConfig, aggregate_csv_text, curves_csv_text,
                          run_trials, train_one)

SSD_THRES = 15.0   # 5 * r_base of the robust study
POLS = [ExecPolicy("greedy"), ExecPolicy("ssd"),
        ExecPolicy("t-ssd", SSD_THRES)]
SEEDS = list(range(1, 11))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def robust_study_config(map_source, total_steps):
    return RunConfig(
        map=map_source,
        env=EnvConfig(r_base=3.0, r_loopback=18.0),
        agent=AgentConfig(n_quantiles=4, gamma=0.99, lr=5e-4,
                          backend="tabular"),
        total_steps=total_steps,
        eval_interval=10_000,
        exec_policies=POLS,
        seeds=SEEDS,
    )


@pytest.fixture(scope="module")
def town_a_results():
    cfg = robust_study_config({"kind": "two-route", "noisy_len": 8,
                               "robust_len": 10}, 100_000)
    t0 = time.time()
    results = {seed: train_one(cfg, seed) for seed in SEEDS}
    return cfg, results, time.time() - t0


@pytest.fixture(scope="module")
def town_b_results():
    cfg = robust_study_config({"kind": "three-route", "noisy_len": 8,
                               "robust_len": 10, "robust2_len": 11}, 200_000)
    results = {seed: train_one(cfg, seed) for seed in SEEDS}
    return cfg, results


def final_classes(cfg, results, policy):
    out = {}
    for seed, res in results.items():
        for row in res.rows:
            if row.step == cfg.total_steps and row.exec_policy == policy:
                out[seed] = row.route_class
    return out


@pytest.mark.slow
def test_criterion_1_robust_vs_noisy_selection(town_a_results):
    cfg, results, elapsed = town_a_results
    greedy = final_classes(cfg, results, "greedy")
    ssd = final_classes(cfg, results, "ssd")
    tssd = final_classes(cfg, results, "t-ssd")
    n_greedy = sum(c == "noisy" for c in greedy.values())
    n_ssd = sum(c == "noisy" for c in ssd.values())
    n_robust = sum(c == "robust-1" for c in tssd.values())
    ok = n_greedy >= 9 and n_ssd >= 9 and n_robust >= 9 and elapsed <= 300
    report(1, ok,
           f"greedy noisy {n_greedy}/10, ssd noisy {n_ssd}/10, "
           f"t-ssd robust {n_robust}/10, runtime {elapsed:.0f}s (cap 300s)")


@pytest.mark.slow
def test_criterion_2_three_route_discrimination(town_b_results):
    cfg, results = town_b_results
    tssd = final_classes(cfg, results, "t-ssd")
    graph = next(iter(results.values())).graph
    free = 0
    for seed, res in results.items():
        visited = res.final_traces["t-ssd"].visited
        free += not any(v in graph.crosswalks for v in visited)
    n_r1 = sum(c == "robust-1" for c in tssd.values())
    ok = free >= 9 and n_r1 >= 6
    report(2, ok, f"t-ssd crosswalk-free {free}/10, robust-1 {n_r1}/10")


@pytest.mark.slow
def test_criterion_3_critical_state_variance_ordering(town_a_results):
    cfg, results, _ = town_a_results
    tssd = final_classes(cfg, results, "t-ssd")
    passing = [s for s, c in tssd.items() if c == "robust-1"]
    ordered = 0
    gaps = []
    for seed in passing:
        dists = results[seed].agent.action_dists(0)   # the divergence state
        noisy_var, robust_var = dists[0].var(), dists[1].var()
        ordered += noisy_var > robust_var
        gaps.append(dists[0].mean() - dists[1].mean())
    ok = bool(passing) and ordered == len(passing) and \
        all(abs(g) <= SSD_THRES for g in gaps)
    report(3, ok,
           f"noisy var > robust var in {ordered}/{len(passing)} passing "
           f"seeds, mean gaps {min(gaps):.2f}..{max(gaps):.2f} <= {SSD_THRES}")


def test_criterion_4_quantile_convergence_to_ground_truth():
    # one state, one action, terminal truncated-normal reward; plain
    # per-sample gradient steps with a small smoothing width so the fixed
    # points are the distribution quantiles rather than their Huber blur
    t0 = time.time()
    agent = Agent(AgentConfig(n_quantiles=4, lr=1e-3, optimizer="sgd",
                              kappa=0.05), n_states=1, n_actions=1)
    rng = stream_rng(2027)
    batch_size = 64
    pool = np.empty(0)
    zeros = np.zeros(batch_size, np.int64)
    done = np.ones(batch_size, bool)
    k = 0
    for _ in range(100_000):
        if k + batch_size > len(pool):
            raw = rng.normal(-3.0, 1.0, size=2_000_000)
            pool = raw[(raw >= -6.0) & (raw <= 0.0)]
            k = 0
        agent.qr_update(Batch(s=zeros, a=zeros, r=pool[k:k + batch_size],
                              s_next=zeros, done=done))
        k += batch_size
    oracle_rng = stream_rng(909)
    samples = truncated_normal_samples(1_000_000, -3.0, 1.0, -6.0, 0.0,
                                       oracle_rng)
    want = empirical_quantiles(samples, 4)
    got = np.sort(agent.head.theta[0, 0])
    err = float(np.abs(got - want).max())
    elapsed = time.time() - t0
    ok = err <= 0.1 and elapsed <= 30
    report(4, ok, f"max atom error {err:.4f} (tol 0.1), "
                  f"runtime {elapsed:.0f}s (cap 30s)")


def test_criterion_5_ssd_oracle_equivalence():
    rng = np.random.default_rng(515)
    agree = 0
    total = 1000
    for _ in range(total):
        a = rng.uniform(-20.0, 0.0, size=rng.integers(1, 9))
        b = rng.uniform(-20.0, 0.0, size=rng.integers(1, 9))
        agree += ssd_grid_check(a, b) == ssd_dominates(a, b)
    report(5, agree == total, f"grid oracle agreement {agree}/{total}")


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        depth = rng.integers(1, 4)
        dims = [int(rng.integers(2, 8)) for _ in range(depth + 1)]
        net = nn.init(dims, seed=int(rng.integers(1 << 30)))
        for b in net.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        x = rng.normal(size=dims[0])
        g = rng.normal(size=dims[-1])
        analytic = nn.backward(net, x, g)
        fd = finite_diff_grads(net, x, g, h=1e-5)
        worst = max(worst, max_rel_grad_error(analytic, fd))
    report(6, worst < 1e-4, f"max relative gradient error {worst:.2e} "
                            f"over 100 nets (tol 1e-4)")


def test_criterion_7_expectation_blind_planning(two_route_map):
    cfg = EnvConfig(r_base=3.0, r_loopback=18.0)
    q = value_iteration(two_route_map, cfg, gamma=0.99)
    stripped = build_map(
        "stripped", two_route_map.n_states,
        [(e.src, e.dst, e.action) for e in two_route_map.edges],
        start=two_route_map.start, goals=two_route_map.goals, crosswalks=())
    q_stripped = value_iteration(stripped, cfg, gamma=0.99)
    gap = float(np.abs(q - q_stripped).max())
    rollout = greedy_rollout(q, two_route_map).nodes
    dijkstra = shortest_path(two_route_map).nodes
    ok = gap <= 1e-9 and rollout == dijkstra
    report(7, ok, f"crosswalk-blind Q* gap {gap:.1e} (tol 1e-9), "
                  f"greedy rollout == shortest path: {rollout == dijkstra}")


def test_criterion_8_reward_model_statistics(two_route_map):
    cfg = EnvConfig(r_base=3.0)
    cross = next(iter(two_route_map.crosswalks))
    rng = stream_rng(808)
    draws = np.array([reward_sample(two_route_map, cross, 3, cfg, rng)
                      for _ in range(1_000_000)])
    lo, hi = float(draws.min()), float(draws.max())
    mean_err = abs(draws.mean() + 3.0)
    _, true_std = truncated_normal_moments(-3.0, 1.0, -6.0, 0.0)
    std_err = abs(draws.std() - true_std)
    ok = lo >= -6.0 and hi <= 0.0 and mean_err <= 0.01 and std_err <= 0.01
    report(8, ok, f"support [{lo:.3f}, {hi:.3f}] in [-6, 0], "
                  f"mean err {mean_err:.4f} (tol 0.01), "
                  f"std err {std_err:.4f} (tol 0.01, true {true_std:.4f})")


def test_criterion_9_determinism_and_persistence(tmp_path):
    cfg = RunConfig(
        map={"kind": "two-route", "noisy_len": 8, "robust_len": 10},
        env=EnvConfig(r_base=3.0, r_loopback=18.0),
        agent=AgentConfig(n_quantiles=4, gamma=0.99, lr=5e-4,
                          backend="tabular"),
        total_steps=4000, eval_interval=2000, exec_policies=POLS,
        seeds=[1, 2])
    rep1 = run_trials(cfg)
    rep2 = run_trials(cfg)
    same_csv = (curves_csv_text(rep1.rows) == curves_csv_text(rep2.rows)
                and aggregate_csv_text(rep1.aggregate)
                == aggregate_csv_text(rep2.aggregate))

    full = train_one(cfg, 1)
    ck = str(tmp_path / "mid.qrrn")
    train_one(cfg, 1, stop_at=3000, checkpoint_path=ck)
    resumed = train_one(cfg, 1, resume=ck)
    split_ok = (resumed.rows == full.rows
                and np.array_equal(resumed.agent.head.theta,
                                   full.agent.head.theta)
                and np.array_equal(resumed.agent.adam.m,
                                   full.agent.adam.m)
                and np.array_equal(resumed.agent.buffer.r,
                                   full.agent.buffer.r))
    report(9, same_csv and split_ok,
           f"rerun CSVs identical: {same_csv}, split-run bit-exact: {split_ok}")


def test_criterion_10_exact_formula_fixtures():
    checks = []
    checks.append(np.abs(midpoints(4)
                         - [0.125, 0.375, 0.625, 0.875]).max() <= 1e-12)
    checks.append(abs(quantile_huber(1.0, 0.5, 1.0) - 0.25) <= 1e-12)
    checks.append(abs(quantile_huber(-2.0, 0.25, 1.0) - 1.125) <= 1e-12)
    checks.append(quantile_huber(0.0, 0.9, 1.0) == 0.0)

    spread = [-14.0, -10.0, -6.0, -2.0]     # mean -8, var 20
    flat = [-10.0] * 4                      # mean -10, var 0
    greedy, ssd = ExecPolicy("greedy"), ExecPolicy("ssd")
    checks.append(greedy.select([spread, flat]) == 0)
    checks.append(greedy.select([[-10.0] * 2, [-8.0] * 2, [-12.0] * 2]) == 1)
    checks.append(ssd.select([spread, flat]) == 0)
    checks.append(ssd.select([[0.0] * 4, [-2.0, -1.0, 1.0, 2.0]]) == 0)
    checks.append(ExecPolicy("t-ssd", SSD_THRES).select([spread, flat]) == 1)
    checks.append(ExecPolicy("t-ssd", 1.0).select([spread, flat]) == 0)
    report(10, all(checks),
           f"{sum(checks)}/{len(checks)} exact fixtures at 1e-12")
