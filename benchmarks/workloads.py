"""The benchmark's workloads: set-up, timed work and output checks.

Every workload is a closed loop with a single caller in one process: each
call into qrrn waits for the previous one to return. Work is split into
units (a one-seed study on town-a, a verify cycle on town-b). A run
repeats units until the next one would end past the deadline, so a faster
program does more units in the same time.

Every operation counts as attempted; it fails when it raises or when its
output check fails. Operations are: a study trial, a checkpoint load, a
checkpoint save-and-read-back, an evaluation rollout, a value-iteration
sweep and a Monte-Carlo batch.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from qrrn import cli, oracle, roadnet, trainer

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "src" / "qrrn" / "configs"
FIXTURE = HERE / "fixtures" / "town-b-seed1.qrrn"
FIXTURE_META = HERE / "fixtures" / "town-b-seed1.json"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
NETWORK_STEPS = 10_000       # one eval_interval of the bundled config

# A verify cycle loads a checkpoint, rolls it out CYCLE_ROLLOUTS times per
# execution policy, runs value iteration and one Monte-Carlo batch per route.
CYCLE_ROLLOUTS = 10
MC_BATCH = 100               # episodes per mc_returns call
TRIAL_CYCLES = 100           # verify cycles after each town-a study trial
W1_CYCLES = 20               # cycles whose MC samples give start_atoms_w1
# Rates are medians over short windows, so that a stall of the shared
# machine moves one window and not the reported rate.
ROLLOUT_WINDOW = 30          # consecutive rollouts per rate window
# a Monte-Carlo mean may sit this many standard errors from the exact value
MC_SE_TOL = 5.0

# The machine this runs on is shared. Identical work takes up to twice as
# long from one run to the next, for two reasons: the virtual CPU is taken
# away for a while (wall time grows, CPU time does not), and the CPU itself
# runs slower. Operations are therefore timed with the main thread's CPU
# clock, and while work runs a background thread times a fixed reference
# kernel every SAMPLE_EVERY_S seconds. Every reported timing is converted
# to a machine on which that kernel takes K_REF_S: time * K_REF_S /
# (median kernel time measured during the same phase of the same run).
KERNEL_ITERS = 40
K_REF_S = 0.0006
SAMPLE_EVERY_S = 0.25
SAMPLE_RUNS = 3              # back-to-back kernel runs per sample; the
                             # fastest counts, so cache misses left by the
                             # program under test do not

clock = time.thread_time      # CPU time of the calling thread

_KX = np.arange(64.0).reshape(16, 4)
_KI = np.arange(1, 16, 2)


def reference_kernel() -> float:
    """Fixed work of the kind qrrn does: small numpy calls and Python
    arithmetic. It calls no qrrn code, so no change to qrrn moves it."""
    acc = 0.0
    for i in range(KERNEL_ITERS):
        y = _KX[_KI] * 0.5 + float(i)
        acc += float(y.mean(axis=1).argmax()) + sum(range(20))
    return acc


def kernel_time() -> float:
    """Fastest thread CPU time of SAMPLE_RUNS reference kernel runs."""
    best = math.inf
    for _ in range(SAMPLE_RUNS):
        t0 = time.thread_time()
        reference_kernel()
        best = min(best, time.thread_time() - t0)
    return best


def speed_scale(times: list) -> float:
    """Factor that converts a time measured in this run to reference time."""
    return K_REF_S / statistics.median(times)


class SpeedSampler:
    """Times the reference kernel in a background thread while work runs.

    Each sample is passed to `record`. The kernel is timed with the
    thread's own CPU clock, so waiting for the interpreter lock does not
    count; one sample holds the lock for about a millisecond and a half.
    """

    def __init__(self, record):
        self.record = record
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.record(kernel_time())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class SetupError(RuntimeError):
    """The benchmark cannot start: missing or altered inputs."""


class CheckFailed(RuntimeError):
    """An operation returned a wrong output."""


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def arrays_digest(arrays: dict) -> str:
    """Digest of checkpoint arrays (names, shapes, float64 bytes)."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        h.update(f"{name}{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# machine record

def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it exports one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine_info(nproc: int, cpu: int) -> dict:
    """Record of the machine; `cpu` is the one the run is pinned to."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    cap = threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"])
    if cap > nproc:
        raise SetupError(f"BLAS thread cap {cap} exceeds nproc {nproc}")
    return {"nproc": nproc, "pinned_cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": cap,
            "blas_threads_source": "library" if threads is not None else "env"}


# ---------------------------------------------------------------------------
# set-up

@dataclass
class Setup:
    workload: str
    seed: int
    tmp: Path
    cfg: trainer.RunConfig
    graph: roadnet.GraphMap
    routes: list              # enumerated start-to-goal routes
    route_policies: list      # one action per state following each route
    ranked: list              # crosswalk-free routes, for classify_trace
    config_path: Path | None = None
    extra_args: list = field(default_factory=list)
    expected_routes: dict = field(default_factory=dict)   # town-b rollouts
    fixture_digest: str = ""

    @property
    def gamma(self) -> float:
        return self.cfg.agent.gamma

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _route_policy(graph, route) -> np.ndarray:
    edge_action = {(e.src, e.dst): e.action for e in graph.edges}
    policy = np.zeros(graph.n_states, dtype=np.int64)
    for u, v in zip(route.nodes, route.nodes[1:]):
        policy[u] = edge_action[(u, v)]
    return policy


def _final_routes(rows, total_steps) -> dict:
    return {r["exec_policy"]: r["route_class"] for r in rows
            if int(r["step"]) == total_steps}


def prepare(workload: str, seed: int) -> Setup:
    """Imports are done by now; load the config, build the map, load fixtures.

    Everything here counts toward setup_s.
    """
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        return _prepare(workload, seed, tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _prepare(workload: str, seed: int, tmp: Path) -> Setup:
    extra_args: list = []
    config_path = None
    expected: dict = {}
    fixture_digest = ""
    if workload == "town-a-tabular":
        config_path = CONFIGS / "mini-town-a.json"
        cfg = trainer.load_run_config(json.loads(config_path.read_text()))
    elif workload == "town-a-network":
        doc = json.loads((CONFIGS / "mini-town-a.json").read_text())
        doc["agent"]["backend"] = "network"
        config_path = tmp / "town-a-network.json"
        config_path.write_text(json.dumps(doc))
        cfg = replace(trainer.load_run_config(doc), total_steps=NETWORK_STEPS)
        extra_args = ["--total-steps", str(NETWORK_STEPS)]
    elif workload == "town-b-verify":
        meta = json.loads(FIXTURE_META.read_text())
        blob = FIXTURE.read_bytes()
        if sha256(blob) != meta["sha256"]:
            raise SetupError(f"{FIXTURE.name} does not match its recorded sha256; "
                             f"remake it with: {meta['command']}")
        ck = trainer.read_checkpoint(str(FIXTURE))
        cfg = trainer.load_run_config(ck.header["config"]["run"])
        expected = _final_routes(ck.header["curve_rows"], cfg.total_steps)
        if expected.get("t-ssd") != "robust-1":
            raise SetupError("fixture's final t-ssd route is not robust-1")
        fixture_digest = arrays_digest(ck.arrays)
    else:
        raise SetupError(f"unknown workload {workload!r}")
    graph = trainer.resolve_graph(cfg)
    routes = roadnet.enumerate_routes(graph)
    return Setup(workload=workload, seed=seed, tmp=tmp, cfg=cfg, graph=graph,
                 routes=routes,
                 route_policies=[_route_policy(graph, r) for r in routes],
                 ranked=trainer.ranked_crosswalk_free_routes(graph),
                 config_path=config_path, extra_args=extra_args,
                 expected_routes=expected, fixture_digest=fixture_digest)


# ---------------------------------------------------------------------------
# measurements of one pass

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    units: list = field(default_factory=list)     # output digest per unit
    golden: dict = field(default_factory=dict)    # named digests, first unit
    train_steps: int = 0
    study_s: float = 0.0
    load_ms: list = field(default_factory=list)
    rollout_ms: list = field(default_factory=list)
    rollout_steps: int = 0
    rollout_s: float = 0.0
    mc_rates: list = field(default_factory=list)   # episodes/s per batch
    mc_episodes: int = 0
    mc_steps: int = 0
    mc_s: float = 0.0
    cycle_step_rates: list = field(default_factory=list)   # town-b env steps/s
    pool: list = field(default_factory=list)   # town-b MC samples per route
    tssd_robust: list = field(default_factory=list)
    w1: list = field(default_factory=list)
    phase: str = "verify"
    kernel_s: dict = field(default_factory=lambda: {"study": [], "verify": []})

    def scale(self, phase: str | None = None) -> float:
        """Reference-time factor for one phase, or for the whole pass."""
        samples = self.kernel_s.get(phase) or sum(self.kernel_s.values(), [])
        return speed_scale(samples)

    def attempt(self, what: str, fn, *args):
        """Run one operation; a raise or a failed check counts against it."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:   # noqa: BLE001 - every failure is counted
            self.failed += 1
            print(f"benchmark: {what} failed: {exc!r}", file=sys.stderr)
            return None


def _load(tally: Tally, path: str, expected_digest: str):
    t0 = clock()
    ck = trainer.read_checkpoint(path)
    agent = ck.build_agent()
    tally.load_ms.append(1e3 * (clock() - t0))
    if arrays_digest(ck.arrays) != expected_digest:
        raise CheckFailed(f"{path} read back different arrays")
    return agent


def _readback(s: Setup, agent) -> None:
    """A saved checkpoint must read back to the same atoms."""
    path = str(s.tmp / "readback.qrrn")
    trainer.save_checkpoint(agent, path)
    back = trainer.read_checkpoint(path).build_agent()
    for state in range(agent.n_states):
        for target in (False, True):
            if not np.array_equal(agent.action_dists(state, target),
                                  back.action_dists(state, target)):
                raise CheckFailed(f"atoms at state {state} changed on read-back")


def _rollout(s: Setup, tally: Tally, unit, agent, policy, key, expected: str):
    t0 = clock()
    trace = trainer.evaluate(agent, policy, s.graph, s.cfg.env, s.gamma,
                             s.cfg.eval_episode_cap, key)
    cls = trainer.classify_trace(trace, s.graph, s.ranked)
    dt = clock() - t0
    tally.rollout_ms.append(1e3 * dt)
    tally.rollout_s += dt
    tally.rollout_steps += len(trace.actions)
    unit.update(f"{policy.label}:{cls}:{trace.discounted_return!r};".encode())
    if cls != expected:
        raise CheckFailed(f"{policy.label} rollout took route {cls}, "
                          f"expected {expected}")
    return cls


def _value_iteration(s: Setup, unit) -> list:
    """Exact expected return of every route, from the value-iteration Q table.

    With deterministic transitions the mean one-step reward of (s, a) is
    Q[s, a] - gamma * V[s'], so a route's value is the discounted sum of
    those terms along it.
    """
    q = oracle.value_iteration(s.graph, s.cfg.env, s.gamma)
    unit.update(q.tobytes())
    v = q.max(axis=1)
    v[sorted(s.graph.goals)] = 0.0
    values = []
    for route, policy in zip(s.routes, s.route_policies):
        total, disc = 0.0, 1.0
        for u, nxt in zip(route.nodes, route.nodes[1:]):
            total += disc * (q[u, policy[u]] - s.gamma * v[nxt])
            disc *= s.gamma
        values.append(total)
    if not math.isclose(max(values), float(q[s.graph.start].max()),
                        rel_tol=0.0, abs_tol=1e-9):
        raise CheckFailed("best route value differs from max Q at the start")
    return values


def _mc_batch(s: Setup, tally: Tally, unit, r_idx: int, value: float, key):
    t0 = clock()
    samples = oracle.mc_returns(s.graph, s.cfg.env, s.route_policies[r_idx],
                                s.graph.start, s.gamma, MC_BATCH, seed=key)
    quantiles = oracle.empirical_quantiles(samples, s.cfg.agent.n_quantiles)
    dt = clock() - t0
    tally.mc_s += dt
    tally.mc_rates.append(MC_BATCH / dt)
    tally.mc_episodes += MC_BATCH
    tally.mc_steps += MC_BATCH * s.routes[r_idx].length
    unit.update(quantiles.tobytes())
    stderr = float(samples.std(ddof=1)) / math.sqrt(MC_BATCH)
    if not abs(float(samples.mean()) - value) <= MC_SE_TOL * stderr + 1e-6:
        raise CheckFailed(f"route {r_idx}: MC mean {samples.mean():.6f} vs "
                          f"value iteration {value:.6f} (stderr {stderr:.2g})")
    return samples


def _start_w1(s: Setup, agent, samples: list) -> float:
    """Mean W1 at the start node between each action's atoms and the oracle's
    empirical quantiles of the route that action starts."""
    dists = agent.action_dists(s.graph.start)
    gaps = {}
    for policy, batches in zip(s.route_policies, samples):
        a = int(policy[s.graph.start])
        qs = oracle.empirical_quantiles(np.concatenate(batches),
                                        s.cfg.agent.n_quantiles)
        gaps.setdefault(a, float(np.mean(np.abs(np.sort(dists[a]) - qs))))
    return float(np.mean(list(gaps.values())))


# ---------------------------------------------------------------------------
# units of work

def _verify_cycle(s: Setup, tally: Tally, unit, path: str, digest: str,
                  expected: dict, key, pool: list | None):
    """Load a checkpoint, roll it out under each policy, check the oracle.

    Each rollout must take the route the study's final evaluation reported
    for its policy. Monte-Carlo samples go to `pool` when one is given.
    Returns the loaded agent, or None when the load failed.
    """
    steps0 = tally.rollout_steps + tally.mc_steps
    busy0 = tally.rollout_s + tally.mc_s
    agent = tally.attempt("checkpoint load", _load, tally, path, digest)
    if agent is not None:
        for j in range(CYCLE_ROLLOUTS):
            for p_idx, policy in enumerate(s.cfg.exec_policies):
                cls = tally.attempt("rollout", _rollout, s, tally, unit, agent,
                                    policy, (*key, 1, p_idx, j),
                                    expected.get(policy.label))
                if policy.kind == "t-ssd":
                    tally.tssd_robust.append(cls == "robust-1")
    values = tally.attempt("value iteration", _value_iteration, s, unit)
    if values is not None:
        for r_idx, value in enumerate(values):
            batch = tally.attempt("mc batch", _mc_batch, s, tally, unit, r_idx,
                                  value, (*key, 2, r_idx))
            if pool is not None and batch is not None:
                pool[r_idx].append(batch)
    busy = tally.rollout_s + tally.mc_s - busy0
    tally.cycle_step_rates.append(
        _rate(tally.rollout_steps + tally.mc_steps - steps0, busy))
    return agent


def _close_unit(s: Setup, tally: Tally, agent, pool: list) -> None:
    """Save-and-read-back check and start_atoms_w1 for one loaded agent."""
    if agent is None:
        return
    tally.attempt("checkpoint read-back", _readback, s, agent)
    if all(pool):
        tally.w1.append(_start_w1(s, agent, pool))


def _study_trial(s: Setup, tally: Tally, index: int) -> None:
    """One-seed `qrrn trials` study through cli.main, then verify its output."""
    trial_seed = 1000 * s.seed + index
    out = s.tmp / f"trial-{trial_seed}"
    argv = ["trials", str(s.config_path), "--jobs", "1", "--svg",
            "--seeds", str(trial_seed), "--out", str(out), *s.extra_args]
    try:
        study = tally.attempt(f"trial {trial_seed}", _run_study, s, tally,
                              argv, out, trial_seed)
        if study is None:
            return
        unit = hashlib.sha256()
        pool: list = [[] for _ in s.routes]
        agent = None
        for c in range(TRIAL_CYCLES):
            agent = _verify_cycle(
                s, tally, unit, study["ck_path"],
                study["digests"]["checkpoint_arrays"], study["final"],
                (trial_seed, c), pool if c < W1_CYCLES else None) or agent
        _close_unit(s, tally, agent, pool)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    digests = dict(study["digests"], verify_outputs=unit.hexdigest())
    if not tally.golden:
        tally.golden = digests
    tally.units.append(sha256(json.dumps(digests, sort_keys=True)))


def _run_study(s: Setup, tally: Tally, argv, out: Path, trial_seed: int):
    tally.phase = "study"
    t0 = clock()
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(argv)
    tally.study_s += clock() - t0
    tally.phase = "verify"
    if rc != 0:
        raise CheckFailed(f"qrrn trials exited with {rc}")
    tally.train_steps += s.cfg.total_steps
    curves = (out / "curves.csv").read_text()
    aggregate = (out / "aggregate.csv").read_text()
    ck_path = str(out / f"checkpoint_seed{trial_seed}.qrrn")
    rows = list(csv.DictReader(io.StringIO(curves)))
    n_rows = s.cfg.total_steps // s.cfg.eval_interval * len(s.cfg.exec_policies)
    if len(rows) != n_rows:
        raise CheckFailed(f"curves.csv has {len(rows)} rows, expected {n_rows}")
    return {"ck_path": ck_path,
            "final": _final_routes(rows, s.cfg.total_steps),
            "digests": {"curves.csv": sha256(curves),
                        "aggregate.csv": sha256(aggregate),
                        "checkpoint_arrays": arrays_digest(
                            trainer.read_checkpoint(ck_path).arrays)}}


def _fixture_cycle(s: Setup, tally: Tally, index: int) -> None:
    unit = hashlib.sha256()
    agent = _verify_cycle(s, tally, unit, str(FIXTURE), s.fixture_digest,
                          s.expected_routes, (s.seed, index),
                          tally.pool if index < W1_CYCLES else None)
    if index == W1_CYCLES - 1:
        _close_unit(s, tally, agent, tally.pool)
    if not tally.golden:
        tally.golden = {"checkpoint_arrays": s.fixture_digest,
                        "verify_outputs": unit.hexdigest()}
    tally.units.append(unit.hexdigest())


def run_pass(s: Setup, seconds: float | None = None,
             units: int | None = None) -> tuple:
    """Run units until the next one would end after `seconds` of wall time,
    or exactly `units` units. Returns (tally, units done, CPU seconds)."""
    tally = Tally()
    if s.workload == "town-b-verify":
        unit_fn, min_units = _fixture_cycle, W1_CYCLES
        tally.pool = [[] for _ in s.routes]
    else:
        unit_fn, min_units = _study_trial, 1
    t_start = time.perf_counter()
    cpu_start = clock()
    done = 0
    with SpeedSampler(lambda k: tally.kernel_s[tally.phase].append(k)):
        while True:
            t0 = time.perf_counter()
            unit_fn(s, tally, done)
            done += 1
            now = time.perf_counter()
            if units is not None:
                if done >= units:
                    break
            elif done >= min_units and now + (now - t0) > t_start + seconds:
                break
    return tally, done, clock() - cpu_start


# ---------------------------------------------------------------------------
# metrics

def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _windowed_rate(ms: list, width: int) -> float:
    """Median over consecutive windows of `width` operations of ops/s."""
    n = len(ms) // width * width
    if n == 0:
        return _rate(len(ms), sum(ms) / 1e3)
    window_s = np.asarray(ms[:n]).reshape(-1, width).sum(axis=1) / 1e3
    return float(np.median(width / window_s))


def end_to_end(s: Setup, tally: Tally, scaled: bool = True) -> dict:
    """Timing metrics, in reference time unless `scaled` is false."""
    scale = tally.scale("verify") if scaled else 1.0
    if s.workload == "town-b-verify":
        steps_per_s = _pct(tally.cycle_step_rates, 50) / scale
    else:
        steps_per_s = _rate(tally.train_steps, tally.study_s) / (
            tally.scale("study") if scaled else 1.0)
    return {
        "steps_per_s": (steps_per_s, "1/s"),
        "rollouts_per_s": (_windowed_rate(tally.rollout_ms, ROLLOUT_WINDOW)
                           / scale, "1/s"),
        "rollout_ms_p50": (_pct(tally.rollout_ms, 50) * scale, "ms"),
        "rollout_ms_p90": (_pct(tally.rollout_ms, 90) * scale, "ms"),
        "mc_episodes_per_s": (_pct(tally.mc_rates, 50) / scale, "1/s"),
        "checkpoint_load_ms_p50": (_pct(tally.load_ms, 50) * scale, "ms"),
    }


def quality(tally: Tally) -> dict:
    share = float(np.mean(tally.tssd_robust)) if tally.tssd_robust else 0.0
    w1 = float(np.mean(tally.w1)) if tally.w1 else 0.0
    return {"tssd_robust_share": (share, "share"),
            "start_atoms_w1": (w1, "return")}


def per_layer(tracer: spans.Tracer, tally: Tally, overhead: float) -> dict:
    """Per-layer metrics of the traced pass; `overhead` is traced over
    untraced reference time of the same work."""
    stats = tracer.layer_stats()
    out = {}
    for name, (calls, self_us) in stats.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_us"] = (self_us, "us")
    counters = tracer.counters

    def calls(name):
        return stats[name][0]

    def ratio(a, b):
        return a / b if b else 0.0

    out["learner.Agent.qr_update.per_step"] = (
        ratio(calls("learner.Agent.qr_update"), tally.train_steps), "ratio")
    out["nn.forward.per_update"] = (
        ratio(calls("nn.forward"), calls("learner.Agent.qr_update")), "ratio")
    out["env.stream_rng.per_env_step"] = (
        ratio(calls("env.stream_rng"), calls("env.reward_sample")), "ratio")
    out["trainer.evaluate.steps"] = (
        ratio(counters["evaluate.steps"], calls("trainer.evaluate")), "count")
    out["trainer.evaluate.goal_ratio"] = (
        ratio(counters["evaluate.goals"], calls("trainer.evaluate")), "ratio")
    out["trainer.save_checkpoint.bytes"] = (
        ratio(counters["save_checkpoint.bytes"],
              calls("trainer.save_checkpoint")), "bytes")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out.update(quality(tally))
    return out


def check_golden(s: Setup, tally: Tally) -> bool:
    """Compare the first unit's digests with the references for the default
    seed; other seeds have no reference and pass."""
    if s.seed != DEFAULT_SEED:
        return True
    ref = json.loads(DIGESTS.read_text())
    want = ref["workloads"].get(s.workload, {})
    if tally.golden == want:
        return True
    print(f"benchmark: {s.workload} output digests differ from the references "
          f"for seed {DEFAULT_SEED}", file=sys.stderr)
    for key in sorted(set(want) | set(tally.golden)):
        if want.get(key) != tally.golden.get(key):
            print(f"  {key}: got {tally.golden.get(key)} "
                  f"want {want.get(key)}", file=sys.stderr)
    print(f"  this run: python {platform.python_version()}, numpy "
          f"{np.__version__}; references: python {ref['python']}, numpy "
          f"{ref['numpy']}", file=sys.stderr)
    return False
