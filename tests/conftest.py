import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qrrn import nn
from qrrn.roadnet import ScenarioParams, build_map, generate_scenario

# a trained three-route checkpoint (format v1) kept with the benchmark
FIXTURE = (Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"
           / "town-b-seed1.qrrn")
DROP = object()

# property tests draw the same examples on every run and never time out
settings.register_profile("qrrn", deadline=None, derandomize=True)
settings.load_profile("qrrn")


@pytest.fixture(scope="session")
def two_route_map():
    return generate_scenario("two-route", ScenarioParams(8, 10))


@pytest.fixture(scope="session")
def three_route_map():
    return generate_scenario("three-route", ScenarioParams(8, 10, 11))


@pytest.fixture(scope="session")
def chain3_map():
    # 0 -> 1 -> 2 -> 3(goal), single action everywhere
    return build_map("chain3", 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)],
                     start=0, goals={3})


@pytest.fixture(scope="session")
def chain2_map():
    # 0 -> 1 -> 2(goal)
    return build_map("chain2", 3, [(0, 1, 0), (1, 2, 0)], start=0, goals={2})


@pytest.fixture(scope="session")
def diamond_map():
    # two equal-length routes 0-1-3 and 0-2-3
    return build_map("diamond", 4,
                     [(0, 1, 0), (0, 2, 1), (1, 3, 0), (2, 3, 0)],
                     start=0, goals={3})


def header_edit(path: str, value=DROP):
    """An edit of a checkpoint header: set the field at the dotted ``path``
    (list indices are numbers) to ``value``, or delete it when no value is
    given."""
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]

    def edit(header):
        for key in parents:
            header = header[key]
        if value is DROP:
            del header[last]
        else:
            header[last] = value
    return edit


def damaged_fixture(path, edit):
    """A copy of the stored checkpoint at ``path`` with ``edit`` applied to
    its header."""
    blob = FIXTURE.read_bytes()
    hlen = struct.unpack("<I", blob[6:10])[0]
    header = json.loads(blob[10:10 + hlen])
    edit(header)
    payload = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:6] + struct.pack("<I", len(payload)) + payload
                     + blob[10 + hlen:])
    return str(path)


def simple_paths_bruteforce(graph):
    """Test-local exhaustive DFS enumeration, independent of the library."""
    adj = {}
    for e in graph.edges:
        adj.setdefault(e.src, []).append(e.dst)
    out = []

    def walk(node, path):
        if node in graph.goals:
            out.append(list(path))
            return
        for nxt in adj.get(node, []):
            if nxt not in path:
                walk(nxt, path + [nxt])

    walk(graph.start, [graph.start])
    return sorted(out, key=lambda p: (len(p), p))


def dense_net(weights, biases, activations):
    """An ``nn.DenseNet`` over one new vector holding copies of the given
    weight matrices and bias vectors."""
    ps = [np.asarray(p, dtype=float) for wb in zip(weights, biases) for p in wb]
    return nn.DenseNet(np.concatenate([p.ravel() for p in ps]),
                       [p.shape for p in ps], activations)


def finite_diff_grads(net, x, grad_out, h=1e-5):
    """Central finite differences of grad_out . output w.r.t. every param."""
    def objective():
        y = nn.forward(net, x)
        return float(np.sum(np.asarray(grad_out) * y))

    fd = []
    for p in nn.params(net):
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = objective()
            flat[i] = orig - h
            lo = objective()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        fd.append(g)
    return fd


def max_rel_grad_error(analytic, fd, floor=1e-6):
    """Worst relative disagreement, ignoring entries with tiny FD values."""
    worst = 0.0
    for a, f in zip(analytic, fd):
        mask = np.abs(f) >= floor
        if not np.any(mask):
            continue
        rel = np.abs(a[mask] - f[mask]) / np.maximum(np.abs(f[mask]),
                                                     np.abs(a[mask]))
        worst = max(worst, float(rel.max()))
    return worst
