"""Directed road-network graphs: document format, generators, path utilities.

A map is a directed graph over dense integer node ids. Vertices are the
states a vehicle can occupy; outgoing edges are numbered action slots.
The action space has a fixed dimension equal to the largest out-degree
anywhere in the graph, and an action slot with no edge at a node is a
"loopback": taking it re-enters the current node. Maps tag one start
node, a set of goal nodes, and a set of crosswalk nodes (the stochastic
travel-time states).

Maps are serialized as JSON documents (see ``parse_map`` / ``emit_map``).
Unknown document keys are rejected so typos fail loudly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import Config, read

ALLOWED_TAGS = ("start", "goal", "crosswalk")

# route overlay colors for DOT rendering
_PALETTE = ["#e41a1c", "#377eb8", "#ff7f00", "#984ea3", "#a65628", "#f781bf"]


class MapError(ValueError):
    """Base class for map construction and document errors."""


class SchemaError(MapError):
    """Document violates the map schema (missing/extra/ill-typed fields)."""


class DanglingEdge(MapError):
    """An edge references a node id that does not exist."""


class DuplicateAction(MapError):
    """Two edges leaving the same node share an action index."""


class UnreachableGoal(MapError):
    """Some goal node cannot be reached from the start node."""


class BadParams(MapError):
    """Scenario generator parameters are out of range or mis-ordered."""


class NoPath(ValueError):
    """No route exists from the start to any requested goal."""


class InvalidRoute(ValueError):
    """A route references an edge that is not in the graph."""


class InvalidState(ValueError):
    """State id outside 0..n_states-1."""


class InvalidAction(ValueError):
    """Action index outside 0..action_dim-1."""


@dataclass(frozen=True)
class Node(Config):
    id: int
    x: float = 0.0
    y: float = 0.0
    tags: frozenset[str] = frozenset()

    def __post_init__(self):
        # a JSON int coordinate is a float, so the document writes 1.0
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    action: int

    @classmethod
    def from_dict(cls, doc):
        """An edge document; its keys ``from``/``to`` name no field."""
        d = read(doc, _EDGE_TYPES, _EDGE_TYPES.keys(), "edge")
        return cls(d["from"], d["to"], d["action"])


@dataclass
class Route:
    """An ordered walk along graph edges; length counts edges."""

    nodes: list

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    def __iter__(self):
        return iter(self.nodes)


@dataclass
class GraphMap:
    """Validated road network. Immutable by convention after construction.

    ``trans`` is the dense (n_states, action_dim) successor table with
    loopbacks already filled in, so ``transition`` is total.
    """

    name: str
    nodes: list
    edges: list
    start: int
    goals: frozenset
    crosswalks: frozenset
    action_dim: int | None = None
    trans: np.ndarray = field(init=False, repr=False, compare=False)
    out_degree: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.goals = frozenset(int(g) for g in self.goals)
        self.crosswalks = frozenset(int(c) for c in self.crosswalks)
        self.nodes = sorted(self.nodes, key=lambda n: n.id)
        self.edges = sorted(self.edges, key=lambda e: (e.src, e.action))

        ids = [n.id for n in self.nodes]
        if ids != list(range(len(ids))):
            raise SchemaError("node ids must be the dense integers 0..n-1")
        n = len(ids)
        if n == 0:
            raise SchemaError("map has no nodes")

        for e in self.edges:
            if not (0 <= e.src < n) or not (0 <= e.dst < n):
                raise DanglingEdge(f"edge {e.src}->{e.dst} references unknown node")
            if e.action < 0:
                raise SchemaError(f"negative action index on edge {e.src}->{e.dst}")

        seen = set()
        for e in self.edges:
            key = (e.src, e.action)
            if key in seen:
                raise DuplicateAction(
                    f"node {e.src} has two edges with action {e.action}"
                )
            seen.add(key)

        out_deg = np.zeros(n, dtype=np.int64)
        for e in self.edges:
            out_deg[e.src] += 1
        max_deg = int(out_deg.max()) if len(self.edges) else 0
        if self.action_dim is None:
            self.action_dim = max_deg
        elif self.action_dim != max_deg:
            raise SchemaError(
                f"action_dim {self.action_dim} does not equal the maximum "
                f"out-degree {max_deg}"
            )
        if self.action_dim < 1:
            raise SchemaError("map must have at least one edge")
        for e in self.edges:
            if e.action >= self.action_dim:
                raise SchemaError(
                    f"action {e.action} on edge {e.src}->{e.dst} exceeds "
                    f"action_dim {self.action_dim}"
                )

        if not (0 <= self.start < n):
            raise SchemaError(f"start node {self.start} does not exist")
        if not self.goals:
            raise SchemaError("map must declare at least one goal")
        for g in self.goals:
            if not (0 <= g < n):
                raise SchemaError(f"goal node {g} does not exist")
        for c in self.crosswalks:
            if not (0 <= c < n):
                raise SchemaError(f"crosswalk node {c} does not exist")
        if self.start in self.goals:
            raise SchemaError("start node must not be a goal")

        for node in self.nodes:
            extra = set(node.tags) - set(ALLOWED_TAGS)
            if extra:
                raise SchemaError(f"node {node.id} has unknown tags {sorted(extra)}")
            want = set()
            if node.id == self.start:
                want.add("start")
            if node.id in self.goals:
                want.add("goal")
            if node.id in self.crosswalks:
                want.add("crosswalk")
            if set(node.tags) != want:
                raise SchemaError(
                    f"node {node.id} tags {sorted(node.tags)} disagree with "
                    f"start/goals/crosswalks (expected {sorted(want)})"
                )

        # successor table; unassigned slots loop back to the node itself
        trans = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, self.action_dim))
        for e in self.edges:
            trans[e.src, e.action] = e.dst
        self.trans = trans
        self.out_degree = out_deg

        reached = self._reachable_from(self.start)
        missing = self.goals - reached
        if missing:
            raise UnreachableGoal(f"goals {sorted(missing)} unreachable from start")

    @property
    def n_states(self) -> int:
        return len(self.nodes)

    def edge_set(self):
        return {(e.src, e.dst) for e in self.edges}

    def _reachable_from(self, s: int):
        adj = {}
        for e in self.edges:
            adj.setdefault(e.src, []).append(e.dst)
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


def build_map(name, n_nodes, edges, start, goals, crosswalks=(), coords=None,
              action_dim=None) -> GraphMap:
    """Construct a GraphMap from plain data, deriving node tags.

    ``edges`` is an iterable of (src, dst, action) triples and ``coords``
    an optional mapping id -> (x, y).
    """
    goals = frozenset(int(g) for g in goals)
    crosswalks = frozenset(int(c) for c in crosswalks)
    nodes = []
    for i in range(n_nodes):
        tags = set()
        if i == start:
            tags.add("start")
        if i in goals:
            tags.add("goal")
        if i in crosswalks:
            tags.add("crosswalk")
        x, y = (coords or {}).get(i, (float(i), 0.0))
        nodes.append(Node(id=i, x=x, y=y, tags=frozenset(tags)))
    edge_objs = [Edge(int(s), int(d), int(a)) for s, d, a in edges]
    return GraphMap(name=name, nodes=nodes, edges=edge_objs, start=int(start),
                    goals=goals, crosswalks=crosswalks, action_dim=action_dim)


# ---------------------------------------------------------------------------
# document format

_EDGE_TYPES = {"from": int, "to": int, "action": int}
_MAP_TYPES = {"name": str, "action_dim": int | None, "nodes": list[Node],
              "edges": list[Edge], "start": int, "goals": list[int],
              "crosswalks": list[int]}


def map_from_dict(doc: dict) -> GraphMap:
    """Validate a parsed map document and build the GraphMap."""
    try:
        d = read(doc, _MAP_TYPES, _MAP_TYPES.keys() - {"name", "action_dim"},
                 "map")
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return GraphMap(**{"name": "map", **d})


def parse_map(text: str) -> GraphMap:
    """Parse and validate a JSON map document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"map document is not valid JSON: {exc}") from exc
    return map_from_dict(doc)


def map_to_dict(m: GraphMap) -> dict:
    return {
        "name": m.name,
        "action_dim": m.action_dim,
        "nodes": [
            {"id": n.id, "x": n.x, "y": n.y, "tags": sorted(n.tags)}
            for n in m.nodes
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "action": e.action} for e in m.edges
        ],
        "start": m.start,
        "goals": sorted(m.goals),
        "crosswalks": sorted(m.crosswalks),
    }


def emit_map(m: GraphMap) -> str:
    """Serialize a GraphMap to its canonical JSON document."""
    return json.dumps(map_to_dict(m), indent=2) + "\n"


# ---------------------------------------------------------------------------
# graph operations

def transition(m: GraphMap, state: int, action: int) -> int:
    """Deterministic successor of (state, action); loopback if no edge."""
    if not (0 <= state < m.n_states):
        raise InvalidState(f"state {state} outside 0..{m.n_states - 1}")
    if not (0 <= action < m.action_dim):
        raise InvalidAction(f"action {action} outside 0..{m.action_dim - 1}")
    return int(m.trans[state, action])


def shortest_path(m: GraphMap, start: int | None = None, goals=None) -> Route:
    """Minimum-edge-count route from start to the nearest goal.

    Ties are broken toward the lexicographically smallest node sequence so
    the result is deterministic.
    """
    start = m.start if start is None else start
    goals = frozenset(m.goals if goals is None else goals)
    if not (0 <= start < m.n_states):
        raise InvalidState(f"state {start} outside 0..{m.n_states - 1}")
    if start in goals:
        return Route([start])

    rev = {}
    fwd = {}
    for e in m.edges:
        rev.setdefault(e.dst, set()).add(e.src)
        fwd.setdefault(e.src, set()).add(e.dst)

    # multi-source BFS from the goal set over reversed edges
    dist = {g: 0 for g in goals if 0 <= g < m.n_states}
    frontier = sorted(dist)
    while frontier:
        nxt = []
        for u in frontier:
            for p in rev.get(u, ()):
                if p not in dist:
                    dist[p] = dist[u] + 1
                    nxt.append(p)
        frontier = sorted(nxt)
    if start not in dist:
        raise NoPath(f"no goal reachable from {start}")

    # walk forward, always taking the smallest successor that stays on a
    # shortest path; greedy choice is lexicographically optimal
    nodes = [start]
    u = start
    while u not in goals:
        step = [v for v in sorted(fwd.get(u, ())) if dist.get(v, -1) == dist[u] - 1]
        u = step[0]
        nodes.append(u)
    return Route(nodes)


def enumerate_routes(m: GraphMap, max_length: int | None = None):
    """All simple start-to-goal routes, sorted by (length, node sequence)."""
    limit = m.n_states - 1 if max_length is None else max_length
    fwd = {}
    for e in m.edges:
        fwd.setdefault(e.src, set()).add(e.dst)
    found = []

    def dfs(u, path, on_path):
        if u in m.goals:
            found.append(Route(list(path)))
            return
        if len(path) - 1 >= limit:
            return
        for v in sorted(fwd.get(u, ())):
            if v not in on_path:
                path.append(v)
                on_path.add(v)
                dfs(v, path, on_path)
                path.pop()
                on_path.remove(v)

    dfs(m.start, [m.start], {m.start})
    found.sort(key=lambda r: (r.length, r.nodes))
    return found


# ---------------------------------------------------------------------------
# scenario generators

@dataclass(frozen=True)
class ScenarioParams(Config):
    noisy_len: int
    robust_len: int
    robust2_len: int | None = None


def _path_edges(node_ids, first_action=0):
    """Chain edges along node_ids; the first edge takes first_action."""
    edges = []
    for i in range(len(node_ids) - 1):
        action = first_action if i == 0 else 0
        edges.append((node_ids[i], node_ids[i + 1], action))
    return edges


def generate_scenario(kind: str, params: ScenarioParams) -> GraphMap:
    """Synthetic benchmark maps with one noisy and one or two robust routes.

    All routes run from a single start (the critical divergence node) to a
    single goal and share no other nodes. The crosswalk sits at edge index
    noisy_len // 2 along the noisy (shortest) route.
    """
    ln, lr = params.noisy_len, params.robust_len
    if kind == "two-route":
        if params.robust2_len is not None:
            raise BadParams("two-route takes no robust2_len")
        lengths = [ln, lr]
        if ln >= lr:
            raise BadParams(f"need noisy_len < robust_len, got {ln} >= {lr}")
    elif kind == "three-route":
        lr2 = params.robust2_len
        if lr2 is None:
            raise BadParams("three-route requires robust2_len")
        lengths = [ln, lr, lr2]
        if not (ln < lr <= lr2):
            raise BadParams(
                f"need noisy_len < robust_len <= robust2_len, got {ln}, {lr}, {lr2}"
            )
    else:
        raise BadParams(f"unknown scenario kind {kind!r}")
    if min(lengths) < 3:
        raise BadParams(f"route lengths must be >= 3, got {lengths}")

    start = 0
    width = 10.0 * ln
    coords = {start: (0.0, 0.0)}
    next_id = 1
    branches = []   # (first interior id, length) per route
    for k, length in enumerate(lengths):
        interior = list(range(next_id, next_id + length - 1))
        next_id += length - 1
        branches.append(interior)
        y = (0.0, 14.0, -14.0)[k]
        for j, node in enumerate(interior, start=1):
            coords[node] = (width * j / length, y)
    goal = next_id
    coords[goal] = (width, 0.0)

    edges = []
    for k, interior in enumerate(branches):
        chain = [start] + interior + [goal]
        edges.extend(_path_edges(chain, first_action=k))

    crosswalk = branches[0][ln // 2 - 1]   # node after ln//2 edges on noisy route
    name = f"{kind}-" + "-".join(str(x) for x in lengths)
    return build_map(name, goal + 1, edges, start=start, goals={goal},
                     crosswalks={crosswalk}, coords=coords)


# ---------------------------------------------------------------------------
# rendering

def _quote(s):
    return '"' + str(s).replace('"', r'\"') + '"'


def render_routes(m: GraphMap, routes) -> str:
    """Emit a DOT document of the map with colored route overlays.

    ``routes`` is a list of (Route, label) pairs. Node positions come from
    the stored coordinates (pin syntax, usable with neato -n).
    """
    edge_set = m.edge_set()
    for route, label in routes:
        for u, v in zip(route.nodes, route.nodes[1:]):
            if (u, v) not in edge_set:
                raise InvalidRoute(f"route {label!r} uses missing edge {u}->{v}")

    lines = [f"digraph {_quote(m.name)} {{"]
    lines.append('  node [shape=circle, fontsize=10, width=0.3];')
    for n in m.nodes:
        attrs = [f'pos="{n.x:g},{n.y:g}!"']
        if "start" in n.tags:
            attrs.append('style=filled, fillcolor="#4daf4a"')
        elif "goal" in n.tags:
            attrs.append('style=filled, fillcolor="#f0027f"')
        elif "crosswalk" in n.tags:
            attrs.append('style=filled, fillcolor="#252525", fontcolor=white')
        lines.append(f"  {n.id} [{', '.join(attrs)}];")
    for e in m.edges:
        lines.append(f'  {e.src} -> {e.dst} [color="#bbbbbb"];')
    for i, (route, label) in enumerate(routes):
        color = _PALETTE[i % len(_PALETTE)]
        for u, v in zip(route.nodes, route.nodes[1:]):
            lines.append(
                f'  {u} -> {v} [color="{color}", penwidth=2.2, label={_quote(label)}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
