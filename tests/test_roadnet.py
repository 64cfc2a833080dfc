import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import simple_paths_bruteforce
from qrrn.roadnet import (BadParams, DanglingEdge, DuplicateAction,
                          InvalidAction, InvalidRoute, InvalidState, NoPath,
                          Route, ScenarioParams, SchemaError, UnreachableGoal,
                          build_map, emit_map, generate_scenario, map_to_dict,
                          enumerate_routes, parse_map, render_routes,
                          shortest_path, transition)

MINIMAL = {
    "name": "mini",
    "nodes": [
        {"id": 0, "x": 0.0, "y": 0.0, "tags": ["start"]},
        {"id": 1, "x": 1.0, "y": 0.0, "tags": ["goal"]},
    ],
    "edges": [{"from": 0, "to": 1, "action": 0}],
    "start": 0,
    "goals": [1],
    "crosswalks": [],
}


def doc(**overrides):
    out = json.loads(json.dumps(MINIMAL))
    out.update(overrides)
    return out


def test_parse_minimal_map():
    m = parse_map(json.dumps(MINIMAL))
    assert m.n_states == 2
    assert m.action_dim == 1
    assert m.start == 0 and m.goals == frozenset({1})


def test_action_dim_computed_from_out_degree():
    # a node with out-degree 3 fixes the action space dimension
    m = build_map("fan", 4, [(0, 1, 0), (0, 2, 1), (0, 3, 2), (1, 3, 0),
                             (2, 3, 0)], start=0, goals={3})
    assert m.action_dim == 3
    d = map_to_dict(m)
    del d["action_dim"]
    assert parse_map(json.dumps(d)).action_dim == 3


def test_explicit_action_dim_must_match():
    with pytest.raises(SchemaError):
        parse_map(json.dumps(doc(action_dim=2)))


def test_dangling_edge():
    with pytest.raises(DanglingEdge):
        parse_map(json.dumps(doc(edges=[{"from": 5, "to": 1, "action": 0}])))


def test_duplicate_action():
    bad = doc(nodes=MINIMAL["nodes"] + [{"id": 2, "x": 0, "y": 1, "tags": []}],
              edges=[{"from": 0, "to": 1, "action": 0},
                     {"from": 0, "to": 2, "action": 0}])
    with pytest.raises(DuplicateAction):
        parse_map(json.dumps(bad))


def test_unreachable_goal():
    bad = doc(nodes=MINIMAL["nodes"] + [{"id": 2, "x": 0, "y": 1,
                                         "tags": ["goal"]}],
              goals=[1, 2])
    with pytest.raises(UnreachableGoal):
        parse_map(json.dumps(bad))


@pytest.mark.parametrize("mutate", [
    {"bogus": 1},                                   # unknown top key
    {"start": "zero"},                              # wrong type
    {"goals": [0]},                                 # start is a goal -> also checks overlap
    {"nodes": [{"id": 0, "tags": ["start"], "z": 3},
               {"id": 1, "tags": ["goal"]}]},       # unknown node key
    {"nodes": [{"id": 0, "tags": ["start"]},
               {"id": 5, "tags": ["goal"]}]},       # non-dense ids
    {"nodes": [{"id": 0, "tags": ["start", "weird"]},
               {"id": 1, "tags": ["goal"]}]},       # unknown tag
    {"nodes": [{"id": 0, "tags": []},
               {"id": 1, "tags": ["goal"]}]},       # tags disagree with start
    {"edges": [{"from": 0, "to": 1}]},              # missing edge key
    {"nodes": [{"id": False, "tags": ["start"]},
               {"id": 1, "tags": ["goal"]}]},       # bool node id
    {"start": 0.0},                                 # float start
    {"nodes": [0, {"id": 1, "tags": ["goal"]}]},    # node not an object
    {"nodes": [{"id": 0, "tags": "start"},
               {"id": 1, "tags": ["goal"]}]},       # tags as a string
    {"nodes": [{"id": 0, "x": True, "tags": ["start"]},
               {"id": 1, "tags": ["goal"]}]},       # bool coordinate
    {"goals": 1},                                   # goals not a list
    {"name": 5},                                    # non-string name
    {"nodes": [{"id": 0, "x": 10**400, "tags": ["start"]},
               {"id": 1, "tags": ["goal"]}]},       # int beyond float range
    [MINIMAL],                                      # document not an object
])
def test_schema_violations(mutate):
    bad = doc(**mutate) if isinstance(mutate, dict) else mutate
    with pytest.raises(SchemaError):
        parse_map(json.dumps(bad))


def test_integer_coordinates_emit_as_floats():
    # checkpoint headers embed the emitted document, so "x": 1 stays 1.0
    m = parse_map(json.dumps(doc(nodes=[
        {"id": 0, "x": 1, "y": -2, "tags": ["start"]},
        {"id": 1, "x": 3, "tags": ["goal"]}])))
    text = emit_map(m)
    assert '"x": 1.0' in text and '"y": -2.0' in text and '"x": 3.0' in text
    assert emit_map(parse_map(text)) == text


def test_parse_rejects_bad_json():
    with pytest.raises(SchemaError):
        parse_map("{nope")


def test_roundtrip_identity(two_route_map, three_route_map, diamond_map):
    for m in (two_route_map, three_route_map, diamond_map):
        again = parse_map(emit_map(m))
        assert again == m
        assert np.array_equal(again.trans, m.trans)


@st.composite
def scenarios(draw):
    noisy = draw(st.integers(3, 30))
    robust = draw(st.integers(noisy + 1, 40))
    if draw(st.booleans()):
        return generate_scenario("two-route", ScenarioParams(noisy, robust))
    robust2 = draw(st.integers(robust, 45))
    return generate_scenario("three-route", ScenarioParams(noisy, robust, robust2))


@settings(max_examples=60)
@given(scenarios())
def test_generated_scenarios_roundtrip(m):
    text = emit_map(m)
    again = parse_map(text)
    assert again == m
    assert np.array_equal(again.trans, m.trans)
    assert emit_map(again) == text


# ---------------------------------------------------------------------------

def test_transition_defined_edge(two_route_map):
    assert transition(two_route_map, 0, 0) == 1
    assert transition(two_route_map, 0, 1) == 8


def test_transition_loopback_on_straightaway():
    m = build_map("fan", 4, [(0, 1, 0), (0, 2, 1), (0, 3, 2), (1, 3, 0),
                             (2, 3, 0)], start=0, goals={3})
    # node 1 only defines action 0; higher actions re-enter node 1
    assert transition(m, 1, 0) == 3
    assert transition(m, 1, 2) == 1


def test_transition_goal_sink_loops(two_route_map):
    goal = next(iter(two_route_map.goals))
    for a in range(two_route_map.action_dim):
        assert transition(two_route_map, goal, a) == goal


def test_transition_validation(two_route_map):
    with pytest.raises(InvalidState):
        transition(two_route_map, -1, 0)
    with pytest.raises(InvalidState):
        transition(two_route_map, 99, 0)
    with pytest.raises(InvalidAction):
        transition(two_route_map, 0, 2)
    with pytest.raises(InvalidAction):
        transition(two_route_map, 0, -1)


def test_loopback_closure(two_route_map, three_route_map):
    for m in (two_route_map, three_route_map):
        for s in range(m.n_states):
            loops = sum(int(m.trans[s, a] == s) for a in range(m.action_dim))
            assert loops == m.action_dim - int(m.out_degree[s])


# ---------------------------------------------------------------------------

def test_two_route_scenario(two_route_map):
    m = two_route_map
    sp = shortest_path(m)
    assert sp.length == 8
    assert any(v in m.crosswalks for v in sp.nodes)
    paths = simple_paths_bruteforce(m)
    assert sorted(len(p) - 1 for p in paths) == [8, 10]
    shared = set(paths[0]) & set(paths[1])
    assert shared == {m.start, next(iter(m.goals))}
    # crosswalk halfway down the noisy route
    assert sp.nodes[4] in m.crosswalks


def test_three_route_scenario(three_route_map):
    m = three_route_map
    paths = simple_paths_bruteforce(m)
    lengths = sorted(len(p) - 1 for p in paths)
    assert lengths == [8, 10, 11]
    for p in paths:
        has_cross = any(v in m.crosswalks for v in p)
        assert has_cross == (len(p) - 1 == 8)


@pytest.mark.parametrize("kind,params", [
    ("two-route", ScenarioParams(10, 8)),          # ordering violated
    ("two-route", ScenarioParams(2, 10)),          # too short
    ("three-route", ScenarioParams(8, 11, 10)),    # robust ordering violated
    ("three-route", ScenarioParams(8, 10)),        # missing third length
    ("two-route", ScenarioParams(8, 10, 12)),      # extra third length
    ("loop-route", ScenarioParams(8, 10)),         # unknown kind
])
def test_generator_bad_params(kind, params):
    with pytest.raises(BadParams):
        generate_scenario(kind, params)


def test_enumerate_routes_matches_bruteforce(two_route_map, three_route_map):
    for m in (two_route_map, three_route_map):
        got = [r.nodes for r in enumerate_routes(m)]
        assert got == simple_paths_bruteforce(m)


# ---------------------------------------------------------------------------

def test_shortest_path_degenerate(two_route_map):
    goal = next(iter(two_route_map.goals))
    r = shortest_path(two_route_map, start=goal, goals={goal})
    assert r.nodes == [goal] and r.length == 0


def test_shortest_path_no_path(chain2_map):
    with pytest.raises(NoPath):
        shortest_path(chain2_map, start=2, goals={0})


def test_shortest_path_lexicographic_tiebreak(diamond_map):
    assert shortest_path(diamond_map).nodes == [0, 1, 3]


# ---------------------------------------------------------------------------

def _dot_overlay_edges(text):
    out = []
    for line in text.splitlines():
        line = line.strip()
        if "->" in line and "label=" in line:
            head = line.split("[")[0]
            u, v = head.split("->")
            out.append((int(u), int(v.strip().rstrip(";"))))
    return out


def test_render_bare_map(two_route_map):
    dot = render_routes(two_route_map, [])
    assert dot.startswith("digraph")
    assert _dot_overlay_edges(dot) == []
    for e in two_route_map.edges:
        assert f"{e.src} -> {e.dst}" in dot
    assert 'pos="0,0!"' in dot


def test_render_one_route(two_route_map):
    sp = shortest_path(two_route_map)
    dot = render_routes(two_route_map, [(sp, "noisy")])
    overlay = _dot_overlay_edges(dot)
    assert overlay == list(zip(sp.nodes, sp.nodes[1:]))
    assert '"noisy"' in dot


def test_render_invalid_route(two_route_map):
    with pytest.raises(InvalidRoute):
        render_routes(two_route_map, [(Route([0, 17]), "jump")])
