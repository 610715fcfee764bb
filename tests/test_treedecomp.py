"""Tree-decompositions: axioms, torsos, treewidth, centers."""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarsegraph.corpus import DEFAULT_SEED, corpus
from coarsegraph.errors import CapacityError, EmptySetError, GraphToolError, StructuralError
from coarsegraph.generators import complete_graph, cycle_graph, grid_graph, path_graph
from coarsegraph.graph import Graph, is_connected, parse_vertex_token, vertex_token
from coarsegraph.separations import is_separation
from coarsegraph.treedecomp import (
    TreeDecomposition,
    adhesion,
    adhesion_sets,
    clique_subtree,
    contract_td_edges,
    edge_separation,
    exact_treewidth,
    heuristic_td,
    td_from_dict,
    td_to_dict,
    torso,
    tree_center,
    validate,
    width,
)

import oracles


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.build(outer + spokes + inner)


def two_k4() -> tuple[Graph, TreeDecomposition]:
    quad1 = ["s1", "s2", "s3", "v1"]
    quad2 = ["s1", "s2", "s3", "v2"]
    edges = [(a, b) for q in (quad1, quad2) for i, a in enumerate(q) for b in q[i + 1 :]]
    host = Graph.build(edges)
    td = TreeDecomposition(
        Graph.build([("t1", "t2")]),
        {"t1": frozenset(quad1), "t2": frozenset(quad2)},
    )
    return host, td


def test_tree_structure_is_enforced():
    with pytest.raises(StructuralError):
        TreeDecomposition(cycle_graph(3), {0: frozenset(), 1: frozenset(), 2: frozenset()})
    with pytest.raises(StructuralError):
        TreeDecomposition(path_graph(2), {0: frozenset()})


def test_validate_reports_each_axiom():
    host = path_graph(3)
    good = TreeDecomposition(path_graph(2), {0: frozenset({0, 1}), 1: frozenset({1, 2})})
    assert validate(host, good).ok

    missing = TreeDecomposition(path_graph(2), {0: frozenset({0, 1}), 1: frozenset({1})})
    rep = validate(host, missing)
    assert not rep.ok and rep.axiom == "T1"

    uncovered = TreeDecomposition(path_graph(2), {0: frozenset({0, 1}), 1: frozenset({2})})
    rep = validate(host, uncovered)
    assert not rep.ok and rep.axiom == "T2"

    split = TreeDecomposition(
        path_graph(3),
        {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({0, 2})},
    )
    rep = validate(host, split)
    assert not rep.ok and rep.axiom == "T3"


def test_adhesion_and_width():
    _, td = two_k4()
    assert adhesion_sets(td) == {("t1", "t2"): frozenset({"s1", "s2", "s3"})}
    assert adhesion(td) == 3
    assert width(td) == 3


def test_torso_completes_adhesion_cliques():
    host = Graph.build([("s1", "s2"), ("s2", "s3"), ("s1", "v1"), ("s3", "v2")])
    td = TreeDecomposition(
        Graph.build([("t1", "t2")]),
        {"t1": frozenset({"s1", "s2", "s3", "v1"}), "t2": frozenset({"s1", "s2", "s3", "v2"})},
    )
    t = torso(host, td, "t1")
    assert ("s1", "s3") in t.edges or ("s3", "s1") in t.edges
    assert len(t.vertices) == 4


def test_edge_separation_is_a_separation():
    rng = random.Random(41)
    for _ in range(20):
        vs, es = oracles.random_connected_graph(rng, rng.randint(3, 12), 0.3)
        g = Graph.build(es, vertices=vs)
        td = heuristic_td(g)
        for e in td.tree.sorted_edges():
            assert is_separation(g, edge_separation(g, td, e))


def test_exact_treewidth_frozen_values():
    assert exact_treewidth(Graph.build((), [0])) == 0
    assert exact_treewidth(path_graph(6)) == 1
    assert exact_treewidth(cycle_graph(3)) == 2
    assert exact_treewidth(cycle_graph(8)) == 2
    assert exact_treewidth(complete_graph(5)) == 4
    assert exact_treewidth(grid_graph(3, 3)) == 3
    assert exact_treewidth(petersen()) == 4


def test_exact_treewidth_matches_elimination_oracle():
    rng = random.Random(42)
    for _ in range(20):
        vs, es = oracles.random_graph(rng, rng.randint(1, 6), 0.45)
        g = Graph.build(es, vertices=vs)
        assert exact_treewidth(g) == oracles.treewidth_elimination(oracles.adjacency(es, vs))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 10_000))
def test_exact_treewidth_property_against_the_oracle(n, p, seed):
    vs, es = oracles.random_graph(random.Random(seed), n, p)
    assert exact_treewidth(Graph.build(es, vertices=vs)) == oracles.treewidth_elimination(oracles.adjacency(es, vs))


def test_exact_treewidth_below_the_min_degree_width():
    # Min-degree elimination gives width 4 here; the DP must find width 3.
    es = [(0, 1), (0, 4), (0, 5), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 6), (3, 4), (3, 5), (3, 6)]
    g = Graph.build(es)
    assert width(heuristic_td(g)) == 4
    assert exact_treewidth(g) == 3 == oracles.treewidth_elimination(oracles.adjacency(es))


def partial_k_tree(rng: random.Random, n: int, k: int) -> Graph:
    """A random k-tree minus some edges outside its first (k+1)-clique: treewidth exactly k."""
    cliques = [tuple(range(k + 1))]
    edges = list(itertools.combinations(range(k + 1), 2))
    for v in range(k + 1, n):
        c = list(rng.choice(cliques))
        c.pop(rng.randrange(k + 1))
        edges += [(v, w) for w in c if rng.random() < 0.7]
        cliques.append(tuple(c) + (v,))
    return Graph.build(edges, vertices=range(n))


def test_exact_treewidth_of_partial_k_trees_up_to_the_cap():
    rng = random.Random(48)
    for n, k in ((12, 4), (12, 2), (13, 3), (14, 5), (14, 1)):
        assert exact_treewidth(partial_k_tree(rng, n, k)) == k


def test_exact_treewidth_cap():
    with pytest.raises(CapacityError):
        exact_treewidth(path_graph(20))
    with pytest.raises(CapacityError):
        exact_treewidth(path_graph(8), cap=6)


def test_heuristic_td_is_always_valid():
    rng = random.Random(43)
    for _ in range(25):
        vs, es = oracles.random_graph(rng, rng.randint(1, 20), 0.2)
        g = Graph.build(es, vertices=vs)
        td = heuristic_td(g)
        assert validate(g, td).ok


@pytest.mark.parametrize("edges, isolated, expected", [
    # A triangle 0, a, (t|1); b joined to a and (t|1), and to 0 through 5; an isolated vertex.
    ([(0, "a"), ("a", ("t", 1)), (("t", 1), 0), (0, 5), (5, "b"), ("b", ("t", 1)), ("a", "b")], ["iso"],
     {"tree_edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"]],
      "parts": {"0": ["iso"], "1": [0, 5, "b"], "2": [0, "a", "b", ("t", 1)], "3": ["a", "b", ("t", 1)],
                "4": ["b", ("t", 1)], "5": [("t", 1)]}}),
    # A 6-cycle of tuples with a hub on two antipodes and a pendant at the hub.
    ([((i, "r"), ((i + 1) % 6, "r")) for i in range(6)] + [((0, "r"), "hub"), ((3, "r"), "hub"), ("hub", 9)], [],
     {"tree_edges": [["0", "1"], ["1", "4"], ["2", "3"], ["3", "4"], ["4", "5"], ["5", "6"], ["6", "7"]],
      "parts": {"0": [9, "hub"], "1": ["hub", (0, "r"), (3, "r")], "2": [(0, "r"), (1, "r"), (2, "r")],
                "3": [(0, "r"), (2, "r"), (3, "r")], "4": [(0, "r"), (3, "r"), (5, "r")],
                "5": [(3, "r"), (4, "r"), (5, "r")], "6": [(4, "r"), (5, "r")], "7": [(5, "r")]}}),
    # K5 on 1, 2, u, v, (w) minus the edges 1-v and u-(w).
    ([("u", 1), (1, 2), (2, "u"), (2, ("w",)), (("w",), "v"), ("v", 2), ("v", "u"), (("w",), 1)], [],
     {"tree_edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"]],
      "parts": {"0": [1, 2, "u", ("w",)], "1": [2, "u", "v", ("w",)], "2": ["u", "v", ("w",)],
                "3": ["v", ("w",)], "4": [("w",)]}}),
])
def test_heuristic_td_is_pinned_on_mixed_labels(edges, isolated, expected):
    """Min-degree elimination breaks ties by vertex key; the decompositions
    are the ones measured at 2ec775d."""
    assert td_to_dict(heuristic_td(Graph.build(edges, vertices=isolated))) == expected


def test_heuristic_td_parts_are_the_oracle_elimination_bags():
    """Node i of heuristic_td holds the i-th bag of the plain-set min-degree
    elimination, on random graphs with mixed labels and on every corpus torso."""
    rng = random.Random(61)
    graphs = []
    for _ in range(300):
        vs, es = oracles.random_graph(rng, rng.randint(1, 14), rng.choice([0.1, 0.25, 0.4, 0.6, 0.8]))
        name = {v: rng.choice([v, f"s{v}", (v % 3, f"t{v}")]) for v in vs}
        graphs.append(Graph.build([(name[u], name[v]) for u, v in es], vertices=name.values()))
    for inst in corpus(DEFAULT_SEED):
        graphs.extend(torso(inst.bundle.host, inst.bundle.td, t) for t in inst.bundle.td.tree.sorted_vertices())
    for g in graphs:
        td = heuristic_td(g)
        parts = [td.parts[i] for i in range(len(td.parts))]
        assert parts == oracles.min_degree_elimination(oracles.adjacency(g.edges, g.vertices)), g.sorted_edges()


def test_heuristic_width_upper_bounds_exact():
    rng = random.Random(44)
    for _ in range(15):
        vs, es = oracles.random_graph(rng, rng.randint(1, 6), 0.4)
        g = Graph.build(es, vertices=vs)
        assert width(heuristic_td(g)) >= exact_treewidth(g)


def test_contract_preserves_validity():
    rng = random.Random(45)
    for _ in range(20):
        vs, es = oracles.random_connected_graph(rng, rng.randint(3, 14), 0.25)
        g = Graph.build(es, vertices=vs)
        td = heuristic_td(g)
        edges = td.tree.sorted_edges()
        keep = [e for e in edges if rng.random() < 0.5]
        new_td, mapping = contract_td_edges(td, keep)
        assert validate(g, new_td).ok
        assert set(mapping) == set(td.tree.vertices)
        for t, part in td.parts.items():
            assert part <= new_td.parts[mapping[t]]
        # Each node maps to the key-least node of its class: its component off the kept edges.
        rest = oracles.adjacency([e for e in edges if e not in keep], td.tree.vertices)
        for cls in oracles.components_without(rest, ()):
            least = min(cls, key=oracles.label_key)
            assert all(mapping[t] == least for t in cls)


def test_contract_everything_gives_one_part():
    g = cycle_graph(6)
    td = heuristic_td(g)
    new_td, _ = contract_td_edges(td, [])
    assert len(new_td.parts) == 1
    assert next(iter(new_td.parts.values())) == g.vertices


def test_clique_subtree_of_three_consecutive_parts():
    """A path decomposition where exactly three consecutive parts contain S."""
    s = frozenset({"x", "y"})
    parts = {
        0: frozenset({"a"}),
        1: s | {"b"},
        2: s | {"c"},
        3: s | {"d"},
        4: frozenset({"e"}),
    }
    td = TreeDecomposition(path_graph(5), parts)
    sub = clique_subtree(td, s)
    assert sub.vertices == frozenset({1, 2, 3})
    assert is_connected(sub)
    with pytest.raises(EmptySetError):
        clique_subtree(td, frozenset())


def test_tree_center_frozen_examples():
    center4 = tree_center(path_graph(4))
    assert center4.kind == "edge"
    assert set(center4.location) == {1, 2}
    center5 = tree_center(path_graph(5))
    assert center5.kind == "vertex"
    assert center5.location == 2


def test_tree_center_matches_eccentricity_oracle():
    rng = random.Random(46)
    for _ in range(25):
        n = rng.randint(1, 15)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        tree = Graph.build(edges, vertices=range(n))
        center = tree_center(tree)
        expected = oracles.centers_by_eccentricity(oracles.adjacency(edges, range(n)))
        if center.kind == "vertex":
            assert {center.location} == expected
        else:
            assert set(center.location) == expected


def test_td_dict_round_trip():
    _, td = two_k4()
    again = td_from_dict(td_to_dict(td))
    assert again.parts == td.parts
    assert again.tree == td.tree


_plain_str = st.text("abxyz", min_size=1, max_size=3)
_tree_node = st.one_of(
    st.integers(-5, 50),
    _plain_str,
    st.tuples(st.sampled_from(["xS", "tw"]), st.integers(0, 9)),
    st.tuples(st.integers(0, 9), _plain_str, st.tuples(st.integers(0, 3))),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_tree_node, min_size=1, max_size=8, unique=True), st.integers(0, 10_000))
def test_td_json_round_trip_for_int_str_and_tuple_nodes(nodes, seed):
    # Nodes whose vertex token reads back as the same value; "1" reads back as 1.
    assume(all(parse_vertex_token(vertex_token(t)) == t for t in nodes))
    rng = random.Random(seed)
    edges = [(nodes[i], nodes[rng.randrange(i)]) for i in range(1, len(nodes))]
    parts = {t: frozenset(rng.sample(range(6), rng.randint(0, 3))) for t in nodes}
    td = TreeDecomposition(Graph.build(edges, vertices=nodes), parts)
    again = td_from_dict(json.loads(json.dumps(td_to_dict(td))))
    assert again.tree == td.tree and again.parts == td.parts


def test_td_json_writes_tree_nodes_as_tokens_everywhere():
    td = TreeDecomposition(Graph.build([(("t", 1), ("t", 2))]), {("t", 1): frozenset({0}), ("t", 2): frozenset()})
    data = json.loads(json.dumps(td_to_dict(td)))
    assert data == {"tree_edges": [["(t|1)", "(t|2)"]], "parts": {"(t|1)": [0], "(t|2)": []}}


def test_td_with_int_like_string_nodes_reads_back_as_a_tree():
    td = TreeDecomposition(Graph.build([("1", "2")]), {"1": frozenset({0}), "2": frozenset({0, 1})})
    again = td_from_dict(json.loads(json.dumps(td_to_dict(td))))
    assert again.tree == Graph.build([(1, 2)]) and again.parts == {1: frozenset({0}), 2: frozenset({0, 1})}


@pytest.mark.parametrize("data", [
    [],
    {"tree_edges": [], "parts": []},
    {"tree_edges": {}, "parts": {"0": []}},
    {"tree_edges": [[0, 1, 2]], "parts": {"0": [], "1": []}},
    {"tree_edges": [], "parts": {"0": "abc"}},
    {"tree_edges": [], "parts": {"0": [{"a": 1}]}},
    {"tree_edges": [[0, None]], "parts": {"0": []}},
])
def test_malformed_td_json_raises_typed_errors(data):
    with pytest.raises(GraphToolError):
        td_from_dict(data)
