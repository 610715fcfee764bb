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
from coarsegraph.graph import Graph, induced_subgraph, is_connected, parse_vertex_token, relabel, vertex_token
from coarsegraph.planarity import is_planar
from coarsegraph.separations import is_separation
from coarsegraph.symmetry import automorphisms, edge_orbits, vertex_orbits
from coarsegraph.treedecomp import (
    TreeDecomposition,
    adhesion,
    adhesion_sets,
    clique_subtree,
    edge_separation,
    exact_treewidth,
    heuristic_td,
    min_degree_elimination,
    td_from_dict,
    td_to_dict,
    torso,
    tree_center,
    validate,
    width,
)

import helpers
import oracles
from helpers import kernel_graphs


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


def test_validate_reads_a_whole_host_part_as_the_full_mask():
    """A part of |V| vertices lies in V once T1 holds, so validate gives it the
    full mask without looking its vertices up; the reports are those read
    before that shortcut.  A part equal to V holds every edge, so the T2 fault
    drops a vertex from it, and the tree is connected, so the T3 fault adds a
    third node."""
    host = cycle_graph(6)
    V = host.vertices

    def td(parts, edges=(("a", "b"),)):
        return TreeDecomposition(Graph.build(edges, vertices=parts), {t: frozenset(p) for t, p in parts.items()})

    valid = (True, None, None, "valid tree-decomposition")
    stranger = (False, "T1", "x", "part vertex x is not a graph vertex")
    cases = [
        (td({"a": V}, ()), valid),
        (td({"a": V - {3} | {"x"}}, ()), stranger),  # |V| vertices, one of them no host vertex
        (td({"a": V, "b": {0, 1}}), valid),
        (td({"a": V, "b": {0, "x"}}), stranger),
        (td({"a": V - {3}, "b": {0, 3}}), (False, "T2", (2, 3), "edge 2-3 lies in no part")),
        (td({"a": V, "b": {1, 2}, "c": {0, 1}}, (("a", "b"), ("b", "c"))),
         (False, "T3", 0, "nodes containing 0 are not connected in the tree")),
    ]
    for decomposition, report in cases:
        assert tuple(validate(host, decomposition)) == report, decomposition.parts


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_reports_the_first_violation_like_the_axioms(data):
    """validate on random, mostly invalid, decompositions of mixed-label hosts
    (ints, strings and tuples) against the axioms read directly: the first
    failing axiom, and its witness first in the oracle's key order.  Half the
    decompositions are the valid min-degree one with one vertex dropped from
    one part, so most parts pass T2 in bulk and at most one fails."""
    n = data.draw(st.integers(1, 8))
    labels = [(i, f"v{i}", (i % 2, f"t{i}"))[data.draw(st.integers(0, 2))] for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    host = Graph.build(edges, vertices=labels)
    if data.draw(st.booleans()):
        td = heuristic_td(host)
        m, tree_edges, parts = len(td.parts), sorted(td.tree.edges), dict(td.parts)
        t = data.draw(st.integers(0, m - 1))
        parts[t] -= {data.draw(st.sampled_from(sorted(parts[t], key=oracles.label_key)))}
    else:
        m = data.draw(st.integers(1, 5))
        tree_edges = [(i, data.draw(st.integers(0, i - 1))) for i in range(1, m)]
        parts = {t: frozenset(data.draw(st.sets(st.sampled_from(labels), min_size=1))) for t in range(m)}
    rep = validate(host, TreeDecomposition(Graph.build(tree_edges, vertices=range(m)), parts))

    key = oracles.label_key
    tree_adj = oracles.adjacency(tree_edges, range(m))
    uncovered = sorted(set(labels) - set().union(*parts.values()), key=key)
    split_edges = sorted((tuple(sorted(e, key=key)) for e in edges if not any(set(e) <= p for p in parts.values())),
                         key=lambda e: (key(e[0]), key(e[1])))

    def connected(ts):  # an empty set only for an uncovered vertex, reported under T1
        return not ts or set(oracles.bfs_distances({t: tree_adj[t] & ts for t in ts}, min(ts))) == ts

    split_vertices = [v for v in sorted(labels, key=key) if not connected({t for t, p in parts.items() if v in p})]
    expected = (("T1", uncovered) if uncovered else ("T2", split_edges) if split_edges
                else ("T3", split_vertices) if split_vertices else (None, [None]))
    assert (rep.ok, rep.axiom, rep.witness) == (expected[0] is None, expected[0], expected[1][0])


def _grown(calls: list) -> list:
    """The ``within`` mask of each recorded ``mask_components`` call that passes one; the
    one-argument calls of ``Graph.component_masks`` grow every component and pass none."""
    return [a[1] for a in calls if len(a) > 1]


def test_validate_tests_each_distinct_node_set_once(monkeypatch):
    """T3 grows one tree mask per distinct set of two or more nodes holding a
    vertex, since a one-node set is connected: none for a one-part 17×17 grid;
    of a path's two-node decomposition's sets {0}, {0, 1} and {1}, only {0, 1},
    and that once when two vertices lie in both parts."""
    calls = helpers.calls(monkeypatch, "graph.mask_components")
    host = grid_graph(17, 17)
    assert validate(host, TreeDecomposition(Graph.build((), ["t"]), {"t": host.vertices})).ok
    assert _grown(calls) == []
    assert validate(path_graph(4), TreeDecomposition(path_graph(2), {0: frozenset({0, 1, 2}), 1: frozenset({2, 3})})).ok
    assert _grown(calls) == [0b11]
    calls.clear()
    assert validate(path_graph(5), TreeDecomposition(path_graph(2), {0: frozenset({0, 1, 2, 3}), 1: frozenset({2, 3, 4})})).ok
    assert _grown(calls) == [0b11]


_LABELS = st.integers(0, 9) | st.text(alphabet="ab", min_size=1, max_size=2) | st.tuples(st.integers(0, 3), st.sampled_from("xy"))


def _assert_same_graph(g: Graph, ref: Graph) -> None:
    assert (g.vertices, g.edges) == (ref.vertices, ref.edges)
    assert (g.order, g.pos, g.nbrs) == (ref.order, ref.pos, ref.nbrs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_derived_graphs_equal_a_keyed_build_on_mixed_labels(data):
    """induced_subgraph, torso and clique_subtree, built on their parent's
    ids, equal Graph.build of the same vertices and edges in vertices, edges
    and ids; the torso's reference is its definition on the host's edges."""
    labels = data.draw(st.lists(_LABELS, min_size=1, max_size=9, unique=True))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    host = Graph.build(data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [], vertices=labels)
    keep = data.draw(st.sets(st.sampled_from(labels)))
    _assert_same_graph(induced_subgraph(host, keep), Graph.build([e for e in host.edges if set(e) <= keep], vertices=keep))

    # A valid decomposition with mixed tree nodes: the min-degree one, renamed.
    plain = heuristic_td(host)
    nodes = data.draw(st.lists(_LABELS, min_size=len(plain.parts), max_size=len(plain.parts), unique=True))
    name = dict(zip(plain.parts, nodes))
    td = TreeDecomposition(relabel(plain.tree, name), {name[t]: p for t, p in plain.parts.items()})
    t = data.draw(st.sampled_from(nodes))
    part = td.parts[t]
    edges = [e for e in host.edges if set(e) <= part]
    for t2 in td.tree.neighbors(t):
        edges.extend(itertools.combinations(sorted(part & td.parts[t2], key=oracles.label_key), 2))
    _assert_same_graph(torso(host, td, t), Graph.build(edges, vertices=part))

    s = data.draw(st.sets(st.sampled_from(sorted(part, key=oracles.label_key)), min_size=1))
    holding = {u for u, p in td.parts.items() if s <= p}
    _assert_same_graph(clique_subtree(td, s), Graph.build([e for e in td.tree.edges if set(e) <= holding], vertices=holding))


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


def test_a_value_equal_to_a_tree_node_is_no_tree_node():
    """1.0 and True equal the tree node 1 but are not it: part and torso refuse
    them as they refuse a node the tree lacks, and a decomposition refuses
    them as part keys as it refuses a key the tree lacks."""
    host = cycle_graph(6)
    td = TreeDecomposition(Graph.build([(1, 2)]), {1: {0, 1, 2, 3}, 2: {3, 4, 5, 0}})
    assert td.part(1) == torso(host, td, 1).vertices == {0, 1, 2, 3}
    for t in (1.0, True, 3):
        with pytest.raises(StructuralError, match=rf"^no such tree node: {t!r}$"):
            td.part(t)
        with pytest.raises(StructuralError, match=rf"^no such tree node: {t!r}$"):
            torso(host, td, t)
    for t in (1.0, True):
        with pytest.raises(StructuralError, match=r"^parts must be keyed exactly by the tree nodes$"):
            TreeDecomposition(Graph.build([(1, 2)]), {t: {0, 1, 2, 3}, 2: {3, 4, 5, 0}})


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
@given(st.integers(0, 8), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 10_000))
def test_exact_treewidth_property_against_the_oracle(n, p, seed):
    """On up to 8 vertices exact_treewidth equals the oracle, whether or not
    the degeneracy, which never exceeds it, meets the min-degree width."""
    vs, es = oracles.random_graph(random.Random(seed), n, p)
    g = Graph.build(es, vertices=vs)
    tw = oracles.treewidth_elimination(oracles.adjacency(es, vs))
    assert max((bag.bit_count() - 1 for _, bag in min_degree_elimination(g, fill=False)), default=-1) <= tw
    assert exact_treewidth(g) == tw


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


def test_exact_treewidth_skips_the_dp_when_the_degeneracy_meets_the_min_degree_width(monkeypatch):
    """A partial k-tree's degeneracy usually reaches its min-degree width, and
    then no component of the subset DP is grown; on the 3×3 grid (degeneracy
    2, min-degree width 3) the DP runs and finds treewidth 3."""
    calls = helpers.calls(monkeypatch, "graph.mask_components")
    degeneracy = max(bag.bit_count() for _, bag in min_degree_elimination(grid_graph(3, 3), fill=False)) - 1
    assert (degeneracy, width(heuristic_td(grid_graph(3, 3)))) == (2, 3)
    calls.clear()
    assert exact_treewidth(grid_graph(3, 3)) == 3 and _grown(calls)
    calls.clear()
    assert exact_treewidth(partial_k_tree(random.Random(7), 12, 4)) == 4 and not _grown(calls)


def test_exact_treewidth_cap():
    with pytest.raises(CapacityError):
        exact_treewidth(path_graph(20))
    with pytest.raises(CapacityError):
        exact_treewidth(path_graph(8), cap=6)


@pytest.mark.parametrize("cap", [None, "9", 2.5, 9.0, True])
@pytest.mark.parametrize("query", [exact_treewidth, is_planar, automorphisms, vertex_orbits, edge_orbits])
def test_a_cap_that_is_no_int_is_refused(query, cap):
    """A cap passed from the Python API that is a bool or no int is refused with
    a typed error naming it, not compared with the vertex count or left to a
    TypeError; a negative int cap is still a cap."""
    with pytest.raises(StructuralError) as exc:
        query(path_graph(3), cap)
    assert str(exc.value).endswith(f"cap must be an integer, not {cap!r}")
    with pytest.raises(CapacityError):
        exact_treewidth(path_graph(3), -1)


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
    elimination, on random graphs with mixed labels and on every corpus torso;
    the run stopped at degree k ≤ 2 gives the same bags, or None exactly when
    one of them has more than k + 1 vertices."""
    rng = random.Random(61)
    graphs = []
    for _ in range(300):
        vs, es = oracles.random_graph(rng, rng.randint(1, 14), rng.choice([0.1, 0.25, 0.4, 0.6, 0.8]))
        name = {v: rng.choice([v, f"s{v}", (v % 3, f"t{v}")]) for v in vs}
        graphs.append(Graph.build([(name[u], name[v]) for u, v in es], vertices=name.values()))
    for inst in corpus(DEFAULT_SEED):
        graphs.extend(torso(inst.bundle.host, inst.bundle.td, t) for t in inst.bundle.td.tree.sorted_vertices())
    for g in graphs:
        bags = oracles.min_degree_elimination(oracles.adjacency(g.edges, g.vertices))
        for k in (0, 1, 2):  # the run stopped at degree k, on a copy that keeps no elimination
            run = min_degree_elimination(Graph.build(g.edges, vertices=g.vertices), k)
            if any(len(bag) > k + 1 for bag in bags):
                assert run is None, (k, g.sorted_edges())
            else:
                assert [g.labels(bag) for _, bag in run] == bags, (k, g.sorted_edges())
        td = heuristic_td(g)
        parts = [td.parts[i] for i in range(len(td.parts))]
        assert parts == bags, g.sorted_edges()


def test_min_degree_elimination_equals_the_reference_kernel():
    """The elimination that walks each neighbour's bit inline and re-buckets a
    neighbour only when its degree moved returns the reference's bags, or its
    None, for every ``max_degree`` in {None, 0, 1, 2, 3} with ``fill`` on and
    off: on 1,300 seeded graphs of 0-25 vertices and on the planar-scale grids
    and Z2 balls, each run on a fresh copy that keeps no elimination."""
    for g in kernel_graphs(47, 1300):
        for max_degree in (None, 0, 1, 2, 3):
            for fill in (True, False):
                run = min_degree_elimination(Graph.build(g.edges, vertices=g.vertices), max_degree, fill)
                expected = oracles.reference_min_degree_elimination(g.masks, max_degree, fill)
                assert run == expected, (max_degree, fill, g.sorted_edges())


def test_heuristic_width_upper_bounds_exact():
    rng = random.Random(44)
    for _ in range(15):
        vs, es = oracles.random_graph(rng, rng.randint(1, 6), 0.4)
        g = Graph.build(es, vertices=vs)
        assert width(heuristic_td(g)) >= exact_treewidth(g)


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


def _path_td() -> TreeDecomposition:
    return TreeDecomposition(path_graph(3), {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({2, 3})})


def test_heuristic_td_of_the_empty_graph_is_one_empty_part():
    assert td_to_dict(heuristic_td(Graph.build())) == {"tree_edges": [], "parts": {"0": []}}


def test_edge_separation_refuses_a_non_tree_edge():
    with pytest.raises(StructuralError) as exc:
        edge_separation(path_graph(4), _path_td(), (2, 0))
    assert str(exc.value) == "(2, 0) is not a tree edge"


def test_tree_decomposition_is_checked_on_every_construction():
    """The tree must be a tree and the parts, made frozensets, keyed exactly by its
    nodes, whether the decomposition is built by its fields, ``_make`` or ``_replace``."""
    tree, cycle = Graph.build([("a", "b")]), cycle_graph(3)
    td = TreeDecomposition(tree, {"a": [0, 1], "b": (1,)})
    assert td.parts == {"a": frozenset({0, 1}), "b": frozenset({1})}
    assert td._replace(parts={"a": [2], "b": [2, 3]}).parts["b"] == frozenset({2, 3})
    refused = (
        (lambda: TreeDecomposition(tree=tree, parts={"a": [0]}), "parts must be keyed exactly by the tree nodes"),
        (lambda: TreeDecomposition._make((tree, {"a": [0], "c": [1]})), "parts must be keyed exactly by the tree nodes"),
        (lambda: td._replace(parts={"b": [0]}), "parts must be keyed exactly by the tree nodes"),
        (lambda: td._replace(tree=cycle, parts={0: [0], 1: [1], 2: [2]}), "decomposition tree is not a tree"),
        (lambda: td._replace(tree=Graph.build(), parts={}), "decomposition tree must have at least one node"),
    )
    for make, text in refused:
        with pytest.raises(StructuralError, match=f"^{text}$"):
            make()
    with pytest.raises(AttributeError):
        td.parts = {}
