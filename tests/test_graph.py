"""Graph core: construction, metrics, serialization."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph.errors import GraphToolError, ParseError, UnknownVertexError
from coarsegraph.generators import complete_graph, cycle_graph, grid_graph, path_graph
from coarsegraph.graph import (
    Graph,
    canonical_edge,
    components,
    cut_vertices,
    distance,
    distances_from,
    format_edge_list,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    parse_vertex_token,
    relabel,
    shortest_path,
    to_dot,
    union,
    vertex_key,
    vertex_token,
)

from coarsegraph.treedecomp import TreeDecomposition, torso

import oracles


def test_vertex_key_orders_mixed_types():
    vs = [("a", 1), 5, "b", 2, "a", (1, 2)]
    ordered = sorted(vs, key=vertex_key)
    assert ordered == [2, 5, "a", "b", (1, 2), ("a", 1)]


def test_vertex_key_rejects_bool():
    with pytest.raises(GraphToolError):
        vertex_key(True)


def test_build_dedupes_and_rejects_loops():
    g = Graph.build([(1, 2), (2, 1), (2, 3)], vertices=[7])
    assert len(g.edges) == 2
    assert g.vertices == frozenset({1, 2, 3, 7})
    assert g.degree(2) == 2
    assert g.neighbors(7) == frozenset()
    with pytest.raises(GraphToolError):
        Graph.build([(1, 1)])


@pytest.mark.parametrize("alias", [True, 1.0])
def test_build_refuses_a_non_vertex_equal_to_a_keyed_vertex(alias):
    """Build keys each distinct vertex once, but True and 1.0, which equal 1
    and hash like it, are still refused in either edge order, also inside a tuple."""
    for first, second in (((1, 2), (alias, 3)), (((1, "a"), 2), ((alias, "a"), 3))):
        for edges in ([first, second], [second, first]):
            with pytest.raises(GraphToolError):
                Graph.build(edges)


@pytest.mark.parametrize("alias", [True, 1.0])
def test_build_refuses_an_isolated_non_vertex(alias):
    """An isolated True or 1.0 is refused by build itself, beside 1 as an
    endpoint or as an isolated vertex, in either order, inside a tuple, and alone."""
    cases = [([(1, 2)], [alias]), ([(alias, 2)], [1]), ([], [1, alias]), ([], [alias, 1]),
             ([], [(1, "a"), (alias, "a")]), ([], [alias])]
    for edges, vertices in cases:
        with pytest.raises(GraphToolError):
            Graph.build(edges, vertices=vertices)


def _count_vertex_keys(monkeypatch) -> list:
    """Record each vertex that graph.vertex_key is called on, not the members
    it keys in turn for a tuple."""
    from coarsegraph import graph
    calls, real, depth = [], graph.vertex_key, [0]

    def counted(v):
        if not depth[0]:
            calls.append(v)
        depth[0] += 1
        try:
            return real(v)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(graph, "vertex_key", counted)
    return calls


def test_build_keys_each_vertex_once_and_derived_graphs_none(monkeypatch):
    """Graph.build calls vertex_key once per distinct vertex, also for equal
    tuples made apart and for isolated vertices that are endpoints too;
    induced_subgraph and torso, built on their parent's ids, call it never."""
    calls = _count_vertex_keys(monkeypatch)
    x = lambda: tuple([0, "x"])  # a new tuple object on every call
    edges = [(1, "a"), ("a", x()), (x(), 2), (2, 1), (x(), "b"), ("a", 1)]
    g = Graph.build(edges, vertices=[3, "a", x(), 3])
    assert sorted(calls, key=repr) == sorted([1, "a", (0, "x"), 2, "b", 3], key=repr)
    td = TreeDecomposition(Graph.build([("s", "t")]), {"s": frozenset({1, 2, "a", 3}), "t": frozenset({2, x(), "a", "b"})})
    calls.clear()
    assert induced_subgraph(g, [1, "a", x(), 3]).sorted_edges() == [(1, "a"), ("a", (0, "x"))]
    # The adhesion set {2, a} becomes a clique.
    assert torso(g, td, "t").sorted_edges() == [(2, "a"), (2, (0, "x")), ("a", (0, "x")), ("b", (0, "x"))]
    assert calls == []


_MIXED = (st.integers(0, 12) | st.sampled_from(["a", "b", "10", "(1|a)"])
          | st.tuples(st.integers(0, 2), st.sampled_from("ab")) | st.tuples(st.just("x"), st.tuples(st.integers(0, 1))))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_MIXED, _MIXED), max_size=25), st.lists(_MIXED, max_size=4))
def test_edges_are_canonical_and_sorted_in_key_order(pairs, isolated):
    """On mixed int, str and tuple labels: every edge is stored in canonical
    order, and sorted_edges and sorted_vertices follow the oracle's key order."""
    edges = [(u, v) for u, v in pairs if u != v]
    g = Graph.build(edges, vertices=isolated)
    key = oracles.label_key
    assert all(key(u) < key(v) for u, v in g.edges)
    assert {frozenset(e) for e in g.edges} == {frozenset(e) for e in edges}
    assert g.sorted_edges() == sorted(g.edges, key=lambda e: (key(e[0]), key(e[1])))
    assert g.sorted_vertices() == sorted(set(isolated) | {v for e in edges for v in e}, key=key)


def test_unknown_vertex_raises():
    g = Graph.build([(1, 2)], vertices=["x"])
    with pytest.raises(UnknownVertexError):
        g.neighbors(9)
    with pytest.raises(UnknownVertexError):
        g.degree(9)
    with pytest.raises(UnknownVertexError):
        g.adjacent(9, 1)
    assert not g.adjacent(1, 9) and not g.adjacent("x", 9) and not g.adjacent(1, "x")
    assert g.adjacent(1, 2) and g.adjacent(2, 1)


def test_distance_frozen_values():
    """Grid corners and cycle antipodes, checked against counted values."""
    grid = grid_graph(5, 5)
    assert distance(grid, "0,0", "4,4") == 8
    c8 = cycle_graph(8)
    assert distance(c8, 0, 4) == 4
    assert distance(c8, 0, 7) == 1


def test_distance_disconnected_is_inf():
    g = Graph.build([(1, 2), (3, 4)])
    assert distance(g, 1, 3) == math.inf
    assert not is_connected(g)
    assert len(components(g)) == 2


def test_distances_match_oracle_on_random_graphs():
    rng = random.Random(11)
    for _ in range(30):
        vs, es = oracles.random_graph(rng, rng.randint(1, 12), 0.3)
        g = Graph.build(es, vertices=vs)
        adj = oracles.adjacency(es, vs)
        src = rng.choice(vs)
        assert distances_from(g, [src]) == oracles.bfs_distances(adj, src)


_LABELS = st.integers(0, 9) | st.text(alphabet="ab", min_size=1, max_size=2) | st.tuples(st.integers(0, 3), st.sampled_from("xy"))
_MISSING = ("missing", 0)  # a tuple _LABELS never draws


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_traversals_agree_with_the_oracle(data):
    """Distances, set distances and components over int, string and tuple
    vertices, with isolated vertices and disconnected parts."""
    vs = data.draw(st.lists(_LABELS, min_size=1, max_size=10, unique=True))
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    es = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    g = Graph.build(es, vertices=vs)
    adj = oracles.adjacency(es, vs)
    rows = {v: oracles.bfs_distances(adj, v) for v in vs}
    pick = st.sampled_from(vs)

    sources = data.draw(st.lists(pick, min_size=1, max_size=3))
    reached = {v for s in sources for v in rows[s]}
    assert distances_from(g, sources) == {v: min(rows[s].get(v, math.inf) for s in sources) for v in reached}
    u, v = data.draw(pick), data.draw(pick)
    assert distance(g, u, v) == rows[u].get(v, math.inf)
    comps = oracles.components_without(adj, ())
    assert components(g) == sorted(comps, key=lambda c: min(map(vertex_key, c)))
    assert is_connected(g) == (len(comps) <= 1)

    for call in (lambda: distances_from(g, [*sources, _MISSING]), lambda: distance(g, _MISSING, v),
                 lambda: distance(g, u, _MISSING),
                 lambda: shortest_path(g, _MISSING, v), lambda: shortest_path(g, u, _MISSING)):
        with pytest.raises(UnknownVertexError):
            call()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]), max_size=15))))
def test_shortest_path_matches_a_sorted_order_bfs(graph_data):
    n, es = graph_data
    vs = list(range(n))
    g = Graph.build(es, vertices=vs)
    adj = oracles.adjacency(es, vs)
    for u in vs:
        for v in vs:
            assert shortest_path(g, u, v) == oracles.bfs_path(adj, u, v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_vertices_agree_with_the_oracle(data):
    """A vertex is a cut vertex exactly when removing it adds a component; over
    mixed labels, isolated vertices, several components and any number of
    edges up to every pair, so also above 3n − 6."""
    vs = data.draw(st.lists(_LABELS, min_size=1, max_size=12, unique=True))
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    es = data.draw(st.permutations(pairs))[:data.draw(st.integers(0, len(pairs)))]
    g = Graph.build(es, vertices=vs)
    adj = oracles.adjacency(es, vs)
    base = len(oracles.components_without(adj, ()))
    assert cut_vertices(g) == {v for v in vs if len(oracles.components_without(adj, {v})) > base}


def test_cut_vertices_on_deep_and_dense_graphs():
    """No recursion limit at depth 20,000, and dense graphs, where the
    planarity test stops before orienting, still get their cut vertices."""
    n = 20_000
    assert cut_vertices(path_graph(n)) == frozenset(range(1, n - 1))
    assert cut_vertices(cycle_graph(n)) == frozenset()
    assert cut_vertices(grid_graph(60, 60)) == frozenset()
    two_k6 = union(complete_graph(6), relabel(complete_graph(6), {i: i + 5 for i in range(6)}))
    assert (len(two_k6.vertices), len(two_k6.edges)) == (11, 30)  # above 3n − 6 = 27
    assert cut_vertices(two_k6) == {5}

def test_shortest_path_is_geodesic():
    rng = random.Random(5)
    for _ in range(25):
        vs, es = oracles.random_connected_graph(rng, rng.randint(2, 10), 0.3)
        g = Graph.build(es, vertices=vs)
        u, v = rng.sample(vs, 2)
        p = shortest_path(g, u, v)
        assert p is not None
        assert p[0] == u and p[-1] == v
        assert len(set(p)) == len(p) and all(b in oracles.adjacency(es, vs)[a] for a, b in zip(p, p[1:]))
        assert len(p) - 1 == distance(g, u, v)


def test_induced_subgraph_and_relabel():
    g = cycle_graph(5)
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.edges == frozenset({canonical_edge(0, 1), canonical_edge(1, 2)})
    r = relabel(g, {i: f"v{i}" for i in range(5)})
    assert distance(r, "v0", "v2") == 2
    with pytest.raises(GraphToolError):
        relabel(g, {i: "same" for i in range(5)})


def test_union_is_componentwise():
    g = union(path_graph(3), relabel(path_graph(3), {i: f"p{i}" for i in range(3)}))
    assert len(components(g)) == 2


def test_edge_list_round_trip_examples():
    g = Graph.build([(1, 2), ("a", "b")], vertices=["lonely"])
    text = format_edge_list(g)
    assert parse_edge_list(text) == g


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("1 2\n3 4 5\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_edge_list("# fine\nx x\n")
    assert "line 2" in str(err.value)


def test_comments_and_isolated_vertices_parse():
    g = parse_edge_list("# header\n1 2  # trailing\nlonely\n\n")
    assert g.vertices == frozenset({1, 2, "lonely"})
    assert len(g.edges) == 1


def test_vertex_token_round_trip():
    for v in (0, 17, -3, "abc", "0x", "007", ("xS", "a", "b"), ("tw", 1, (2, 3))):
        assert parse_vertex_token(vertex_token(v)) == v


def test_tuple_token_format():
    assert vertex_token(("xS", "a", 2)) == "(xS|a|2)"


_TOKEN_ATOMS = st.integers(-3, 12) | st.text(alphabet="ab7-(|)", min_size=1, max_size=4)
_VERTICES = _TOKEN_ATOMS | st.lists(_TOKEN_ATOMS | st.lists(_TOKEN_ATOMS, max_size=2).map(tuple), max_size=3).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_VERTICES, _VERTICES).filter(lambda e: e[0] != e[1]), max_size=25),
       st.lists(_VERTICES, max_size=4))
def test_edge_list_round_trip_property(edges, isolated):
    """Int, string and tuple vertices either round-trip, or the writer refuses
    the graph because some vertex's token would read back as another vertex
    (the string "7" as the int 7, the string "(1|2)" as a tuple)."""
    g = Graph.build(edges, vertices=isolated)
    if any(parse_vertex_token(vertex_token(v)) != v for v in g.vertices):
        with pytest.raises(GraphToolError, match="would read back"):
            format_edge_list(g)
    else:
        assert parse_edge_list(format_edge_list(g)) == g


@pytest.mark.parametrize("vertex", ["(1|2)", "7", ("7",), ()])
def test_edge_list_refuses_vertices_that_read_back_as_others(vertex):
    with pytest.raises(GraphToolError, match="would read back"):
        format_edge_list(Graph.build([(vertex, "a")]))


def test_to_dot_mentions_every_vertex():
    g = Graph.build([(1, 2)], vertices=["iso"])
    dot = to_dot(g)
    assert dot.startswith("graph G {")
    assert '"1" -- "2";' in dot
    assert '"iso";' in dot


def test_index_is_built_once_and_adds_no_attribute():
    g, fresh = grid_graph(3, 4), grid_graph(3, 4)
    index = g.index
    assert g.index is index and index.order == g.sorted_vertices()
    adj = oracles.adjacency(g.edges, g.vertices)
    assert [set(index.order[j] for j in js) for js in index.nbrs] == [adj[v] for v in index.order]
    assert all(js == sorted(js) for js in index.nbrs)
    assert index.masks is index.masks  # built once per graph
    # A late attribute would make every attribute read on g slower.
    assert list(vars(g)) == list(vars(fresh))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 150), st.integers(0, 2 ** 150), st.booleans())
def test_labels_reads_the_set_bits(n, bits, sparse):
    """GraphIndex.labels on random masks equals its definition, bit by bit."""
    g = Graph.build([], vertices=[i if i % 3 else f"v{i}" for i in range(n)])
    mask = bits & (1 << n) - 1
    if sparse:
        mask &= bits >> 3 & bits >> 7
    index = g.index
    assert index.labels(mask) == frozenset(index.order[i] for i in range(n) if mask >> i & 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25), st.sampled_from([0.1, 0.3, 0.6]), st.integers(0, 10_000))
def test_ball_levels_or_the_seeds_within_each_radius(n, p, seed):
    """Level r at x is the OR of the seeds of the ids within distance r of x."""
    rng = random.Random(seed)
    vs, es = oracles.random_graph(rng, n, p)
    index = Graph.build(es, vertices=vs).index
    seeds = [rng.getrandbits(8) for _ in range(n)]
    rows = [index.distance_row([x]) for x in range(n)]
    levels = index.ball_levels(seeds)
    for r in range(n + 1):
        expected = [0] * n
        for x in range(n):
            for y, d in enumerate(rows[x]):
                if 0 <= d <= r:
                    expected[x] |= seeds[y]
        assert next(levels) == expected
