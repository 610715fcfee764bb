"""Graph core: construction, metrics, serialization."""

from __future__ import annotations

import math
import random
from enum import IntEnum

import pytest
from hypothesis import event, example, given, settings, strategies as st

from coarsegraph import planarity
from coarsegraph.errors import GraphToolError, ParseError, UnknownVertexError
from coarsegraph.generators import complete_graph, cycle_graph, grid_graph, path_graph
from coarsegraph.graph import (
    MAX_VERTEX_DEPTH,
    Graph,
    bit_ids,
    canonical_edge,
    components,
    cut_vertices,
    dfs_orientation,
    distance,
    distances_from,
    format_edge_list,
    induced_subgraph,
    is_connected,
    kept,
    mask_components,
    parse_edge_list,
    parent_path,
    parse_vertex_token,
    relabel,
    sort_vertices,
    to_dot,
    union,
    vertex_from_json,
    vertex_key,
    vertex_token,
)

from coarsegraph.treedecomp import TreeDecomposition, torso

import helpers
import oracles
from helpers import int_digit_limit, kernel_graphs, nested


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


class _One(IntEnum):
    A = 1


@pytest.mark.parametrize("edges, vertices, first, second", [
    ([(1, 2), (_One.A, 3)], [], 1, _One.A),
    ([(_One.A, 3), (1, 2)], [], _One.A, 1),
    ([(1, 2)], [_One.A], 1, _One.A),
    ([(_One.A, 2)], [1], _One.A, 1),
    ([], [1, _One.A], 1, _One.A),
    ([((1, "a"), 2), ((_One.A, "a"), 3)], [], (1, "a"), (_One.A, "a")),
    ([], [(_One.A, "a"), (1, "a")], (_One.A, "a"), (1, "a")),
], ids=["edge", "edge-reversed", "isolated", "isolated-endpoint", "isolated-only", "tuple", "tuple-isolated"])
def test_build_refuses_equal_vertices_of_different_types(edges, vertices, first, second):
    """An int-subclass vertex is a vertex, but one equal to an int vertex is
    refused beside it, naming both, in either order and inside a tuple."""
    with pytest.raises(GraphToolError) as exc:
        Graph.build(edges, vertices=vertices)
    assert str(exc.value) == f"vertices {first!r} and {second!r} are equal but of different types"
    assert Graph.build([(_One.A, 2)]).order == [_One.A, 2]


@pytest.mark.parametrize("make, culprit", [
    (lambda: relabel(path_graph(3), {0: [1]}), [1]),
    (lambda: Graph.build([([1], 2)]), [1]),
    (lambda: Graph.build((), [{}]), {}),
], ids=["relabel-image", "build-endpoint", "build-vertex"])
def test_an_unhashable_vertex_or_image_is_refused_with_a_typed_error(make, culprit):
    """A list or dict is no vertex: build and relabel refuse it as keying does, not with a bare TypeError."""
    with pytest.raises(GraphToolError) as exc:
        make()
    assert str(exc.value) == f"unsupported vertex identifier type: {culprit!r}"


def _count_vertex_keys(monkeypatch) -> list:
    """Record each vertex that graph.vertex_key is called on, not the members
    it keys in turn for a tuple."""
    from coarsegraph import graph
    calls, real, depth = [], graph.vertex_key, [0]

    def counted(v, *depth_bound):
        if not depth[0]:
            calls.append(v)
        depth[0] += 1
        try:
            return real(v, *depth_bound)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(graph, "vertex_key", counted)
    return calls


def test_build_keys_each_vertex_once_and_derived_graphs_none(monkeypatch):
    """Graph.build calls vertex_key once per distinct vertex, also for equal
    tuples made apart and for isolated vertices that are endpoints too;
    induced_subgraph and torso, built on their parent's ids, call it never;
    relabel calls it once per image."""
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
    relabel(g, {1: "z", 3: x()[::-1]})
    assert sorted(calls, key=repr) == sorted(["z", "a", (0, "x"), 2, "b", ("x", 0)], key=repr)


def test_build_h_keys_no_h_name(monkeypatch):
    """build_H lists H's vertices in key order as it makes them, so across
    the corpus it keys host vertices and tree nodes only, never an H name."""
    from coarsegraph.construction import build_H
    from coarsegraph.corpus import corpus

    calls = _count_vertex_keys(monkeypatch)
    for inst in corpus():
        calls.clear()
        out = build_H(inst.bundle)
        assert not [v for v in calls if v in out.H.vertices], inst.name


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


def test_bits_names_the_unknown_vertex_its_set_yields_first():
    """Graph.bits reads its input as a set, so of two unknown vertices in
    a list it names the one the set yields first, not the list's first."""
    g = path_graph(3)
    assert g.bits([2, 0, 2]) == 0b101
    assert list(frozenset([3, 0, 9])) == [0, 9, 3]  # small ints hash to themselves
    with pytest.raises(UnknownVertexError) as exc:
        g.bits([3, 0, 9])
    assert exc.value.args == ("9",)


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
                 lambda: distance(g, u, _MISSING)):
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
        prev = g.parent_row(g.pos[u])
        for v in vs:
            path = parent_path(prev, g.pos[v])
            assert (None if path is None else [g.order[i] for i in path]) == oracles.bfs_path(adj, u, v)


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
        ids = parent_path(g.parent_row(g.pos[u]), g.pos[v])
        assert ids is not None
        p = [g.order[i] for i in ids]
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


_NESTED_LABELS = st.recursive(st.integers(-3, 9) | st.text(alphabet="ab1", min_size=1, max_size=2),
                              lambda inner: st.lists(inner, max_size=2).map(tuple), max_leaves=4)
# Images no graph may hold: a bool, a float, a tuple holding a bool, a tuple one level too deep.
_BAD_IMAGES = (True, False, 1.0, 2.5, (0, False), nested(MAX_VERTEX_DEPTH + 1))
_IMAGES = st.one_of(*[_NESTED_LABELS] * 6, st.sampled_from(_BAD_IMAGES))


def _valid_vertex(v, depth: int = MAX_VERTEX_DEPTH) -> bool:
    if isinstance(v, tuple):
        return depth > 0 and all(_valid_vertex(x, depth - 1) for x in v)
    return type(v) in (int, str)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_relabel_equals_building_the_renamed_graph(data):
    """relabel(g, m) is Graph.build of the mapped edges and vertices, to the
    ids; a map that merges vertices, or sends one to a bool, a float or a
    tuple too deep to key, is refused with GraphToolError."""
    vs = data.draw(st.lists(_NESTED_LABELS, unique=True, max_size=8))
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    es = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.build(es, vertices=vs)
    mapping = data.draw(st.dictionaries(st.sampled_from(vs), _IMAGES)) if vs else {}
    img = [mapping.get(v, v) for v in vs]
    if len(set(img)) < len(img) or not all(map(_valid_vertex, img)):
        event("refused")
        with pytest.raises(GraphToolError):
            relabel(g, mapping)
        return
    r = relabel(g, mapping)
    assert g._edges is None  # relabel permutes ids; it reads no edge set
    want = Graph.build([(mapping.get(u, u), mapping.get(v, v)) for u, v in es], vertices=img)
    assert (r.order, r.pos, r.nbrs, r.vertices) == (want.order, want.pos, want.nbrs, want.vertices)


def test_a_fact_made_on_a_renamed_graph_is_its_sources_and_made_once(monkeypatch):
    """``_renamed`` shares the table of facts by one assignment and makes no fact:
    a fact first read on the renamed graph, after the renaming, is the source's
    own object and is made once.  So for a ``kept`` function of the test, for
    Graph's masks, orientation and component masks, and for the planarity
    verdict (counted by its testing passes).  The edges, which hold labels, are
    the renamed graph's own."""
    g = grid_graph(4, 4)
    h = g._renamed([("r", i) for i in range(len(g.order))])
    assert h._facts is g._facts and not g._facts
    made = []

    @kept
    def degrees(x: Graph) -> tuple:
        made.append(x)
        return tuple(map(len, x.nbrs))

    assert degrees(h) is degrees(g) and made == [h]
    assert h.masks is g.masks and h.orientation is g.orientation and h.component_masks is g.component_masks
    passes = helpers.calls(monkeypatch, "planarity._testing_pass")
    assert planarity._lr_planar(h) is planarity._lr_planar(g) is True and passes == [(h,)]
    assert len(h.edges) == len(g.edges) and not h.edges & g.edges


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


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789-+_(|)a٣²", max_size=6))
@example("")
@example("-0")
@example("01")
@example("+1")
@example("1_0")
@example("٣")
@example("²")
@example("(1|-0)")
def test_a_token_reads_as_an_int_exactly_when_it_is_canonical_decimal(tok):
    """A token is an int, equal to int(tok), exactly when it is an int's canonical decimal
    form; otherwise it is a tuple that re-renders to the token, or the token itself."""
    v = parse_vertex_token(tok)
    if oracles.is_canonical_decimal(tok):
        assert type(v) is int and v == int(tok)
    elif type(v) is tuple:
        assert vertex_token(v) == tok
    else:
        assert type(v) is str and v == tok


def _as_json(v):
    return [_as_json(x) for x in v] if isinstance(v, tuple) else v


def test_vertices_nest_up_to_the_depth_limit():
    """A vertex nested MAX_VERTEX_DEPTH deep reads back from its token and
    from its JSON array; one level deeper is a ParseError, not a RecursionError."""
    v = nested(MAX_VERTEX_DEPTH)
    assert parse_vertex_token(vertex_token(v)) == v
    assert vertex_from_json(_as_json(v)) == v and vertex_from_json(vertex_token(v)) == v
    assert parse_edge_list(format_edge_list(Graph.build([(v, 0)]))) == Graph.build([(v, 0)])
    too_deep = nested(MAX_VERTEX_DEPTH + 1)
    with pytest.raises(ParseError, match="nests deeper"):
        parse_vertex_token(vertex_token(too_deep))
    with pytest.raises(ParseError, match="nests deeper"):
        vertex_from_json(_as_json(too_deep))


def test_vertices_nest_up_to_the_key_bound():
    """Keying stops where reading does: a vertex nested MAX_VERTEX_DEPTH deep
    is keyed and renders; one level deeper is refused with GraphToolError
    wherever it is keyed, not only by Graph.build."""
    v = nested(MAX_VERTEX_DEPTH)
    assert Graph.build([(v, 0)]).sorted_vertices() == [0, v]
    assert vertex_token(v) == "(" * MAX_VERTEX_DEPTH + "a" + ")" * MAX_VERTEX_DEPTH
    too_deep = nested(MAX_VERTEX_DEPTH + 1)
    for key in (lambda: Graph.build([(too_deep, 0)]), lambda: Graph.build((), [too_deep]),
                lambda: relabel(Graph.build([(v, 0)]), {v: too_deep}),
                lambda: sort_vertices([too_deep, 0]), lambda: sorted([too_deep, 0], key=vertex_key)):
        with pytest.raises(GraphToolError) as exc:
            key()
        assert str(exc.value) == "a vertex identifier nests too deep to key"


@pytest.mark.parametrize("d", [1, 2, 7, MAX_VERTEX_DEPTH])
def test_vertex_key_depth_bounds_the_nesting(d):
    """A tuple nested d deep keys under depth d, as under the default
    MAX_VERTEX_DEPTH, and is refused one level shallower."""
    for v in (nested(d), (0, nested(d - 1), "b")):
        assert vertex_key(v, d) == vertex_key(v) == vertex_key(v, MAX_VERTEX_DEPTH)
        with pytest.raises(GraphToolError) as exc:
            vertex_key(v, d - 1)
        assert str(exc.value) == "a vertex identifier nests too deep to key"


def test_edge_list_errors_name_their_line():
    """A token's own error names its line, as the edge list's errors do."""
    deep = "(" * 400 + "a" + ")" * 400
    with pytest.raises(ParseError, match="^line 3: vertex token nests deeper") as err:
        parse_edge_list(f"0 1\n# note\n1 {deep}\n")
    assert err.value.line == 3
    with pytest.raises(ParseError, match="^line 2: expected 1 or 2 tokens, got 3$"):
        parse_edge_list(f"0 1\n1 2 {deep}\n")
    with pytest.raises(ParseError, match="^line 1: loop edge '0'$"):
        parse_edge_list("0 0\n")


@pytest.mark.parametrize("text, line, message", [
    ("0 1\n1 2 3\n{deep} 0\n", 2, "expected 1 or 2 tokens, got 3"),
    ("0 1\n{deep} 0\n1 2 3\n", 2, "vertex token nests deeper"),
    ("0 0\n{deep}\n", 1, "loop edge '0'"),
    ("1 {deep}\n2 2\n", 1, "vertex token nests deeper"),
    ("0 1 # {deep} 2\n1 2 2 3\n", 2, "expected 1 or 2 tokens, got 4"),
], ids=["count-before-deep", "deep-before-count", "loop-before-deep", "deep-before-loop", "comment"])
def test_edge_list_raises_the_first_error_in_line_order(text, line, message):
    """Of two errors on different lines the earlier is raised, whatever their kinds,
    and a token in a comment is never read."""
    deep = "(" * 400 + "a" + ")" * 400
    with pytest.raises(ParseError) as err:
        parse_edge_list(text.format(deep=deep))
    assert err.value.line == line and str(err.value).startswith(f"line {line}: {message}")


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


def test_an_int_past_the_digit_limit_is_refused_when_written():
    """str() refuses an int with more digits than Python's int-to-string limit,
    so such a vertex has no token: writing it raises GraphToolError naming the
    limit, not a bare ValueError."""
    with int_digit_limit() as limit:
        g = Graph.build([(10 ** limit, 1)])
        for write in (format_edge_list, to_dot):
            with pytest.raises(GraphToolError, match=rf"int-to-string limit \({limit}\)"):
                write(g)


def test_to_dot_mentions_every_vertex():
    g = Graph.build([(1, 2)], vertices=["iso"])
    dot = to_dot(g)
    assert dot.startswith("graph G {")
    assert '"1" -- "2";' in dot
    assert '"iso";' in dot


def test_index_is_built_once_and_adds_no_attribute():
    g = grid_graph(3, 4)
    assert g.order == g.sorted_vertices()
    adj = oracles.adjacency(g.edges, g.vertices)
    assert [set(g.order[j] for j in js) for js in g.nbrs] == [adj[v] for v in g.order]
    assert all(js == sorted(js) for js in g.nbrs)
    assert g.masks is g.masks  # built once per graph
    # A late attribute would make every attribute read on g slower; the slots refuse one.
    assert not hasattr(g, "__dict__")
    with pytest.raises(AttributeError):
        g.extra = None


class _Seven(IntEnum):
    SEVEN = 7


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-300, 300) | st.text("ab", min_size=2, max_size=3)
                | st.tuples(st.integers(-300, 300), st.text("xy", min_size=2, max_size=2)), min_size=1, max_size=12))
def test_own_id_answers_its_own_vertex_as_the_type_rule_does(labels):
    """Graph.own_id answers a vertex that is the graph's own object at once;
    its rule for any other value equal to a vertex is that the two have the
    same types throughout.  For each vertex, the vertex itself, an equal copy
    that is another object, and equal values of other types (a float, True,
    an IntEnum member, a tuple holding one) get the answer of that rule."""
    from coarsegraph.graph import _same_types

    g = Graph.build([], vertices=labels)
    for i, v in enumerate(g.order):
        copy = int(str(v)) if isinstance(v, int) else "".join(list(v)) if isinstance(v, str) else (int(str(v[0])), v[1])
        assert copy == v
        others = [float(v), _Seven.SEVEN] if isinstance(v, int) else [(float(v[0]), v[1])] if isinstance(v, tuple) else []
        others += [True] if v == 1 else []
        for x in (v, copy, *others):
            expected = i if x == v and _same_types(x, v) else None
            assert g.own_id(x) == expected, (v, x)
        assert g.own_id(v) == i


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 150), st.integers(0, 2 ** 150), st.sampled_from(["any", "sparse", "n/2", "n/2 + 1", "empty", "full"]))
def test_labels_reads_the_set_bits(n, bits, density):
    """Graph.labels on masks of every density equals its definition, bit
    by bit, whether it reads the mask's set bits or its complement's; what it
    returns are the graph's own vertex objects (tuples among them), not equal
    copies."""
    g = Graph.build([], vertices=[i if i % 3 == 1 else f"v{i}" if i % 3 else (i, "x") for i in range(n)])
    mask = bits & (1 << n) - 1
    if density == "sparse":
        mask &= bits >> 3 & bits >> 7
    elif density != "any":
        size = {"n/2": n // 2, "n/2 + 1": min(n // 2 + 1, n), "empty": 0, "full": n}[density]
        mask = sum(1 << i for i in random.Random(bits).sample(range(n), size))
    got = g.labels(mask)
    assert got == frozenset(g.order[i] for i in range(n) if mask >> i & 1)
    assert all(g.order[g.pos[v]] is v for v in got)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 1, 8, 64, 65, 289, 4225]) | st.integers(0, 300),
       st.sampled_from(["empty", "full", "dense", "sparse high", "any"]), st.floats(0, 1), st.integers(0, 2 ** 32))
def test_bit_ids_reads_every_set_bit(n, shape, p, seed):
    """bit_ids equals its definition on masks of every width up to a 65×65
    grid's 4,225 ids, read bit by bit or in one pass: empty, full, dense (nine
    bits in ten), sparse with its bits in the top eighth, and of any density."""
    rng = random.Random(seed)
    top = range(n - n // 8, n)
    mask = {
        "empty": 0,
        "full": (1 << n) - 1,
        "dense": sum(1 << i for i in range(n) if rng.random() < 0.9),
        "sparse high": sum(1 << i for i in rng.sample(top, min(len(top), rng.randint(1, 4)))),
        "any": sum(1 << i for i in range(n) if rng.random() < p),
    }[shape]
    assert bit_ids(mask) == [i for i in range(n) if mask >> i & 1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dfs_orientation_agrees_with_the_oracle(data):
    """Every edge oriented once, a DFS forest with one root per component and
    matching heights, every other edge climbing to an ancestor, lowpoints as
    defined and each vertex's out-edges in nesting order: on random graphs of
    any density, with several components and isolated vertices."""
    n = data.draw(st.integers(0, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.permutations(pairs))[:data.draw(st.integers(0, len(pairs)))]
    nbrs = Graph.build(edges, vertices=range(n)).nbrs
    assert oracles.orientation_problems(nbrs, dfs_orientation(nbrs)) == []


def test_dfs_orientation_equals_the_reference_kernel():
    """The iterator-driven DFS, which folds a back edge's lowpoints (its head's
    height, then its tail's) into its tail's parent edge as soon as it is
    oriented, returns the reference's 6-tuple exactly: on 2,600 seeded graphs
    of 0-25 vertices, disconnected ones and isolated vertices among them, and
    on the planar-scale grids and Z2 balls."""
    for g in kernel_graphs(46, 2600):
        assert dfs_orientation(g.nbrs) == oracles.reference_dfs_orientation(g.nbrs), g.sorted_edges()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mask_components_agrees_with_the_oracle(data):
    """Each component of the subgraph on ``within``, in the oracle's order, with
    its neighbourhood outside ``within``, on random graphs with mixed labels and
    any S: ``within`` = ~S gives G − S with N(C) ⊆ S, ``within`` = S gives G[S].
    The first component of a non-empty mask holds the mask's lowest id."""
    n = data.draw(st.integers(0, 12))
    labels = [i if i % 3 else (i, "t") if i % 2 else f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.build(edges, vertices=labels)
    s = frozenset(data.draw(st.sets(st.sampled_from(labels)))) if n else frozenset()
    m = g.bits(s)
    within = data.draw(st.sampled_from([~m, m]))
    removed = s if within < 0 else g.vertices - s
    adj = oracles.adjacency(edges, sorted(labels, key=oracles.label_key))  # components come in canonical order
    expected = [(c, frozenset(w for v in c for w in adj[v]) - c) for c in oracles.components_without(adj, removed)]
    assert [(g.labels(c), g.labels(nb)) for c, nb in mask_components(g.masks, within)] == expected
    kept = within & (1 << n) - 1
    if kept:
        comp, _ = next(mask_components(g.masks, within))
        assert comp & -comp == kept & -kept


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25), st.sampled_from([0.1, 0.3, 0.6]), st.integers(0, 10_000),
       st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 3))
def test_ball_levels_or_the_seeds_within_each_radius(n, p, seed, zeros, isolated):
    """Level r at x is the OR of the seeds of the ids within distance r of x,
    also with zero seeds, several components and isolated ids."""
    rng = random.Random(seed)
    vs, es = oracles.random_graph(rng, n, p)
    more, more_es = oracles.random_connected_graph(rng, rng.randint(0, 6), 0.4)  # one more component, or none
    es += [(n + u, n + v) for u, v in more_es]
    vs += [n + v for v in more] + list(range(n + len(more), n + len(more) + isolated))
    n = len(vs)
    g = Graph.build(es, vertices=vs)
    seeds = [0 if rng.random() < zeros else rng.getrandbits(8) for _ in range(n)]
    rows = [g.distance_row([x]) for x in range(n)]
    levels = g.ball_levels(seeds)
    for r in range(n + 1):
        expected = [0] * n
        for x in range(n):
            for y, d in enumerate(rows[x]):
                if 0 <= d <= r:
                    expected[x] |= seeds[y]
        assert next(levels) == expected


def test_ball_levels_keep_an_id_whose_mask_pauses_before_it_grows():
    """On the path 0-1-2-3-4 with seeds [1, 0, 0, 0, 2], id 1's mask is 1 at
    levels 1 and 2 and grows to 3 at level 3: an id is finished when its mask
    holds its component's seeds, not when its mask stops growing."""
    levels = path_graph(5).ball_levels([1, 0, 0, 0, 2])
    assert [next(levels) for _ in range(6)] == [
        [1, 0, 0, 0, 2],
        [1, 1, 0, 2, 2],
        [1, 1, 3, 2, 2],
        [1, 3, 3, 3, 2],
        [3, 3, 3, 3, 3],
        [3, 3, 3, 3, 3],
    ]


def test_a_vertex_too_deep_to_key_is_a_typed_error():
    """Built through the API, a vertex nested past what ``vertex_key`` can
    recurse into is a GraphToolError, not a RecursionError."""
    with pytest.raises(GraphToolError) as exc:
        Graph.build([(nested(1_000, 0), 0)])
    assert str(exc.value) == "a vertex identifier nests too deep to key"
    assert len(Graph.build([(nested(MAX_VERTEX_DEPTH), 0)])) == 2


def test_a_loop_line_parses_its_token_first_and_equal_tokens_alone_make_a_loop():
    """A line is a loop iff its two tokens are equal: a bad token's own error
    comes first, and tokens that parse to different vertices ("1" and "01")
    make an edge."""
    deep = "(" * 400 + "a" + ")" * 400
    with pytest.raises(ParseError, match="^line 1: vertex token nests deeper"):
        parse_edge_list(f"{deep} {deep}\n")
    with pytest.raises(ParseError, match=r"^line 2: loop edge '\(a\|1\)'$"):
        parse_edge_list("(a|1) b\n(a|1) (a|1)\n")
    assert parse_edge_list("1 01\n").edges == {(1, "01")}


def _mixed_vertex(i: int):
    return (i, "x") if i % 3 == 0 else f"v{i}" if i % 3 == 1 else i


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9), st.sampled_from([0.2, 0.5, 0.9]), st.integers(0, 10_000))
def test_graphs_are_equal_exactly_when_their_vertex_and_edge_sets_agree(n, p, seed):
    """``edges`` is the oracle's edge set, built once; graphs made by build,
    _induced, parse_edge_list and relabel, and variants one vertex or one
    edge away, are equal, with equal hashes, exactly when their vertex and
    edge sets agree; the edge-list round trip gives back the same ids."""
    from coarsegraph.graph import _induced

    rng = random.Random(seed)
    ids, pairs = oracles.random_graph(rng, n, p)
    vs = [_mixed_vertex(i) for i in ids]
    es = [(_mixed_vertex(i), _mixed_vertex(j)) for i, j in pairs]
    g = Graph.build(es, vertices=vs)
    assert g.edges is g.edges
    assert g.edges == {tuple(sorted(e, key=oracles.label_key)) for e in es}
    assert repr(g) == f"Graph(vertices={g.vertices!r}, edges={g.edges!r})"
    back = parse_edge_list(format_edge_list(g))
    assert back == g and (back.order, back.nbrs) == (g.order, g.nbrs)
    extra = "w"
    host = Graph.build(es + [(extra, v) for v in vs[:2]], vertices=vs + [extra])
    renamed = relabel(g, {v: ("r", v) for v in vs})
    made = [(g, es, vs), (_induced(host, vs), es, vs), (back, es, vs),
            (relabel(renamed, {("r", v): v for v in vs}), es, vs),
            (Graph.build(es, vertices=vs + [extra]), es, vs + [extra])]
    if es:
        made.append((Graph.build(es[1:], vertices=vs), es[1:], vs))
    missing = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:] if (u, v) not in es and (v, u) not in es]
    if missing:
        made.append((parse_edge_list(format_edge_list(g) + " ".join(map(vertex_token, missing[0])) + "\n"),
                     es + missing[:1], vs))
    sets = [(frozenset(ws), frozenset(tuple(sorted(e, key=oracles.label_key)) for e in fs)) for _, fs, ws in made]
    for (a, _, _), sa in zip(made, sets):
        assert (a.vertices, a.edges) == sa
        for (b, _, _), sb in zip(made, sets):
            assert (a == b) == (sa == sb)
            if sa == sb:
                assert hash(a) == hash(b)
    assert g != (g.vertices, g.edges)
