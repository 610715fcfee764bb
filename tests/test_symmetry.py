"""Automorphisms and orbit machinery."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph import symmetry
from coarsegraph.errors import CapacityError, StructuralError
from coarsegraph.fatminor import asymptotic_probe
from coarsegraph.generators import complete_bipartite_graph, complete_graph, cycle_graph, grid_graph, path_graph
from coarsegraph.graph import Graph, canonical_edge
from coarsegraph.separations import enumerate_tight
from coarsegraph.symmetry import (
    apply_to,
    automorphism_generators,
    automorphisms,
    edge_orbits,
    orbits,
    vertex_orbits,
)

import oracles
from oracles import compose, invert, is_identity


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.build(outer + spokes + inner)


def test_frozen_group_sizes():
    """Known automorphism group orders for standard graphs."""
    assert len(automorphisms(path_graph(4))) == 2
    assert len(automorphisms(cycle_graph(6))) == 12
    assert len(automorphisms(complete_graph(4))) == 24
    assert len(automorphisms(grid_graph(3, 3))) == 8
    assert len(automorphisms(petersen())) == 120


def test_identity_comes_first():
    autos = automorphisms(cycle_graph(5))
    assert is_identity(autos[0])


def test_group_closure_and_inverses():
    rng = random.Random(51)
    for g in (cycle_graph(6), path_graph(5), complete_graph(4)):
        autos = automorphisms(g)
        keyset = {tuple(sorted(a.items(), key=lambda kv: repr(kv))) for a in autos}

        def key(a):
            return tuple(sorted(a.items(), key=lambda kv: repr(kv)))

        for _ in range(15):
            a, b = rng.choice(autos), rng.choice(autos)
            assert key(compose(a, b)) in keyset
            assert key(invert(a)) in keyset
            assert is_identity(compose(a, invert(a)))


def test_automorphisms_preserve_edges():
    g = petersen()
    for auto in automorphisms(g)[:20]:
        for (u, v) in g.edges:
            assert canonical_edge(auto[u], auto[v]) in g.edges


def test_vertex_orbit_shapes():
    assert len(vertex_orbits(cycle_graph(6))) == 1
    p4 = vertex_orbits(path_graph(4))
    assert sorted(len(o) for o in p4) == [2, 2]
    grid = vertex_orbits(grid_graph(3, 3))
    assert sorted(len(o) for o in grid) == [1, 4, 4]


def test_edge_orbit_shapes():
    assert sorted(len(o) for o in edge_orbits(path_graph(4))) == [1, 2]
    assert sorted(len(o) for o in edge_orbits(grid_graph(3, 3))) == [4, 8]


def test_separation_orbits_on_c6():
    """The nine order-2 tight separations of C6 fall into two orbit classes:
    distance-2 separator pairs and antipodal pairs."""
    g = cycle_graph(6)
    seps = enumerate_tight(g, 2)
    assert len(seps) == 9
    autos = automorphisms(g)
    orbs = orbits(seps, autos)
    assert sorted(len(o) for o in orbs) == [3, 6]


def test_apply_to_handles_vertices_edges_and_sets():
    g = cycle_graph(4)
    rot = {0: 1, 1: 2, 2: 3, 3: 0}
    assert apply_to(rot, 0) == 1
    assert apply_to(rot, (0, 1)) == (1, 2)
    assert apply_to(rot, frozenset({0, 2})) == frozenset({1, 3})


def test_orbits_refuse_an_empty_list_of_automorphisms():
    """A group holds the identity, so no automorphisms at all is bad input."""
    with pytest.raises(StructuralError):
        orbits([0, 1], [])


def _prism(n: int) -> Graph:
    rim = [(i, (i + 1) % n) for i in range(n)]
    return Graph.build(rim + [(n + a, n + b) for a, b in rim] + [(i, n + i) for i in range(n)])


def _wheel(n: int) -> Graph:
    return Graph.build([(i, (i + 1) % n) for i in range(n)] + [("hub", i) for i in range(n)])


def _random_graphs(count: int, max_n: int = 8) -> list[Graph]:
    rng = random.Random(1601)
    return [Graph.build(edges, vertices=vs)
            for vs, edges in (oracles.random_graph(rng, rng.randint(1, max_n), rng.random()) for _ in range(count))]


SYMMETRIC_SHAPES = [
    petersen(), _prism(4), complete_bipartite_graph(3, 3), complete_bipartite_graph(3, 4),
    _wheel(4), _wheel(5), _wheel(8), _prism(3), _prism(5), complete_graph(5),
]


@pytest.mark.parametrize("g", SYMMETRIC_SHAPES + _random_graphs(40))
def test_generators_generate_the_whole_group(g):
    """Closed under composition, the generating set gives exactly the
    brute-force automorphisms, from at most n(n - 1)/2 generators."""
    index = g.index
    n = len(index.order)
    gens = automorphism_generators(g)
    assert len(gens) <= n * (n - 1) // 2
    group = [tuple(range(n))]
    for a in group:
        group += [c for c in (tuple(b[i] for i in a) for b in gens) if c not in group]
    expected = {tuple(index.pos[a[v]] for v in index.order) for a in oracles.automorphisms(g.vertices, g.edges)}
    assert set(group) == expected


def test_capacity_guard(monkeypatch):
    with pytest.raises(CapacityError):
        automorphisms(cycle_graph(20))
    assert len(automorphisms(cycle_graph(20), max_vertices=20)) == 40
    assert vertex_orbits(cycle_graph(20), max_vertices=20) == [list(range(20))]
    assert len(edge_orbits(cycle_graph(20), max_vertices=20)) == 1

    def refuse(index):
        raise AssertionError("searched for generators above the cap")

    monkeypatch.setattr(symmetry, "_refined_order", refuse)
    for orbits_of in (vertex_orbits, edge_orbits):
        with pytest.raises(CapacityError):
            orbits_of(cycle_graph(20))


def test_orbits_of_empty_single_vertex_and_edgeless_graphs():
    assert vertex_orbits(Graph.build([])) == [] and edge_orbits(Graph.build([])) == []
    assert vertex_orbits(Graph.build([], vertices=["a"])) == [["a"]]
    assert edge_orbits(Graph.build([], vertices=["a"])) == []
    edgeless = Graph.build([], vertices=[3, "b", (0, "x"), 1])
    assert vertex_orbits(edgeless) == [[1, 3, "b", (0, "x")]]
    assert edge_orbits(edgeless) == []


def test_one_generator_search_per_graph(monkeypatch):
    """The generating set is kept on the graph's index: vertex and edge
    orbits of one graph, and every K of one fat-minor probe, share one search."""
    calls = []
    real = symmetry._refined_order  # called once per generator search
    monkeypatch.setattr(symmetry, "_refined_order", lambda index: calls.append(index) or real(index))
    g = petersen()
    vertex_orbits(g)
    edge_orbits(g)
    assert len(calls) == 1
    calls.clear()
    asymptotic_probe(cycle_graph(4), cycle_graph(8), [0, 1, 2])
    assert len(calls) == 1


LABELS = st.one_of(
    st.integers(-3, 12),
    st.text(alphabet="ab1", min_size=1, max_size=2),
    st.tuples(st.integers(0, 2), st.sampled_from(["x", "y"])),
)


@st.composite
def labelled_graphs(draw):
    labels = draw(st.lists(LABELS, max_size=7, unique=True))
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.build(edges, vertices=labels)


@settings(max_examples=100, deadline=None)
@given(labelled_graphs())
def test_automorphisms_and_orbits_match_brute_force(g):
    """The search finds exactly the edge-preserving permutations, identity
    first and the rest by their images in vertex-key order; vertex, edge and
    vertex-pair orbits match the brute-force partitions and their order."""
    autos = automorphisms(g)
    expected = oracles.automorphisms(g.vertices, g.edges)
    assert autos == expected
    assert is_identity(autos[0])
    _assert_orbits_match(g, expected)
    pairs = [frozenset(p) for p in itertools.combinations(g.sorted_vertices(), 2)]
    # Fed in reverse, the pairs still come back in key order.
    assert orbits(pairs[::-1], autos) == oracles.orbit_partition(pairs, expected, _act_on_set, _edge_key)


@settings(max_examples=100, deadline=None)
@given(labelled_graphs())
def test_orbits_under_a_generating_set_match_brute_force(g):
    """Given only the generators, as dicts, orbits gives the brute-force vertex,
    edge and vertex-pair partitions under the whole group, in the same order."""
    order = g.index.order
    gens = [dict(zip(order, (order[i] for i in a))) for a in automorphism_generators(g)] or [dict(zip(order, order))]
    expected = oracles.automorphisms(g.vertices, g.edges)
    vertices, edges = g.sorted_vertices(), g.sorted_edges()
    assert orbits(vertices, gens) == oracles.orbit_partition(vertices, expected, lambda a, v: a[v], oracles.label_key)
    assert [[frozenset(e) for e in orbit] for orbit in orbits(edges, gens)] == \
        oracles.orbit_partition([frozenset(e) for e in edges], expected, _act_on_set, _edge_key)
    pairs = [frozenset(p) for p in itertools.combinations(vertices, 2)]
    assert orbits(pairs[::-1], gens) == oracles.orbit_partition(pairs, expected, _act_on_set, _edge_key)


def test_orbits_under_one_rotation_of_c6():
    assert orbits(range(6), [{i: (i + 1) % 6 for i in range(6)}]) == [[0, 1, 2, 3, 4, 5]]


@pytest.mark.parametrize("g", SYMMETRIC_SHAPES + [_prism(6), _wheel(6), _wheel(7)] + _random_graphs(40, max_n=10))
def test_orbits_match_brute_force_on_symmetric_and_larger_graphs(g):
    _assert_orbits_match(g, oracles.automorphisms(g.vertices, g.edges))


@settings(max_examples=100, deadline=None)
@given(labelled_graphs())
def test_group_order_is_the_product_of_the_chain_orbit_lengths(g):
    """The group order read off the generators' stabiliser chain is the
    number of edge-preserving permutations."""
    assert symmetry._group_order(g) == len(oracles.automorphisms(g.vertices, g.edges))


@pytest.mark.parametrize("g", SYMMETRIC_SHAPES + [petersen(), _prism(6), _wheel(7)])
def test_group_order_of_symmetric_graphs(g):
    assert symmetry._group_order(g) == len(automorphisms(g))


def _edge_key(e):
    return sorted(map(oracles.label_key, e))


def _act_on_set(a, s):
    return frozenset(a[x] for x in s)


def _assert_orbits_match(g, expected):
    """Vertex and edge orbits equal the brute-force partitions under the
    automorphisms ``expected``, in the same order."""
    assert vertex_orbits(g) == oracles.orbit_partition(g.sorted_vertices(), expected, lambda a, v: a[v], oracles.label_key)
    edges = [frozenset(e) for e in g.sorted_edges()]
    assert [[frozenset(e) for e in orbit] for orbit in edge_orbits(g)] == \
        oracles.orbit_partition(edges, expected, _act_on_set, _edge_key)
