"""Separations: canonical form, tightness, exhaustive enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from coarsegraph.errors import StructuralError
from coarsegraph.generators import cycle_graph, path_graph
from coarsegraph.graph import Graph, sort_vertices, vertex_key
from coarsegraph.treedecomp import TreeDecomposition, edge_separation
from coarsegraph.separations import (
    Separation,
    enumerate_tight,
    fully_attached_components,
    is_separation,
    is_tight,
    separation_from_dict,
    separation_from_separator,
    separation_to_dict,
)

import oracles


def as_plain_pairs(seps):
    return {frozenset((s.side_a, s.side_b)) for s in seps}


def test_canonical_form_is_order_independent():
    s1 = Separation.of({1, 2, 3}, {3, 4})
    s2 = Separation.of({3, 4}, {1, 2, 3})
    assert s1 == s2
    assert s1.separator == frozenset({3})
    assert s1.order == 1


_LABELS = st.integers(0, 5) | st.sampled_from("ab") | st.tuples(st.integers(0, 2), st.sampled_from("ab"))


@settings(max_examples=500, deadline=None)
@given(st.sets(_LABELS, max_size=8), st.sets(_LABELS, max_size=8))
def test_canonical_form_puts_the_smaller_sorted_side_first(a, b):
    """Separation.of orients the sides like comparing their sorted key tuples."""
    def sorted_keys(side):
        return tuple(vertex_key(v) for v in sort_vertices(side))

    sep = Separation.of(a, b)
    first, second = sorted((frozenset(a), frozenset(b)), key=sorted_keys)
    assert (sep.side_a, sep.side_b) == (first, second)


def test_is_separation_detects_crossing_edges():
    g = cycle_graph(4)
    assert is_separation(g, Separation.of({0, 1, 3}, {1, 2, 3}))
    assert not is_separation(g, Separation.of({0, 1}, {2, 3}))
    assert not is_separation(g, Separation.of({0, 1, 2}, {2}))


def test_theta_graph_has_three_fully_attached_components():
    """Two hubs joined by three internally disjoint paths."""
    g = Graph.build([("u", 1), (1, "v"), ("u", 2), (2, "v"), ("u", 3), (3, "v")])
    comps = fully_attached_components(g, {"u", "v"})
    assert len(comps) == 3
    assert all(len(c) == 1 for c in comps)


def test_tightness_on_c5():
    g = cycle_graph(5)
    non_adjacent = separation_from_separator(g, {0, 2}, [frozenset({1})])
    assert is_tight(g, non_adjacent)
    adjacent = separation_from_separator(g, {0, 1}, [])
    assert not is_tight(g, adjacent)


def test_is_tight_requires_a_separation():
    g = cycle_graph(4)
    with pytest.raises(StructuralError):
        is_tight(g, Separation.of({0, 1}, {2, 3}))


def test_enumerate_tight_frozen_counts():
    """C5 at order 2 -> the five non-adjacent pairs; P5 at order 1 -> the
    three interior vertices; C6 at order 2 -> nine (six distance-2 pairs,
    three antipodal pairs)."""
    assert len(enumerate_tight(cycle_graph(5), 2)) == 5
    assert len(enumerate_tight(path_graph(5), 1)) == 3
    assert len(enumerate_tight(cycle_graph(6), 2)) == 9


def test_enumerate_tight_is_exact_order():
    for sep in enumerate_tight(cycle_graph(6), 2):
        assert sep.order == 2


def test_enumerate_matches_exhaustive_oracle_tiny():
    """Full 3^n side-assignment scan on graphs small enough to afford it."""
    rng = random.Random(31)
    for _ in range(25):
        vs, es = oracles.random_graph(rng, rng.randint(2, 5), 0.5)
        g = Graph.build(es, vertices=vs)
        adj = oracles.adjacency(es, vs)
        for k in (1, 2):
            assert as_plain_pairs(enumerate_tight(g, k)) == oracles.tight_separations_exhaustive(adj, k)


def test_enumerate_matches_definitional_oracle():
    rng = random.Random(32)
    for _ in range(30):
        vs, es = oracles.random_graph(rng, rng.randint(3, 7), 0.4)
        g = Graph.build(es, vertices=vs)
        adj = oracles.adjacency(es, vs)
        for k in (1, 2, 3):
            assert as_plain_pairs(enumerate_tight(g, k)) == oracles.tight_separations_definitional(adj, k)


def test_dict_round_trip():
    sep = Separation.of({1, 2}, {2, 3, 4})
    assert separation_from_dict(separation_to_dict(sep)) == sep
    with pytest.raises(StructuralError):
        separation_from_dict({"A": [1]})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_components_of_g_minus_s_agree_with_the_oracle(data):
    """fully_attached_components, is_tight and edge_separation against plain
    BFS on random graphs: disconnected ones, isolated vertices and S = ∅ included."""
    n = data.draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    s = frozenset(data.draw(st.sets(st.sampled_from(range(n))))) if n else frozenset()
    g = Graph.build(edges, vertices=range(n))
    adj = oracles.adjacency(edges, range(n))  # keyed in vertex order, so components come in canonical order
    comps = oracles.components_without(adj, s)
    full = [c for c in comps if {w for v in c for w in adj[v]} - c == s]
    assert fully_attached_components(g, s) == full
    masks = g.index.masks

    sides = data.draw(st.lists(st.booleans(), min_size=len(comps), max_size=len(comps)))
    a = set(s).union(*(c for c, side in zip(comps, sides) if side))
    b = set(s).union(*(c for c, side in zip(comps, sides) if not side))
    assert is_tight(g, Separation.of(a, b)) == oracles._is_tight_pair(adj, a, b)
    assert g.index.masks is masks  # built once per graph

    # A random tree on m nodes (node i hangs off an earlier node) with random parts.
    m = data.draw(st.integers(1, 6))
    tree_edges = [(i, data.draw(st.integers(0, i - 1))) for i in range(1, m)]
    parts = {t: frozenset(data.draw(st.sets(st.sampled_from(range(n))))) if n else frozenset() for t in range(m)}
    td = TreeDecomposition(Graph.build(tree_edges, vertices=range(m)), parts)
    tree_adj = oracles.adjacency(tree_edges, range(m))
    for (t1, t2) in tree_edges + [(y, x) for (x, y) in tree_edges]:
        side1 = set(oracles.bfs_distances({t: ns - {t2} for t, ns in tree_adj.items() if t != t2}, t1))
        a = frozenset().union(*(parts[t] for t in side1))
        b = frozenset().union(*(parts[t] for t in range(m) if t not in side1))
        assert edge_separation(g, td, (t1, t2)) == Separation.of(a, b)
