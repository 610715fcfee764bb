"""Planarity verdicts and forbidden-subdivision witnesses."""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegraph import planarity
from coarsegraph.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)
from coarsegraph.graph import Graph, relabel
from coarsegraph.planarity import (
    WITNESS_CAP,
    PlanarityVerdict,
    SubdivisionWitness,
    find_subdivision,
    is_planar,
    validate_subdivision,
)

import helpers
import oracles


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.build(outer + spokes + inner)


def prism(n: int) -> Graph:
    ring = [(("a", i), ("a", (i + 1) % n)) for i in range(n)]
    ring += [(("b", i), ("b", (i + 1) % n)) for i in range(n)]
    rungs = [(("a", i), ("b", i)) for i in range(n)]
    return Graph.build(ring + rungs)


def test_planar_families():
    for g in (complete_graph(4), grid_graph(4, 5), cycle_graph(9), prism(3), prism(6)):
        assert is_planar(g) == PlanarityVerdict(True, None)
        assert find_subdivision(g) is None


def test_k5_witness():
    verdict = is_planar(complete_graph(5))
    assert not verdict.planar
    assert verdict.witness is not None and verdict.witness.kind == "K5"
    assert validate_subdivision(complete_graph(5), verdict.witness)


def test_k33_witness():
    g = complete_bipartite_graph(3, 3)
    verdict = is_planar(g)
    assert not verdict.planar
    assert verdict.witness is not None and verdict.witness.kind == "K33"
    assert validate_subdivision(g, verdict.witness)


def test_petersen_witness_is_a_k33_subdivision():
    """Every vertex has degree 3, so no K5 subdivision fits; the witness must
    be of the bipartite kind."""
    g = petersen()
    verdict = is_planar(g)
    assert not verdict.planar
    assert verdict.witness is not None and verdict.witness.kind == "K33"
    assert validate_subdivision(g, verdict.witness)


def subdivided_k33() -> Graph:
    """K3,3 on {0, b, (c|1)} × {x, 2, (y|0)} with b-(y|0) subdivided and 0-x
    replaced by two subdivided routes; the extractor's edge order picks one."""
    left, right = [0, "b", ("c", 1)], ["x", 2, ("y", 0)]
    edges = [(a, b) for a in left for b in right if (a, b) not in ((0, "x"), ("b", ("y", 0)))]
    return Graph.build(edges + [(0, "s1"), ("s1", ("s", 2)), (("s", 2), "x"), (0, ("s", 3)), (("s", 3), "x"),
                                ("b", 7), (7, ("y", 0))])


@pytest.mark.parametrize("g, kind, branch, paths", [
    (complete_graph(5), "K5", (0, 1, 2, 3, 4),
     ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
    (complete_bipartite_graph(3, 3), "K33", ("l0", "l1", "l2", "r0", "r1", "r2"),
     (("l0", "r0"), ("l0", "r1"), ("l0", "r2"), ("l1", "r0"), ("l1", "r1"), ("l1", "r2"),
      ("l2", "r0"), ("l2", "r1"), ("l2", "r2"))),
    (petersen(), "K33", (2, 8, 9, 3, 6, 7),
     ((2, 3), (2, 1, 6), (2, 7), (8, 3), (8, 6), (8, 5, 7), (9, 4, 3), (9, 6), (9, 7))),
    (subdivided_k33(), "K33", (0, "b", ("c", 1), 2, "x", ("y", 0)),
     ((0, 2), (0, ("s", 3), "x"), (0, ("y", 0)), ("b", 2), ("b", "x"), ("b", 7, ("y", 0)),
      (("c", 1), 2), (("c", 1), "x"), (("c", 1), ("y", 0)))),
])
def test_witnesses_are_pinned(g, kind, branch, paths):
    """The CLI prints these witnesses.  Petersen's is the one the edge-deletion
    extractor gives; the others are also the ones the backtracking search it
    replaced gave."""
    w = is_planar(g).witness
    assert (w.kind, w.branch_vertices, w.paths) == (kind, branch, paths)


def test_witness_cap_suppresses_search():
    verdict = is_planar(complete_graph(5), witness_cap=0)
    assert not verdict.planar
    assert verdict.witness is None


def test_tampered_witnesses_are_rejected():
    g = complete_graph(5)
    w = is_planar(g).witness
    assert w is not None
    truncated = w._replace(paths=(w.paths[0][:-1],) + w.paths[1:])
    assert not validate_subdivision(g, truncated)
    doubled = w._replace(branch_vertices=(w.branch_vertices[0],) + w.branch_vertices[:-1])
    assert not validate_subdivision(g, doubled)
    mislabeled = w._replace(kind="K33")
    assert not validate_subdivision(g, mislabeled)
    assert not validate_subdivision(g, w._replace(kind="K7"))


def test_mutated_witnesses_are_rejected():
    """K5 with its edge 0-1 subdivided by m, which also sees 2, 3 and a leaf x;
    each mutation of the hand-made witness breaks one rule."""
    g = Graph.build([e for e in complete_graph(5).edges if e != (0, 1)] + [(0, "m"), ("m", 1)]
                    + [("m", 2), ("m", 3), ("m", "x")])
    pairs = list(combinations(range(5), 2))
    paths = [(0, "m", 1) if e == (0, 1) else e for e in pairs]
    w = SubdivisionWitness("K5", tuple(range(5)), tuple(paths))
    assert validate_subdivision(g, w)

    def mutated(e, path):
        return w._replace(paths=tuple(path if f == e else p for f, p in zip(pairs, paths)))

    assert not validate_subdivision(g, mutated((0, 1), (1, "m", 0)))            # wrong ends
    assert not validate_subdivision(g, mutated((0, 1), (0, "m", "x", "m", 1)))  # a repeated vertex
    assert not validate_subdivision(g, mutated((0, 1), (0, 1)))                 # a step along no edge
    assert not validate_subdivision(g, mutated((2, 3), (2, "m", 3)))            # shares m with 0-m-1
    assert not validate_subdivision(g, mutated((2, 3), (2, 4, 3)))              # runs through a branch vertex


def test_a_witness_vertex_the_graph_does_not_own_is_refused():
    """The re-check reads g's own vertices (``Graph.own_id``): K5's witness
    with vertex 1 written True or 1.0, which equal 1 but are no vertex of g,
    is refused, whether every 1 is rewritten or only one path's."""
    g = complete_graph(5)
    w = find_subdivision(g)
    assert validate_subdivision(g, w)
    for fake in (True, 1.0):
        def swap(vs):
            return tuple(fake if v == 1 else v for v in vs)
        assert not validate_subdivision(g, w._replace(branch_vertices=swap(w.branch_vertices), paths=tuple(map(swap, w.paths))))
        one = next(i for i, p in enumerate(w.paths) if 1 in p)
        assert not validate_subdivision(g, w._replace(paths=tuple(swap(p) if i == one else p for i, p in enumerate(w.paths))))


def test_relabel_and_the_extraction_probes_start_with_an_empty_table(monkeypatch):
    """A fact is kept only for the neighbour lists it was made on: relabel's
    graph, which permutes the ids, and each graph find_subdivision tests with
    edges deleted start with an empty table, though the source holds facts."""
    g = petersen()
    assert not planarity._lr_planar(g) and g.masks and g.orientation
    assert g._facts and relabel(g, {v: ("p", v) for v in g.vertices})._facts == {}
    tables, real = [], planarity._lr_planar
    monkeypatch.setattr(planarity, "_lr_planar", lambda x: tables.append((x, dict(x._facts))) or real(x))
    assert validate_subdivision(g, find_subdivision(g))
    assert tables[0][0] is g and len(tables) > 1
    assert all(x is not g and not facts for x, facts in tables[1:])


def test_witness_paths_are_internally_disjoint():
    g = petersen()
    w = is_planar(g).witness
    seen: set = set()
    for path in w.paths:
        interior = set(path[1:-1])
        assert not (interior & seen)
        assert not (interior & set(w.branch_vertices))
        seen |= interior


def random_cubic(rng: random.Random, n: int) -> list:
    """The edges of a random simple cubic graph on 0..n−1 (n even): random
    pairings of the 3n half-edges until one has no loop and no repeated edge."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        es = {tuple(sorted(ends[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(es) == 3 * n // 2 and all(u != v for u, v in es):
            return sorted(es)


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 9), st.integers(0, 10_000), st.booleans())
def test_verdict_matches_subdivision_search(n, seed, cubic):
    """On small graphs, G(n, p) or random cubic graphs on 12 vertices under
    mixed int, string and tuple labels, the verdict with a witness, the
    verdict without one and networkx agree, and every witness validates."""
    rng = random.Random(seed)
    if cubic:
        vs, es = list(range(12)), random_cubic(rng, 12)
    else:
        vs, es = oracles.random_graph(rng, n, 0.55)
    names = [_label(rng, v) for v in vs]
    g = Graph.build([(names[u], names[v]) for u, v in es], vertices=names)
    verdict = is_planar(g)
    w = find_subdivision(g)
    assert verdict == PlanarityVerdict(w is None, w)
    assert verdict.planar == is_planar(g, witness_cap=0).planar == _networkx_verdict(g)
    if w is not None:
        assert validate_subdivision(g, w)


def test_extraction_makes_at_most_one_verdict_per_edge(monkeypatch):
    """One find_subdivision call runs the left-right test at most |E| + 1
    times: once for the verdict, then at most once per edge."""
    calls = helpers.calls(monkeypatch, "planarity._lr_planar")
    rng = random.Random(7)
    cubic = [Graph.build(random_cubic(rng, 12)) for _ in range(20)]
    for g in (petersen(), subdivided_k33(), complete_graph(8), complete_bipartite_graph(4, 5), *cubic):
        calls.clear()
        find_subdivision(g)
        assert 1 <= len(calls) <= len(g.edges) + 1


def _label(rng: random.Random, i: int):
    """Vertex i under a random one of an int, a string and a tuple label."""
    return rng.choice((i, f"v{i}", ("t", i % 3, str(i))))


def _networkx_verdict(g: Graph) -> bool:
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges)
    return nx.check_planarity(ng)[0]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.floats(0.5, 6.0), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_verdict_matches_networkx_on_random_graphs(n, mean_degree, parts, seed):
    """G(n, p) with p = mean degree / (n − 1), split into up to three parts
    with no edges between them: several components and isolated vertices,
    under mixed int, string and tuple labels."""
    rng = random.Random(seed)
    vs = [_label(rng, i) for i in range(n)]
    part = [rng.randrange(parts) for _ in vs]
    p = mean_degree / max(n - 1, 1)
    es = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if part[i] == part[j] and rng.random() < p]
    g = Graph.build(es, vertices=vs)
    assert is_planar(g, witness_cap=0).planar == _networkx_verdict(g)


def stacked_triangulation(rng: random.Random, n: int) -> list:
    """The edges of a random maximal planar graph on 0..n−1 (n ≥ 3): each new
    vertex goes into a random face of the triangulation so far."""
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return edges


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 60), st.integers(1, 6), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_verdict_matches_networkx_on_near_triangulations(n, deleted, chords, seed):
    """A stacked triangulation minus some edges plus up to two random chords:
    dense inputs on either side of planarity, under the 3n − 6 edge bound, so
    the constraint merges and the trimming of back edges decide them."""
    rng = random.Random(seed)
    es = stacked_triangulation(rng, n)
    rng.shuffle(es)
    es = es[deleted:]
    for _ in range(chords):
        es.append(tuple(rng.sample(range(n), 2)))
    vs = [_label(rng, i) for i in range(n)]
    g = Graph.build([(vs[u], vs[v]) for u, v in es], vertices=vs)
    assert is_planar(g, witness_cap=0).planar == _networkx_verdict(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.floats(0.2, 0.8), st.integers(0, 2**32 - 1))
def test_verdict_matches_the_subdivision_oracle(n, p, seed):
    rng = random.Random(seed)
    vs, es = oracles.random_graph(rng, n, p)
    g = Graph.build(es, vertices=vs)
    assert is_planar(g, witness_cap=0).planar == (not oracles.has_subdivision(oracles.adjacency(es, vs)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 16), st.floats(1.0, 7.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_the_kept_verdict_is_a_fresh_testing_pass(n, mean_degree, renamed_first, seed):
    """The verdict read through ``is_planar(witness_cap=0)``, once kept on the
    graph, equals a fresh testing pass on ``Graph._on_ids`` of the same pairs
    and the networkx verdict, when read again, on a ``_renamed`` copy (made
    before or after the verdict is kept), and after ``find_subdivision`` has
    run on the graph, whose witness still validates."""
    rng = random.Random(seed)
    if n >= 4 and rng.random() < 0.5:  # a near triangulation: dense, on either side of planarity
        es = stacked_triangulation(rng, n)[rng.randrange(4):] + [tuple(rng.sample(range(n), 2))]
    else:
        p = mean_degree / max(n - 1, 1)
        es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    vs = [_label(rng, i) for i in range(n)]
    g = Graph.build([(vs[u], vs[v]) for u, v in es], vertices=vs)
    expected = _networkx_verdict(g)
    pairs = [(i, j) for i, js in enumerate(g.nbrs) for j in js if j > i]
    assert planarity._testing_pass(Graph._on_ids(g.order, pairs)) is expected
    names = [("r", i) for i in range(len(g.order))]  # names that sort as g's ids do
    early = g._renamed(names) if renamed_first else None
    assert g._facts.get(planarity._lr_planar) is None
    assert is_planar(g, witness_cap=0).planar is g._facts.get(planarity._lr_planar) is expected
    assert is_planar(g, witness_cap=0).planar is expected
    late = g._renamed(names)
    assert late._facts.get(planarity._lr_planar) is expected
    for copy in (early, late):
        if copy is not None:
            assert is_planar(copy, witness_cap=0).planar is expected
    w = find_subdivision(g)
    assert (w is None) is expected
    assert w is None or validate_subdivision(g, w)
    assert [(i, j) for i, js in enumerate(g.nbrs) for j in js if j > i] == pairs
    assert is_planar(g, witness_cap=0).planar is expected
    assert planarity._testing_pass(Graph._on_ids(g.order, pairs)) is expected


def _hung_on_a_cycle(g: Graph, n: int) -> Graph:
    """g joined by one edge to a cycle on n vertices labelled ("c", i)."""
    ring = [(("c", i), ("c", (i + 1) % n)) for i in range(n)]
    return Graph.build([*g.edges, *ring, (min(g.vertices), ("c", 0))])


def test_large_and_deep_inputs_run_without_recursion():
    """Both DFS passes are iterative: a 20,000-vertex path or cycle would
    overflow Python's recursion limit in a recursive test."""
    for g in (path_graph(20_000), cycle_graph(20_000), grid_graph(60, 60)):
        assert is_planar(g) == PlanarityVerdict(True, None)
    for core in (complete_graph(5), complete_bipartite_graph(3, 3)):
        g = _hung_on_a_cycle(core, 2_000)
        assert len(g.vertices) > WITNESS_CAP
        assert is_planar(g) == PlanarityVerdict(False, None)


def test_the_testing_pass_reads_the_kept_nesting_order(monkeypatch):
    """The orientation keeps each vertex's out-edges in nesting order, so the
    testing pass sorts nothing: with ``sorted`` in ``planarity`` made to
    raise, it still decides a planar grid, K5, K3,3 and a subdivided K3,3."""
    def refuse(*args, **kwargs):
        raise AssertionError("the testing pass sorted")

    monkeypatch.setattr(planarity, "sorted", refuse, raising=False)
    cases = [(grid_graph(6, 6), True), (complete_graph(5), False), (complete_bipartite_graph(3, 3), False),
             (subdivided_k33(), False)]
    assert [planarity._lr_planar(g) for g, _ in cases] == [planar for _, planar in cases]


def _low_rank_graph(rng: random.Random, kind: str, size: int) -> list:
    """The edges of a graph on ids: a forest, one cycle with pendant trees, disjoint short cycles (one to
    five, pendant trees on the first), or K₃,₃ with pendant trees; ``size`` ids at most go into the trees."""
    if kind == "forest":
        return [(i, rng.randrange(i)) for i in range(1, size) if rng.random() < 0.8]
    es, n = [], 0
    if kind == "k33":
        es, n = [(i, j) for i in range(3) for j in range(3, 6)], 6
    for _ in range({"unicyclic": 1, "cycles": rng.randint(1, 5)}.get(kind, 0)):
        length = rng.randint(3, 5)
        es += [(n + i, n + (i + 1) % length) for i in range(length)]
        n += length
    return es + [(n + i, rng.randrange(n + i)) for i in range(size)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["forest", "unicyclic", "cycles", "k33"]), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_a_graph_of_circuit_rank_at_most_three_gets_the_networkx_verdict(kind, size, seed):
    """A forest, one cycle with pendant trees, disjoint short cycles and K₃,₃
    with pendant trees get networkx's verdict from the left-right test.  Only
    three or more disjoint cycles and K₃,₃ reach circuit rank
    m − n + (components) above 3."""
    rng = random.Random(seed)
    es = _low_rank_graph(rng, kind, size)
    vs = [_label(rng, i) for i in range(1 + max((max(e) for e in es), default=size))]
    g = Graph.build([(vs[u], vs[v]) for u, v in es], vertices=vs)
    assert is_planar(g, witness_cap=0).planar == _networkx_verdict(g)
    assert len(g.edges) - len(g.vertices) + len(g.component_masks) <= 3 or kind in ("cycles", "k33")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["k5", "k33-chords", "dense"]), st.integers(5, 30), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_a_graph_past_eulers_bound_gets_the_networkx_verdict(kind, n, tail, seed):
    """K₅, K₃,₃ with four to six chords inside its sides, and random graphs
    with m > 3n − 6, each with a pendant path of ``tail`` vertices, are
    non-planar, as networkx says: the left-right test finds the conflict,
    with no count deciding first.  Up to ``WITNESS_CAP`` vertices the
    witness validates."""
    rng = random.Random(seed)
    if kind == "k5":
        n, es = 5, list(combinations(range(5), 2))
    elif kind == "k33-chords":
        chords = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        n, es = 6, [(i, j) for i in range(3) for j in range(3, 6)] + rng.sample(chords, rng.randint(4, 6))
    else:
        pairs = list(combinations(range(n), 2))
        es = rng.sample(pairs, rng.randint(3 * n - 5, len(pairs)))
    assert len(es) > 3 * n - 6
    es += [(n - 1 + i, n + i) for i in range(tail)]
    vs = [_label(rng, i) for i in range(n + tail)]
    g = Graph.build([(vs[u], vs[v]) for u, v in es], vertices=vs)
    assert is_planar(g, witness_cap=0).planar is _networkx_verdict(g) is False
    verdict = is_planar(g)
    assert not verdict.planar and (verdict.witness is None) == (len(vs) > WITNESS_CAP)
