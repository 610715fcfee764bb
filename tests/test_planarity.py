"""Planarity verdicts and forbidden-subdivision witnesses."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegraph.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
)
from coarsegraph.graph import Graph
from coarsegraph.planarity import (
    SubdivisionWitness,
    find_subdivision,
    is_planar,
    validate_subdivision,
)

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
        verdict = is_planar(g)
        assert verdict.planar
        assert verdict.witness is None
    # Exhaustively certifying the absence of a subdivision is only cheap on
    # small graphs, so the direct search is spot-checked there.
    for g in (complete_graph(4), grid_graph(3, 3), prism(3)):
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
    replaced by two subdivided routes; the search's neighbour order picks one."""
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
    (petersen(), "K33", (0, 2, 8, 1, 3, 5),
     ((0, 1), (0, 4, 3), (0, 5), (2, 1), (2, 3), (2, 7, 5), (8, 6, 1), (8, 3), (8, 5))),
    (subdivided_k33(), "K33", (0, "b", ("c", 1), 2, "x", ("y", 0)),
     ((0, 2), (0, ("s", 3), "x"), (0, ("y", 0)), ("b", 2), ("b", "x"), ("b", 7, ("y", 0)),
      (("c", 1), 2), (("c", 1), "x"), (("c", 1), ("y", 0)))),
])
def test_witnesses_are_pinned(g, kind, branch, paths):
    """The CLI prints these witnesses; they are the ones measured at 2ec775d."""
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
    truncated = replace(w, paths=(w.paths[0][:-1],) + w.paths[1:])
    assert not validate_subdivision(g, truncated)
    doubled = replace(w, branch_vertices=(w.branch_vertices[0],) + w.branch_vertices[:-1])
    assert not validate_subdivision(g, doubled)
    mislabeled = replace(w, kind="K33")
    assert not validate_subdivision(g, mislabeled)
    assert not validate_subdivision(g, replace(w, kind="K7"))


def test_witness_paths_are_internally_disjoint():
    g = petersen()
    w = is_planar(g).witness
    seen: set = set()
    for path in w.paths:
        interior = set(path[1:-1])
        assert not (interior & seen)
        assert not (interior & set(w.branch_vertices))
        seen |= interior


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 9), st.integers(0, 10_000))
def test_verdict_matches_subdivision_search(n, seed):
    """On small graphs the boolean verdict and the witness search agree, and
    any produced witness validates."""
    rng = random.Random(seed)
    vs, es = oracles.random_graph(rng, n, 0.55)
    g = Graph.build(es, vertices=vs)
    verdict = is_planar(g)
    w = find_subdivision(g)
    assert verdict.planar == (w is None)
    if w is not None:
        assert validate_subdivision(g, w)
