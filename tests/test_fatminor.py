"""Fat-minor models: verification, search, and monotone sweeps."""

from __future__ import annotations

import pytest

from coarsegraph.errors import CapacityError, GraphToolError, StructuralError
from coarsegraph.fatminor import (
    FatMinorModel,
    _farthest_point_seeds,
    asymptotic_probe,
    check_model_structure,
    model_from_dict,
    model_to_dict,
    search_fat_minor,
    verify_fat_model,
)
from coarsegraph.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    tree_graph,
)
from coarsegraph.graph import Graph, canonical_edge

import oracles


def edge_in_path_model() -> FatMinorModel:
    pattern = path_graph(2)
    host = path_graph(10)
    return FatMinorModel(
        pattern,
        host,
        {0: frozenset({0}), 1: frozenset({9})},
        {canonical_edge(0, 1): tuple(range(10))},
    )


def test_hand_model_verifies_up_to_the_branch_distance():
    m = edge_in_path_model()
    assert verify_fat_model(m, 0).ok
    assert verify_fat_model(m, 3).ok
    assert verify_fat_model(m, 9).ok
    report = verify_fat_model(m, 10)
    assert not report.ok
    assert report.failed_condition == 3


def test_farthest_point_seeds_on_a_disconnected_host():
    """A path, a star and an isolated vertex: a vertex no seed reaches counts
    as distance 0, so the other parts come last, in sorted order."""
    host = Graph.build([(i, i + 1) for i in range(6)] + [("c", ("c", j)) for j in range(3)], vertices=["iso"])
    assert len(host) == 12
    assert _farthest_point_seeds(host, 3) == [0, 6, 3]
    assert _farthest_point_seeds(host, 8) == [0, 6, 3, 1, 2, 4, 5, "c"]
    assert _farthest_point_seeds(host, 13) == [0, 6, 3, 1, 2, 4, 5, "c", "iso", ("c", 0), ("c", 1), ("c", 2)]


def test_structure_errors():
    m = edge_in_path_model()
    with pytest.raises(StructuralError):
        check_model_structure(
            FatMinorModel(m.pattern, m.host, {0: frozenset({0})}, m.edge_paths)
        )
    with pytest.raises(StructuralError):
        check_model_structure(
            FatMinorModel(m.pattern, m.host, {0: frozenset({0, 2}), 1: frozenset({9})}, m.edge_paths)
        )
    with pytest.raises(StructuralError):
        check_model_structure(
            FatMinorModel(m.pattern, m.host, {0: frozenset({0}), 1: frozenset({0, 1})}, m.edge_paths)
        )
    bad_walk = {canonical_edge(0, 1): (0, 2, 9)}
    with pytest.raises(StructuralError):
        check_model_structure(FatMinorModel(m.pattern, m.host, m.branch_sets, bad_walk))
    with pytest.raises(StructuralError):
        verify_fat_model(m, -1)


FAR = {
    0: frozenset({"0,0"}),
    1: frozenset({"0,3", "0,4", "0,5"}),
    2: frozenset({"0,8"}),
}
STRAIGHT_PATHS = {
    canonical_edge(0, 1): ("0,0", "0,1", "0,2", "0,3"),
    canonical_edge(1, 2): ("0,5", "0,6", "0,7", "0,8"),
}


@pytest.mark.parametrize("K, condition, detail", [
    (3, 4, "paths for (0, 1) and (1, 2) are at distance 2 < 3"),
    (4, 3, "B_0 and B_1 are at distance 3 < 4"),
    (6, 2, "path for 0-1 is at distance 5 < 6 from B_2"),
])
def test_first_failed_condition_and_its_distance(K, condition, detail):
    """Conditions are checked in order (2), (3), (4); the report names the first
    failure and the distance it measured."""
    report = verify_fat_model(FatMinorModel(path_graph(3), grid_graph(3, 9), FAR, STRAIGHT_PATHS), K)
    assert (report.ok, report.failed_condition, report.detail) == (False, condition, detail)


def test_tampered_model_fails_the_right_condition():
    """A path straying next to a foreign branch set trips the path-distance
    condition rather than the structural check."""
    pattern = path_graph(3)
    host = grid_graph(3, 9)
    far, paths = FAR, STRAIGHT_PATHS
    ok_model = FatMinorModel(pattern, host, far, paths)
    assert verify_fat_model(ok_model, 2).ok
    detour = dict(paths)
    detour[canonical_edge(1, 2)] = (
        "0,5", "1,5", "1,4", "1,3", "1,2", "1,1", "1,0",
        "2,0", "2,1", "2,2", "2,3", "2,4", "2,5", "2,6", "2,7", "2,8",
        "1,8", "0,8",
    )
    bad = FatMinorModel(pattern, host, far, detour)
    report = verify_fat_model(bad, 2)
    assert not report.ok
    assert report.failed_condition == 2  # detour passes one step from the far branch set


def test_star_admits_triangle_at_fatness_zero_only():
    """With fatness 0 the connecting paths may overlap, so a triangle embeds
    into a 3-leaf star through its centre; any positive fatness forbids it."""
    star = Graph.build([("c", 0), ("c", 1), ("c", 2)])
    tri = complete_graph(3)
    found = search_fat_minor(tri, star, 0)
    assert found.status == "found"
    assert verify_fat_model(found.model, 0).ok
    assert search_fat_minor(tri, star, 1).status == "not-found"


def test_triangle_never_appears_in_trees_at_positive_fatness():
    for host in (path_graph(9), tree_graph(2, 3), tree_graph(3, 2)):
        for K in (1, 2, 4):
            outcome = search_fat_minor(complete_graph(3), host, K)
            assert outcome.status == "not-found"


def test_quick_rejects():
    assert search_fat_minor(complete_graph(5), complete_graph(4), 1).status == "not-found"
    out = search_fat_minor(complete_graph(5), grid_graph(8, 8), 1)
    assert out.status == "not-found"
    assert "planar" in out.reason


def test_cycle_in_cycle_exhaustive_fatness_frontier():
    """C8 hosts a 1-fat C4 (two-vertex arcs with adjacent ports) but no 2-fat
    one; the exhaustive search certifies both sides of the frontier."""
    c4, c8 = cycle_graph(4), cycle_graph(8)
    found = search_fat_minor(c4, c8, 1)
    assert found.status == "found"
    assert verify_fat_model(found.model, 1).ok
    assert search_fat_minor(c4, c8, 2).status == "not-found"


def test_probe_is_monotone():
    results = asymptotic_probe(cycle_graph(4), cycle_graph(8), [0, 1, 2])
    statuses = [results[k].status for k in (0, 1, 2)]
    assert statuses == ["found", "found", "not-found"]
    for k in (0, 1):
        assert verify_fat_model(results[k].model, k).ok


def test_heuristic_finds_fat_cycle_in_large_cycle():
    out = search_fat_minor(cycle_graph(4), cycle_graph(24), 2)
    assert out.status == "found"
    assert verify_fat_model(out.model, 2).ok


def test_budget_exhaustion_is_reported_not_guessed():
    out = search_fat_minor(cycle_graph(4), grid_graph(6, 6), 2, budget=3)
    assert out.status == "inconclusive"
    assert "budget" in out.reason


def test_capacity_guards():
    with pytest.raises(CapacityError):
        search_fat_minor(cycle_graph(6), grid_graph(4, 4), 1)
    with pytest.raises(CapacityError):
        search_fat_minor(cycle_graph(4), grid_graph(21, 21), 1)


def test_model_round_trip():
    out = search_fat_minor(cycle_graph(4), cycle_graph(8), 1)
    data = model_to_dict(out.model)
    rebuilt = model_from_dict(cycle_graph(4), cycle_graph(8), data)
    assert rebuilt.branch_sets == out.model.branch_sets
    assert rebuilt.edge_paths == out.model.edge_paths
    assert verify_fat_model(rebuilt, 1).ok
    with pytest.raises(StructuralError):
        model_from_dict(cycle_graph(4), cycle_graph(8), {"branch_sets": {}})


@pytest.mark.parametrize("branch_sets, edge_paths", [
    ([[0], [2]], {"0-1": [0, 1, 2]}),            # branch_sets is a list
    ({"0": [[0]], "1": [2]}, {"0-1": [0, 1, 2]}),  # a list member, read as the tuple (0,)
    ({"0": [0], "1": [2]}, 7),                   # edge_paths is an int
    ({"0": 0, "1": [2]}, {"0-1": [0, 1, 2]}),     # a branch set is an int
    ({"0": [0], "1": [None]}, {"0-1": [0, 1, 2]}),
    ({"0": [0], "1": [2]}, {"0-1": [0, {"x": 1}, 2]}),
])
def test_malformed_model_json_raises_typed_errors(branch_sets, edge_paths):
    data = {"branch_sets": branch_sets, "edge_paths": edge_paths}
    with pytest.raises(GraphToolError):
        model_from_dict(path_graph(2), path_graph(3), data)


def test_model_members_read_as_vertex_tokens():
    data = {"branch_sets": {"0": ["0"], "1": [2]}, "edge_paths": {"0-1": ["0", 1, "2"]}}
    model = model_from_dict(path_graph(2), path_graph(3), data)
    assert model.branch_sets == {0: frozenset({0}), 1: frozenset({2})}
    assert model.edge_paths == {(0, 1): (0, 1, 2)}


def test_zero_fat_search_contains_ordinary_minors():
    """Every ordinary minor yields a 0-fat model (length-1 connecting paths),
    so wherever the exhaustive minor oracle finds one, so must the search.
    The converse is false in general -- paths may overlap at fatness 0 --
    but on a path host the two notions coincide and both refute K3."""
    minor_cases = [
        (complete_graph(3), cycle_graph(5)),
        (cycle_graph(4), cycle_graph(6)),
        (path_graph(3), grid_graph(2, 3)),
    ]
    for pattern, host in minor_cases:
        h_adj = {v: set() for v in host.vertices}
        for (u, v) in host.edges:
            h_adj[u].add(v)
            h_adj[v].add(u)
        assert oracles.has_minor(sorted(pattern.vertices), list(pattern.edges), h_adj)
        outcome = search_fat_minor(pattern, host, 0)
        assert outcome.status == "found"
        assert verify_fat_model(outcome.model, 0).ok

    host = path_graph(5)
    h_adj = {v: set() for v in host.vertices}
    for (u, v) in host.edges:
        h_adj[u].add(v)
        h_adj[v].add(u)
    tri = complete_graph(3)
    assert not oracles.has_minor(sorted(tri.vertices), list(tri.edges), h_adj)
    assert search_fat_minor(tri, host, 0).status == "not-found"
