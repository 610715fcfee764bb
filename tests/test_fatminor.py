"""Fat-minor models: verification, search, and monotone sweeps."""

from __future__ import annotations

import functools
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegraph import fatminor, symmetry
from coarsegraph.errors import CapacityError, GraphToolError, StructuralError, UnknownVertexError
from coarsegraph.fatminor import (
    EXHAUSTIVE_CAP,
    FatMinorModel,
    _connected_subsets,
    _farthest_point_seeds,
    _first_in_orbit,
    _vertex_balls,
    asymptotic_probe,
    check_model_structure,
    model_from_dict,
    model_to_dict,
    search_fat_minor,
    verify_fat_model,
)
from coarsegraph.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    tree_graph,
)
from coarsegraph.graph import Graph, GraphIndex, canonical_edge, relabel, shortest_path, sort_vertices

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


@pytest.mark.parametrize("stand_in", [True, 1.0])
def test_model_members_must_be_the_host_s_own_vertices(stand_in):
    """True and 1.0 equal the host vertex 1 but are not it: in a branch set they
    are unknown vertices, in a path the path is not one of the host, so every
    model that verifies also reads back from the dict it writes."""
    pattern, host = path_graph(2), path_graph(3)
    ok = FatMinorModel(pattern, host, {0: {0}, 1: {2}}, {(0, 1): (0, 1, 2)})
    assert verify_fat_model(ok, 0).ok
    assert model_from_dict(pattern, host, model_to_dict(ok)) == ok
    with pytest.raises(StructuralError, match="not a path of the host"):
        verify_fat_model(FatMinorModel(pattern, host, {0: {0}, 1: {2}}, {(0, 1): (0, stand_in, 2)}), 0)
    with pytest.raises(UnknownVertexError, match=repr(stand_in)):
        verify_fat_model(FatMinorModel(pattern, host, {0: {0, stand_in}, 1: {2}}, {(0, 1): (stand_in, 2)}), 0)


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
    assert found.nodes_used == 49
    assert model_to_dict(found.model) == {
        "branch_sets": {"0": ["0", "1"], "1": ["2", "3"], "2": ["4", "5"], "3": ["6", "7"]},
        "edge_paths": {"0-1": ["1", "2"], "0-3": ["0", "7"], "1-2": ["3", "4"], "2-3": ["5", "6"]},
    }
    assert search_fat_minor(c4, c8, 2).status == "not-found"


def test_probe_is_monotone():
    results = asymptotic_probe(cycle_graph(4), cycle_graph(8), [0, 1, 2])
    statuses = [results[k].status for k in (0, 1, 2)]
    assert statuses == ["found", "found", "not-found"]
    assert [results[k].nodes_used for k in (0, 1, 2)] == [0, 49, 236]
    for k in (0, 1):
        assert verify_fat_model(results[k].model, k).ok


@pytest.mark.parametrize("pattern, host, K, status, reason, nodes_used, model", [
    (cycle_graph(3), cycle_graph(10), 2, "not-found", "search space exhausted", 3_696, None),
    (path_graph(3), cycle_graph(10), 2, "found", "witness verified", 2_289, {
        "branch_sets": {"0": ["4"], "1": ["0", "1", "2"], "2": ["6"]},
        "edge_paths": {"0-1": ["4", "3", "2"], "1-2": ["0", "9", "8", "7", "6"]},
    }),
    (path_graph(3), path_graph(10), 3, "found", "witness verified", 7_212, {
        "branch_sets": {"0": ["0"], "1": ["3", "4", "5", "6"], "2": ["9"]},
        "edge_paths": {"0-1": ["0", "1", "2", "3"], "1-2": ["6", "7", "8", "9"]},
    }),
    (cycle_graph(5), cycle_graph(10), 1, "found", "witness verified", 76, {
        "branch_sets": {"0": ["0", "1"], "1": ["2", "3"], "2": ["4", "5"], "3": ["6", "7"], "4": ["8", "9"]},
        "edge_paths": {"0-1": ["1", "2"], "0-4": ["0", "9"], "1-2": ["3", "4"], "2-3": ["5", "6"], "3-4": ["7", "8"]},
    }),
    (complete_graph(4), grid_graph(3, 3), 0, "found", "witness verified", 26, {
        "branch_sets": {"0": ["0,0"], "1": ["0,1"], "2": ["0,2"], "3": ["1,1"]},
        "edge_paths": {
            "0-1": ["0,0", "0,1"], "0-2": ["0,0", "1,0", "2,0", "2,1", "2,2", "1,2", "0,2"],
            "0-3": ["0,0", "1,0", "1,1"], "1-2": ["0,1", "0,2"], "1-3": ["0,1", "1,1"], "2-3": ["0,2", "1,2", "1,1"],
        },
    }),
])
def test_exhaustive_search_outcomes_are_pinned(pattern, host, K, status, reason, nodes_used, model):
    """Outcomes of the exhaustive search, down to the budget it spent: the
    search order and its pruning decide them, so a rewrite that keeps both
    keeps these."""
    out = search_fat_minor(pattern, host, K)
    assert (out.status, out.reason, out.nodes_used) == (status, reason, nodes_used)
    assert (model_to_dict(out.model) if out.model else None) == model


LABELS = st.one_of(
    st.integers(-3, 12),
    st.text(alphabet="ab1", min_size=1, max_size=2),
    st.tuples(st.integers(0, 2), st.sampled_from(["x", "y"])),
)


@st.composite
def labelled_hosts(draw, max_size=8):
    labels = draw(st.lists(LABELS, min_size=1, max_size=max_size, unique=True))
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.build(edges, vertices=labels)


@settings(max_examples=150, deadline=None)
@given(host=labelled_hosts(), radius=st.integers(-1, 3))
def test_subset_and_ball_masks_match_brute_force(host, radius):
    """The search's id masks decode to the connected sets in (size, set_key)
    order and to the BFS balls, on hosts with int, string and tuple labels."""
    index = host.index
    adj = oracles.adjacency(host.edges, host.vertices)
    assert [index.labels(m) for m in _connected_subsets(index)] == oracles.connected_sets(adj)
    balls = _vertex_balls(index, radius)
    assert [index.labels(b) for b in balls] == [oracles.ball(adj, v, radius) for v in index.order]


def test_probe_builds_the_connected_sets_once(monkeypatch):
    """The connected sets depend on the host alone: the probe's searches at K = 2
    and K = 1 (K = 0 takes the carried witness) read one tuple, built by the
    first and kept on the host's index."""
    host = cycle_graph(8)
    assert host.index._subsets is None
    read = []
    real = fatminor._connected_subsets
    monkeypatch.setattr(fatminor, "_connected_subsets", lambda index: read.append(real(index)) or read[-1])
    asymptotic_probe(cycle_graph(4), host, [0, 1, 2])
    assert len(read) == 2 and read[0] is read[1] is host.index._subsets


@settings(max_examples=150, deadline=None)
@given(host=labelled_hosts(max_size=7))
def test_first_branch_sets_are_the_orbit_least_connected_sets(host):
    """Fed the connected sets in search order, the filter passes exactly those
    that no brute-force automorphism maps to an earlier set."""
    index = host.index
    first = _first_in_orbit(host)
    kept = [index.labels(s) for s in _connected_subsets(index) if first(s)]
    autos = oracles.automorphisms(host.vertices, host.edges)

    def key(s):
        return sorted(map(oracles.label_key, s))

    least = [s for s in oracles.connected_sets(oracles.adjacency(host.edges, host.vertices))
             if all(key(s) <= key({a[x] for x in s}) for a in autos)]
    assert kept == least


def _unfiltered(monkeypatch):
    """The search without isomorph rejection: an empty generating set."""
    monkeypatch.setattr(symmetry, "automorphism_generators", lambda g: [])


def _random_triple(rng):
    pattern = oracles.random_graph(rng, rng.randint(1, 4), rng.random())
    host = oracles.random_graph(rng, rng.randint(1, 10), rng.random())
    return Graph.build(pattern[1], vertices=pattern[0]), Graph.build(host[1], vertices=host[0]), rng.randint(0, 3)


def test_isomorph_rejection_keeps_every_decided_outcome(monkeypatch):
    """On 2,000 seeded (pattern, host, K) triples: wherever the unfiltered
    search decides, the filtered one gives the same status, reason and model
    with no more nodes; where it gives up, a model found is still verified.
    The budget is cut to 5,000 nodes to keep the run short."""
    rng = random.Random(1616)
    triples = [_random_triple(rng) for _ in range(2000)]
    got = [search_fat_minor(p, h, K, budget=5_000) for p, h, K in triples]
    _unfiltered(monkeypatch)
    decided = fewer = 0
    for (p, h, K), out in zip(triples, got):
        ref = search_fat_minor(p, h, K, budget=5_000)
        if ref.status == "inconclusive":
            assert out.model is None or verify_fat_model(out.model, K).ok
            continue
        decided += 1
        fewer += out.nodes_used < ref.nodes_used
        assert (out.status, out.reason) == (ref.status, ref.reason)
        assert (out.model and model_to_dict(out.model)) == (ref.model and model_to_dict(ref.model))
        assert out.nodes_used <= ref.nodes_used
    assert decided >= 1_700 and fewer >= 200


def _edgeless(n):
    return Graph.build([], vertices=range(n))


@pytest.mark.parametrize("host, cases", [
    (complete_graph(10), [(complete_graph(4), 0), (path_graph(2), 1), (_edgeless(3), 1)]),
    (complete_bipartite_graph(1, 9), [(complete_graph(4), 0), (complete_graph(3), 0), (path_graph(2), 2)]),
    (complete_bipartite_graph(5, 5), [(complete_graph(4), 0), (path_graph(3), 0), (path_graph(2), 2)]),
    (_edgeless(10), [(complete_graph(4), 0), (path_graph(3), 0), (_edgeless(3), 2)]),
])
def test_symmetric_hosts_never_list_their_group(monkeypatch, host, cases):
    """On hosts with up to 10! automorphisms the searches on one host draw at
    most n(n - 1)/2 automorphisms from the backtrack in all (the generating set
    is kept on the host's index) and never list the group, and they return
    what the unfiltered search returns."""
    drawn = []
    real = symmetry._extensions

    def counted(*args):
        for a in real(*args):
            drawn.append(a)
            yield a

    def refuse(*args, **kwargs):
        raise AssertionError("the search listed the whole automorphism group")

    monkeypatch.setattr(symmetry, "_extensions", counted)
    monkeypatch.setattr(symmetry, "automorphisms", refuse)
    got = [search_fat_minor(pattern, host, K) for pattern, K in cases]
    assert 0 < len(drawn) <= 45
    _unfiltered(monkeypatch)
    for (pattern, K), out in zip(cases, got):
        ref = search_fat_minor(pattern, host, K)
        assert ref.status != "inconclusive"
        assert (out.status, out.reason) == (ref.status, ref.reason)
        assert out.model == ref.model
        assert out.nodes_used <= ref.nodes_used


@pytest.mark.parametrize("pattern, host, K", [
    (cycle_graph(4), cycle_graph(8), 1),
    (cycle_graph(3), cycle_graph(10), 2),
    (path_graph(3), cycle_graph(10), 2),
])
def test_exhaustive_search_reads_each_vertex_ball_once(monkeypatch, pattern, host, K):
    """Beyond the re-check of a found model, a search reads no distance row at
    K = 1 and at most one per host vertex at K = 2."""
    calls = []
    real = GraphIndex.distance_row
    monkeypatch.setattr(GraphIndex, "distance_row", lambda self, sources: calls.append(1) or real(self, sources))
    out = search_fat_minor(pattern, host, K)
    searched = len(calls)
    if out.model is not None:  # the re-check of a found model reads rows of its own
        calls.clear()
        verify_fat_model(out.model, K)
        searched -= len(calls)
    assert searched <= (0 if K == 1 else len(host))


def test_heuristic_finds_fat_cycle_in_large_cycle():
    out = search_fat_minor(cycle_graph(4), cycle_graph(24), 2)
    assert out.status == "found"
    assert verify_fat_model(out.model, 2).ok


@pytest.mark.parametrize("K, status, verified", [(2, "found", 1), (3, "inconclusive", 0)])
def test_heuristic_verifies_only_its_witness(monkeypatch, K, status, verified):
    """Heuristic candidates are checked on ids; only the witness returned goes
    through the full verify_fat_model, once."""
    calls = []
    real = fatminor.verify_fat_model
    monkeypatch.setattr(fatminor, "verify_fat_model", lambda m, K: calls.append(m) or real(m, K))
    out = search_fat_minor(cycle_graph(4), cycle_graph(24), K)
    assert (out.status, len(calls)) == (status, verified)
    assert calls == ([out.model] if out.model else [])


def test_budget_exhaustion_is_reported_not_guessed():
    out = search_fat_minor(cycle_graph(4), grid_graph(6, 6), 2, budget=3)
    assert out.status == "inconclusive"
    assert "budget" in out.reason


HEURISTIC_PATTERNS = (path_graph(2), path_graph(3), path_graph(4), cycle_graph(3), cycle_graph(4),
                      cycle_graph(5), complete_bipartite_graph(1, 3), complete_graph(4))


def _mixed_labels(g: Graph, rng) -> Graph:
    """G renamed onto shuffled int, string and tuple labels."""
    names = list(range(len(g)))
    rng.shuffle(names)
    return relabel(g, {v: rng.choice((i, f"v{i}", (i % 3, f"t{i}"))) for v, i in zip(g.sorted_vertices(), names)})


def _heuristic_case(rng):
    """A seeded search beyond the exhaustive cap: a cycle, grid, tree or random
    host on mixed labels, a pattern from HEURISTIC_PATTERNS, K in 0..4 and a
    budget from 50 nodes (a handful of candidates) up."""
    kind = rng.randrange(4)
    if kind == 0:
        host = cycle_graph(rng.randint(11, 30))
    elif kind == 1:
        host = grid_graph(rng.randint(3, 5), rng.randint(4, 6))
    elif kind == 2:
        host = tree_graph(*rng.choice(((2, 3), (3, 2), (2, 4))))
    else:
        vs, es = oracles.random_graph(rng, rng.randint(11, 24), rng.uniform(0.08, 0.3))
        host = Graph.build(es, vertices=vs)
    pattern = rng.choice(HEURISTIC_PATTERNS)
    return _mixed_labels(pattern, rng), _mixed_labels(host, rng), rng.randint(0, 4), rng.choice((50, 200, 1_000, 5_000, 20_000))


# sha256 of the JSON list of (status, reason, nodes_used, model_to_dict) over
# _heuristic_case(random.Random(i)), i < 400: found, budget-exhausted, no-witness
# and quick-reject outcomes of the heuristic regime.  A change that moves it must say why.
HEURISTIC_DIGEST = "4c337c19e56a683b11e3015a5e213292791804fe0ad53b7eb2a540ea5ee2e581"


def test_heuristic_outcomes_match_the_committed_digest():
    cases = [_heuristic_case(random.Random(i)) for i in range(400)]
    assert all(len(host) > EXHAUSTIVE_CAP for _, host, _, _ in cases)
    outcomes = []
    for pattern, host, K, budget in cases:
        out = search_fat_minor(pattern, host, K, budget=budget)
        outcomes.append([out.status, out.reason, out.nodes_used, out.model and model_to_dict(out.model)])
    assert {o[1] for o in outcomes} >= {"heuristic witness verified", "budget exhausted during heuristic search"}
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == HEURISTIC_DIGEST


def _walk(rng, host: Graph, steps: int) -> tuple:
    """A random walk of at most ``steps`` steps (vertices may repeat)."""
    index = host.index
    walk = [rng.randrange(len(index.order))]
    for _ in range(steps):
        if not index.nbrs[walk[-1]]:
            break
        walk.append(rng.choice(index.nbrs[walk[-1]]))
    return tuple(index.order[i] for i in walk)


def _model_case(rng):
    """A seeded exhaustive-regime search (pattern of 1-4 and host of 2-9
    vertices on mixed labels, K in 0..2, budget 50-2,000), and a model of the
    pattern in the host at K in 0..3: the search's witness or disjoint grown
    branch sets joined by geodesics or walks, then broken at random by up to
    two edits (a branch-set key dropped or foreign, a set emptied, overlapping,
    grown or given an unknown vertex, an edge key reversed, dropped or
    foreign, a path replaced by a walk, cut short or given an unknown vertex)."""
    pattern = _mixed_labels(Graph.build(*oracles.random_graph(rng, rng.randint(1, 4), rng.random())[::-1]), rng)
    host = _mixed_labels(Graph.build(*oracles.random_graph(rng, rng.randint(2, 9), rng.random())[::-1]), rng)
    K, budget = rng.randint(0, 2), rng.choice((50, 500, 2_000))
    out = search_fat_minor(pattern, host, K, budget=budget)
    if out.model is not None and rng.random() < 0.5:
        branch = {v: set(b) for v, b in out.model.branch_sets.items()}
        paths = dict(out.model.edge_paths)
    else:
        free, branch = host.sorted_vertices(), {}
        rng.shuffle(free)
        for v in pattern.sorted_vertices():
            b = branch[v] = {free.pop()} if free else set()
            for _ in range(rng.randint(0, 2)):
                grow = sorted({w for x in b for w in host.neighbors(x) if w in free}, key=host.index.pos.get)
                if grow:
                    b.add(w := rng.choice(grow))
                    free.remove(w)
        paths = {}
        for (u, v) in pattern.sorted_edges():
            ends = [rng.choice(sort_vertices(branch[w])) for w in (u, v) if branch[w]]
            geodesic = len(ends) == 2 and rng.random() < 0.8 and shortest_path(host, *ends)
            paths[(u, v)] = tuple(geodesic) if geodesic else _walk(rng, host, rng.randint(0, 4)) if ends else ()
    unknown = rng.choice((99, "zz", ("q", 1)))  # one per case: an unknown vertex is named whatever the set order
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        v, op = rng.choice(list(branch)), rng.randrange(12)
        if op == 0 and len(branch) > 1:
            del branch[v]
        elif op == 1:
            branch[unknown] = {rng.choice(host.sorted_vertices())}
        elif op == 2:
            branch[v] = set()
        elif op == 3:
            branch[v].add(unknown)
        elif op == 4:
            branch[v] |= rng.choice(list(branch.values()))
        elif op == 5:
            branch[v].add(rng.choice(host.sorted_vertices()))
        elif paths:
            e = rng.choice(list(paths))
            if op == 6:
                paths[e[::-1]] = paths.pop(e)[:: rng.choice((1, -1))]
            elif op == 7:
                del paths[e]
            elif op == 8:
                paths[e] = _walk(rng, host, rng.randint(1, 6))
            elif op == 9:
                cut = rng.randint(0, len(paths[e]))
                paths[e] = paths[e][:cut] + (unknown,) + paths[e][cut:]
            elif op == 10:
                paths[e] = paths[e][: rng.randint(0, 1)]
            else:
                paths[(e[0], unknown)] = paths[e]
    model = FatMinorModel(pattern, host, {v: frozenset(b) for v, b in branch.items()}, paths)
    return out, model, rng.randint(0, 3)


# sha256 of the JSON pair [searches, reports] over _model_case(random.Random(i)),
# i < 1,500: each search's (status, reason, nodes_used, model_to_dict), and each
# model's verify_fat_model report (ok, condition, detail) or its error's type and
# text.  A change that moves it must say why.
MODEL_DIGEST = "374519ca327c101b4607620880f1a864a26ca2c39d6e90fead76cebddbd669ec"


def test_model_reports_and_searches_match_the_committed_digest():
    searches, reports = [], []
    for i in range(1_500):
        out, model, K = _model_case(random.Random(i))
        searches.append([out.status, out.reason, out.nodes_used, out.model and model_to_dict(out.model)])
        try:
            r = verify_fat_model(model, K)
            reports.append([r.ok, r.failed_condition, r.detail])
        except GraphToolError as e:
            reports.append([type(e).__name__, str(e)])
    assert {r[1] for r in reports if not r[0]} >= {1, 2, 3, 4}
    assert {r[0] for r in reports} >= {True, "StructuralError", "UnknownVertexError"}
    assert hashlib.sha256(json.dumps([searches, reports]).encode()).hexdigest() == MODEL_DIGEST


def _wheel(rim: int) -> Graph:
    return Graph.build([(i, (i + 1) % rim) for i in range(rim)] + [(rim, i) for i in range(rim)])


def _petersen() -> Graph:
    return Graph.build([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


GRID_PATTERNS = {
    "P3": path_graph(3), "C4": cycle_graph(4), "C5": cycle_graph(5), "K4": complete_graph(4),
    "K1,3": complete_bipartite_graph(1, 3),
}
GRID_HOSTS = {
    "C10": cycle_graph(10), "K10": complete_graph(10), "Petersen": _petersen(), "3x3 grid": grid_graph(3, 3),
    "K5,5": complete_bipartite_graph(5, 5), "W9": _wheel(9), "P10": path_graph(10), "C8": cycle_graph(8),
}


@functools.cache
def _grid_outcomes() -> dict:
    """The 160-case grid: each pattern in each host of ≤ 10 vertices at K = 0..3,
    at the default budget, keyed by (pattern, host, K)."""
    return {(p, h, K): search_fat_minor(GRID_PATTERNS[p], GRID_HOSTS[h], K)
            for p in GRID_PATTERNS for h in GRID_HOSTS for K in range(4)}


# The searches that the exhaustive search without its degree prunes left
# inconclusive: _model_case(random.Random(i)) for these i, and these grid cases.
UNDECIDED_MODEL_CASES = frozenset((
    17, 23, 38, 41, 50, 75, 80, 84, 109, 112, 124, 132, 134, 135, 136, 145, 148, 150, 151, 170, 171,
    189, 195, 199, 204, 205, 212, 223, 227, 235, 237, 251, 253, 256, 261, 264, 265, 271, 274, 279,
    290, 297, 301, 320, 321, 322, 328, 331, 341, 352, 368, 371, 386, 400, 406, 412, 418, 425, 428,
    437, 460, 481, 482, 489, 490, 491, 493, 501, 504, 509, 517, 518, 523, 535, 562, 563, 573, 596,
    617, 621, 627, 630, 632, 637, 639, 644, 649, 650, 654, 664, 668, 669, 674, 679, 693, 699, 710,
    718, 724, 729, 733, 735, 746, 755, 757, 766, 771, 784, 790, 798, 800, 804, 805, 810, 823, 833,
    834, 864, 871, 875, 887, 894, 898, 902, 926, 931, 934, 938, 940, 958, 963, 975, 980, 988, 1000,
    1008, 1032, 1035, 1040, 1068, 1069, 1073, 1080, 1088, 1090, 1101, 1104, 1106, 1109, 1110, 1117,
    1122, 1135, 1137, 1138, 1141, 1146, 1158, 1160, 1161, 1172, 1177, 1180, 1193, 1204, 1206, 1213,
    1215, 1219, 1220, 1223, 1225, 1226, 1230, 1234, 1235, 1236, 1244, 1254, 1259, 1289, 1290, 1291,
    1296, 1297, 1308, 1312, 1331, 1340, 1341, 1343, 1344, 1346, 1357, 1371, 1376, 1382, 1403, 1408,
    1413, 1420, 1423, 1435, 1441, 1454, 1466, 1477,
))
UNDECIDED_GRID_CASES = frozenset({
    ("P3", "K10", 1), ("P3", "K5,5", 1), ("P3", "W9", 1), ("C4", "K10", 1), ("C4", "Petersen", 1),
    ("C4", "3x3 grid", 1), ("C4", "K5,5", 1), ("C4", "W9", 1), ("C4", "P10", 0), ("C5", "C10", 1),
    ("C5", "K10", 1), ("C5", "Petersen", 1), ("C5", "3x3 grid", 1), ("C5", "K5,5", 1), ("C5", "W9", 1),
    ("C5", "P10", 0), ("K4", "C10", 0), ("K4", "K10", 1), ("K4", "Petersen", 1), ("K4", "3x3 grid", 1),
    ("K4", "K5,5", 1), ("K4", "W9", 1), ("K4", "P10", 0), ("K1,3", "C10", 0), ("K1,3", "K10", 1),
    ("K1,3", "Petersen", 1), ("K1,3", "3x3 grid", 1), ("K1,3", "K5,5", 1), ("K1,3", "W9", 1),
    ("K1,3", "P10", 0), ("K1,3", "P10", 1),
})
# sha256 of the JSON list of (status, reason, model_to_dict), nodes_used left
# out, over the other 1,293 _model_case searches (i < 1,500) and then the other
# 129 grid cases in grid order: taken before the degree prunes, which cut only
# subtrees holding no model, so every search decided then keeps its outcome.
DECIDED_DIGEST = "42898f7b57fbcaf05d98ecdd919066c74944e32477e76badd6b6ba8c384197e4"


def test_decided_outcomes_match_the_committed_digest():
    searches = [_model_case(random.Random(i))[0] for i in range(1_500) if i not in UNDECIDED_MODEL_CASES]
    searches += [out for case, out in _grid_outcomes().items() if case not in UNDECIDED_GRID_CASES]
    assert len(searches) == 1_293 + 129
    outcomes = [[out.status, out.reason, out.model and model_to_dict(out.model)] for out in searches]
    assert "inconclusive" not in {o[0] for o in outcomes}
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == DECIDED_DIGEST


def test_grid_decides_all_but_six_searches_at_fatness_zero():
    """Every model the grid finds verifies, and of its 160 searches six stay
    inconclusive at the default budget, all at K = 0 on P10 or C10; the degree
    prunes decide 25 of the 31 that were inconclusive without them."""
    outcomes = _grid_outcomes()
    for (_, _, K), out in outcomes.items():
        assert out.model is None or verify_fat_model(out.model, K).ok
    assert {case for case, out in outcomes.items() if out.status == "inconclusive"} == {
        ("C4", "P10", 0), ("C5", "P10", 0), ("K4", "P10", 0), ("K1,3", "P10", 0), ("K4", "C10", 0), ("K1,3", "C10", 0),
    }
    newly = Counter(outcomes[case].status for case in UNDECIDED_GRID_CASES)
    assert newly == {"found": 17, "not-found": 8, "inconclusive": 6}


@settings(max_examples=200, deadline=None)
@given(pattern=labelled_hosts(max_size=4), host=labelled_hosts(max_size=7), seed=st.integers(0, 1_499))
def test_models_verified_at_positive_fatness_hold_their_pattern_degree(pattern, host, seed):
    """The degree prunes' premise, against the verifier: a model that
    verify_fat_model accepts at K ≥ 1 has |B_v| ≥ deg_P(v) for every pattern
    vertex v.  The models are a K = 0 search's witness, which the prunes do not
    restrict, re-checked at K = 1 and 2, and the mutated model of a _model_case."""
    out = search_fat_minor(pattern, host, 0, budget=2_000)
    _, mutated, K = _model_case(random.Random(seed))
    for model, K in [(out.model, 1), (out.model, 2), (mutated, K)]:
        if model is None or K == 0:
            continue
        try:
            ok = verify_fat_model(model, K).ok
        except GraphToolError:
            continue
        if ok:
            assert all(len(model.branch_sets[v]) >= model.pattern.degree(v) for v in model.pattern.vertices)


def test_negative_budget_is_bad_input():
    """A negative budget is refused, also through the probe, whatever its K
    list; budget 0 is valid."""
    for call in (lambda: search_fat_minor(cycle_graph(3), cycle_graph(4), 1, budget=-1),
                 lambda: asymptotic_probe(cycle_graph(3), cycle_graph(4), [1], budget=-1),
                 lambda: asymptotic_probe(cycle_graph(3), cycle_graph(4), [], budget=-1)):
        with pytest.raises(StructuralError) as exc:
            call()
        assert str(exc.value) == "budget must be non-negative"
    out = search_fat_minor(cycle_graph(3), cycle_graph(4), 1, budget=0)
    assert (out.status, out.reason) == ("inconclusive", "budget exhausted during exhaustive search")


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


def test_negative_fatness_is_refused():
    with pytest.raises(StructuralError) as exc:
        search_fat_minor(path_graph(2), path_graph(4), -1)
    assert str(exc.value) == "K must be non-negative"


@pytest.mark.parametrize("host", [path_graph(4), cycle_graph(12)])
def test_the_empty_pattern_is_found_without_a_search(host):
    """Also beyond the exhaustive cap, where the heuristic has no branch set to start from."""
    out = search_fat_minor(Graph.build(), host, 1)
    assert (out.status, out.reason, out.nodes_used) == ("found", "empty pattern", 0)
    assert model_to_dict(out.model) == {"branch_sets": {}, "edge_paths": {}}


@pytest.mark.parametrize("key", ["0-5", "01"])
def test_model_edge_key_must_name_two_pattern_vertices(key):
    data = {"branch_sets": {"0": [0], "1": [3]}, "edge_paths": {key: [0, 1, 2, 3]}}
    with pytest.raises(StructuralError) as exc:
        model_from_dict(path_graph(2), path_graph(4), data)
    assert str(exc.value) == f"edge key {key!r} does not name two pattern vertices"
