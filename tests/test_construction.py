"""The glued planar quotient: classification, refinement, assembly, bounds."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegraph.construction import (
    BOUNDED_TW,
    FINITE,
    PLANAR,
    ClassificationError,
    ContractViolationError,
    InstanceBundle,
    MarkerError,
    PlanarityContradictionError,
    build_H,
    bundle_from_dict,
    bundle_to_dict,
    check_classification,
    classify_torsos,
    output_to_dict,
    refine_planar_torso,
    report_to_dict,
    treewidth_at_most,
    tw_torso_attachment,
    validate_bundle,
    verify_output,
)
from coarsegraph.corpus import DEFAULT_SEED, corpus
from coarsegraph.generators import cayley_ball, complete_graph, cycle_graph, grid_graph, path_graph
from coarsegraph.graph import Graph, is_connected, sort_vertices, union
from coarsegraph.treedecomp import TreeDecomposition, exact_treewidth, heuristic_td

from dataclasses import replace
from fractions import Fraction

import oracles
from coarsegraph import construction


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def clique_edges(vs) -> list:
    vs = sorted(vs, key=repr)
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def single_node_td(vertices, node="t") -> TreeDecomposition:
    return TreeDecomposition(Graph.build((), [node]), {node: frozenset(vertices)})


def two_k4_bundle() -> InstanceBundle:
    """Two 4-cliques glued along an edge, decomposed into their parts."""
    host = Graph.build(clique_edges([0, 1, 2, 3]) + clique_edges([2, 3, 4, 5]))
    td = TreeDecomposition(
        Graph.build([("a", "b")]),
        {"a": frozenset({0, 1, 2, 3}), "b": frozenset({2, 3, 4, 5})},
    )
    return InstanceBundle(host, td, k=2)


def grid_pocket_bundle(markers=frozenset()) -> InstanceBundle:
    """3x4 grid plus a pocket vertex p and a clique vertex q, both attached to
    the full first column; p sits behind the separator and is prunable."""
    grid = grid_graph(3, 4)
    col = ["0,0", "1,0", "2,0"]
    host = Graph.build(
        list(grid.edges) + [("p", v) for v in col] + [("q", v) for v in col]
    )
    part_g = frozenset(grid.vertices) | {"p"}
    part_k = frozenset(col) | {"q"}
    td = TreeDecomposition(
        Graph.build([("g", "k")]), {"g": part_g, "k": part_k}
    )
    torso_g = sorted(part_g, key=repr)
    return InstanceBundle(
        host,
        td,
        k=2,
        infinite_markers=frozenset(markers),
        sub_tds={"g": single_node_td(torso_g, node="s0")},
    )


def grid_k4_bundle() -> InstanceBundle:
    """3x3 grid with an apex q over the top-left face triple."""
    grid = grid_graph(3, 3)
    S = ["0,0", "0,1", "1,0"]
    host = Graph.build(list(grid.edges) + [("q", v) for v in S])
    td = TreeDecomposition(
        Graph.build([("g", "k")]),
        {"g": frozenset(grid.vertices), "k": frozenset(S) | {"q"}},
    )
    return InstanceBundle(
        host, td, k=2, sub_tds={"g": single_node_td(sorted(grid.vertices), node="s0")}
    )


# ---------------------------------------------------------------------------
# torso classification
# ---------------------------------------------------------------------------


def test_classification_precedence():
    b = two_k4_bundle()
    assert classify_torsos(b.host, b.td, b.k) == {"a": FINITE, "b": FINITE}
    cyc = InstanceBundle(cycle_graph(12), single_node_td(range(12)), k=2)
    assert classify_torsos(cyc.host, cyc.td, cyc.k) == {"t": BOUNDED_TW}
    gk = grid_k4_bundle()
    assert classify_torsos(gk.host, gk.td, gk.k) == {"g": PLANAR, "k": FINITE}


def test_unclassifiable_torso_is_an_error():
    k9 = InstanceBundle(complete_graph(9), single_node_td(range(9)), k=2)
    with pytest.raises(ClassificationError):
        classify_torsos(k9.host, k9.td, k9.k)


def test_supplied_classification_is_checked_for_feasibility():
    b = two_k4_bundle()
    check_classification(b.host, b.td, b.k, {"a": FINITE, "b": FINITE})
    # A feasible non-default label is allowed ...
    g = InstanceBundle(grid_graph(3, 3), single_node_td(sorted(grid_graph(3, 3).vertices)), k=2)
    check_classification(g.host, g.td, g.k, {"t": PLANAR})
    # ... but infeasible ones and malformed label maps are not.
    with pytest.raises(ClassificationError):
        check_classification(g.host, g.td, g.k, {"t": FINITE})
    with pytest.raises(ClassificationError):
        check_classification(g.host, g.td, g.k, {"t": BOUNDED_TW})
    from coarsegraph.errors import StructuralError
    with pytest.raises(StructuralError):
        check_classification(b.host, b.td, b.k, {"a": FINITE})
    with pytest.raises(StructuralError):
        check_classification(b.host, b.td, b.k, {"a": "huge", "b": FINITE})


def test_treewidth_certificates_beyond_the_exact_cap():
    assert treewidth_at_most(path_graph(30), 1)
    assert not treewidth_at_most(path_graph(30), 0)
    assert not treewidth_at_most(cycle_graph(30), 1)
    assert treewidth_at_most(cycle_graph(30), 2)
    assert not treewidth_at_most(grid_graph(4, 8), 2)
    assert treewidth_at_most(grid_graph(3, 10), 3)
    assert treewidth_at_most(Graph.build((), range(20)), 0)
    with pytest.raises(ContractViolationError):
        # Heuristic elimination cannot certify 4x10 grids at width 3, and
        # refuting is beyond the exact solver's size cap.
        treewidth_at_most(grid_graph(4, 10), 3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 7), st.sampled_from([0.2, 0.4, 0.6, 0.8]), st.integers(0, 10_000))
def test_treewidth_at_most_matches_the_elimination_oracle(n, p, seed):
    vs, es = oracles.random_graph(random.Random(seed), n, p)
    tw = oracles.treewidth_elimination(oracles.adjacency(es, vs))
    g = Graph.build(es, vertices=vs)
    for k in range(-1, 4):
        assert treewidth_at_most(g, k) == (tw <= k), (k, tw, es)


def test_linear_route_agrees_with_exact_treewidth_on_larger_graphs():
    rng = random.Random(47)
    for _ in range(60):
        vs, es = oracles.random_graph(rng, rng.randint(8, 12), rng.choice([0.15, 0.25, 0.35]))
        g = Graph.build(es, vertices=vs)
        tw = exact_treewidth(g)
        for k in range(3):
            assert treewidth_at_most(g, k) == (tw <= k), (k, tw, es)


def test_k_up_to_two_never_calls_the_exact_solver(monkeypatch):
    calls = []
    real = construction.exact_treewidth
    monkeypatch.setattr(construction, "exact_treewidth", lambda g, cap: calls.append(g) or real(g, cap))
    for g in (complete_graph(4), cycle_graph(9), grid_graph(3, 4), path_graph(12), Graph.build((), range(5))):
        for k in range(3):
            treewidth_at_most(g, k)
    assert calls == []
    assert treewidth_at_most(grid_graph(3, 4), 3)
    assert len(calls) == 1


def test_build_h_makes_each_outer_torso_once(monkeypatch):
    calls = []
    real = construction.torso
    monkeypatch.setattr(construction, "torso", lambda host, td, t: calls.append((td, t)) or real(host, td, t))
    for inst in corpus(DEFAULT_SEED):
        calls.clear()
        build_H(inst.bundle)
        outer = [t for td, t in calls if td is inst.bundle.td]
        assert sorted(outer, key=repr) == sorted(inst.bundle.td.parts, key=repr), inst.name


# ---------------------------------------------------------------------------
# bundle validation
# ---------------------------------------------------------------------------


def test_bundle_validation_errors():
    from coarsegraph.errors import UnknownVertexError

    host = path_graph(6)
    wide = TreeDecomposition(
        Graph.build([("a", "b")]),
        {"a": frozenset({0, 1, 2, 3, 4}), "b": frozenset({1, 2, 3, 4, 5})},
    )
    with pytest.raises(ContractViolationError):
        validate_bundle(InstanceBundle(host, wide, k=2))
    ok_td = single_node_td(range(6))
    with pytest.raises(ContractViolationError):
        validate_bundle(InstanceBundle(host, ok_td, k=-1))
    with pytest.raises(UnknownVertexError):
        validate_bundle(InstanceBundle(host, ok_td, k=2, infinite_markers=frozenset({"ghost"})))


# ---------------------------------------------------------------------------
# assembly: exact small outputs
# ---------------------------------------------------------------------------


def test_two_cliques_collapse_to_a_three_vertex_path():
    b = two_k4_bundle()
    out = build_H(b)
    xs = ("xS", 2, 3)
    assert set(out.H.vertices) == {xs, ("xt", "a"), ("xt", "b")}
    assert set(out.H.edges) == {
        tuple(sorted([xs, ("xt", "a")], key=repr)),
        tuple(sorted([xs, ("xt", "b")], key=repr)),
    }
    assert out.phi[2] == xs and out.phi[3] == xs
    assert out.phi[0] == ("xt", "a") and out.phi[5] == ("xt", "b")
    assert (out.bounds.b1, out.bounds.b) == (4, 4)
    assert out.bounds.b5 == 0
    rep = verify_output(b, out)
    assert rep.passed and rep.qi_valid
    assert rep.c == Fraction(1)


def test_single_cycle_produces_a_tree():
    b = InstanceBundle(cycle_graph(12), single_node_td(range(12)), k=2)
    out = build_H(b)
    assert all(v[0] == "tw" for v in out.H.vertices)
    assert is_connected(out.H)
    assert len(out.H.edges) == len(out.H.vertices) - 1
    assert out.bounds.b2 == 2
    assert out.bounds.b3 == 6
    rep = verify_output(b, out)
    assert rep.passed and rep.qi_valid
    assert rep.c <= out.bounds.b3 * out.bounds.b4


def test_grid_with_apex_keeps_the_grid_copy_and_hangs_the_clique():
    b = grid_k4_bundle()
    out = build_H(b)
    xs = ("xS", "0,0", "0,1", "1,0")
    assert xs in out.H.vertices
    kinds = {}
    for v, rec in out.provenance.items():
        kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
    assert kinds == {"adhesion-set": 1, "finite-torso": 1, "planar-copy": 9}
    assert len(out.H.vertices) == 11
    # 12 grid edges + 1 completion edge inside the torso copy + 3 hub
    # attachments + 1 hub-to-clique edge.
    assert len(out.H.edges) == 17
    assert out.phi["q"] == ("xt", "k")
    # A separator vertex that survives in a planar copy maps to the copy, not
    # to its hub; the hub sits one edge away.
    assert out.phi["0,0"] == ("pl", "g", "s0", "0,0")
    assert out.H.adjacent(out.phi["0,0"], xs)
    assert out.bounds.b1 == 4 and out.bounds.b5 == 1
    rep = verify_output(b, out)
    assert rep.passed and rep.qi_valid and rep.c_within_bound


def test_pocket_is_pruned_toward_the_markers():
    b = grid_pocket_bundle(markers={"0,3", "1,3", "2,3"})
    out = build_H(b)
    xs = ("xS", "0,0", "1,0", "2,0")
    copies = [v for v, rec in out.provenance.items() if rec["kind"] == "planar-copy"]
    assert len(copies) == 12
    assert not any(v[-1] == "p" for v in copies)
    assert out.phi["p"] == xs
    assert out.bounds.b5 == 2
    assert out.warnings == ()
    rep = verify_output(b, out)
    assert rep.passed and rep.qi_valid


def test_pocket_without_markers_keeps_the_larger_side_with_a_warning():
    b = grid_pocket_bundle()
    out = build_H(b)
    copies = [v for v, rec in out.provenance.items() if rec["kind"] == "planar-copy"]
    assert len(copies) == 12
    assert not any(v[-1] == "p" for v in copies)
    assert out.warnings
    assert verify_output(b, out).passed


def test_marker_ambiguity_is_an_error():
    with pytest.raises(MarkerError):
        build_H(grid_pocket_bundle(markers={"p", "2,3"}))
    with pytest.raises(MarkerError):
        build_H(grid_pocket_bundle(markers={"1,0"}))


def _two_sided_torso(y_attachments) -> Graph:
    """x sees all of S = {s1, s2, s3}; y sees ``y_attachments``."""
    return Graph.build([("x", v) for v in ("s1", "s2", "s3")] + [("y", v) for v in y_attachments])


TWO_PART_SUB = TreeDecomposition(
    Graph.build([(0, 1)]), {0: frozenset({"x", "s1", "s2", "s3"}), 1: frozenset({"y", "s1", "s2", "s3"})}
)


def test_refinement_keeps_only_tight_size_three_outer_edges():
    S = frozenset({"s1", "s2", "s3"})
    tight = refine_planar_torso(_two_sided_torso(S), TWO_PART_SUB, [S])
    assert sorted(tight.contracted.tree.vertices) == [0, 1]
    # Not an outer set: contracted though tight.
    assert sorted(refine_planar_torso(_two_sided_torso(S), TWO_PART_SUB, []).contracted.tree.vertices) == [0]
    # y misses s3, so the edge's separation is not tight: contracted though S is outer.
    g = _two_sided_torso(["s1", "s2"])
    loose = refine_planar_torso(g, TWO_PART_SUB, [S])
    assert loose.contracted.parts == {0: g.vertices}
    assert loose.kept == {0: g} and loose.deletions == ()


def test_supplied_sub_decomposition_must_be_tight_on_every_edge():
    # Adhesion {0, 6, 7}: the arcs 1..5 and 8..11 each miss one of its vertices.
    sub = TreeDecomposition(Graph.build([("a", "b")]), {"a": frozenset(range(8)), "b": frozenset({0, 6, 7, 8, 9, 10, 11})})
    b = InstanceBundle(cycle_graph(12), single_node_td(range(12)), k=2, sub_tds={"t": sub})
    with pytest.raises(ContractViolationError, match="non-tight"):
        build_H(b)


def test_supplied_bounded_treewidth_sub_decomposition_is_checked_tight_once(monkeypatch):
    """A supplied sub-decomposition, once checked tight on every edge, is its
    own contraction: build_H keeps it as it is without checking again."""
    calls = []
    real = construction.is_tight
    monkeypatch.setattr(construction, "is_tight", lambda g, sep: calls.append(sep) or real(g, sep))
    sub = TreeDecomposition(Graph.build([("a", "b")]), {"a": frozenset(range(7)), "b": frozenset({0, 6, 7, 8, 9, 10, 11})})
    b = InstanceBundle(cycle_graph(12), single_node_td(range(12)), k=2,
                       classification={"t": BOUNDED_TW}, sub_tds={"t": sub})
    out = build_H(b)
    assert len(calls) == 1
    assert sorted(x[2] for x in out.H.vertices if x[0] == "tw") == ["a", "b"]
    assert verify_output(b, out).passed

def test_one_part_planar_grid_build_makes_no_edge_separation_call(monkeypatch):
    """A one-part torso has no outer adhesion set, so no edge of its
    sub-decomposition is a candidate to keep."""
    calls = []
    real = construction.edge_separation
    monkeypatch.setattr(construction, "edge_separation", lambda g, td, e: calls.append(e) or real(g, td, e))
    grid = grid_graph(9, 9)
    b = InstanceBundle(grid, single_node_td(grid.vertices), k=2,
                       infinite_markers=frozenset(v for v in grid.vertices if grid.degree(v) < 4))
    out = build_H(b)
    assert calls == []
    assert out.classification == {"t": PLANAR}
    assert verify_output(b, out).passed


def test_one_part_planar_grid_build_skips_the_min_degree_decomposition(monkeypatch):
    """With no size-3 outer adhesion set no sub-decomposition edge is kept, so
    the min-degree decomposition is not built and the torso is built once."""
    calls = []
    for name in ("heuristic_td", "torso"):
        real = getattr(construction, name)
        monkeypatch.setattr(construction, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    grid = grid_graph(9, 9)
    b = InstanceBundle(grid, single_node_td(grid.vertices), k=2,
                       infinite_markers=frozenset(v for v in grid.vertices if grid.degree(v) < 4))
    out = build_H(b)
    assert calls == ["torso"]
    assert sorted({x[2] for x in out.H.vertices if x[0] == "pl"}) == [0]
    assert verify_output(b, out).passed


def test_three_fully_attached_components_refute_planarity():
    """Three components all attached to the same size-3 separator form a
    K33 pattern, which a planar torso can never contain."""
    s = ["s1", "s2", "s3"]
    g = Graph.build([(x, si) for x in ("x", "y", "z") for si in s])
    sub = single_node_td(sorted(g.vertices), node=0)
    with pytest.raises(PlanarityContradictionError):
        refine_planar_torso(g, sub, {frozenset(s)})


def test_tw_attachment_is_a_tree_center():
    b = InstanceBundle(cycle_graph(12), single_node_td(range(12)), k=2)
    out = build_H(b)
    # Recover the sub-decomposition actually used from the copy provenance.
    from coarsegraph.treedecomp import heuristic_td, validate

    sub = None
    for v, rec in out.provenance.items():
        assert rec["kind"] == "tree-copy"
    # Attachment querying is exercised directly on a fresh decomposition.
    tg = cycle_graph(12)
    sub = heuristic_td(tg)
    assert validate(tg, sub).ok
    for (u, v) in list(tg.edges)[:4]:
        center = tw_torso_attachment(sub, frozenset({u, v}))
        assert center.kind in ("vertex", "edge")
    with pytest.raises(ContractViolationError):
        tw_torso_attachment(sub, frozenset({0, 6}))
    with pytest.raises(ContractViolationError):
        tw_torso_attachment(sub, frozenset())


def grid_and_hexagon_bundle() -> InstanceBundle:
    """A 4×4 grid beside a disjoint 6-cycle, in one part."""
    host = union(grid_graph(4, 4), cycle_graph(6))
    return InstanceBundle(host, single_node_td(host.vertices), k=2)


def test_disconnected_host_is_certified_per_component():
    b = grid_and_hexagon_bundle()
    out = build_H(b)
    assert not is_connected(out.H)
    rep = verify_output(b, out)
    assert rep.qi_checked and rep.qi_valid
    assert rep.c == 0
    assert rep.passed


def test_disconnected_host_fails_when_phi_tears_a_component():
    """Hexagon vertex 0 sent into the grid's component of H: its hexagon
    edges now join two components of H, and no c works."""
    b = grid_and_hexagon_bundle()
    out = build_H(b)
    torn = replace(out, phi={**out.phi, 0: out.phi["0,0"]})
    rep = verify_output(b, torn)
    assert rep.qi_checked and rep.qi_valid is False and rep.c is None
    assert not rep.passed
    assert "no finite c makes phi a γ=1 quasi-isometry on each component" in rep.failures


def hub_cut_failures_by_oracle(out) -> list:
    """Hubs of degree ≥ 2 whose removal does not add a component of H."""
    adj = oracles.adjacency(out.H.edges, out.H.vertices)
    base = len(oracles.components_without(adj, ()))
    hubs = [x for x in sort_vertices(out.provenance)
            if out.provenance[x].get("kind") == "adhesion-set" and len(adj[x]) >= 2]
    return [x for x in hubs if len(oracles.components_without(adj, {x})) <= base]


def test_cut_vertex_failures_match_the_oracle_on_the_corpus():
    for inst in corpus(DEFAULT_SEED):
        out = build_H(inst.bundle)
        rep = verify_output(inst.bundle, out)
        assert list(rep.cut_vertex_failures) == hub_cut_failures_by_oracle(out), inst.name


@pytest.mark.parametrize("host", [
    complete_graph(3), complete_graph(4), cycle_graph(5), path_graph(4), grid_graph(3, 3),
    union(complete_graph(3), path_graph(3)),
], ids=["K3", "K4", "C5", "P4", "grid3", "K3+P3"])
def test_cut_vertex_failures_match_the_oracle_on_heuristic_decompositions(host):
    b = InstanceBundle(host, heuristic_td(host), k=2)
    out = build_H(b)
    assert list(verify_output(b, out).cut_vertex_failures) == hub_cut_failures_by_oracle(out)


def test_triangle_hub_that_does_not_separate_is_reported():
    host = complete_graph(3)
    b = InstanceBundle(host, heuristic_td(host), k=2)
    data = report_to_dict(verify_output(b, build_H(b)))
    assert data["cut_vertex_failures"] == ["(xS|1|2)"]
    assert not data["passed"]


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------


def test_rebuild_is_byte_identical():
    for b in (two_k4_bundle(), grid_k4_bundle(), grid_pocket_bundle(markers={"0,3", "1,3", "2,3"})):
        out1, out2 = build_H(b), build_H(b)
        assert out1.H == out2.H and out1.phi == out2.phi
        s1 = json.dumps(output_to_dict(out1), sort_keys=True)
        s2 = json.dumps(output_to_dict(out2), sort_keys=True)
        assert s1 == s2


# sha256 of the sorted-key JSON list of {name, output, report} over corpus(seed).
# A change that moves a digest changes the corpus output and must say why.
CORPUS_DIGESTS = {
    DEFAULT_SEED: "3973b1641330290837de11d2060aca4e6e8e647e749db0428a948d8ba441ec82",
    101: "e78325e0ea0c433380eb4f94202b3958e930ca6109bdb3493f57e25c0762ca3d",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_corpus_output_matches_the_committed_digest(seed):
    docs = []
    for inst in corpus(seed):
        out = build_H(inst.bundle)
        docs.append({"name": inst.name, "output": output_to_dict(out),
                     "report": report_to_dict(verify_output(inst.bundle, out))})
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGESTS[seed]


def test_bundle_round_trip_rebuilds_the_same_quotient():
    b = grid_pocket_bundle(markers={"0,3", "1,3", "2,3"})
    data = bundle_to_dict(b)
    b2 = bundle_from_dict(json.loads(json.dumps(data)), b.host)
    assert b2.k == b.k and b2.infinite_markers == b.infinite_markers
    out1, out2 = build_H(b), build_H(b2)
    assert out1.H == out2.H and out1.phi == out2.phi


def test_report_serialization():
    b = two_k4_bundle()
    rep = verify_output(b, build_H(b))
    data = report_to_dict(rep)
    assert data["passed"] is True
    assert data["c"] == "1"
    assert data["bound"] == 4


def planar_scale_bundles():
    """One-part planar hosts with boundary markers, as the planar-scale benchmark builds them."""
    for n in (7, 10, 13):
        g = grid_graph(n, n)
        yield f"grid-{n}", InstanceBundle(g, single_node_td(g.vertices), k=2,
                                          infinite_markers=frozenset(v for v in g.vertices if g.degree(v) < 4))
    for r in (4, 7):
        ball = cayley_ball("integer-lattice-Z2", r)
        yield f"z2-{r}", InstanceBundle(ball.graph, single_node_td(ball.graph.vertices), k=2,
                                        infinite_markers=ball.markers)


# sha256 of the sorted-key JSON list of {name, output, report} over planar_scale_bundles().
PLANAR_SCALE_DIGEST = "619fad89a1ccc0615845fec2451aa888b4f68d164fecf5e6ab3ec222fbb32ff5"


def test_planar_scale_output_matches_the_committed_digest():
    docs = []
    for name, b in planar_scale_bundles():
        out = build_H(b)
        docs.append({"name": name, "output": output_to_dict(out), "report": report_to_dict(verify_output(b, out))})
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PLANAR_SCALE_DIGEST


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0.2, 0.4, 0.7]), st.integers(1, 5), st.integers(0, 10_000))
def test_bounds_read_the_sub_decomposition_parts_by_definition(n, p, k, seed):
    """b3 is the largest torso distance between two vertices of one part of the
    sub-decomposition and b4 the most parts holding one vertex, both read off
    all-pairs BFS; a part split in its torso raises the StructuralError."""
    from coarsegraph.errors import StructuralError

    rng = random.Random(seed)
    vs, es = oracles.random_graph(rng, n, p)
    torso = Graph.build(es, vertices=vs)
    parts = {s: frozenset(v for v in vs if rng.random() < 0.4) | {rng.choice(vs)} for s in range(k)}
    sub = TreeDecomposition(Graph.build([(s, s + 1) for s in range(k - 1)], vertices=range(k)), parts)
    td = TreeDecomposition(Graph.build((), ["t"]), {"t": torso.vertices})
    args = (td, {"t": BOUNDED_TW}, {"t": torso}, {"t": sub}, {})
    dist = {v: oracles.bfs_distances(oracles.adjacency(es, vs), v) for v in vs}
    if any(w not in dist[v] for part in parts.values() for v in part for w in part):
        with pytest.raises(StructuralError) as exc:
            construction._compute_bounds(*args)
        assert str(exc.value) == "part of the sub-decomposition at 't' is not connected within its torso"
        return
    bounds = construction._compute_bounds(*args)
    assert bounds.b3 == max(dist[v][w] for part in parts.values() for v in part for w in part)
    assert bounds.b4 == max(sum(v in part for part in parts.values()) for v in vs)
