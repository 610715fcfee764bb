"""The glued planar quotient: classification, refinement, assembly, bounds."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from enum import IntEnum
from itertools import combinations

import pytest
from hypothesis import example, given, settings
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
from coarsegraph.corpus import DEFAULT_SEED, corpus, relabel_bundle
from coarsegraph.errors import GraphToolError
from coarsegraph.generators import cayley_ball, complete_graph, cycle_graph, grid_graph, path_graph
from coarsegraph.graph import (
    MAX_VERTEX_DEPTH,
    Graph,
    format_edge_list,
    is_connected,
    parse_edge_list,
    relabel,
    set_key,
    sort_vertices,
    union,
    vertex_key,
)
from coarsegraph.treedecomp import (
    DEFAULT_TREEWIDTH_CAP,
    TreeDecomposition,
    adhesion_sets,
    exact_treewidth,
    heuristic_td,
    td_to_dict,
    torso,
)

from types import SimpleNamespace
from typing import NamedTuple
from fractions import Fraction

import helpers
import oracles
from coarsegraph import construction, graph, planarity, separations, treedecomp
from helpers import _randomly_contracted, nested, random_bundle, supplied_bundle
from test_uniformity import _grid_path


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


def grid_pocket_bundle(markers=frozenset(), pocket=("p",)) -> InstanceBundle:
    """3x4 grid plus a pocket and a clique vertex q, both attached to the full
    first column; the pocket sits behind the separator and is prunable.  It is
    a path, each of whose vertices sees 1,0, its first also 0,0 and its last
    2,0: one component, with the column as its neighbourhood."""
    grid = grid_graph(3, 4)
    col = ["0,0", "1,0", "2,0"]
    host = Graph.build(
        list(grid.edges) + [(p, "1,0") for p in pocket] + [(pocket[0], "0,0"), (pocket[-1], "2,0")]
        + list(zip(pocket, pocket[1:])) + [("q", v) for v in col]
    )
    part_g = frozenset(grid.vertices) | set(pocket)
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
    from coarsegraph.errors import StructuralError, UnknownVertexError
    with pytest.raises(StructuralError):
        check_classification(b.host, b.td, b.k, {"a": FINITE})
    # A part that is no host subset, labelled finite above the threshold, is refused by the torso
    # build that checks its vertices, before the label (build_H refuses such a part before either).
    outside = TreeDecomposition(g.td.tree, {"t": g.td.parts["t"] | {"z"}})
    with pytest.raises(UnknownVertexError, match=r"'z'"):
        check_classification(g.host, outside, g.k, {"t": FINITE})
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
    calls = helpers.calls(monkeypatch, "treedecomp.exact_treewidth")
    for g in (complete_graph(4), cycle_graph(9), grid_graph(3, 4), path_graph(12), Graph.build((), range(5))):
        for k in range(3):
            treewidth_at_most(g, k)
    assert calls == []
    assert treewidth_at_most(grid_graph(3, 4), 3)
    assert len(calls) == 1


_TREEWIDTHS = [  # a fresh graph from each maker, and its treewidth
    (lambda: Graph.build((), range(3)), 0),
    (lambda: path_graph(5), 1),
    (lambda: cycle_graph(6), 2),
    (lambda: complete_graph(3), 2),
    (lambda: complete_graph(4), 3),
    (lambda: grid_graph(3, 4), 3),
    (lambda: grid_graph(4, 4), 4),
]


@pytest.mark.parametrize("make, tw", _TREEWIDTHS)
def test_treewidth_at_most_answers_alike_whichever_call_fills_the_elimination(make, tw):
    """treewidth_at_most gives each k the answer a fresh graph gets, whether
    heuristic_td filled the kept elimination first or not: on K4, the 3×4 and
    the 4×4 grid the full elimination must still refuse k ≤ 2.  A run stopped
    at k keeps nothing and a completed one is kept, so heuristic_td after it,
    reading the kept run or not, is the one on a fresh graph."""
    for k in (0, 1, 2):
        fresh, warm, stopped = make(), make(), make()
        td = heuristic_td(warm)
        assert treewidth_at_most(warm, k) == treewidth_at_most(fresh, k) == (tw <= k), k
        treewidth_at_most(stopped, k)
        assert td_to_dict(heuristic_td(stopped)) == td_to_dict(td), k
    if len(make().vertices) <= DEFAULT_TREEWIDTH_CAP:
        fresh, warm = make(), make()
        heuristic_td(warm)
        assert treewidth_at_most(warm, 3) == treewidth_at_most(fresh, 3) == (tw <= 3)


def test_build_h_makes_each_outer_torso_once(monkeypatch):
    """Each torso the classification reads, that of every part that is not
    finite, is built exactly once; a finite part's torso is never built."""
    calls = helpers.calls(monkeypatch, "treedecomp.torso")
    finite = 0
    for inst in corpus(DEFAULT_SEED):
        calls.clear()
        out = build_H(inst.bundle)
        outer = [t for _, td, t in calls if td is inst.bundle.td]
        wanted = [t for t, kind in out.evidence.classification.items() if kind != FINITE]
        assert sorted(outer, key=repr) == sorted(wanted, key=repr), inst.name
        finite += len(inst.bundle.td.parts) - len(wanted)
    assert finite > 0


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


def test_a_marker_or_sub_decomposition_node_equal_to_one_of_other_types_is_refused():
    """A marker must be the host's own vertex and a sub_tds key the tree's own
    node (``Graph.own_id``), not an equal value of other types.  pocket-3x4-marked
    renamed to ints, with its markers 3, 7 and 11 written as floats, as an IntEnum
    member or as True, is refused as an unknown marker (``UnknownVertexError``);
    one the key order cannot rank is named by the least repr.  A one-part
    cycle-12 bundle whose sub-decomposition is keyed 1.0 for the tree node 1 is
    refused as one of an unknown node is, where the int key builds and passes.
    A classification of clique-tree-00 keyed 0.0, 1.0 and 2.0, or True for the
    node 1, labels no tree node and is refused, where its int keys build."""
    from coarsegraph.errors import StructuralError, UnknownVertexError

    class Marker(IntEnum):
        SEVEN = 7

    inst = next(i for i in corpus(DEFAULT_SEED) if i.name == "pocket-3x4-marked")
    b = relabel_bundle(inst.bundle, {v: i for i, v in enumerate(inst.bundle.host.order)},
                       {t: t for t in inst.bundle.td.tree.order})
    assert sorted(b.infinite_markers) == [3, 7, 11] and verify_output(b, build_H(b)).passed
    for markers, text in (({3.0, 7.0, 11.0}, "11.0"), ({3, Marker.SEVEN, 11}, "<Marker.SEVEN: 7>"), ({True, 7, 11}, "True")):
        with pytest.raises(UnknownVertexError) as exc:
            build_H(b._replace(infinite_markers=frozenset(markers)))
        assert exc.value.args == (text,)
    cycle = cycle_graph(12)
    sub = single_node_td(cycle.vertices, node="s")
    ok = InstanceBundle(cycle, single_node_td(cycle.vertices, node=1), k=2, sub_tds={1: sub})
    assert verify_output(ok, build_H(ok)).passed
    with pytest.raises(StructuralError, match=r"^no such tree node: 1\.0$"):
        build_H(ok._replace(sub_tds={1.0: sub}))
    inst = next(i for i in corpus(DEFAULT_SEED) if i.name == "clique-tree-00")
    labels = build_H(inst.bundle).evidence.classification
    assert sorted(labels) == [0, 1, 2] and verify_output(inst.bundle, build_H(inst.bundle._replace(classification=labels))).passed
    for rename in ({0: 0.0, 1: 1.0, 2: 2.0}, {0: 0, 1: True, 2: 2}):
        with pytest.raises(StructuralError, match=r"^classification must label exactly the tree nodes$"):
            build_H(inst.bundle._replace(classification={rename[t]: kind for t, kind in labels.items()}))


@pytest.mark.parametrize("k, finite_threshold, name", [
    (True, 8, "k"), (False, 8, "k"), (2, True, "finite_threshold"), (2.5, 8, "k"), (2.0, 8, "k"), ("2", 8, "k"),
    (None, 8, "k"), (2, "8", "finite_threshold"), (2, None, "finite_threshold"), (2, 8.5, "finite_threshold")])
def test_a_boolean_count_is_refused(k, finite_threshold, name):
    """k and the finite threshold are counts: a bool, though an int, is
    refused as the JSON reader refuses true, not built as 1 or 0; a value
    that is no int (a float, even 2.0, a string or None) is refused by its
    repr, not left to fail later with an untyped error or to build."""
    grid = grid_graph(3, 3)
    b = InstanceBundle(grid, single_node_td(grid.vertices), k, finite_threshold=finite_threshold)
    count = k if name == "k" else finite_threshold
    with pytest.raises(ContractViolationError) as exc:
        build_H(b)
    assert str(exc.value) == f"{name} must be an integer, not {'a boolean' if isinstance(count, bool) else repr(count)}"


def test_error_texts_name_the_key_least_offender_under_every_hash_seed():
    """Unknown markers, and a map that misses vertices, name the key-least
    offender, not the first met in a set whose order moves with PYTHONHASHSEED.
    Markers that are no vertex type (3.0, 7.0 and 11.0 beside the vertices 3,
    7 and 11; 3.0 and 11.0 share a slot of the set, so its order follows the
    order they are added in) are unknown too, and the least by repr is named."""
    script = (
        "from coarsegraph.construction import InstanceBundle, validate_bundle\n"
        "from coarsegraph.graph import Graph\n"
        "from coarsegraph.qi import tightest_constants\n"
        "from coarsegraph.treedecomp import TreeDecomposition\n"
        "host = Graph.build([('a', 'b'), ('b', 'c'), ('c', 'd')])\n"
        "td = TreeDecomposition(Graph.build((), ['t']), {'t': host.vertices})\n"
        "ints = Graph.build([(i, i + 1) for i in range(11)])\n"
        "floats = frozenset(float(x) for x in {'3', '7', '11'})\n"
        "ints_td = TreeDecomposition(Graph.build((), ['t']), {'t': ints.vertices})\n"
        "for check in (lambda: validate_bundle(InstanceBundle(host, td, 2, infinite_markers=frozenset('xyzw'))),\n"
        "              lambda: validate_bundle(InstanceBundle(ints, ints_td, 2, infinite_markers=floats)),\n"
        "              lambda: tightest_constants(host, host, {'a': 'a', 'd': 'd'})):\n"
        "    try:\n"
        "        check()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, *exc.args)\n"
    )
    src = os.path.dirname(os.path.dirname(construction.__file__))
    for seed in ("1", "2", "3"):
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert out.returncode == 0, out.stderr
        assert out.stdout == ("UnknownVertexError 'w'\nUnknownVertexError 11.0\n"
                              "StructuralError phi is not total: missing 'b'\n"), seed


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
    kinds = Counter(rec["kind"] for rec in output_to_dict(out)["provenance"].values())
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
    """A pocket of one vertex and one of two are each pruned whole, in one
    deletion; b5 is 1 + the pocket's size and every pocket vertex maps to the
    column's hub.  No vertex has a second pruning site that φ could read: a
    vertex held by two contracted parts lies in a kept adhesion set, an outer
    set, so it maps to a surviving copy or to that set's hub."""
    xs = ("xS", "0,0", "1,0", "2,0")
    for pocket in (("p",), ("p1", "p2")):
        b = grid_pocket_bundle(markers={"0,3", "1,3", "2,3"}, pocket=pocket)
        out = build_H(b)
        copies = [x for x in out.H.vertices if x[0] == "pl"]
        assert len(copies) == 12
        assert not any(v[-1] in pocket for v in copies)
        assert out.evidence.refinements["g"].deletions == (("s0", frozenset(xs[1:]), frozenset(pocket)),)
        assert all(out.phi[v] == xs for v in pocket)
        assert out.bounds.b5 == 1 + len(pocket)
        assert out.warnings == ()
        rep = verify_output(b, out)
        assert rep.passed and rep.qi_valid and rep.c_within_bound


def test_pocket_without_markers_keeps_the_larger_side_with_a_warning():
    b = grid_pocket_bundle()
    out = build_H(b)
    copies = [x for x in out.H.vertices if x[0] == "pl"]
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
    # y misses s3, so the edge's separation is not tight: a supplied tree is
    # refused, and the min-degree tree, whose adhesion sets are not S, is contracted.
    g = _two_sided_torso(["s1", "s2"])
    with pytest.raises(ContractViolationError, match="non-tight"):
        refine_planar_torso(g, TWO_PART_SUB, [S])
    loose = refine_planar_torso(g, None, [S])
    assert loose.contracted.parts == {0: g.vertices}
    assert loose.kept == {0: g} and loose.deletions == ()


def test_refinement_skips_an_outer_set_outside_the_part():
    """{x, s1, s2} lies in part 0 but not in part 1, so part 1 does not prune at
    it: no fully attached component is sought there, and nothing warns."""
    S = frozenset({"s1", "s2", "s3"})
    ref = refine_planar_torso(_two_sided_torso(S), TWO_PART_SUB, [S, {"x", "s1", "s2"}])
    assert sorted(ref.contracted.tree.vertices) == [0, 1]
    assert ref.warnings == () and ref.deletions == ()


def test_supplied_planar_sub_decomposition_of_adhesion_four_is_refused():
    """K2,4 split at its four-vertex side: tight, but a planar torso's
    sub-decomposition may have adhesion at most 3."""
    S = ("s1", "s2", "s3", "s4")
    host = Graph.build([(w, s) for w in "xy" for s in S])
    sub = TreeDecomposition(Graph.build([(0, 1)]), {0: frozenset({"x", *S}), 1: frozenset({"y", *S})})
    b = InstanceBundle(host, single_node_td(host.vertices), k=2, classification={"t": PLANAR}, sub_tds={"t": sub})
    with pytest.raises(ContractViolationError, match="^sub-decomposition adhesion 4 exceeds 3$"):
        build_H(b)


def test_supplied_sub_decomposition_must_be_tight_on_every_edge():
    # Adhesion {0, 6, 7}: the arcs 1..5 and 8..11 each miss one of its vertices.
    sub = TreeDecomposition(Graph.build([("a", "b")]), {"a": frozenset(range(8)), "b": frozenset({0, 6, 7, 8, 9, 10, 11})})
    b = InstanceBundle(cycle_graph(12), single_node_td(range(12)), k=2, sub_tds={"t": sub})
    with pytest.raises(ContractViolationError, match="non-tight"):
        build_H(b)


def test_supplied_bounded_treewidth_sub_decomposition_is_checked_tight_once(monkeypatch):
    """A supplied sub-decomposition, once checked tight on every edge, is its
    own contraction: build_H keeps it as it is without checking again."""
    calls = helpers.calls(monkeypatch, "separations._tight_on_masks")
    sub = TreeDecomposition(Graph.build([("a", "b")]), {"a": frozenset(range(7)), "b": frozenset({0, 6, 7, 8, 9, 10, 11})})
    b = InstanceBundle(cycle_graph(12), single_node_td(range(12)), k=2,
                       classification={"t": BOUNDED_TW}, sub_tds={"t": sub})
    out = build_H(b)
    assert len(calls) == 1
    assert sorted(x[2] for x in out.H.vertices if x[0] == "tw") == ["a", "b"]
    assert verify_output(b, out).passed


def test_supplied_planar_sub_decomposition_is_checked_tight_once(monkeypatch):
    """A supplied planar sub-decomposition is checked tight on every edge
    before the refinement, whose keep rule then reads only adhesion sets: one
    tightness test for the one edge of TWO_PART_SUB, not two."""
    calls = helpers.calls(monkeypatch, "separations._tight_on_masks")
    S = ("s1", "s2", "s3")
    host = Graph.build([(w, s) for w in "xyz" for s in S])
    td = TreeDecomposition(Graph.build([("t", "u")]), {"t": frozenset({"x", "y", *S}), "u": frozenset({"z", *S})})
    b = InstanceBundle(host, td, k=2, finite_threshold=4, sub_tds={"t": TWO_PART_SUB})
    out = build_H(b)
    assert len(calls) == 1
    assert out.evidence.classification == {"t": PLANAR, "u": FINITE}
    assert sorted(x[2] for x in out.H.vertices if x[0] == "pl") == [0] * 4 + [1] * 4
    assert verify_output(b, out).passed


def test_verify_output_orients_each_h_once(monkeypatch):
    """The planarity test and the hub cut check read one orientation of H,
    kept on it: at most one dfs_orientation call per corpus H."""
    outs = [(inst.bundle, build_H(inst.bundle)) for inst in corpus(DEFAULT_SEED)]
    calls = helpers.calls(monkeypatch, "graph.dfs_orientation")
    for b, out in outs:
        verify_output(b, out)
    assert len(outs) == 66 and len(calls) <= 66


def test_bounded_treewidth_sub_decompositions_are_checked_before_planar_ones():
    """Both supplied sub-decompositions miss a vertex; the bounded-treewidth
    torso at b is reported, though the planar torso at a is key-earlier."""
    td = TreeDecomposition(Graph.build([("a", "b")]), {"a": frozenset({0, 1, 2}), "b": frozenset({2, 3})})
    b = InstanceBundle(Graph.build([(0, 1), (1, 2), (2, 3)]), td, k=1,
                       classification={"a": PLANAR, "b": BOUNDED_TW},
                       sub_tds={"a": single_node_td({0, 1}), "b": single_node_td({2})})
    with pytest.raises(ContractViolationError) as exc:
        build_H(b)
    assert str(exc.value) == "sub-decomposition invalid: (T1) graph vertex 3 lies in no part"


def test_one_part_planar_grid_build_makes_no_edge_separation_call(monkeypatch):
    """A one-part torso has no outer adhesion set, so no edge of its
    sub-decomposition is a candidate to keep, and none is tested for tightness."""
    calls = helpers.calls(monkeypatch, "separations._tight_on_masks")
    grid = grid_graph(9, 9)
    b = InstanceBundle(grid, single_node_td(grid.vertices), k=2,
                       infinite_markers=frozenset(v for v in grid.vertices if grid.degree(v) < 4))
    out = build_H(b)
    assert calls == []
    assert out.evidence.classification == {"t": PLANAR}
    assert verify_output(b, out).passed
    S = frozenset({"s1", "s2", "s3"})
    refine_planar_torso(_two_sided_torso(S), TWO_PART_SUB, [S])
    assert len(calls) == 1  # the counter sees a supplied edge's test


def test_one_part_planar_grid_build_skips_the_min_degree_decomposition(monkeypatch):
    """With no size-3 outer adhesion set no sub-decomposition edge is kept, so
    the min-degree decomposition is not built; the one part holds the whole
    host with no adhesion set, so every torso taken is the host itself and no
    torso graph is built."""
    torsos = []
    real_torso = construction.torso
    trees = helpers.calls(monkeypatch, "treedecomp._elimination_tree")
    induced = helpers.calls(monkeypatch, "graph._induced")
    monkeypatch.setattr(construction, "torso", lambda *a: torsos.append(real_torso(*a)) or torsos[-1])
    grid = grid_graph(9, 9)
    b = InstanceBundle(grid, single_node_td(grid.vertices), k=2,
                       infinite_markers=frozenset(v for v in grid.vertices if grid.degree(v) < 4))
    out = build_H(b)
    assert trees == induced == []
    assert torsos and all(t is grid for t in torsos)
    assert sorted({x[2] for x in out.H.vertices if x[0] == "pl"}) == [0]
    assert verify_output(b, out).passed
    treedecomp._sub_decomposition(grid, None)
    assert (len(trees), induced) == (1, [])  # the counter sees the tree where it is read


def test_a_planar_part_holding_the_whole_host_beside_another_part_is_glued_not_renamed():
    """The torso of a part holding every host vertex, with a one-vertex
    adhesion set, is the host itself, kept whole by the refinement; H is still
    that copy glued to the hub of the adhesion set and to the finite point."""
    grid = grid_graph(4, 4)
    td = TreeDecomposition(Graph.build([("a", "b")]), {"a": grid.vertices, "b": frozenset({"0,0"})})
    out = build_H(InstanceBundle(grid, td, k=2))
    assert out.evidence.classification == {"a": PLANAR, "b": FINITE}
    assert out.evidence.refinements["a"].kept[0] is grid
    assert len(out.H.vertices) == 18
    assert sorted(e for e in out.H.edges if any(x[0] != "pl" for x in e)) == [
        (("pl", "a", 0, "0,0"), ("xS", "0,0")), (("xS", "0,0"), ("xt", "b"))]
    assert out.phi["0,0"] == ("pl", "a", 0, "0,0")


@pytest.mark.parametrize("name", ["bridge-4", "clique-tree-00", "grid-4x4"])
def test_a_forged_phi_image_never_passes_verify_output(name):
    """build_H checks no image of φ; verify_output refuses one that is None or
    not a vertex of H, on multi-part hosts and on a one-part planar host."""
    from coarsegraph.errors import UnknownVertexError

    inst = next(i for i in corpus(DEFAULT_SEED) if i.name == name)
    out = build_H(inst.bundle)
    v = inst.bundle.host.order[0]
    for image in (None, ("pl", "no-part", 0, v)):
        with pytest.raises(UnknownVertexError) as exc:
            verify_output(inst.bundle, out._replace(phi={**out.phi, v: image}))
        assert exc.value.args == (repr(image),)


def test_grid_path_build_skips_the_min_degree_decomposition(monkeypatch):
    """Each grid of a grid path has a size-3 outer set S, the face triple at a
    corner, but only one component of its torso − S is fully attached to S: the
    corner vertex sees two of S.  So no sub-decomposition edge at S can be tight,
    the min-degree decomposition is not built, and each planar part contracts to
    the one node 0 that the elimination tree, built and contracted, gives."""
    calls = helpers.calls(monkeypatch, "treedecomp._elimination_tree")
    b = _grid_path(2, 5)
    out = build_H(b)
    assert calls == []
    refinements = out.evidence.refinements
    assert sorted(refinements) == ["g0", "g1"]
    assert verify_output(b, out).passed
    for t, ref in refinements.items():
        outer = {S for S in adhesion_sets(b.td).values() if S <= b.td.parts[t] and len(S) == 3}
        assert outer and ref.contracted.parts == {0: out.evidence.torsos[t].vertices}
        assert ref.contracted == treedecomp._sub_decomposition(out.evidence.torsos[t], None, outer)
    assert len(calls) == 2


def test_the_outer_triple_filter_agrees_with_the_unfiltered_contraction():
    """Before it contracts a computed sub-decomposition, refine_planar_torso
    drops each size-3 outer set with fewer than two fully attached components
    of the torso − S, since no tight edge has it as its adhesion set.  On every
    planar part with no supplied sub-decomposition, of the evidence outputs,
    of the same bundles with their sub-decompositions left out and of the
    2 × 5×5 grid path, its refinement is the one contracted against every
    size-3 outer set, and pruned alike.  Both kinds of set occur: dropped,
    and kept with two fully attached components."""
    bundles = [b for b, _ in _evidence_outputs()]
    bundles += [b._replace(sub_tds={}) for b in bundles if b.sub_tds] + [_grid_path(2, 5)]
    full = Counter()
    for b in bundles:
        out = build_H(b)
        for t, ref in out.evidence.refinements.items():
            if t in b.sub_tds:
                continue
            tg = out.evidence.torsos[t]
            outer = sorted({S for S in adhesion_sets(b.td).values() if S and S <= b.td.parts[t]}, key=set_key)
            triples = {S for S in outer if len(S) == 3}
            full.update(len(separations.fully_attached_components(tg, S)) >= 2 for S in triples if S <= tg.vertices)
            contracted = treedecomp._sub_decomposition(tg, None, triples)
            assert construction._prune(tg, contracted, outer, b.infinite_markers) == ref
    assert full[False] and full[True]


def test_build_h_reads_the_elimination_tree_only_where_an_edge_may_be_kept(monkeypatch):
    """build_H contracts the min-degree elimination tree on masks and builds
    no label decomposition: on the one-part planar grid, with no size-3 outer
    adhesion set, it reads no elimination tree; on a bounded-treewidth torso it
    reads one, and ``heuristic_td`` still never runs."""
    trees = helpers.calls(monkeypatch, "treedecomp._elimination_tree")
    heuristic = helpers.calls(monkeypatch, "treedecomp.heuristic_td")
    grid = grid_graph(9, 9)
    b = InstanceBundle(grid, single_node_td(grid.vertices), k=2,
                       infinite_markers=frozenset(v for v in grid.vertices if grid.degree(v) < 4))
    assert verify_output(b, build_H(b)).passed and trees == heuristic == []
    b = InstanceBundle(cycle_graph(12), single_node_td(range(12)), k=2)
    out = build_H(b)
    assert out.evidence.classification == {"t": BOUNDED_TW} and (len(trees), heuristic) == (1, [])
    assert verify_output(b, out).passed


def test_a_part_holding_the_whole_host_has_the_host_as_its_torso(monkeypatch):
    """With every host vertex and no adhesion set of two or more vertices, a
    part's torso is the host itself; with a larger adhesion set it is built.
    A one-part bundle then gives the output and report that a torso built
    through ``_induced`` gives."""
    path = path_graph(4)
    for other, shared in (({3}, True), ({2, 3}, False)):
        td = TreeDecomposition(Graph.build([("a", "b")]), {"a": path.vertices, "b": other})
        assert (torso(path, td, "a") is path) == shared
        assert torso(path, td, "a") == path

    def one_part():
        grid = grid_graph(7, 7)
        return InstanceBundle(grid, single_node_td(grid.vertices), k=2,
                              infinite_markers=frozenset(v for v in grid.vertices if grid.degree(v) < 4))

    def planarize(b):
        out = build_H(b)
        return output_to_dict(out), report_to_dict(verify_output(b, out))

    b = one_part()
    assert torso(b.host, b.td, "t") is b.host
    shared = planarize(b)
    monkeypatch.setattr(construction, "torso", lambda host, td, t: graph._induced(
        host, td.part(t), [td.part(t) & td.parts[s] for s in td.tree.neighbors(t)]))
    assert planarize(one_part()) == shared
    assert shared[1]["passed"]


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
    # Every H vertex is a tree copy, as its name says.
    from coarsegraph.treedecomp import heuristic_td, validate

    assert all(x[0] == "tw" for x in out.H.vertices)
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
    torn = out._replace(phi={**out.phi, 0: out.phi["0,0"]})
    rep = verify_output(b, torn)
    assert rep.qi_checked and rep.qi_valid is False and rep.c is None
    assert not rep.passed
    assert "no finite c makes phi a γ=1 quasi-isometry on each component" in rep.failures


def hub_cut_failures_by_oracle(out) -> list:
    """Hubs of degree ≥ 2, the H vertices named ("xS", ...), whose removal does not add a component of H."""
    adj = oracles.adjacency(out.H.edges, out.H.vertices)
    base = len(oracles.components_without(adj, ()))
    hubs = [x for x in sort_vertices(out.H.vertices) if x[0] == "xS" and len(adj[x]) >= 2]
    return [x for x in hubs if len(oracles.components_without(adj, {x})) <= base]


def test_verifier_takes_its_hubs_from_the_bundle(monkeypatch):
    """verify_output reads only H, phi and bounds of the output.  Its hubs, all
    reported once no H vertex is a cut vertex, are ("xS", *S) for the distinct
    non-empty adhesion sets S of the bundle, in set_key order, where H holds
    them with degree ≥ 2: the hubs H's own names give, in key order."""
    for inst in corpus(DEFAULT_SEED):
        out = build_H(inst.bundle)
        claimed = SimpleNamespace(H=out.H, phi=out.phi, bounds=out.bounds)
        assert verify_output(inst.bundle, claimed) == verify_output(inst.bundle, out), inst.name
        adhesion = sorted({S for S in adhesion_sets(inst.bundle.td).values() if S}, key=set_key)
        hubs = [x for x in (("xS", *sort_vertices(S)) for S in adhesion) if x in out.H and out.H.degree(x) >= 2]
        assert hubs == [x for x in sort_vertices(out.H.vertices) if x[0] == "xS" and out.H.degree(x) >= 2]
        with monkeypatch.context() as m:
            m.setattr(construction, "cut_vertices", lambda g: frozenset())
            assert list(verify_output(inst.bundle, claimed).cut_vertex_failures) == hubs, inst.name


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


def tuple_named_corpus():
    """Each default-seed corpus bundle with host vertex v renamed ("v", v) and tree node t
    renamed (t, 0), so every H name, φ key and provenance field of its output holds a tuple."""
    for inst in corpus(DEFAULT_SEED):
        b = inst.bundle
        yield inst.name, relabel_bundle(b, {v: ("v", v) for v in b.host.vertices},
                                        {t: (t, 0) for t in b.td.tree.vertices})


# sha256 of the sorted-key JSON list of {name, output, report} over tuple_named_corpus(), each
# bundle read back from its edge-list text and bundle JSON as planarize reads it.  Corpus names are
# only ints and strings, so this pins how tuple names are read and written.
TUPLE_NAMED_CORPUS_DIGEST = "fc9662256f2950e70efca615baaec8d7954e1cf85bfa99edd0bc3f91bb08c915"


def test_tuple_named_corpus_output_matches_the_committed_digest():
    docs = []
    for name, b in tuple_named_corpus():
        host = parse_edge_list(format_edge_list(b.host))
        bundle = bundle_from_dict(json.loads(json.dumps(bundle_to_dict(b))), host)
        out = build_H(bundle)
        rep = verify_output(bundle, out)
        assert rep.passed, (name, rep.failures)
        docs.append({"name": name, "output": output_to_dict(out), "report": report_to_dict(rep)})
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TUPLE_NAMED_CORPUS_DIGEST


def test_output_to_dict_renders_each_name_field_once(monkeypatch):
    """On a three-part output (finite, bounded-treewidth and planar torsos), ``output_to_dict``
    renders each host vertex, tree node and sub-decomposition node at most once: every H token,
    φ key and provenance field is built from those tokens.  The output itself does not move."""
    inst = next(i for i in corpus(DEFAULT_SEED) if i.name == "mixed-c18-g4x6")
    out = build_H(inst.bundle)
    expected = json.dumps(output_to_dict(out), sort_keys=True)
    rendered: Counter = Counter()

    def counting(v):
        rendered[v] += 1
        return graph.vertex_token(v)

    monkeypatch.setattr(construction, "vertex_token", counting)
    assert json.dumps(output_to_dict(out), sort_keys=True) == expected
    ev = out.evidence
    nodes = (set(inst.bundle.td.tree.vertices) | {s for sub in ev.sub_tds.values() for s in sub.tree.vertices}
             | {s for ref in ev.refinements.values() for s in ref.contracted.tree.vertices})
    assert set(ev.classification.values()) == {FINITE, BOUNDED_TW, PLANAR}
    assert set(rendered) <= inst.bundle.host.vertices | nodes
    assert max(rendered.values()) == 1


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
    """Five one-part planar hosts with their boundary markers, under their own names: the n×n grids
    for n = 7, 10 and 13, and the Z² Cayley balls of radius 4 and 7.  The planar-scale benchmark builds
    these hosts and two more (the 17×17 grid and the Z² ball of radius 11), each renamed by a seeded
    shuffle of its vertices."""
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


def _id_order_bundles():
    """Every corpus instance at three seeds, random and supplied bundles, and
    the planar-scale benchmark's hosts under a seeded renaming."""
    for seed in (DEFAULT_SEED, 7, 101):
        yield from (inst.bundle for inst in corpus(seed))
    for i in range(150):
        yield random_bundle(random.Random(i))
        yield supplied_bundle(random.Random(i))
    rng = random.Random(3)
    hosts = [(g, frozenset(v for v in g.vertices if g.degree(v) < 4)) for g in map(grid_graph, (7, 10, 13, 17), (7, 10, 13, 17))]
    hosts += [(b.graph, b.markers) for b in (cayley_ball("integer-lattice-Z2", r) for r in (4, 7, 11))]
    for g, markers in hosts:
        names = g.sorted_vertices()
        sigma = dict(zip(names, rng.sample(names, len(names))))
        host = relabel(g, sigma)
        yield InstanceBundle(host, single_node_td(host.vertices), k=2, infinite_markers=frozenset(map(sigma.get, markers)))


def test_h_built_on_ids_equals_a_keyed_build():
    """build_H lists H's vertices in key order without keying them: its H
    equals Graph.build of the same vertices and edges, ids included."""
    built = 0
    for b in _id_order_bundles():
        try:
            H = build_H(b).H
        except GraphToolError:
            continue
        ref = Graph.build(H.edges, vertices=H.vertices)
        assert (H.vertices, H.edges) == (ref.vertices, ref.edges)
        assert (H.order, H.nbrs) == (ref.order, ref.nbrs)
        built += 1
    assert built > 3 * 66


def test_h_of_a_one_part_planar_host_shares_the_torsos_adjacency_and_facts(monkeypatch):
    """On every corpus instance and planar-scale bundle, after build_H and
    verify_output, H's orientation, masks, component masks and planarity
    verdict equal those of a fresh copy of H.  H shares the torso's neighbour
    lists, orientation and verdict, the host's own, exactly when the bundle is
    one part whose torso is planar.  verify_output still asks for H's verdict,
    and the left-right testing pass runs once per neighbour lists: once in all
    on a fresh one-part planar host, else once per torso that reaches the
    planarity test and once for H."""
    real_lr = planarity._lr_planar
    asked = helpers.calls(monkeypatch, "planarity._lr_planar")
    passes = helpers.calls(monkeypatch, "planarity._testing_pass")
    shared = 0
    for b in [inst.bundle for inst in corpus(DEFAULT_SEED)] + [b for _, b in planar_scale_bundles()]:
        asked.clear()
        passes.clear()
        out = build_H(b)
        torsos = list(out.evidence.torsos.values())
        assert all(any(g is t for t in torsos) for g, in asked)
        tested_torsos = len({id(g) for g, in asked})
        asked.clear()
        verify_output(b, out)
        H = out.H
        assert any(g is H for g, in asked)
        one_part_planar = len(b.td.parts) == 1 and list(out.evidence.classification.values()) == [PLANAR]
        assert len(passes) == (1 if one_part_planar else tested_torsos + 1)
        fresh = Graph._on_ids(H.order, [(i, j) for i, js in enumerate(H.nbrs) for j in js if j > i])
        assert (H.orientation, H.masks, H.component_masks) == (fresh.orientation, fresh.masks, fresh.component_masks)
        assert H._facts.get(real_lr) is planarity._lr_planar(fresh) is True
        assert ((H.nbrs is b.host.nbrs) == (H.orientation is b.host.orientation)
                == (H.component_masks is b.host.component_masks) == one_part_planar)
        shared += one_part_planar
    assert shared == 8 + 5


def test_a_one_part_planar_host_is_built_and_certified_with_no_per_vertex_lookup(monkeypatch):
    """A fresh build_H + verify_output of each planar-scale benchmark host, as
    it stands and under a seeded renaming, and of each one-part planar corpus
    instance (the six grid-RxC grids and two Z² balls), calls Graph.ball_levels
    zero times and Graph.own_id on the host once per marker, where
    validate_bundle checks that the marker is a host vertex, on the trees of
    the torsos built at most once per torso, where TreeDecomposition.part
    checks the node, and on no other graph, beside each decomposition's check
    of its own part keys, left out of the count: φ is the host renamed, each image
    H's own name object at the host vertex's id, and an isomorphism is
    certified without the level scan.  The other paths keep running: on
    bridge-4 both level scans, and on grid-k4-4x4-at-1-1 (two parts, no
    markers) one image lookup on H per host vertex."""
    own_id = helpers.calls(monkeypatch, "graph.Graph.own_id")
    ball_levels = helpers.calls(monkeypatch, "graph.Graph.ball_levels")
    torsos = helpers.calls(monkeypatch, "treedecomp.torso")
    made = TreeDecomposition.__new__

    def unrecorded(cls, tree, parts):  # a decomposition's check of its own keys is left out of the count
        n = len(own_id)
        td = made(cls, tree, parts)
        del own_id[n:]
        return td
    monkeypatch.setattr(TreeDecomposition, "__new__", staticmethod(unrecorded))

    def fresh_run(b):
        for record in (own_id, ball_levels, torsos):
            record.clear()
        out = build_H(b)
        assert verify_output(b, out).passed
        return out

    def lookups(g):  # the own_id calls on g, on the trees of the torsos built, and on any other graph
        per_graph = Counter(id(args[0]) for args in own_id)
        trees = {id(td.tree) for _, td, _ in torsos}
        return per_graph.pop(id(g), 0), sum(per_graph.pop(t, 0) for t in trees), sum(per_graph.values())

    rng = random.Random(44)
    grids = [grid_graph(n, n) for n in (7, 10, 13, 17)]
    hosts = [(g, frozenset(v for v in g.vertices if g.degree(v) < 4)) for g in grids]
    hosts += [(b.graph, b.markers) for b in (cayley_ball("integer-lattice-Z2", r) for r in (4, 7, 11))]
    bundles = []
    for g, markers in hosts:
        names = g.sorted_vertices()
        sigma = dict(zip(names, rng.sample(names, len(names))))
        for host, marked in ((g, markers), (relabel(g, sigma), frozenset(map(sigma.get, markers)))):
            bundles.append(InstanceBundle(host, single_node_td(host.vertices), k=2, infinite_markers=marked))
    instances = {inst.name: inst.bundle for inst in corpus(DEFAULT_SEED)}
    one_part = [b for name, b in instances.items()
                if name.startswith(("grid-", "cayley-integer")) and len(b.td.parts) == 1]
    assert len(one_part) == 8
    for b in bundles + one_part:
        out = fresh_run(b)
        host, trees, other = lookups(b.host)
        assert (host, other, ball_levels) == (len(b.infinite_markers), 0, [])
        assert trees <= len(torsos)
        assert all(out.phi[v] is x for v, x in zip(b.host.order, out.H.order))
    fresh_run(instances["bridge-4"])
    assert len(ball_levels) == 2
    b = instances["grid-k4-4x4-at-1-1"]
    out = fresh_run(b)
    assert lookups(out.H)[0] == len(b.host.order)


def test_a_planar_scale_host_keeps_the_same_facts_after_one_build_and_verify():
    """One build_H + verify_output of each planar-scale host, renamed as the
    benchmark renames it, leaves in the host's table exactly the facts its
    slots held before the table (neighbour masks, DFS orientation, component
    masks, planarity verdict), with H sharing that table; so a warm host's
    share of kept work does not move."""
    expected = {Graph.masks.fget, Graph.orientation.fget, Graph.component_masks.fget, planarity._lr_planar}
    rng = random.Random(7201)
    for name, b in planar_scale_bundles():
        names = b.host.sorted_vertices()
        sigma = dict(zip(names, rng.sample(names, len(names))))
        host = relabel(b.host, sigma)
        renamed = InstanceBundle(host, single_node_td(host.vertices), k=2,
                                 infinite_markers=frozenset(map(sigma.get, b.infinite_markers)))
        out = build_H(renamed)
        assert verify_output(renamed, out).passed
        assert set(host._facts) == expected and out.H._facts is host._facts, name


def test_a_fresh_non_planar_h_is_tested_after_a_planar_verdict_was_kept(monkeypatch):
    """Once build_H and verify_output have kept the grid's verdict, an output
    whose H is built afresh on the same names is tested on its own: with a K5
    added, verify_output runs the testing pass once and fails it with "H is
    not planar"; on the same pairs, once, and passes."""
    grid = grid_graph(6, 6)
    b = InstanceBundle(grid, single_node_td(grid.vertices), k=2,
                       infinite_markers=frozenset(v for v in grid.vertices if grid.degree(v) < 4))
    out = build_H(b)
    assert verify_output(b, out).passed and out.H._facts.get(planarity._lr_planar) is True
    passes = helpers.calls(monkeypatch, "planarity._testing_pass")
    pairs = [(i, j) for i, js in enumerate(out.H.nbrs) for j in js if j > i]
    same = out._replace(H=Graph._on_ids(out.H.order, pairs))
    assert verify_output(b, same).passed and len(passes) == 1 and passes[0][0] is same.H
    passes.clear()
    k5 = list(combinations(out.H.sorted_vertices()[:5], 2))
    forged = out._replace(H=Graph.build(list(out.H.edges) + k5))
    rep = verify_output(b, forged)
    assert len(passes) == 1 and passes[0][0] is forged.H
    assert not rep.planar and "H is not planar" in rep.failures


def _deep_bundle(host: Graph, k: int, depths) -> InstanceBundle:
    """``host`` as one part with a supplied one-node sub-decomposition, its
    key-least vertex, its tree node and its sub-decomposition node nested
    ``depths`` deep."""
    v_depth, t_depth, s_depth = depths
    host = relabel(host, {host.sorted_vertices()[0]: nested(v_depth, "d")})
    t, s = nested(t_depth, "t"), nested(s_depth, "s")
    return InstanceBundle(host, single_node_td(host.vertices, t), k, sub_tds={t: single_node_td(host.vertices, s)})


def test_host_vertices_up_to_the_read_bound_render_in_h(tmp_path, capsys):
    """A host vertex, tree node and sub-decomposition node nested
    MAX_VERTEX_DEPTH - 1 deep build and verify, in a planar part and in a
    bounded-treewidth one, and every H token of the output reads back as its
    H vertex, though H's names nest one level deeper.  Nested MAX_VERTEX_DEPTH
    deep, each alone is refused: build_H raises ContractViolationError and
    planarize exits 2."""
    from coarsegraph.cli import main
    from coarsegraph.graph import parse_vertex_token, vertex_token

    top = MAX_VERTEX_DEPTH - 1
    for host, k, kind in ((grid_graph(3, 3), 1, "pl"), (cycle_graph(10), 2, "tw")):
        b = _deep_bundle(host, k, (top, top, top))
        out = build_H(b)
        assert verify_output(b, out).passed
        deep, t, s = nested(top, "d"), nested(top, "t"), nested(top, "s")
        assert out.phi[deep] == (("pl", t, s, deep) if kind == "pl" else ("tw", t, s))
        data = output_to_dict(out)
        h_of = {vertex_token(x): x for x in out.H.vertices}
        assert set(data["provenance"]) == set(h_of)
        tokens = [*data["phi"].values(), *(tok for e in data["h_edges"] for tok in e), *data["h_isolated"], *h_of]
        assert all(parse_vertex_token(tok) == h_of[tok] for tok in tokens)

        for i in range(3):
            depths = [top] * 3
            depths[i] = MAX_VERTEX_DEPTH
            b = _deep_bundle(host, k, depths)
            with pytest.raises(ContractViolationError, match="nests 100 deep"):
                build_H(b)
            (tmp_path / "g.txt").write_text(format_edge_list(b.host))
            (tmp_path / "b.json").write_text(json.dumps(bundle_to_dict(b)))
            argv = ["planarize", "--graph", str(tmp_path / "g.txt"), "--bundle", str(tmp_path / "b.json"),
                    "--out", str(tmp_path / "out.json")]
            assert main(argv) == 2
            assert "nests 100 deep" in capsys.readouterr().err


class _Deep(NamedTuple):
    inner: object


def test_validate_bundle_refuses_a_deep_name_whatever_the_other_names_are():
    """The depth check keys only the tuple names, found from the set of all
    names' types: each name below, nested MAX_VERTEX_DEPTH deep, is refused
    on a host whose other vertices and nodes are all strings.  A check that
    keyed only when ``tuple`` itself is among the types misses the NamedTuple
    host vertex; one that read only the host vertices misses the tree node and
    the sub-decomposition node."""
    host = grid_graph(3, 3)
    deep = nested(MAX_VERTEX_DEPTH, "d")

    def renamed(v):  # host with its key-least vertex renamed v, as one part
        g = relabel(host, {host.sorted_vertices()[0]: v})
        return g, single_node_td(g.vertices)

    bundles = {
        "a tuple host vertex": InstanceBundle(*renamed(deep), 1),
        "a tuple tree node": InstanceBundle(host, single_node_td(host.vertices, deep), 1),
        "a sub-decomposition node": InstanceBundle(host, single_node_td(host.vertices), 1,
                                                   sub_tds={"t": single_node_td(host.vertices, deep)}),
        "a NamedTuple host vertex": InstanceBundle(*renamed(_Deep(nested(MAX_VERTEX_DEPTH - 1, "d"))), 1),
    }
    for name, bundle in bundles.items():
        with pytest.raises(ContractViolationError, match="nests 100 deep"):
            validate_bundle(bundle)
            pytest.fail(f"{name} was accepted")


def build_outcome(bundle: InstanceBundle) -> str:
    """The sorted-key JSON of the output and report, or the error's type and text."""
    try:
        out = build_H(bundle)
        return json.dumps({"output": output_to_dict(out), "report": report_to_dict(verify_output(bundle, out))},
                          sort_keys=True)
    except GraphToolError as exc:
        return f"{type(exc).__name__}: {exc}"


# sha256 of the JSON list of build_outcome over random_bundle(random.Random(i)), i < 400:
# it guards error texts and outputs beyond the corpus.  A change that moves it must say why.
RANDOM_BUNDLE_DIGEST = "c2f2c374b12c522b2f3998f43f21a8a0687a4b7c726912445ffa578c19466e37"


def test_random_bundle_outcomes_match_the_committed_digest():
    outcomes = [build_outcome(random_bundle(random.Random(i))) for i in range(400)]
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == RANDOM_BUNDLE_DIGEST


# sha256 of the JSON list of build_outcome over supplied_bundle(random.Random(i)), i < 1000:
# every tree node carries a supplied sub-decomposition, so it guards their checks, error
# texts and contraction.  A change that moves it must say why.
SUPPLIED_BUNDLE_DIGEST = "ff89d59e38c0878cac5f43985d74e7627835953037fe535f2a6e4167dee77823"


def test_supplied_sub_decomposition_outcomes_match_the_committed_digest():
    outcomes = [build_outcome(supplied_bundle(random.Random(i))) for i in range(1000)]
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == SUPPLIED_BUNDLE_DIGEST


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
@example(168)  # tree copies of a supplied two-node sub-decomposition
@example(333)  # a pruned planar-torso vertex
@example(2070)  # two pruned planar-torso vertices
def test_phi_follows_the_three_level_rule(seed):
    """φ(v) is v's first surviving planar copy in (node, part) key order; else
    the hub of the key-least adhesion set holding v; else v's image in the one
    part t holding it: x_t for a finite torso, a tree copy of t (with a
    supplied sub-decomposition the key-least node whose part holds v), and for
    a pruned planar-torso vertex a hub whose set lies in t's part."""
    b = random_bundle(random.Random(seed))
    try:
        out = build_H(b)
    except GraphToolError:
        return
    # Each H name says what it is: ("pl", t, s, v), ("tw", t, s), ("xt", t) or ("xS", *S).
    copies = sorted((x for x in out.H.vertices if x[0] == "pl"), key=lambda x: (vertex_key(x[1]), vertex_key(x[2])))
    first_copy: dict = {}
    for x in copies:
        first_copy.setdefault(x[3], x)
    hub = {frozenset(x[1:]): x for x in out.H.vertices if x[0] == "xS"}
    assert set(hub) == {S for S in adhesion_sets(b.td).values() if S}
    assert set(out.phi) == b.host.vertices
    for v, x in out.phi.items():
        assert x in out.H.vertices
        if v in first_copy:
            assert x == first_copy[v]
            continue
        holding = [S for S in hub if v in S]
        if holding:
            assert x == hub[min(holding, key=set_key)]
            continue
        (t,) = [t for t, part in b.td.parts.items() if v in part]  # (T3): v is in no adhesion set
        kind = out.evidence.classification[t]
        if kind == FINITE:
            assert x == ("xt", t)
        elif kind == BOUNDED_TW:
            assert x[:2] == ("tw", t)
            if t in b.sub_tds:
                assert x[2] == min((s for s, p in b.sub_tds[t].parts.items() if v in p), key=vertex_key)
        else:
            assert x[0] == "xS" and set(x[1:]) <= b.td.parts[t]


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
    args = (td, construction.Evidence({"t": BOUNDED_TW}, {"t": torso}, {"t": sub}, {}))
    dist = {v: oracles.bfs_distances(oracles.adjacency(es, vs), v) for v in vs}
    if any(w not in dist[v] for part in parts.values() for v in part for w in part):
        with pytest.raises(StructuralError) as exc:
            construction._compute_bounds(*args)
        assert str(exc.value) == "part of the sub-decomposition at 't' is not connected within its torso"
        return
    bounds = construction._compute_bounds(*args)
    assert bounds.b3 == max(dist[v][w] for part in parts.values() for v in part for w in part)
    assert bounds.b4 == max(sum(v in part for part in parts.values()) for v in vs)


def _evidence_outputs():
    """Each bundle with its output: the corpus at both digest seeds and the
    planar-scale hosts, which must build, and those of the first 400 random
    bundles that build."""
    for seed in sorted(CORPUS_DIGESTS):
        yield from ((inst.bundle, build_H(inst.bundle)) for inst in corpus(seed))
    yield from ((b, build_H(b)) for _, b in planar_scale_bundles())
    for i in range(400):
        b = random_bundle(random.Random(i))
        try:
            out = build_H(b)
        except GraphToolError:
            continue
        yield b, out


def test_bounds_and_prunings_match_their_definitions_on_the_evidence():
    """Read only the bundle's tree-decomposition and the output's evidence: b1
    is the largest finite part, b2 the widest sub-decomposition, b3 the largest
    torso distance inside one sub-part (oracle BFS), b4 the most sub-parts
    holding one vertex, and b5 one more than the largest deleted component, or
    0 with no planar part.  Replayed in pruning order, each deletion (s, S, c)
    is a component of the torso of contracted part s, less the earlier
    deletions there, minus S, with neighbourhood exactly S; what is left is
    the kept part.  A deleted vertex in no adhesion set with no surviving copy
    maps to the hub of its first deletion."""
    pruned = 0
    for b, out in _evidence_outputs():
        td, ev = b.td, out.evidence
        b1 = max((len(td.parts[t]) for t, kind in ev.classification.items() if kind == FINITE), default=0)
        b2 = max((len(p) - 1 for sub in ev.sub_tds.values() for p in sub.parts.values()), default=0)
        b3 = b4 = 0
        for t, sub in ev.sub_tds.items():
            adj = oracles.adjacency(ev.torsos[t].edges, ev.torsos[t].vertices)
            dist = {v: oracles.bfs_distances(adj, v) for v in adj}
            b3 = max([b3] + [dist[v][w] for p in sub.parts.values() for v in p for w in p])
            b4 = max([b4] + [sum(v in p for p in sub.parts.values()) for v in adj])
        sizes = [len(c) for ref in ev.refinements.values() for _, _, c in ref.deletions]
        b5 = 1 + max(sizes, default=0) if ev.refinements else 0
        assert out.bounds == (b1, b2, b3, b4, b5, max(b1, b3 * b4, b5))

        adhesions = {td.parts[x] & td.parts[y] for x, y in td.tree.edges}
        first_site: dict = {}
        for t, ref in ev.refinements.items():
            g, parts = ev.torsos[t], ref.contracted.parts
            for s, part in parts.items():
                edges = [(u, v) for u, v in g.edges if u in part and v in part]
                for x, y in ref.contracted.tree.edges:
                    if s in (x, y):
                        edges += combinations(parts[x] & parts[y], 2)
                base, removed = oracles.adjacency(edges, part), set()
                for s2, S, c in ref.deletions:
                    if s2 != s:
                        continue
                    adj = {v: ws - removed for v, ws in base.items() if v not in removed}
                    assert S in adhesions and S <= td.parts[t]
                    assert c in oracles.components_without(adj, S)
                    assert set().union(*(adj[v] for v in c)) - c == S
                    removed |= c
                    pruned += 1
                assert ref.kept[s].vertices == part - removed
            for _, S, c in ref.deletions:
                for v in c:
                    first_site.setdefault(v, S)
        survivors = {v for ref in ev.refinements.values() for g in ref.kept.values() for v in g.vertices}
        for v, S in first_site.items():
            if v not in survivors and not any(v in A for A in adhesions):
                assert out.phi[v][0] == "xS" and set(out.phi[v][1:]) == S
    assert pruned > 0


def test_bundle_with_classification_round_trips_through_json():
    """Classification, markers, sub-decompositions, k and threshold all come back equal."""
    sub = TreeDecomposition(Graph.build([("a", "b")]), {"a": frozenset(range(7)), "b": frozenset({0, 6, 7, 8, 9, 10, 11})})
    b = InstanceBundle(cycle_graph(12), single_node_td(range(12)), k=3, classification={"t": BOUNDED_TW},
                       infinite_markers=frozenset({0, 5}), sub_tds={"t": sub}, finite_threshold=6)
    data = bundle_to_dict(b)
    assert data["classification"] == {"t": BOUNDED_TW}
    b2 = bundle_from_dict(json.loads(json.dumps(data)), b.host)
    assert (b2.classification, b2.infinite_markers, b2.k, b2.finite_threshold) == ({"t": BOUNDED_TW}, {0, 5}, 3, 6)
    assert {t: td_to_dict(td) for t, td in b2.sub_tds.items()} == {"t": td_to_dict(sub)}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 11), st.sampled_from([0.15, 0.3, 0.5, 0.8]), st.sampled_from(["none", "empty", "triples"]),
       st.integers(0, 10_000))
def test_tight_contraction_on_masks_matches_its_definition(n, p, keep_kind, seed):
    """The min-degree sub-decomposition contracted on masks equals the oracle's
    contraction from the definitions: names, parts and tree.  A supplied one,
    as ``_sub_decomposition`` and ``refine_planar_torso`` take it, is refused
    exactly when the oracle finds a non-tight edge (or, with a keep, an
    adhesion set above 3), and else equals the oracle's contraction.  On random
    graphs, disconnected ones among them, with a keep of None, an empty keep,
    or random size-3 sets."""
    rng = random.Random(seed)
    vs, es = oracles.random_graph(rng, n, p)
    g = Graph.build(es, vertices=vs)
    adj = oracles.adjacency(es, vs)
    keep = None if keep_kind == "none" else set()
    if keep_kind == "triples" and n >= 3:
        keep = {frozenset(rng.sample(vs, 3)) for _ in range(rng.randint(1, 6))}

    def contract(sub, keep):
        return oracles.contract_to_tight(adj, sub.tree.sorted_edges(), sub.parts, keep)

    def check(sub, got):
        parts, edges = contract(sub, keep)
        assert got.parts == parts and {frozenset(e) for e in got.tree.edges} == edges

    check(heuristic_td(g), treedecomp._sub_decomposition(g, None, keep))
    supplied = _randomly_contracted(rng, heuristic_td(g), keep=0.6)
    edges = supplied.tree.sorted_edges()
    refused = len(contract(supplied, None)[1]) < len(edges) or (
        keep is not None and any(len(supplied.parts[s] & supplied.parts[t]) > 3 for s, t in edges))
    calls = [lambda: treedecomp._sub_decomposition(g, supplied, keep)]
    if keep is not None:
        calls.append(lambda: refine_planar_torso(g, supplied, keep).contracted)
    for call in calls:
        if refused:
            with pytest.raises(ContractViolationError):
                call()
            continue
        try:
            check(supplied, call())
        except PlanarityContradictionError:
            pass


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 13), st.sampled_from([0.05, 0.1, 0.25, 0.45, 0.7]), st.integers(0, 10_000))
@example(4, 0.25, 2)  # edges 0-3 and 1-2: the far side of the edge at S = {3} is the other edge alone
def test_elimination_edge_rule_matches_tightness_by_definition(n, p, seed):
    """On any graph, connected or with several components and isolated
    vertices, ``_has_full_component`` on an edge's far side decides each edge
    of the min-degree elimination tree as the raw definition does: the sides
    are the parts below the edge, and the rest with the adhesion set."""
    vs, es = oracles.random_graph(random.Random(seed), n, p)
    g = Graph.build(es, vertices=vs)
    adj = oracles.adjacency(es, vs)
    parent, part = treedecomp._elimination_tree(g)
    _, below = treedecomp._subtree_unions(parent, part)
    full = (1 << n) - 1
    for i, j in enumerate(parent):
        if j >= 0:
            s, far = part[i] & part[j], full & ~below[i]
            expected = oracles._is_tight_pair(adj, set(g.labels(below[i])), set(g.labels(far | s)))
            assert separations._has_full_component(g.masks, far, s) == expected
