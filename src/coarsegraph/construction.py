"""The planar-quotient engine.

Input: a host graph with a tree-decomposition of adhesion ≤ 3 whose torsos
fall into three classes — small ("finite" at truncation scale), treewidth ≤ k,
or planar.  Output: a planar graph H built by replacing each small torso by a
point, each bounded-treewidth torso by its decomposition tree, and each planar
torso by its pruned parts, all glued through one hub vertex x_S per adhesion
set — together with the vertex map φ, instance bounds B₁…B₅, and a
self-verification report (planarity, connectivity, γ=1 quasi-isometry slack,
hub cut-vertex structure).

"Infinite" has no finite-scale meaning, so truncated inputs carry marker
vertices (e.g. the boundary sphere of a Cayley ball); a component counts as
infinite iff it meets a marker.  Without markers the largest component is kept
and a warning recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import (
    ClassificationError,
    ContractViolationError,
    EmptySetError,
    MarkerError,
    ParseError,
    PlanarityContradictionError,
    StructuralError,
)
from .graph import (
    Graph,
    cut_vertices,
    induced_subgraph,
    is_connected,
    parse_vertex_token,
    set_key,
    sort_vertices,
    vertex_from_json,
    vertex_token,
)
from . import planarity, qi, treedecomp
from .separations import _tight_on_masks, fully_attached_components
from .treedecomp import (
    DEFAULT_TREEWIDTH_CAP,
    TreeCenter,
    TreeDecomposition,
    adhesion_sets,
    clique_subtree,
    contract_td_edges,
    edge_separations,
    exact_treewidth,
    heuristic_td,
    min_degree_elimination,
    torso,
    tree_center,
    td_from_dict,
    td_to_dict,
    validate,
    width,
)

FINITE = "finite"
BOUNDED_TW = "bounded-treewidth"
PLANAR = "planar"
TORSO_KINDS = (FINITE, BOUNDED_TW, PLANAR)

DEFAULT_FINITE_THRESHOLD = 8


@dataclass(frozen=True)
class InstanceBundle:
    host: Graph
    td: TreeDecomposition
    k: int
    classification: dict | None = None
    infinite_markers: frozenset = frozenset()
    sub_tds: dict = field(default_factory=dict)  # tree node -> TreeDecomposition of its torso
    finite_threshold: int = DEFAULT_FINITE_THRESHOLD


def validate_bundle(bundle: InstanceBundle) -> None:
    report = validate(bundle.host, bundle.td)
    if not report.ok:
        raise StructuralError(f"tree-decomposition invalid: ({report.axiom}) {report.message}")
    adh = treedecomp.adhesion(bundle.td)
    if adh > 3:
        raise ContractViolationError(f"adhesion {adh} exceeds 3")
    if bundle.k < 0:
        raise ContractViolationError("k must be non-negative")
    for v in bundle.infinite_markers:
        bundle.host.require_vertex(v)
    for t in bundle.sub_tds:
        bundle.td.part(t)  # raises for a sub-decomposition of no tree node


# ---------------------------------------------------------------------------
# torso classification
# ---------------------------------------------------------------------------


def treewidth_at_most(g: Graph, k: int) -> bool:
    """Decide tw(g) ≤ k.

    For k ≤ 2 at every size, by ``min_degree_elimination`` stopped at degree
    k: while a vertex of degree ≤ k is left it removes one, and that order
    empties the graph exactly when tw ≤ k.  For k ≥ 3 the exact subset DP
    decides at or below ``DEFAULT_TREEWIDTH_CAP`` vertices; above it a
    min-degree width ≤ k certifies the upper bound and anything else raises
    rather than guessing.
    """
    if k <= 2:
        return min_degree_elimination(g, k) is not None
    n = len(g.vertices)
    if n <= DEFAULT_TREEWIDTH_CAP:
        return exact_treewidth(g, DEFAULT_TREEWIDTH_CAP) <= k
    if min_degree_elimination(g, k) is not None:
        return True
    raise ContractViolationError(
        f"cannot decide treewidth ≤ {k} for a {n}-vertex graph above the exact cap {DEFAULT_TREEWIDTH_CAP}"
    )


def _first_fit(host: Graph, td: TreeDecomposition, t, kinds, k: int, finite_threshold: int,
               torsos: dict | None):
    """The first of ``kinds`` whose test the part at t passes, or None: at most
    ``finite_threshold`` vertices, then a torso of treewidth ≤ k, then a planar
    torso.  The torso is taken from ``torsos`` or built, at most once."""
    if FINITE in kinds and len(td.parts[t]) <= finite_threshold:
        return FINITE
    tg = None if kinds == (FINITE,) else (torsos[t] if torsos else torso(host, td, t))
    if BOUNDED_TW in kinds and treewidth_at_most(tg, k):
        return BOUNDED_TW
    if PLANAR in kinds and planarity.is_planar(tg, witness_cap=0).planar:
        return PLANAR
    return None


def classify_torsos(
    host: Graph,
    td: TreeDecomposition,
    k: int,
    finite_threshold: int = DEFAULT_FINITE_THRESHOLD,
    torsos: dict | None = None,
) -> dict:
    """Label each part finite / bounded-treewidth / planar, in that precedence.
    ``torsos`` (tree node -> torso graph) reuses torsos already built."""
    out: dict = {}
    for t in td.tree.sorted_vertices():
        out[t] = _first_fit(host, td, t, TORSO_KINDS, k, finite_threshold, torsos)
        if out[t] is None:
            raise ClassificationError(
                f"torso at {t!r} is neither small (≤ {finite_threshold}), nor of treewidth ≤ {k}, nor planar"
            )
    return out


def check_classification(host: Graph, td: TreeDecomposition, k: int, classification: dict,
                         finite_threshold: int = DEFAULT_FINITE_THRESHOLD,
                         torsos: dict | None = None) -> None:
    """A supplied classification must still be *consistent* with the torsos."""
    if set(classification) != set(td.tree.vertices):
        raise StructuralError("classification must label exactly the tree nodes")
    for t, kind in classification.items():
        if kind not in TORSO_KINDS:
            raise StructuralError(f"unknown torso class {kind!r} at {t!r}")
        if _first_fit(host, td, t, (kind,), k, finite_threshold, torsos) is None:
            raise ClassificationError({
                FINITE: f"part at {t!r} has {len(td.parts[t])} vertices, above the threshold {finite_threshold}",
                BOUNDED_TW: f"torso at {t!r} does not have treewidth ≤ {k}",
                PLANAR: f"torso at {t!r} is not planar",
            }[kind])


# ---------------------------------------------------------------------------
# sub-decompositions and planar refinement
# ---------------------------------------------------------------------------


def _prepare_sub_td(torso_graph: Graph, provided: TreeDecomposition | None, adhesion_cap: int | None) -> TreeDecomposition:
    """Return a supplied sub-decomposition once it is valid, of adhesion at most
    ``adhesion_cap`` and tight on every edge; else the min-degree one, which
    ``_contract_to_tight`` then trims."""
    if provided is None:
        return heuristic_td(torso_graph)
    rep = validate(torso_graph, provided)
    if not rep.ok:
        raise ContractViolationError(f"sub-decomposition invalid: ({rep.axiom}) {rep.message}")
    seps = edge_separations(torso_graph, provided)
    for e in provided.tree.sorted_edges():
        a, b = seps[e]
        if adhesion_cap is not None and (a & b).bit_count() > adhesion_cap:
            raise ContractViolationError(f"sub-decomposition adhesion {(a & b).bit_count()} exceeds {adhesion_cap}")
        if not _tight_on_masks(torso_graph, a, b):
            raise ContractViolationError(f"sub-decomposition edge {e!r} has a non-tight separation")
    return provided


def _contract_to_tight(torso_graph: Graph, sub_td: TreeDecomposition, adhesions: set | None = None,
                       tight: bool = False) -> TreeDecomposition:
    """Contract every tree edge except the tight ones whose adhesion set is in
    ``adhesions`` (any set if None); with ``tight`` every edge is known tight.
    Contracting other edges changes neither the separation nor the adhesion
    set of an edge, so one pass decides all."""
    keep = [e for e, a in adhesion_sets(sub_td).items() if adhesions is None or a in adhesions]
    if keep and not tight:
        seps = edge_separations(torso_graph, sub_td)
        keep = [e for e in keep if _tight_on_masks(torso_graph, *seps[e])]
    return contract_td_edges(sub_td, keep)[0]


@dataclass(frozen=True)
class PlanarRefinement:
    contracted: TreeDecomposition
    kept: dict           # contracted node s -> pruned part graph G_s'
    deletions: tuple     # (s, S, size of deleted component)
    deleted_site: dict   # deleted host vertex -> S of its (first) pruning site
    max_deleted: int
    warnings: tuple


def refine_planar_torso(
    torso_graph: Graph,
    sub_td: TreeDecomposition,
    outer_sets: Iterable[frozenset],
    markers: frozenset = frozenset(),
    tight: bool = False,
) -> PlanarRefinement:
    """Contract the sub-decomposition down to its tight edges whose adhesion
    set is a size-3 outer set, then prune, per part and per outer adhesion set
    S that is no kept edge's, every fully attached component except the
    designated "infinite" one.  With ``tight`` every edge of ``sub_td`` is
    known tight (``_prepare_sub_td`` checks a supplied one), so only the
    adhesion sets decide."""
    outer = sorted({frozenset(s) for s in outer_sets if s}, key=set_key)
    contracted = _contract_to_tight(torso_graph, sub_td, {s for s in outer if len(s) == 3}, tight)
    contracted_adh = set(adhesion_sets(contracted).values())
    kept: dict = {}
    deletions: list = []
    deleted_site: dict = {}
    warnings: list = []
    for s in contracted.tree.sorted_vertices():
        original_part = contracted.parts[s]
        # The torso of a lone part holding every vertex is the torso graph itself.
        whole = len(contracted.parts) == 1 and original_part == torso_graph.vertices
        g_cur = torso_graph if whole else torso(torso_graph, contracted, s)
        for S in outer:
            if not S <= original_part:
                continue
            if S in contracted_adh:
                continue
            if not S <= g_cur.vertices:
                warnings.append(f"adhesion set {sorted(map(str, S))} partly pruned away in part {s!r}; skipped")
                continue
            cands = fully_attached_components(g_cur, S)
            if len(S) == 3 and len(cands) > 2:
                raise PlanarityContradictionError(
                    f"{len(cands)} components fully attached to a 3-separator in a planar torso"
                )
            if len(cands) < 2:
                continue
            if markers:
                marked = [c for c in cands if c & markers]
                if not marked:
                    raise MarkerError(f"no component at {sorted(map(str, S))} meets the infinite markers")
                if len(marked) > 1:
                    raise MarkerError(f"{len(marked)} components at {sorted(map(str, S))} meet the infinite markers")
                keep_comp = marked[0]
            else:
                keep_comp = max(cands, key=lambda c: (len(c), set_key(c)))
                warnings.append(
                    f"no infinite markers: keeping the largest component at {sorted(map(str, S))} in part {s!r}"
                )
            for c in cands:
                if c is keep_comp:
                    continue
                deletions.append((s, S, len(c)))
                for v in sort_vertices(c):
                    deleted_site.setdefault(v, S)
                g_cur = induced_subgraph(g_cur, g_cur.vertices - c)
        kept[s] = g_cur
    max_deleted = max((size for (_, _, size) in deletions), default=0)
    return PlanarRefinement(contracted, kept, tuple(deletions), deleted_site, max_deleted, tuple(warnings))


def tw_torso_attachment(sub_td: TreeDecomposition, S: frozenset) -> TreeCenter:
    """Attachment point for an adhesion set inside a bounded-treewidth torso:
    the center of the subtree of nodes whose parts contain all of S."""
    try:
        sub = clique_subtree(sub_td, S)
    except EmptySetError:
        raise ContractViolationError("adhesion set is empty") from None
    if not sub.vertices:
        raise ContractViolationError(f"adhesion set {sorted(map(str, S))} is contained in no part of the sub-decomposition")
    return tree_center(sub)


# ---------------------------------------------------------------------------
# the glue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    b1: int
    b2: int
    b3: int
    b4: int
    b5: int
    b: int


@dataclass(frozen=True)
class ConstructionOutput:
    H: Graph
    phi: dict
    bounds: Bounds
    provenance: dict
    classification: dict
    finite_threshold: int
    warnings: tuple


def build_H(bundle: InstanceBundle) -> ConstructionOutput:
    validate_bundle(bundle)
    host, td = bundle.host, bundle.td
    torsos = {t: torso(host, td, t) for t in td.tree.vertices}
    classification = bundle.classification
    if classification is None:
        classification = classify_torsos(host, td, bundle.k, bundle.finite_threshold, torsos=torsos)
    else:
        check_classification(host, td, bundle.k, classification, bundle.finite_threshold, torsos=torsos)

    warnings: list = []
    all_adh = adhesion_sets(td)
    distinct_adh = sorted(
        {s for s in all_adh.values() if s},
        key=set_key,
    )
    if any(not s for s in all_adh.values()):
        warnings.append("empty adhesion set: the corresponding tree edge contributes no gluing vertex")

    # (i) one hub vertex per adhesion set; a vertex's hub is that of the key-least set holding it
    hub = {S: ("xS", *sort_vertices(S)) for S in distinct_adh}
    vertices: list = list(hub.values())
    edges: list = []
    provenance: dict = {x: {"kind": "adhesion-set", "set": list(x[1:])} for x in vertices}
    hub_of: dict = {}
    for S, x in hub.items():
        for v in S:
            hub_of.setdefault(v, x)

    # (ii)-(iv) each torso adds its vertices, inner edges, glue to the hubs of
    # the adhesion sets in its part, and the φ candidates of its vertices:
    # copy_of[v] is v's first surviving planar copy, own[v] its image in its own
    # part (read only for a vertex outside every adhesion set, which by (T3)
    # lies in exactly one part).  Finite torsos come first, then bounded-
    # treewidth, then planar, so every sub-decomposition error of a
    # bounded-treewidth torso precedes any planar one.
    sub_tds: dict = {}
    refinements: dict = {}
    copy_of: dict = {}
    own: dict = {}
    for t in sorted(td.tree.sorted_vertices(), key=lambda t: TORSO_KINDS.index(classification[t])):
        outer = [S for S in distinct_adh if S <= td.parts[t]]
        provided = bundle.sub_tds.get(t)
        if classification[t] == FINITE:
            x = ("xt", t)
            vertices.append(x)
            provenance[x] = {"kind": "finite-torso", "node": t}
            edges.extend((hub[S], x) for S in outer)
            for v in td.parts[t]:
                own.setdefault(v, x)
        elif classification[t] == BOUNDED_TW:
            sub = _prepare_sub_td(torsos[t], provided, adhesion_cap=None)
            if provided is None:  # a checked supplied one is tight on every edge: its own contraction
                sub = _contract_to_tight(torsos[t], sub)
            sub_tds[t] = sub
            name = {s: ("tw", t, s) for s in sub.tree.sorted_vertices()}
            for s, x in name.items():
                vertices.append(x)
                provenance[x] = {"kind": "tree-copy", "node": t, "tree_node": s}
                for v in sub.parts[s]:
                    own.setdefault(v, x)
            edges.extend((name[s1], name[s2]) for (s1, s2) in sub.tree.sorted_edges())
            for S in outer:
                center = tw_torso_attachment(sub, S)
                ends = [center.location] if center.kind == "vertex" else center.location
                edges.extend((hub[S], name[s]) for s in ends)
        else:
            if provided is None and not any(len(S) == 3 for S in outer):
                # No edge can be kept, so the min-degree decomposition would be
                # contracted to its node 0 holding the whole torso.
                sub = TreeDecomposition(Graph.build((), [0]), {0: torsos[t].vertices})
            else:
                sub = _prepare_sub_td(torsos[t], provided, adhesion_cap=3)
            ref = refine_planar_torso(torsos[t], sub, outer, bundle.infinite_markers, tight=provided is not None)
            refinements[t] = ref
            warnings.extend(ref.warnings)
            for s in ref.contracted.tree.sorted_vertices():
                g = ref.kept[s]
                name = {v: ("pl", t, s, v) for v in g.sorted_vertices()}
                for v, x in name.items():
                    vertices.append(x)
                    provenance[x] = {"kind": "planar-copy", "node": t, "part": s, "vertex": v}
                    copy_of.setdefault(v, x)
                edges.extend((name[u], name[v]) for (u, v) in g.sorted_edges())
                edges.extend((hub[S], name[v]) for S in outer if S <= g.vertices for v in S)
            for v, S in ref.deleted_site.items():  # a pruned vertex maps to the hub of its pruning site
                own.setdefault(v, hub[S])

    H = Graph.build(edges, vertices=vertices)

    # φ: surviving planar copy > adhesion hub > image in its own part
    phi: dict = {}
    for v in host.sorted_vertices():
        phi[v] = copy_of.get(v) or hub_of.get(v) or own.get(v)
        if phi[v] is None:
            raise StructuralError(f"no image for planar-torso vertex {v!r}")  # construction bug guard
        if phi[v] not in H.vertices:
            raise StructuralError(f"phi({v!r}) is not a vertex of H")  # construction bug guard

    bounds = _compute_bounds(td, classification, torsos, sub_tds, refinements)
    return ConstructionOutput(
        H=H,
        phi=phi,
        bounds=bounds,
        provenance=provenance,
        classification=dict(classification),
        finite_threshold=bundle.finite_threshold,
        warnings=tuple(warnings),
    )


def _compute_bounds(td, classification, torsos, sub_tds, refinements) -> Bounds:
    b1 = max((len(td.parts[t]) for t, k in classification.items() if k == FINITE), default=0)
    b2 = max((width(sub_tds[t]) for t in sub_tds), default=0)
    b3 = 0
    b4 = 0
    for t in sub_tds:
        sub = sub_tds[t]
        index = torsos[t].index
        # One BFS per torso vertex, read over every part that holds it.
        parts_of: dict = {}
        for part in sub.parts.values():
            ids = [index.pos[v] for v in part]
            for v in part:
                parts_of.setdefault(v, []).append(ids)
        for v, parts in parts_of.items():
            row = index.distance_row([index.pos[v]])
            for ids in parts:
                ds = [row[j] for j in ids]
                if min(ds) < 0:
                    raise StructuralError(
                        f"part of the sub-decomposition at {t!r} is not connected within its torso"
                    )
                b3 = max(b3, max(ds))
        b4 = max([b4] + [len(parts_of.get(v, ())) for v in td.parts[t]])
    b5 = 1 + max((refinements[t].max_deleted for t in refinements), default=0) if refinements else 0
    b = max(b1, b3 * b4, b5)
    return Bounds(b1, b2, b3, b4, b5, b)


# ---------------------------------------------------------------------------
# self-verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    planar: bool
    connectivity_ok: bool
    qi_checked: bool
    qi_valid: bool | None
    c: Fraction | None
    bound: int
    marker_tolerance: int
    c_within_bound: bool | None
    cut_vertex_failures: tuple
    failures: tuple
    passed: bool


def verify_output(bundle: InstanceBundle, out: ConstructionOutput) -> VerificationReport:
    failures: list = []
    planar_ok = planarity.is_planar(out.H, witness_cap=0).planar
    if not planar_ok:
        failures.append("H is not planar")
    conn_ok = is_connected(out.H) == is_connected(bundle.host)
    if not conn_ok:
        failures.append("H connectivity does not match the host")

    qi_checked = conn_ok and bool(bundle.host.vertices)  # per component on a disconnected host
    qi_valid = None
    c = None
    tolerance = 3 if bundle.infinite_markers else 0
    within = None
    if qi_checked:
        tight = qi.tightest_constants(bundle.host, out.H, out.phi, fixed_gamma=1, per_component=True)
        qi_valid = tight is not None
        if not qi_valid:
            failures.append("no finite c makes phi a γ=1 quasi-isometry on each component")
        else:
            c = tight[1]
            within = c <= out.bounds.b + tolerance
            if not within:
                failures.append(f"tightest c = {c} exceeds B = {out.bounds.b} (+{tolerance} marker tolerance)")

    # A hub of degree ≥ 2 separates its attachment sides exactly when it is a cut vertex of H.
    hubs = sort_vertices(x for x, rec in out.provenance.items()
                         if rec.get("kind") == "adhesion-set" and out.H.degree(x) >= 2)
    cuts = cut_vertices(out.H) if hubs else frozenset()
    cut_failures = [x for x in hubs if x not in cuts]
    if cut_failures:
        failures.append(f"{len(cut_failures)} adhesion hub(s) fail to separate their attachment sides")

    return VerificationReport(
        planar=planar_ok,
        connectivity_ok=conn_ok,
        qi_checked=qi_checked,
        qi_valid=qi_valid,
        c=c,
        bound=out.bounds.b,
        marker_tolerance=tolerance,
        c_within_bound=within,
        cut_vertex_failures=tuple(cut_failures),
        failures=tuple(failures),
        passed=not failures,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def bundle_to_dict(bundle: InstanceBundle) -> dict:
    data: dict = {
        "k": bundle.k,
        "finite_threshold": bundle.finite_threshold,
        "td": td_to_dict(bundle.td),
    }
    if bundle.classification is not None:
        data["classification"] = {
            vertex_token(t): bundle.classification[t]
            for t in sort_vertices(bundle.classification)
        }
    if bundle.infinite_markers:
        data["markers"] = [vertex_token(v) for v in sort_vertices(bundle.infinite_markers)]
    if bundle.sub_tds:
        data["sub_tds"] = {
            vertex_token(t): td_to_dict(bundle.sub_tds[t]) for t in sort_vertices(bundle.sub_tds)
        }
    return data


def bundle_from_dict(data: dict, host: Graph) -> InstanceBundle:
    if not isinstance(data, dict) or "td" not in data or "k" not in data:
        raise StructuralError("bundle JSON must be an object with keys 'td' and 'k'")
    classification = None
    if "classification" in data:
        classification = {parse_vertex_token(t): kind for t, kind in _json_field(data, "classification", dict).items()}
    markers = frozenset(vertex_from_json(t) for t in _json_field(data, "markers", list))
    sub_tds = {parse_vertex_token(t): td_from_dict(d) for t, d in _json_field(data, "sub_tds", dict).items()}
    return InstanceBundle(
        host=host,
        td=td_from_dict(data["td"]),
        k=_json_int(data["k"], "k"),
        classification=classification,
        infinite_markers=markers,
        sub_tds=sub_tds,
        finite_threshold=_json_int(data.get("finite_threshold", DEFAULT_FINITE_THRESHOLD), "finite_threshold"),
    )


def _json_field(data: dict, key: str, kind: type):
    value = data.get(key, kind())
    if not isinstance(value, kind):
        raise StructuralError(f"bundle key {key!r} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _json_int(value, key: str) -> int:
    # true is not 1, and 2.5, Infinity and NaN are not integers.
    if not isinstance(value, bool) and not (isinstance(value, float) and not value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ParseError(f"bundle key {key!r} must be an integer, not {value!r}")


def _provenance_record_to_dict(rec: dict) -> dict:
    out: dict = {"kind": rec["kind"]}
    for key in ("node", "tree_node", "part", "vertex"):
        if key in rec:
            out[key] = vertex_token(rec[key])
    if "set" in rec:
        out["set"] = [vertex_token(v) for v in rec["set"]]
    return out


def output_to_dict(out: ConstructionOutput) -> dict:
    """The output as JSON values; every H vertex is rendered once, H's edges, isolated
    vertices and provenance come in H id order, φ in the host key order of ``build_H``."""
    index = out.H.index
    pos, token = index.pos, [vertex_token(x) for x in index.order]
    return {
        "h_edges": [[token[pos[u]], token[pos[v]]] for u, v in out.H.sorted_edges()],
        "h_isolated": [token[i] for i, js in enumerate(index.nbrs) if not js],
        "phi": {vertex_token(v): token[pos[x]] for v, x in out.phi.items()},
        "bounds": {
            "b1": out.bounds.b1,
            "b2": out.bounds.b2,
            "b3": out.bounds.b3,
            "b4": out.bounds.b4,
            "b5": out.bounds.b5,
            "b": out.bounds.b,
        },
        "classification": {
            vertex_token(t): out.classification[t] for t in sort_vertices(out.classification)
        },
        "finite_threshold": out.finite_threshold,
        "provenance": {token[i]: _provenance_record_to_dict(out.provenance[x]) for i, x in enumerate(index.order)},
        "warnings": list(out.warnings),
    }


def report_to_dict(rep: VerificationReport) -> dict:
    return {
        "planar": rep.planar,
        "connectivity_ok": rep.connectivity_ok,
        "qi_checked": rep.qi_checked,
        "qi_valid": rep.qi_valid,
        "c": None if rep.c is None else str(rep.c),
        "bound": rep.bound,
        "marker_tolerance": rep.marker_tolerance,
        "c_within_bound": rep.c_within_bound,
        "cut_vertex_failures": [vertex_token(x) for x in rep.cut_vertex_failures],
        "failures": list(rep.failures),
        "passed": rep.passed,
    }
