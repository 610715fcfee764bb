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

from fractions import Fraction
from functools import cache
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import (
    ClassificationError,
    ContractViolationError,
    EmptySetError,
    GraphToolError,
    MarkerError,
    ParseError,
    PlanarityContradictionError,
    StructuralError,
)
from .graph import (
    MAX_VERTEX_DEPTH,
    Graph,
    _unknown,
    bit_ids,
    cut_vertices,
    induced_subgraph,
    is_connected,
    parse_vertex_token,
    set_key,
    sort_vertices,
    vertex_from_json,
    vertex_key,
    vertex_token,
)
from . import planarity, qi, treedecomp
from .separations import fully_attached_components
from .treedecomp import (
    DEFAULT_TREEWIDTH_CAP,
    TreeCenter,
    TreeDecomposition,
    adhesion_sets,
    clique_subtree,
    exact_treewidth,
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


class InstanceBundle(NamedTuple):
    host: Graph
    td: TreeDecomposition
    k: int
    classification: dict | None = None
    infinite_markers: frozenset = frozenset()
    sub_tds: Mapping = MappingProxyType({})  # tree node -> TreeDecomposition of its torso
    finite_threshold: int = DEFAULT_FINITE_THRESHOLD


def validate_bundle(bundle: InstanceBundle) -> None:
    report = validate(bundle.host, bundle.td)
    if not report.ok:
        raise StructuralError(f"tree-decomposition invalid: ({report.axiom}) {report.message}")
    adh = treedecomp.adhesion(bundle.td)
    if adh > 3:
        raise ContractViolationError(f"adhesion {adh} exceeds 3")
    for name in ("k", "finite_threshold"):
        count = getattr(bundle, name)
        if isinstance(count, bool):  # a bool is an int, but no count
            raise ContractViolationError(f"{name} must be an integer, not a boolean")
        if not isinstance(count, int):
            raise ContractViolationError(f"{name} must be an integer, not {count!r}")
    if bundle.k < 0:
        raise ContractViolationError("k must be non-negative")
    unknown = [v for v in bundle.infinite_markers if bundle.host.own_id(v) is None]  # 3.0 is not the vertex 3
    if unknown:
        _unknown(unknown)
    for t in bundle.sub_tds:  # a sub-decomposition of no tree node, or of one of other types (1.0 for 1), is refused
        bundle.td.part(t)
    # H's names nest one level deeper than the host vertices and tree nodes they hold.  Only a
    # tuple nests, so only tuples are keyed.
    names = (bundle.host.vertices, bundle.td.tree.vertices, *(sub.tree.vertices for sub in bundle.sub_tds.values()))
    for v in chain(*names):
        if isinstance(v, tuple):
            try:
                vertex_key(v, MAX_VERTEX_DEPTH - 1)
            except GraphToolError:
                raise ContractViolationError(f"a host vertex or tree node nests {MAX_VERTEX_DEPTH} deep; "
                                             "its name in H would nest too deep to read back") from None


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
    torso.  The torso of a part above the threshold is built at most once: it
    is taken from ``torsos``, or built and kept there."""
    if FINITE in kinds and len(td.parts[t]) <= finite_threshold:
        return FINITE
    torsos = {} if torsos is None else torsos
    if t not in torsos:
        torsos[t] = torso(host, td, t)
    tg = torsos[t]
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
    ``torsos`` (tree node -> torso graph) reuses torsos already built and keeps
    those built here: the torso of each part that is not finite."""
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
    if set(classification) != set(td.tree.vertices) or any(td.tree.own_id(t) is None for t in classification):
        raise StructuralError("classification must label exactly the tree nodes")  # 1.0 is no label of the node 1
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
# planar refinement
# ---------------------------------------------------------------------------


class PlanarRefinement(NamedTuple):
    contracted: TreeDecomposition
    kept: dict           # contracted node s -> pruned part graph G_s'
    deletions: tuple     # (s, S, deleted component), in pruning order
    warnings: tuple


def refine_planar_torso(torso_graph: Graph, sub_td: TreeDecomposition | None, outer_sets: Iterable[frozenset],
                        markers: frozenset = frozenset()) -> PlanarRefinement:
    """Contract the sub-decomposition (the supplied ``sub_td``, checked as
    ``treedecomp._sub_decomposition`` checks it, or the min-degree one if
    None) down to its tight edges whose adhesion set is a size-3 outer set,
    then prune its parts (``_prune``).  A tight edge at S has a fully
    attached component of the torso − S on each side, so a computed
    sub-decomposition keeps only the S with two or more; with none left, the
    min-degree one is not built."""
    outer = sorted({frozenset(s) for s in outer_sets if s}, key=set_key)
    keep = {s for s in outer if len(s) == 3}
    if sub_td is None:
        keep = {s for s in keep if s <= torso_graph.vertices and len(fully_attached_components(torso_graph, s)) >= 2}
    return _prune(torso_graph, treedecomp._sub_decomposition(torso_graph, sub_td, keep), outer, markers)


def _prune(torso_graph: Graph, contracted: TreeDecomposition, outer: list, markers: frozenset) -> PlanarRefinement:
    """Per part and per outer adhesion set S (distinct, in key order) that is
    no edge's of ``contracted``, delete every fully attached component except
    the designated "infinite" one."""
    contracted_adh = set(adhesion_sets(contracted).values())
    kept: dict = {}
    deletions: list = []
    warnings: list = []
    for s in contracted.tree.sorted_vertices():
        original_part = contracted.parts[s]
        g_cur = torso(torso_graph, contracted, s)
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
                deletions.append((s, S, c))
                g_cur = induced_subgraph(g_cur, g_cur.vertices - c)
        kept[s] = g_cur
    return PlanarRefinement(contracted, kept, tuple(deletions), tuple(warnings))


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


def _hubs(adhesion: Iterable[frozenset]) -> dict:
    """The hub ``("xS", *S)`` of each distinct non-empty adhesion set S, in ``set_key`` order, in
    which the names compare too."""
    return {S: ("xS", *sort_vertices(S)) for S in sorted({S for S in adhesion if S}, key=set_key)}


class Bounds(NamedTuple):
    b1: int
    b2: int
    b3: int
    b4: int
    b5: int
    b: int


class Evidence(NamedTuple):
    """What ``build_H`` made on the way to H, each fact once."""
    classification: dict  # tree node -> torso class
    torsos: dict          # tree node -> torso graph, for each part that is not finite
    sub_tds: dict         # bounded-treewidth node -> its contracted sub-decomposition
    refinements: dict     # planar node -> its PlanarRefinement


class ConstructionOutput(NamedTuple):
    H: Graph
    phi: dict
    bounds: Bounds
    evidence: Evidence
    finite_threshold: int
    warnings: tuple


def build_H(bundle: InstanceBundle) -> ConstructionOutput:
    validate_bundle(bundle)
    host, td = bundle.host, bundle.td
    torsos: dict = {}  # the classification builds the torso of each part that is not finite
    classification = bundle.classification
    if classification is None:
        classification = classify_torsos(host, td, bundle.k, bundle.finite_threshold, torsos=torsos)
    else:
        check_classification(host, td, bundle.k, classification, bundle.finite_threshold, torsos=torsos)

    warnings: list = []
    all_adh = adhesion_sets(td).values()
    if not all(all_adh):
        warnings.append("empty adhesion set: the corresponding tree edge contributes no gluing vertex")

    # (i) one hub vertex per adhesion set; own[v] is first the hub of the key-least set holding v
    hub = _hubs(all_adh)
    edges: list = []
    own: dict = {}
    for S, x in hub.items():
        for v in S:
            own.setdefault(v, x)

    # (ii)-(iv) each torso adds its vertices, inner edges, glue to the hubs of
    # the adhesion sets in its part, and the φ candidates of its vertices: its
    # planar copies, and own[v], its image in its own part (set only for a
    # vertex outside every adhesion set, which by (T3) lies in exactly one
    # part).  Finite torsos come first, then bounded-treewidth, then planar,
    # so every sub-decomposition error of a
    # bounded-treewidth torso precedes any planar one.  Each kind of H vertex
    # is listed in key order as it comes, by the positions of its parts in
    # their trees and graphs: planar copies ("pl", t, s, v), tree copies
    # ("tw", t, s), finite points ("xt", t).  Joined with the hubs, in set_key
    # order, as "pl" < "tw" < "xS" < "xt", they are H's key order: no H name is keyed.
    pl, tw, xt, copies = [], [], [], []  # copies: (first id, kept graph) of each planar part
    evidence = Evidence(dict(classification), torsos, {}, {})
    for t in sorted(td.tree.sorted_vertices(), key=lambda t: TORSO_KINDS.index(classification[t])):
        outer = [S for S in hub if S <= td.parts[t]]
        provided = bundle.sub_tds.get(t)
        if classification[t] == FINITE:
            x = ("xt", t)
            xt.append(x)
            edges.extend((hub[S], x) for S in outer)
            for v in td.parts[t]:
                own.setdefault(v, x)
        elif classification[t] == BOUNDED_TW:
            sub = evidence.sub_tds[t] = treedecomp._sub_decomposition(torsos[t], provided)
            name = {s: ("tw", t, s) for s in sub.tree.sorted_vertices()}
            for s, x in name.items():
                tw.append(x)
                for v in sub.parts[s]:
                    own.setdefault(v, x)
            edges.extend((name[s1], name[s2]) for (s1, s2) in sub.tree.sorted_edges())
            for S in outer:
                center = tw_torso_attachment(sub, S)
                ends = [center.location] if center.kind == "vertex" else center.location
                edges.extend((hub[S], name[s]) for s in ends)
        else:
            ref = evidence.refinements[t] = refine_planar_torso(torsos[t], provided, outer, bundle.infinite_markers)
            warnings.extend(ref.warnings)
            for s in ref.contracted.tree.sorted_vertices():
                g = ref.kept[s]
                copies.append((len(pl), g))  # the planar copies come first, so their ids are final
                names = [("pl", t, s, v) for v in g.order]
                pl.extend(names)
                edges.extend((hub[S], names[g.pos[v]]) for S in outer if S <= g.vertices for v in S)
            for _, S, c in ref.deletions:  # a pruned vertex maps to the hub of its first pruning site
                for v in c:
                    own.setdefault(v, hub[S])

    order = pl + tw + list(hub.values()) + xt
    # H is the host renamed, φ(v) the name at v's id, if H is the host as its one planar copy and nothing else
    if copies and copies[0][1] is host and len(order) == len(host.order):
        H = host._renamed(order)
        phi = dict(zip(host.order, order))
    else:
        pos = {x: i for i, x in enumerate(order)}
        pairs = [(base + i, base + j) for base, g in copies for i, js in enumerate(g.nbrs) for j in js if j > i]
        H = Graph._on_ids(order, pairs + [(pos[a], pos[b]) for a, b in edges])
        # φ: first surviving planar copy > adhesion hub > image in its own part.  By (T1) and the torso
        # classes every host vertex has one; verify_output refuses an image that is not a vertex of H.
        copy_of = {x[3]: x for x in reversed(pl)}
        phi = {v: copy_of.get(v) or own.get(v) for v in host.order}

    return ConstructionOutput(
        H=H,
        phi=phi,
        bounds=_compute_bounds(td, evidence),
        evidence=evidence,
        finite_threshold=bundle.finite_threshold,
        warnings=tuple(warnings),
    )


def _compute_bounds(td: TreeDecomposition, evidence: Evidence) -> Bounds:
    b1 = max((len(td.parts[t]) for t, k in evidence.classification.items() if k == FINITE), default=0)
    b2 = max((width(sub) for sub in evidence.sub_tds.values()), default=0)
    b3 = 0
    b4 = 0
    for t, sub in evidence.sub_tds.items():
        g = evidence.torsos[t]
        # Per torso id, the ids sharing a part with it and the parts holding it.
        near, count = [0] * len(g.order), [0] * len(g.order)
        for part in sub.parts.values():
            m = g.bits(part)
            for x in bit_ids(m):
                near[x] |= m
                count[x] += 1
        b4 = max([b4, *count])
        if any(near[x] & ~comp for comp in g.component_masks for x in bit_ids(comp)):
            raise StructuralError(f"part of the sub-decomposition at {t!r} is not connected within its torso")
        # b3 is at least the first BFS level at which every id's ball holds every id sharing a part with it.
        for d, balls in enumerate(g.ball_levels([1 << x for x in range(len(near))])):
            if all(want & ~ball == 0 for want, ball in zip(near, balls)):
                b3 = max(b3, d)
                break
    refinements = evidence.refinements.values()
    b5 = 1 + max((len(c) for ref in refinements for _, _, c in ref.deletions), default=0) if refinements else 0
    b = max(b1, b3 * b4, b5)
    return Bounds(b1, b2, b3, b4, b5, b)


# ---------------------------------------------------------------------------
# self-verification
# ---------------------------------------------------------------------------


class VerificationReport(NamedTuple):
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

    # A hub of degree ≥ 2 separates its attachment sides exactly when it is a cut vertex of H.  The hubs
    # come from the bundle, so a name missing from H is skipped; the names sort as their sets do.
    hubs = [x for x in _hubs(adhesion_sets(bundle.td).values()).values() if x in out.H and out.H.degree(x) >= 2]
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
    # Only a JSON number that is an integer: true is not 1, "2" is a string, and 2.5, Infinity and NaN are not integers.
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ParseError(f"bundle key {key!r} must be an integer, not {value!r}")


def _provenance(x: tuple, token: Callable) -> tuple[str, dict]:
    """The token of H vertex x and its provenance record as JSON values, both built from the tokens
    of its name's fields: ``("pl", t, s, v)`` is the copy of v in part s of planar torso t,
    ``("tw", t, s)`` the copy of node s of t's sub-decomposition, ``("xt", t)`` finite torso t's
    point, and ``("xS", *S)`` the hub of adhesion set S."""
    tag = x[0]
    if tag == "pl":
        t, s, v = token(x[1]), token(x[2]), token(x[3])
        return f"(pl|{t}|{s}|{v})", {"kind": "planar-copy", "node": t, "part": s, "vertex": v}
    if tag == "tw":
        t, s = token(x[1]), token(x[2])
        return f"(tw|{t}|{s})", {"kind": "tree-copy", "node": t, "tree_node": s}
    if tag == "xt":
        t = token(x[1])
        return f"(xt|{t})", {"kind": "finite-torso", "node": t}
    S = list(map(token, x[1:]))
    return "(" + "|".join(["xS", *S]) + ")", {"kind": "adhesion-set", "set": S}


def output_to_dict(out: ConstructionOutput) -> dict:
    """The output as JSON values.  Each host vertex, tree node and sub-decomposition node is rendered
    once, and each H vertex's token and provenance record are built from the tokens of its name's
    fields; H's edges, isolated vertices and provenance come in H id order, φ in the host key order
    of ``build_H``."""
    H, token = out.H, cache(vertex_token)  # each vertex rendered on its first lookup
    h_tokens, provenance = [], {}
    for x in H.order:
        t, rec = _provenance(x, token)
        h_tokens.append(t)
        provenance[t] = rec
    pos = H.pos
    return {
        "h_edges": [[h_tokens[i], h_tokens[j]] for i, js in enumerate(H.nbrs) for j in js if j > i],
        "h_isolated": [h_tokens[i] for i, js in enumerate(H.nbrs) if not js],
        "phi": {token(v): h_tokens[pos[x]] for v, x in out.phi.items()},
        "bounds": out.bounds._asdict(),
        "classification": {
            token(t): out.evidence.classification[t] for t in sort_vertices(out.evidence.classification)
        },
        "finite_threshold": out.finite_threshold,
        "provenance": provenance,
        "warnings": list(out.warnings),
    }


def report_to_dict(rep: VerificationReport) -> dict:
    return {
        **rep._asdict(),
        "c": None if rep.c is None else str(rep.c),
        "cut_vertex_failures": [vertex_token(x) for x in rep.cut_vertex_failures],
        "failures": list(rep.failures),
    }
