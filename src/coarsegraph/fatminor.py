"""K-fat minor models: verification and bounded search.

A model of a pattern H inside a host G assigns each pattern vertex a branch
set and each pattern edge a host path.  It is K-fat when
(1) each path P_uv meets the union of branch sets exactly in its two
    endpoints, one in B_u and one in B_v;
(2) d(P_uv, B_w) ≥ K for every w ∉ {u, v};
(3) d(B_u, B_v) ≥ K for all distinct u, v;
(4) d(P_e, P_e') ≥ K for all distinct pattern edges e, e'.

Distances in (2) and (4) are measured to whole paths including endpoints (the
strict reading); for K ≥ 1 this forces the attachment points of different
paths at a shared branch set to be ≥ K apart, so single-vertex branch sets
cannot carry two pattern edges.

The searcher is exhaustive (hence sound for "not-found") on hosts up to
``exhaustive_cap`` vertices, and a verified-witness heuristic beyond that;
negative answers from the heuristic regime are reported "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import CapacityError, ParseError, StructuralError
from .graph import (
    Graph,
    canonical_edge,
    components,
    grow_mask,
    induces_connected,
    is_path,
    parse_vertex_token,
    row_distance,
    set_key,
    shortest_path,
    sort_vertices,
    vertex_from_json,
    vertex_key,
    vertex_token,
)
from . import planarity

DEFAULT_BUDGET = 200_000
DEFAULT_PATTERN_CAP = 5
DEFAULT_HOST_CAP = 400
DEFAULT_EXHAUSTIVE_CAP = 10


@dataclass(frozen=True)
class FatMinorModel:
    pattern: Graph
    host: Graph
    branch_sets: dict  # pattern vertex -> frozenset of host vertices
    edge_paths: dict   # canonical pattern edge -> tuple of host vertices


@dataclass(frozen=True)
class FatVerifyReport:
    ok: bool
    failed_condition: int | None = None  # 1..4
    detail: str = ""


def check_model_structure(m: FatMinorModel) -> None:
    """Raise StructuralError naming the violated invariant, if any."""
    if set(m.branch_sets) != set(m.pattern.vertices):
        raise StructuralError("branch sets must be keyed exactly by the pattern vertices")
    taken: set = set()
    for v in m.pattern.sorted_vertices():
        b = frozenset(m.branch_sets[v])
        if not b:
            raise StructuralError(f"branch set of {v!r} is empty")
        for x in b:
            m.host.require_vertex(x)
        if b & taken:
            raise StructuralError(f"branch set of {v!r} overlaps another branch set")
        taken |= b
        if not induces_connected(m.host, b):
            raise StructuralError(f"branch set of {v!r} is not connected")
    expected_edges = set(m.pattern.edges)
    given_edges = {canonical_edge(*e) for e in m.edge_paths}
    if given_edges != expected_edges:
        raise StructuralError("edge paths must be keyed exactly by the pattern edges")
    for e, p in m.edge_paths.items():
        if not is_path(m.host, p):
            raise StructuralError(f"edge path for {e!r} is not a path of the host")


def verify_fat_model(m: FatMinorModel, K: int) -> FatVerifyReport:
    """Check conditions (1)-(4) and report the first failure."""
    if K < 0:
        raise StructuralError("K must be non-negative")
    check_model_structure(m)
    union_b = frozenset().union(*m.branch_sets.values()) if m.branch_sets else frozenset()
    path_of = {canonical_edge(*e): tuple(p) for e, p in m.edge_paths.items()}
    edges = sorted(path_of, key=lambda e: (vertex_key(e[0]), vertex_key(e[1])))

    for (u, v) in edges:
        p = path_of[(u, v)]
        ends = {p[0], p[-1]}
        b_u, b_v = m.branch_sets[u], m.branch_sets[v]
        end_ok = (p[0] in b_u and p[-1] in b_v) or (p[0] in b_v and p[-1] in b_u)
        if len(p) < 2 or not end_ok:
            return FatVerifyReport(False, 1, f"path for {u!r}-{v!r} must run from B_{u!r} to B_{v!r}")
        inner_hits = (set(p) & union_b) - ends
        if inner_hits:
            return FatVerifyReport(False, 1, f"path for {u!r}-{v!r} meets branch sets beyond its endpoints")

    if K > 0:
        index, pverts = m.host.index, m.pattern.sorted_vertices()
        b_ids = {w: [index.pos[x] for x in b] for w, b in m.branch_sets.items()}
        p_ids = {e: [index.pos[x] for x in p] for e, p in path_of.items()}
        p_rows: dict = {}  # one BFS row per path, read again by condition (4)
        for (u, v) in edges:
            p_rows[(u, v)] = row = index.distance_row(p_ids[(u, v)])
            for w in pverts:
                if w in (u, v):
                    continue
                d = row_distance(row, b_ids[w])
                if d < K:
                    return FatVerifyReport(False, 2, f"path for {u!r}-{v!r} is at distance {d} < {K} from B_{w!r}")
        for i, u in enumerate(pverts[:-1]):
            row = index.distance_row(b_ids[u])
            for v in pverts[i + 1:]:
                d = row_distance(row, b_ids[v])
                if d < K:
                    return FatVerifyReport(False, 3, f"B_{u!r} and B_{v!r} are at distance {d} < {K}")
        for e1, e2 in combinations(edges, 2):
            d = row_distance(p_rows[e1], p_ids[e2])
            if d < K:
                return FatVerifyReport(False, 4, f"paths for {e1!r} and {e2!r} are at distance {d} < {K}")
    return FatVerifyReport(True)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "not-found" | "inconclusive"
    model: FatMinorModel | None
    reason: str
    nodes_used: int


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise _BudgetExhausted()


class _BudgetExhausted(Exception):
    pass


def _quick_reject(pattern: Graph, host: Graph, K: int) -> str | None:
    """Sound impossibility arguments that avoid any search."""
    if len(pattern.vertices) > len(host.vertices):
        return "pattern has more vertices than the host can supply disjoint branch sets for"
    if K >= 1:
        # At K ≥ 1 the paths are pairwise disjoint and avoid foreign branch
        # sets, so a fat model collapses to an ordinary minor model.
        if len(pattern.edges) > len(host.edges):
            return "pattern has more edges than the host (no minor model possible)"
        host_forest = len(host.edges) == len(host.vertices) - len(components(host))
        pattern_has_cycle = len(pattern.edges) > len(pattern.vertices) - len(components(pattern))
        if host_forest and pattern_has_cycle:
            return "host is a forest but the pattern contains a cycle"
        if not planarity.is_planar(pattern, witness_cap=0).planar and planarity.is_planar(host, witness_cap=0).planar:
            return "host is planar but the pattern is not"
    return None


def _connected_subsets(host: Graph) -> list[frozenset]:
    verts, masks = host.index.order, host.index.masks
    out = [
        frozenset(verts[i] for i in range(len(verts)) if (mask >> i) & 1)
        for mask in range(1, 1 << len(verts))
        if grow_mask(masks, mask & -mask, mask)[0] == mask
    ]
    out.sort(key=lambda s: (len(s), set_key(s)))
    return out


def _ball(host: Graph, around, radius: int) -> frozenset:
    if radius < 0:
        return frozenset()
    index = host.index
    row = index.distance_row(index.pos[v] for v in around)
    return frozenset(v for v, d in zip(index.order, row) if 0 <= d <= radius)


def _route_edges_exhaustive(
    host: Graph,
    pattern: Graph,
    branch: dict,
    K: int,
    budget: _Budget,
) -> dict | None:
    """Assign paths to all pattern edges, backtracking across edges (K ≥ 1)."""
    union_b = frozenset().union(*branch.values()) if branch else frozenset()
    edges = sorted({canonical_edge(*e) for e in pattern.edges}, key=lambda e: (vertex_key(e[0]), vertex_key(e[1])))
    # Vertices at distance < K from a foreign branch set are banned per edge.
    near = {w: _ball(host, branch[w], K - 1) for w in pattern.vertices}
    banned = {e: frozenset().union(*(near[w] for w in pattern.vertices if w not in e)) for e in edges}
    paths: dict = {}
    blocked: list = []  # parallel list of K-neighbourhoods of routed paths

    def attempt(ei: int) -> bool:
        if ei == len(edges):
            return True
        e = edges[ei]
        u, v = e
        b_u, b_v = branch[u], branch[v]
        avoid = set(banned[e])
        for zone in blocked:
            avoid |= zone
        starts = [a for a in sort_vertices(b_u) if a not in avoid]
        stack = [(a, (a,)) for a in reversed(starts)]
        while stack:
            budget.spend()
            x, p = stack.pop()
            for w in sort_vertices(host.neighbors(x)):
                if w in avoid or w in p:
                    continue
                if w in b_v:
                    cand = p + (w,)
                    paths[e] = cand
                    blocked.append(_ball(host, cand, K - 1))
                    if attempt(ei + 1):
                        return True
                    blocked.pop()
                    del paths[e]
                    continue
                if w in union_b:
                    continue
                stack.append((w, p + (w,)))
        return False

    if attempt(0):
        return paths
    return None


def _route_edges_free(host: Graph, pattern: Graph, branch: dict, budget: _Budget) -> dict | None:
    """K = 0: paths are independent, one breadth-first search per edge."""
    union_b = frozenset().union(*branch.values()) if branch else frozenset()
    paths: dict = {}
    for e in sorted({canonical_edge(*x) for x in pattern.edges}, key=lambda e: (vertex_key(e[0]), vertex_key(e[1]))):
        u, v = e
        allowed = (host.vertices - union_b) | branch[u] | branch[v]
        # Breadth-first from B_u, staying outside branch sets in the interior.
        prev: dict = {a: None for a in branch[u]}
        queue = sort_vertices(branch[u])
        hit = None
        while queue and hit is None:
            nxt = []
            for x in queue:
                budget.spend()
                for w in sort_vertices(host.neighbors(x)):
                    if w in prev or w not in allowed:
                        continue
                    if x in branch[u] and w in branch[u]:
                        continue
                    if w in branch[v]:
                        prev[w] = x
                        hit = w
                        break
                    if w in branch[u]:
                        continue
                    prev[w] = x
                    nxt.append(w)
                if hit is not None:
                    break
            queue = nxt
        if hit is None:
            return None
        p = [hit]
        while prev[p[-1]] is not None:
            p.append(prev[p[-1]])
        paths[e] = tuple(reversed(p))
    return paths


def _search_exhaustive(pattern: Graph, host: Graph, K: int, budget: _Budget) -> SearchOutcome:
    subsets = _connected_subsets(host)
    pverts = sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), vertex_key(v)))
    branch: dict = {}
    used: set = set()

    def place(i: int) -> dict | None:
        if i == len(pverts):
            if K == 0:
                return _route_edges_free(host, pattern, branch, budget)
            return _route_edges_exhaustive(host, pattern, branch, K, budget)
        v = pverts[i]
        remaining = len(pverts) - i
        for s in subsets:
            budget.spend()
            if s & used:
                continue
            if len(host.vertices) - len(used) - len(s) < remaining - 1:
                continue
            if K >= 1 and used and _ball(host, s, K - 1) & used:
                continue
            branch[v] = s
            used.update(s)
            got = place(i + 1)
            if got is not None:
                return got
            used.difference_update(s)
            del branch[v]
        return None

    try:
        paths = place(0)
    except _BudgetExhausted:
        return SearchOutcome("inconclusive", None, "budget exhausted during exhaustive search", budget.used)
    if paths is None:
        return SearchOutcome("not-found", None, "search space exhausted", budget.used)
    model = FatMinorModel(pattern, host, dict(branch), paths)
    report = verify_fat_model(model, K)
    if not report.ok:
        raise StructuralError(f"search produced an invalid model: {report.detail}")
    return SearchOutcome("found", model, "witness verified", budget.used)


def _farthest_point_seeds(host: Graph, count: int) -> list:
    index = host.index
    seeds = [0]
    # Distance from each vertex to its nearest seed; an unreached vertex counts as 0.
    near = [max(d, 0) for d in index.distance_row(seeds)]
    while len(seeds) < count:
        best = max((i for i in range(len(near)) if i not in seeds), key=near.__getitem__, default=None)
        if best is None:
            break
        seeds.append(best)
        near = [min(a, max(d, 0)) for a, d in zip(near, index.distance_row([best]))]
    return [index.order[i] for i in seeds]


def _search_heuristic(pattern: Graph, host: Graph, K: int, budget: _Budget) -> SearchOutcome:
    """Seed-and-skeleton placement: pattern vertices on far-apart seeds, edges
    routed along geodesics, branch sets grown as geodesic prefixes.  Every
    candidate is re-verified; absence of a candidate proves nothing."""
    pverts = pattern.sorted_vertices()
    p = len(pverts)
    if p == 0:
        return SearchOutcome("found", FatMinorModel(pattern, host, {}, {}), "empty pattern", budget.used)
    seeds = _farthest_point_seeds(host, p)
    if len(seeds) < p:
        return SearchOutcome("inconclusive", None, "host has fewer vertices than seeds needed", budget.used)
    prefix_lengths = sorted({(K + 1) // 2, max(K, 1), K + 1})
    try:
        for perm in permutations(seeds):
            assign = dict(zip(pverts, perm))
            for L in prefix_lengths:
                budget.spend(50)
                model = _skeleton_model(pattern, host, assign, L)
                if model is None:
                    continue
                try:
                    report = verify_fat_model(model, K)
                except StructuralError:
                    continue
                if report.ok:
                    return SearchOutcome("found", model, "heuristic witness verified", budget.used)
    except _BudgetExhausted:
        return SearchOutcome("inconclusive", None, "budget exhausted during heuristic search", budget.used)
    return SearchOutcome(
        "inconclusive",
        None,
        "no heuristic witness; host exceeds the exhaustive-search cap so absence is not certified",
        budget.used,
    )


def _skeleton_model(pattern: Graph, host: Graph, assign: dict, L: int) -> FatMinorModel | None:
    geodesics: dict = {}
    for e in pattern.sorted_edges():
        u, v = e
        path = shortest_path(host, assign[u], assign[v])
        if path is None:
            return None
        geodesics[e] = path
    branch: dict = {}
    for v in pattern.sorted_vertices():
        cut = L if pattern.degree(v) > 1 else 0
        b: set = {assign[v]}
        for e, path in geodesics.items():
            if v == e[0]:
                b.update(path[: cut + 1])
            elif v == e[1]:
                b.update(path[len(path) - cut - 1:])
        branch[v] = frozenset(b)
    paths: dict = {}
    for e, path in geodesics.items():
        u, v = e
        cu = L if pattern.degree(u) > 1 else 0
        cv = L if pattern.degree(v) > 1 else 0
        if cu + cv + 2 > len(path):
            return None
        paths[e] = tuple(path[cu: len(path) - cv])
    return FatMinorModel(pattern, host, branch, paths)


def search_fat_minor(
    pattern: Graph,
    host: Graph,
    K: int,
    budget: int = DEFAULT_BUDGET,
    pattern_cap: int = DEFAULT_PATTERN_CAP,
    host_cap: int = DEFAULT_HOST_CAP,
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> SearchOutcome:
    if K < 0:
        raise StructuralError("K must be non-negative")
    if len(pattern.vertices) > pattern_cap:
        raise CapacityError(f"pattern has {len(pattern.vertices)} vertices, cap is {pattern_cap}")
    if len(host.vertices) > host_cap:
        raise CapacityError(f"host has {len(host.vertices)} vertices, cap is {host_cap}")
    if not pattern.vertices:
        return SearchOutcome("found", FatMinorModel(pattern, host, {}, {}), "empty pattern", 0)
    reason = _quick_reject(pattern, host, K)
    if reason is not None:
        return SearchOutcome("not-found", None, reason, 0)
    b = _Budget(budget)
    if len(host.vertices) <= exhaustive_cap:
        return _search_exhaustive(pattern, host, K, b)
    return _search_heuristic(pattern, host, K, b)


def asymptotic_probe(pattern: Graph, host: Graph, k_list, budget: int = DEFAULT_BUDGET) -> dict:
    """Sweep K values (descending), reusing found witnesses downward.

    A witness at K is a witness at every K' ≤ K (all distance conditions only
    get weaker), which keeps the verdict map monotone by construction.
    """
    ks = sorted({int(k) for k in k_list}, reverse=True)
    results: dict = {}
    carried: FatMinorModel | None = None
    for K in ks:
        if carried is not None:
            report = verify_fat_model(carried, K)
            if not report.ok:
                raise StructuralError("witness monotonicity failed; this indicates a verifier bug")
            results[K] = SearchOutcome("found", carried, "witness carried from larger K", 0)
            continue
        outcome = search_fat_minor(pattern, host, K, budget=budget)
        results[K] = outcome
        if outcome.status == "found":
            carried = outcome.model
    return dict(sorted(results.items()))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def model_to_dict(m: FatMinorModel) -> dict:
    return {
        "branch_sets": {
            vertex_token(v): [vertex_token(x) for x in sort_vertices(m.branch_sets[v])]
            for v in m.pattern.sorted_vertices()
        },
        "edge_paths": {
            f"{vertex_token(e[0])}-{vertex_token(e[1])}": [vertex_token(x) for x in m.edge_paths[e]]
            for e in sorted(m.edge_paths, key=lambda e: (vertex_key(e[0]), vertex_key(e[1])))
        },
    }


def _json_vertex_lists(data: dict, key: str) -> dict:
    """``data[key]``, an object of vertex lists, with each member read by ``vertex_from_json``."""
    if not isinstance(data[key], dict) or not all(isinstance(vs, list) for vs in data[key].values()):
        raise ParseError(f"model key {key!r} must be a JSON object of vertex lists")
    return {k: [vertex_from_json(x) for x in vs] for k, vs in data[key].items()}


def model_from_dict(pattern: Graph, host: Graph, data: dict) -> FatMinorModel:
    if not isinstance(data, dict) or "branch_sets" not in data or "edge_paths" not in data:
        raise StructuralError("model JSON must have keys 'branch_sets' and 'edge_paths'")
    branch = {vertex_from_json(k): frozenset(vs) for k, vs in _json_vertex_lists(data, "branch_sets").items()}
    paths: dict = {}
    for key, vs in _json_vertex_lists(data, "edge_paths").items():
        ends = None
        for cut in range(1, len(key)):
            if key[cut] != "-":
                continue
            a, b = parse_vertex_token(key[:cut]), parse_vertex_token(key[cut + 1:])
            if a in pattern.vertices and b in pattern.vertices:
                ends = (a, b)
                break
        if ends is None:
            raise StructuralError(f"edge key {key!r} does not name two pattern vertices")
        paths[canonical_edge(*ends)] = tuple(vs)
    model = FatMinorModel(pattern, host, branch, paths)
    check_model_structure(model)
    return model
