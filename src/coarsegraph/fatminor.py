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
``EXHAUSTIVE_CAP`` vertices, and a verified-witness heuristic beyond that;
negative answers from the heuristic regime are reported "inconclusive".
Both work on the host's ids (branch sets as masks, paths as id tuples),
check each candidate against (1)-(4) with the id-level check that
``verify_fat_model`` runs after its structural one, and return the labelled
witness only once ``verify_fat_model`` has passed it.  Ids follow vertex-key
order, so candidates are tried in key order.  The exhaustive search reads the
radius-(K − 1) ball of every vertex once, so a set's ball is an OR of vertex
balls, and takes for the first pattern vertex only branch sets least in their
Aut(host) orbit (isomorph rejection): the model found is the unfiltered
search's, for fewer nodes.  At K ≥ 1 it also prunes by pattern degree: the
deg_P(v) paths at v are disjoint and each has an end in B_v, so B_v holds at
least deg_P(v) vertices, and a set is placed only if the vertices left outside
the sets placed so far can still give each later pattern vertex that many.
Both cuts drop only subtrees that hold no model, so the first model found and
every decided status stay as without them.  The heuristic reads its geodesics
off one BFS parent row per seed.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, islice, permutations
from operator import or_
from typing import NamedTuple

from .errors import CapacityError, ParseError, StructuralError
from .graph import (
    Graph,
    _unknown,
    bit_ids,
    canonical_edge,
    kept,
    mask_components,
    parent_path,
    parse_vertex_token,
    row_distance,
    sort_vertices,
    vertex_from_json,
    vertex_key,
    vertex_token,
)
from . import planarity, symmetry

DEFAULT_BUDGET = 200_000
PATTERN_CAP = 5
HOST_CAP = 400
EXHAUSTIVE_CAP = 10


class FatMinorModel(NamedTuple):
    pattern: Graph
    host: Graph
    branch_sets: dict  # pattern vertex -> frozenset of host vertices
    edge_paths: dict   # canonical pattern edge -> tuple of host vertices


class FatVerifyReport(NamedTuple):
    ok: bool
    failed_condition: int | None = None  # 1..4
    detail: str = ""


def check_model_structure(m: FatMinorModel) -> None:
    """Raise StructuralError naming the violated invariant, if any."""
    _model_on_ids(m)


def _model_on_ids(m: FatMinorModel) -> tuple[dict, dict]:
    """The model on ``m.host`` ids, checked for structure on the way: branch
    sets as id masks by pattern vertex, paths as id tuples by canonical edge."""
    if set(m.branch_sets) != set(m.pattern.vertices):
        raise StructuralError("branch sets must be keyed exactly by the pattern vertices")
    own_id, masks = m.host.own_id, m.host.masks
    branch: dict = {}
    taken = 0
    for v in m.pattern.sorted_vertices():
        b = frozenset(m.branch_sets[v])
        if not b:
            raise StructuralError(f"branch set of {v!r} is empty")
        ids = [own_id(w) for w in b]
        if None in ids:
            _unknown([w for w, i in zip(b, ids) if i is None])
        branch[v] = x = sum(1 << i for i in ids)
        if x & taken:
            raise StructuralError(f"branch set of {v!r} overlaps another branch set")
        taken |= x
        if next(mask_components(masks, x))[0] != x:
            raise StructuralError(f"branch set of {v!r} is not connected")
    if {canonical_edge(*e) for e in m.edge_paths} != set(m.pattern.edges):
        raise StructuralError("edge paths must be keyed exactly by the pattern edges")
    paths: dict = {}
    for e, p in m.edge_paths.items():
        ids = tuple(own_id(x) for x in p)
        steps = zip(ids, ids[1:])
        if not ids or None in ids or len(set(ids)) < len(ids) or any(masks[a] >> b & 1 == 0 for a, b in steps):
            raise StructuralError(f"edge path for {e!r} is not a path of the host")
        paths[canonical_edge(*e)] = ids
    return branch, paths


def _count(value, name: str) -> int:
    """``value`` if it is a count: an int, not a bool (an int, but a flag), and not negative."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise StructuralError(f"{name} must be non-negative")
    return value


def verify_fat_model(m: FatMinorModel, K: int) -> FatVerifyReport:
    """Check the structure, then conditions (1)-(4), on ids; report the first failure."""
    K = _count(K, "K")
    return _fat_report(m.host, m.pattern, *_model_on_ids(m), K)


def _fat_report(host: Graph, pattern: Graph, branch: dict, paths: dict, K: int) -> FatVerifyReport:
    """Conditions (1)-(4) for a structurally sound model on ``host`` ids: branch
    sets as id masks, paths as id tuples keyed by the pattern's edges."""
    pverts, edges = pattern.sorted_vertices(), pattern.sorted_edges()
    union_b = reduce(or_, branch.values(), 0)
    for (u, v) in edges:
        p = paths[(u, v)]
        b_u, b_v = branch[u], branch[v]
        ends = 1 << p[0] | 1 << p[-1]  # two ids once len(p) ≥ 2, as a path's vertices are distinct
        if len(p) < 2 or not (b_u & ends and b_v & ends):
            return FatVerifyReport(False, 1, f"path for {u!r}-{v!r} must run from B_{u!r} to B_{v!r}")
        if any(union_b >> x & 1 for x in p[1:-1]):
            return FatVerifyReport(False, 1, f"path for {u!r}-{v!r} meets branch sets beyond its endpoints")

    if K > 0:
        b_ids = {w: bit_ids(b) for w, b in branch.items()}
        p_rows: dict = {}  # one BFS row per path, read again by condition (4)
        for (u, v) in edges:
            p_rows[(u, v)] = row = host.distance_row(paths[(u, v)])
            for w in pverts:
                if w in (u, v):
                    continue
                d = row_distance(row, b_ids[w])
                if d < K:
                    return FatVerifyReport(False, 2, f"path for {u!r}-{v!r} is at distance {d} < {K} from B_{w!r}")
        for i, u in enumerate(pverts[:-1]):
            row = host.distance_row(b_ids[u])
            for v in pverts[i + 1:]:
                d = row_distance(row, b_ids[v])
                if d < K:
                    return FatVerifyReport(False, 3, f"B_{u!r} and B_{v!r} are at distance {d} < {K}")
        for e1, e2 in combinations(edges, 2):
            d = row_distance(p_rows[e1], paths[e2])
            if d < K:
                return FatVerifyReport(False, 4, f"paths for {e1!r} and {e2!r} are at distance {d} < {K}")
    return FatVerifyReport(True)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


class SearchOutcome(NamedTuple):
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
        host_forest = len(host.edges) == len(host.vertices) - len(host.component_masks)
        pattern_has_cycle = len(pattern.edges) > len(pattern.vertices) - len(pattern.component_masks)
        if host_forest and pattern_has_cycle:
            return "host is a forest but the pattern contains a cycle"
        if not planarity.is_planar(pattern, witness_cap=0).planar and planarity.is_planar(host, witness_cap=0).planar:
            return "host is planar but the pattern is not"
    return None


@kept
def _connected_subsets(g: Graph) -> tuple[int, ...]:
    """Every connected vertex set as an id mask, by size and then by ``set_key``
    (ids follow key order, so that is the order of the sorted id lists).  A
    connected set of k + 1 vertices is one of k vertices plus a neighbour, so the
    sets are grown size by size: the work follows their number, not 2^n masks."""
    masks = g.masks
    level = {1 << i: m for i, m in enumerate(masks)}  # each set of one size -> its vertices' neighbours
    out = list(level)
    while level:
        grown: dict = {}
        for s, nb in level.items():
            for j in bit_ids(nb & ~s):
                grown.setdefault(s | 1 << j, nb | masks[j])
        out += grown
        level = grown
    return tuple(sorted(out, key=lambda m: (m.bit_count(), bit_ids(m))))


def _first_in_orbit(host: Graph):
    """A test fed the connected id sets in search order: it passes each set not
    met before, the least of its Aut(host) orbit, and marks that orbit met."""
    gens = [[1 << j for j in a] for a in symmetry.automorphism_generators(host)]
    met: set = set()

    def first(s: int) -> bool:
        if s in met:
            return False
        met.add(s)
        orbit = [s]
        for t in orbit:
            images = {sum(map(g.__getitem__, bit_ids(t))) for g in gens} - met
            met.update(images)
            orbit += images
        return True

    return first


def _vertex_balls(g: Graph, radius: int) -> list[int]:
    """Per vertex id, the mask of ids within ``radius`` of it: that level of the ball
    levels, read at most n deep, since no ball grows past level n − 1."""
    if radius < 0:
        return [0] * len(g.order)
    return next(islice(g.ball_levels([1 << i for i in range(len(g.order))]), min(radius, len(g.order)), None))


def _search_exhaustive(pattern: Graph, host: Graph, K: int, budget: _Budget) -> SearchOutcome:
    """Place connected branch sets on the pattern vertices (highest degree first),
    then route the pattern edges between them; the first full model found is
    the witness.  Placement and routing share ``branch``, ``near`` (each branch
    set's radius-(K − 1) ball: what lies at distance < K from it) and ``paths``."""
    nbrs, n = host.nbrs, len(host.order)
    edges = pattern.sorted_edges()
    balls = _vertex_balls(host, K - 1)
    # (mask, size, ball of the set)
    subsets = [(s, s.bit_count(), reduce(or_, map(balls.__getitem__, bit_ids(s)))) for s in _connected_subsets(host)]
    pverts = sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), vertex_key(v)))
    need = [max(1, pattern.degree(v)) if K >= 1 else 1 for v in pverts]  # least size of each branch set
    later = [sum(need[i + 1:]) for i in range(len(pverts))]  # least vertices the sets after pverts[i] take
    first_in_orbit = _first_in_orbit(host)
    branch: dict = {}
    near: dict = {}
    paths: dict = {}

    def route(ei: int, used: int, blocked: int) -> bool:
        """Route ``edges[ei:]`` with interiors outside the branch sets ``used``;
        ``blocked`` is what lies at distance < K from the paths routed so far."""
        if ei == len(edges):
            return True
        e = u, v = edges[ei]
        b_u, b_v = branch[u], branch[v]
        if K == 0:  # paths are independent: take the first of a breadth-first search from B_u
            seen = b_u | (used & ~b_v)
            prev = [x if b_u >> x & 1 else -1 for x in range(n)]  # each id of B_u is a root
            queue = bit_ids(b_u)
            for x in queue:  # the list grows while it is read, as a FIFO queue
                budget.spend()
                for w in nbrs[x]:
                    if seen >> w & 1:
                        continue
                    prev[w] = x
                    if b_v >> w & 1:
                        paths[e] = parent_path(prev, w)
                        return route(ei + 1, used, 0)
                    seen |= 1 << w
                    queue.append(w)
            return False
        # K ≥ 1: depth-first, backtracking across edges, outside what lies at
        # distance < K from a foreign branch set or a routed path.
        avoid = reduce(or_, (zone for w, zone in near.items() if w != u and w != v), blocked)
        stack = [(a, (a,), 1 << a) for a in reversed(bit_ids(b_u & ~avoid))]
        while stack:
            budget.spend()
            x, p, on_p = stack.pop()
            for w in nbrs[x]:
                if (avoid | on_p) >> w & 1:
                    continue
                if b_v >> w & 1:
                    paths[e] = cand = p + (w,)
                    if route(ei + 1, used, blocked | reduce(or_, map(balls.__getitem__, cand))):
                        return True
                    continue
                if used >> w & 1:
                    continue
                stack.append((w, p + (w,), on_p | 1 << w))
        return False

    def place(i: int, used: int) -> bool:
        """Place ``pverts[i:]`` outside ``used``, then route; a set placed here is
        overwritten by the next candidate, so nothing is undone on the way back."""
        if i == len(pverts):
            return route(0, used, 0)
        v = pverts[i]
        free = n - used.bit_count()
        for s, size, zone in subsets:
            # The least first branch set of any model is least in its orbit.
            if i == 0 and not first_in_orbit(s):
                continue
            budget.spend()
            if s & used:
                continue
            # At K ≥ 1 the deg_P(v) paths at v are disjoint and each ends in B_v.
            if size < need[i]:
                continue
            # Branch sets are disjoint: the later ones need later[i] vertices beyond s and used.
            if free - size < later[i]:
                continue
            if K >= 1 and used and zone & used:
                continue
            branch[v], near[v] = s, zone
            if place(i + 1, used | s):
                return True
        return False

    try:
        found = place(0, 0)
    except _BudgetExhausted:
        return SearchOutcome("inconclusive", None, "budget exhausted during exhaustive search", budget.used)
    if not found:
        return SearchOutcome("not-found", None, "search space exhausted", budget.used)
    return _verified(pattern, host, K, branch, paths, "witness verified", budget.used)


def _verified(pattern: Graph, host: Graph, K: int, branch: dict, paths: dict, reason: str, used: int) -> SearchOutcome:
    """A witness found on ids (branch masks, id-tuple paths), labelled once and
    re-checked in full by ``verify_fat_model``; a failure is a search bug."""
    labelled = {e: tuple(host.order[i] for i in p) for e, p in paths.items()}
    model = FatMinorModel(pattern, host, {v: host.labels(s) for v, s in branch.items()}, labelled)
    report = verify_fat_model(model, K)
    if not report.ok:
        raise StructuralError(f"search produced an invalid model: {report.detail}")
    return SearchOutcome("found", model, reason, used)


def _farthest_point_seeds(host: Graph, count: int) -> list:
    seeds = [0]
    # Distance from each vertex to its nearest seed; an unreached vertex counts as 0.
    near = [max(d, 0) for d in host.distance_row(seeds)]
    while len(seeds) < count:
        best = max((i for i in range(len(near)) if i not in seeds), key=near.__getitem__, default=None)
        if best is None:
            break
        seeds.append(best)
        near = [min(a, max(d, 0)) for a, d in zip(near, host.distance_row([best]))]
    return [host.order[i] for i in seeds]


def _search_heuristic(pattern: Graph, host: Graph, K: int, budget: _Budget) -> SearchOutcome:
    """Seed-and-skeleton placement on ids: pattern vertices on far-apart seeds,
    edges routed along the geodesics of one BFS parent row per seed, branch sets
    grown as geodesic prefixes.  Every candidate is checked; absence of a
    candidate proves nothing."""
    pverts, edges = pattern.sorted_vertices(), pattern.sorted_edges()
    seeds = [host.pos[s] for s in _farthest_point_seeds(host, len(pverts))]
    rows = {s: host.parent_row(s) for s in seeds}
    geodesic = {(a, b): parent_path(rows[a], b) for a in seeds for b in seeds if a != b}
    # Per prefix length L, how far each branch set reaches along its geodesics.
    cuts = [{v: L if pattern.degree(v) > 1 else 0 for v in pverts} for L in sorted({(K + 1) // 2, max(K, 1), K + 1})]
    try:
        for perm in permutations(seeds):
            at = dict(zip(pverts, perm))
            geo = {(u, v): geodesic[at[u], at[v]] for (u, v) in edges}
            for cut in cuts:
                budget.spend(50)
                if any(g is None or cut[u] + cut[v] + 2 > len(g) for (u, v), g in geo.items()):
                    continue
                branch = {v: 1 << at[v] for v in pverts}
                for (u, v), g in geo.items():
                    branch[u] |= sum(1 << x for x in g[: cut[u] + 1])
                    branch[v] |= sum(1 << x for x in g[len(g) - cut[v] - 1:])
                if sum(b.bit_count() for b in branch.values()) != reduce(or_, branch.values()).bit_count():
                    continue  # two branch sets overlap
                paths = {(u, v): g[cut[u]: len(g) - cut[v]] for (u, v), g in geo.items()}
                if _fat_report(host, pattern, branch, paths, K).ok:
                    return _verified(pattern, host, K, branch, paths, "heuristic witness verified", budget.used)
    except _BudgetExhausted:
        return SearchOutcome("inconclusive", None, "budget exhausted during heuristic search", budget.used)
    return SearchOutcome(
        "inconclusive",
        None,
        "no heuristic witness; host exceeds the exhaustive-search cap so absence is not certified",
        budget.used,
    )


def search_fat_minor(
    pattern: Graph,
    host: Graph,
    K: int,
    budget: int = DEFAULT_BUDGET,
) -> SearchOutcome:
    _count(K, "K")
    _count(budget, "budget")
    if len(pattern.vertices) > PATTERN_CAP:
        raise CapacityError(f"pattern has {len(pattern.vertices)} vertices, cap is {PATTERN_CAP}")
    if len(host.vertices) > HOST_CAP:
        raise CapacityError(f"host has {len(host.vertices)} vertices, cap is {HOST_CAP}")
    if not pattern.vertices:
        return SearchOutcome("found", FatMinorModel(pattern, host, {}, {}), "empty pattern", 0)
    reason = _quick_reject(pattern, host, K)
    if reason is not None:
        return SearchOutcome("not-found", None, reason, 0)
    b = _Budget(budget)
    if len(host.vertices) <= EXHAUSTIVE_CAP:
        return _search_exhaustive(pattern, host, K, b)
    return _search_heuristic(pattern, host, K, b)


def asymptotic_probe(pattern: Graph, host: Graph, k_list, budget: int = DEFAULT_BUDGET) -> dict:
    """Sweep K values (descending), reusing found witnesses downward.

    A witness at K is a witness at every K' ≤ K (all distance conditions only
    get weaker), which keeps the verdict map monotone by construction.
    """
    ks = sorted({_count(k, "K") for k in k_list}, reverse=True)
    _count(budget, "budget")  # also with no K to search
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
