"""Independent brute-force oracles.

Everything here is computed from scratch on plain adjacency dictionaries —
no imports from the package under test — so the same bug cannot hide on both
sides of a comparison.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction


def adjacency(edges, vertices=()):
    adj = {v: set() for v in vertices}
    for (u, v) in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def bfs_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def bfs_path(adj, u, v):
    """A shortest u-v path from a BFS that expands neighbours in sorted order; None if v is unreached."""
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            path = [v]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
        for w in sorted(adj[x]):
            if w not in prev:
                prev[w] = x
                queue.append(w)
    return None


def components_without(adj, removed):
    removed = set(removed)
    seen = set(removed)
    out = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


def _is_tight_pair(adj, a, b):
    """Check the separation definition directly: cover, no crossing edge,
    and a component fully attached to the separator strictly on each side."""
    vertices = set(adj)
    if a | b != vertices:
        return False
    sep = a & b
    for u in a - b:
        if adj[u] & (b - a):
            return False
    comps = components_without(adj, sep)
    full_a = any(c <= a - b and {w for v in c for w in adj[v]} - c == sep for c in comps)
    full_b = any(c <= b - a and {w for v in c for w in adj[v]} - c == sep for c in comps)
    return full_a and full_b


def tight_separations_exhaustive(adj, k):
    """All tight separations of order exactly k by scanning all 3^n ways to
    put each vertex in A only, B only, or both.  Only usable for tiny graphs."""
    vertices = sorted(adj, key=repr)
    found = set()
    for assignment in itertools.product((0, 1, 2), repeat=len(vertices)):
        a = {v for v, s in zip(vertices, assignment) if s in (0, 2)}
        b = {v for v, s in zip(vertices, assignment) if s in (1, 2)}
        if len(a & b) != k:
            continue
        if _is_tight_pair(adj, a, b):
            found.add(frozenset((frozenset(a), frozenset(b))))
    return found


def tight_separations_definitional(adj, k):
    """All tight separations of order exactly k: every k-subset as separator,
    every way to distribute the components, each candidate checked against the
    raw definition by _is_tight_pair."""
    vertices = sorted(adj, key=repr)
    found = set()
    for sep in itertools.combinations(vertices, k):
        sep_set = set(sep)
        comps = components_without(adj, sep_set)
        for sides in itertools.product((0, 1), repeat=len(comps)):
            a = set(sep_set)
            b = set(sep_set)
            for comp, side in zip(comps, sides):
                (a if side == 0 else b).update(comp)
            if _is_tight_pair(adj, a, b):
                found.add(frozenset((frozenset(a), frozenset(b))))
    return found


def treewidth_elimination(adj):
    """Treewidth as the best elimination order: eliminate vertices one by one,
    connect the neighbors of each eliminated vertex, track the largest degree
    seen at elimination time, minimize over all orders."""
    vertices = sorted(adj, key=repr)
    if not vertices:
        return -1
    best = len(vertices)
    for order in itertools.permutations(vertices):
        work = {v: set(ns) for v, ns in adj.items()}
        worst = 0
        for v in order:
            ns = work[v]
            worst = max(worst, len(ns))
            if worst >= best:
                break
            for x in ns:
                work[x].discard(v)
            for x in ns:
                for y in ns:
                    if x != y:
                        work[x].add(y)
            del work[v]
        else:
            best = min(best, worst)
    return best


def has_minor(p_vertices, p_edges, host_adj):
    """Ordinary-minor containment by exhaustive assignment of host vertices to
    branch sets (or to none), checking connectivity and edge coverage."""
    hosts = sorted(host_adj, key=repr)
    pv = list(p_vertices)
    if not pv:
        return True

    def branch_connected(vs):
        vs = set(vs)
        start = next(iter(vs))
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in host_adj[u] & vs:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen == vs

    def touches(vs1, vs2):
        return any(host_adj[u] & vs2 for u in vs1)

    for assignment in itertools.product(range(len(pv) + 1), repeat=len(hosts)):
        branches = {i: {h for h, a in zip(hosts, assignment) if a == i + 1} for i in range(len(pv))}
        if any(not b for b in branches.values()):
            continue
        if any(not branch_connected(b) for b in branches.values()):
            continue
        index = {v: i for i, v in enumerate(pv)}
        if all(touches(branches[index[u]], branches[index[v]]) for (u, v) in p_edges):
            return True
    return False


def centers_by_eccentricity(adj):
    """Tree centers as eccentricity minimizers."""
    ecc = {}
    for v in adj:
        dist = bfs_distances(adj, v)
        ecc[v] = max(dist.values())
    if not ecc:
        return set()
    radius = min(ecc.values())
    return {v for v, e in ecc.items() if e == radius}


def random_graph(rng, n, p):
    """A seeded Erdős–Rényi graph on vertices 0..n-1."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return list(range(n)), edges


def random_connected_graph(rng, n, p):
    """Seeded random graph patched into connectivity with bridging edges."""
    vertices, edges = random_graph(rng, n, p)
    while True:
        comps = components_without(adjacency(edges, vertices), ())
        if len(comps) <= 1:
            return vertices, edges
        edges.append((rng.choice(sorted(comps[0])), rng.choice(sorted(comps[1]))))


def _interior_paths(adj, a, b, allowed):
    """All simple a-b paths whose interior vertices come from `allowed`,
    reported as frozensets of interior vertices."""
    out = []

    def dfs(last, interior):
        if b in adj[last] and last != b:
            out.append(frozenset(interior))
        for w in allowed:
            if w in adj[last] and w not in interior:
                interior.append(w)
                dfs(w, interior)
                interior.pop()

    dfs(a, [])
    return out


def has_subdivision(adj):
    """Brute-force search for a K5 or K3,3 subdivision.

    Branch vertices are chosen exhaustively; the subdivided edges are routed
    through the remaining vertices with pairwise-disjoint interiors by
    backtracking.  Equivalent to non-planarity on finite graphs.
    """
    vs = sorted(adj, key=repr)

    def routable(branch, needed):
        free = [v for v in vs if v not in branch]

        def place(i, used):
            if i == len(needed):
                return True
            a, b = needed[i]
            allowed = [v for v in free if v not in used]
            for interior in _interior_paths(adj, a, b, allowed):
                if place(i + 1, used | interior):
                    return True
            return False

        return place(0, frozenset())

    for branch in itertools.combinations(vs, 5):
        if all(len(adj[v]) >= 4 for v in branch):
            if routable(set(branch), list(itertools.combinations(branch, 2))):
                return True
    for sub in itertools.combinations(vs, 6):
        if any(len(adj[v]) < 3 for v in sub):
            continue
        anchor = sub[0]
        for rest in itertools.combinations(sub[1:], 2):
            left = (anchor,) + rest
            right = tuple(v for v in sub if v not in left)
            needed = [(l, r) for l in left for r in right]
            if routable(set(sub), needed):
                return True
    return False


def qi_oracle(src_adj, tgt_adj, phi, gamma, c, per_component):
    """Quasi-isometry constants of phi straight from the definition.

    All-pairs BFS on both graphs, every requirement an exact Fraction: a pair
    u < v needs c ≥ max(d_H − γ·d_G, d_G/γ − d_H), a target vertex needs c ≥
    its distance to the image, both in sorted order, pairs first.  Returns
    {"error": ...} naming the first infinite distance when per_component is
    off, else {"c", "worst", "violation"}: the tightest c (None when some
    requirement is infinite), the first entry of largest requirement, and the
    first entry violating the given c.  Vertices must be mutually comparable.
    """
    gamma, c = Fraction(gamma), Fraction(c)
    src_dist = {u: bfs_distances(src_adj, u) for u in src_adj}
    tgt_dist = {w: bfs_distances(tgt_adj, w) for w in tgt_adj}
    entries = []  # (witness, requirement or None when infinite)
    verts = sorted(src_adj)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if v not in src_dist[u]:
                if per_component:
                    continue
                return {"error": ("source", u, v)}
            if phi[v] not in tgt_dist[phi[u]]:
                if not per_component:
                    return {"error": ("target", u, v)}
                entries.append(((u, v), None))
                continue
            dg, dh = src_dist[u][v], tgt_dist[phi[u]][phi[v]]
            entries.append(((u, v), max(dh - gamma * dg, dg / gamma - dh)))
    for w in sorted(tgt_adj):
        reach = [tgt_dist[w][x] for x in set(phi.values()) if x in tgt_dist[w]]
        if not reach and not per_component:
            return {"error": ("density", w)}
        entries.append(((w,), Fraction(min(reach)) if reach else None))
    violation = next((wit for wit, r in entries if r is None or r > c), None)
    if any(r is None for _, r in entries):
        return {"c": None, "worst": None, "violation": violation}
    top = max((r for _, r in entries), default=None)
    worst = next((wit for wit, r in entries if r == top), None)
    return {"c": max(Fraction(0), top if top is not None else 0), "worst": worst, "violation": violation}
