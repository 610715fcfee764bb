"""Independent brute-force oracles.

Everything here is computed from scratch on plain adjacency dictionaries —
no imports from the package under test — so the same bug cannot hide on both
sides of a comparison.
"""

from __future__ import annotations

import itertools
import re
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


def label_key(v):
    """Order key for mixed labels: ints, then strings, then tuples, which
    compare member by member under the same rule."""
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    return (2, tuple(label_key(x) for x in v))


def connected_sets(adj):
    """Every non-empty vertex set inducing a connected subgraph, by size and
    then by the sorted tuple of its members' ``label_key``s."""
    out = []
    for size in range(1, len(adj) + 1):
        for combo in itertools.combinations(adj, size):
            members = set(combo)
            reached = {combo[0]}
            stack = [combo[0]]
            while stack:
                for w in adj[stack.pop()] & members - reached:
                    reached.add(w)
                    stack.append(w)
            if reached == members:
                out.append(frozenset(combo))
    out.sort(key=lambda s: (len(s), sorted(map(label_key, s))))
    return out


def automorphisms(vertices, edges):
    """Every permutation of the vertices that maps the edge set onto itself,
    as dicts, ordered by the images of the vertices taken in ``label_key``
    order (so the identity comes first).  Permutations are grown one vertex
    at a time, and a partial map that already breaks an adjacency or a
    non-adjacency between placed vertices is not grown further."""
    vs = sorted(vertices, key=label_key)
    adj = adjacency(edges, vs)
    out = []

    def grow(img):
        if len(img) == len(vs):
            out.append(dict(img))
            return
        v = vs[len(img)]
        for w in vs:
            if w not in img.values() and all((x in adj[v]) == (y in adj[w]) for x, y in img.items()):
                img[v] = w
                grow(img)
                del img[v]

    grow({})
    out.sort(key=lambda a: [label_key(a[v]) for v in vs])
    return out


def is_identity(auto):
    return all(v == w for v, w in auto.items())


def compose(outer, inner):
    """outer ∘ inner (apply inner first)."""
    return {v: outer[w] for v, w in inner.items()}


def invert(auto):
    return {w: v for v, w in auto.items()}


def orbit_partition(objects, autos, act, key):
    """Objects grouped by their set of images under a group of maps; each
    orbit sorted by ``key``, and the orbits by their least member."""
    groups = {}
    for o in objects:
        groups.setdefault(frozenset(act(a, o) for a in autos), []).append(o)
    return sorted((sorted(g, key=key) for g in groups.values()), key=lambda orbit: key(orbit[0]))


def ball(adj, v, radius):
    """The vertices at distance at most ``radius`` from ``v``."""
    return frozenset(w for w, d in bfs_distances(adj, v).items() if d <= radius)


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


def contract_to_tight(adj, tree_edges, parts, keep):
    """A decomposition contracted to its tight edges, from the definitions:
    tree edge st is kept iff its adhesion set parts[s] & parts[t] is in
    ``keep`` (any set if None) and the separation whose sides are the unions
    of the parts on either side of st is tight; every other edge is
    contracted.  Each class of contracted nodes is named by its least node
    under ``label_key`` and its part is the union of theirs.  Returns
    (name -> part, set of kept edges as frozensets of names)."""
    nodes = list(parts)

    def reach(start, edges):
        tree = adjacency(edges, nodes)
        seen, todo = {start}, [start]
        while todo:
            for w in tree[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
        return seen

    kept = []
    for e in tree_edges:
        s, t = e
        rest = [f for f in tree_edges if f != e]
        side_s, side_t = (frozenset().union(*(parts[x] for x in reach(y, rest))) for y in (s, t))
        if (keep is None or parts[s] & parts[t] in keep) and _is_tight_pair(adj, side_s, side_t):
            kept.append(e)
    contracted = [e for e in tree_edges if e not in kept]
    name = {x: min(reach(x, contracted), key=label_key) for x in nodes}
    out = {}
    for x in nodes:
        out[name[x]] = out.get(name[x], frozenset()) | parts[x]
    return out, {frozenset((name[s], name[t])) for s, t in kept}


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


def min_degree_elimination(adj):
    """The bags of min-degree elimination in order: eliminate the vertex of
    least degree, ties to the least ``label_key``, make its neighbours a
    clique; its bag is itself plus those neighbours."""
    work = {v: set(ns) for v, ns in adj.items()}
    bags = []
    while work:
        v = min(work, key=lambda x: (len(work[x]), label_key(x)))
        ns = work.pop(v)
        bags.append(frozenset(ns | {v}))
        for x in ns:
            work[x] |= ns - {x}
            work[x].discard(v)
    return bags


def reference_dfs_orientation(nbrs):
    """``graph.dfs_orientation`` as it stood before its neighbours were driven
    by iterators: the same DFS with a cursor per vertex, reading each step's
    heights from the lists and folding every edge's lowpoints into its tail's
    parent edge by the general rule once the edge is finished.  Kept verbatim
    as the reference the faster kernel must equal, 6-tuple for 6-tuple."""
    n = len(nbrs)
    height = [-1] * n
    parent = [-1] * n
    dst, lowpt, lowpt2 = [], [], []
    out = [[] for _ in range(n)]
    nxt = [0] * n
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i < len(nbrs[v]):
                nxt[v] = i + 1
                w = nbrs[v][i]
                h, hv = height[w], height[v]
                if h >= 0 and h >= hv - 1:  # w is v's parent or a descendant: oriented from w's side
                    continue
                ei = len(dst)  # edges are numbered as they are oriented
                dst.append(w)
                out[v].append(ei)
                lowpt2.append(hv)
                if h < 0:  # a tree edge, finished when w is
                    lowpt.append(hv)
                    parent[w] = ei
                    height[w] = hv + 1
                    stack.append(w)
                    continue
                lowpt.append(h)  # a back edge to an ancestor
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                v = stack[-1]
            # ei leaves v and is finished: fold its lowpoints into v's parent edge.
            e = parent[v]
            if e >= 0:
                if lowpt[ei] < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], lowpt2[ei])
                    lowpt[e] = lowpt[ei]
                elif lowpt[ei] > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], lowpt[ei])
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[ei])
    depth = [0] * len(dst)  # each edge's nesting depth
    key = depth.__getitem__
    for hv, es in zip(height, out):
        for e in es:
            depth[e] = 2 * lowpt[e] + (lowpt2[e] < hv)
        es.sort(key=key)
    return height, parent, dst, out, lowpt, lowpt2


def _set_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def reference_min_degree_elimination(masks, max_degree=None, fill=True):
    """``treedecomp.min_degree_elimination`` on the neighbour masks of a graph
    with nothing kept, as it stood before its neighbour walk was inlined: each
    step lists the eliminated vertex's neighbours, re-buckets every one of them
    whether or not its degree moved, and steps the least degree down by
    ``max``.  Kept as the reference the faster kernel must equal, bag for bag,
    for every ``max_degree`` and ``fill``."""
    adj = list(masks)
    deg = [m.bit_count() for m in adj]
    top = len(adj) - 1 if max_degree is None else min(max_degree, len(adj) - 1)
    buckets = [0] * (top + 1) + [-1]  # degree -> mask of the live ids of that degree
    for v in range(len(deg)):
        if deg[v] <= top:
            buckets[deg[v]] |= 1 << v
    out = []
    d = 0
    for _ in adj:
        while not buckets[d]:
            d += 1
        if d > top:
            return None
        low = buckets[d] & -buckets[d]
        buckets[d] ^= low
        nbrs = adj[low.bit_length() - 1]
        out.append((low.bit_length() - 1, nbrs | low))
        for a in _set_bits(nbrs):
            adj[a] = (adj[a] | nbrs) & ~(1 << a | low) if fill else adj[a] ^ low
            if deg[a] <= top:
                buckets[deg[a]] ^= 1 << a
            deg[a] = adj[a].bit_count()
            if deg[a] <= top:
                buckets[deg[a]] |= 1 << a
        d = max(d - 1, 0)
    return tuple(out)


def orientation_problems(nbrs, orientation):
    """What is wrong with a DFS orientation of the graph whose vertex v
    (0..n-1) has the neighbours ``nbrs[v]``, as a list of messages; empty when
    nothing is.

    ``orientation`` is (height, parent, dst, out, lowpt, lowpt2): each
    vertex's DFS height, the id of its tree edge (-1 at a root), each edge's
    head, each vertex's out-edges, and each edge's lowest and second-lowest
    return heights.  Checked from the definitions: every edge is oriented
    exactly once; the parent edges form a forest with one root per component,
    its least vertex, and heights that count the tree edges up to the root;
    every other edge runs from a vertex to a proper ancestor; and an edge v→w
    with return heights R (the height of w for a back edge, else the heights
    of the heads of the back edges leaving w's subtree) has lowpt = min({h(v)}
    ∪ R) and lowpt2 = min({h(v)} ∪ (R ∖ {lowpt})); and each vertex's
    out-edges are in nesting order (Brandes), non-decreasing in 2·lowpt, plus
    1 where lowpt2 < h(v).
    """
    height, parent, dst, out, lowpt, lowpt2 = orientation
    n, m = len(nbrs), len(dst)
    tail = {}
    for v, es in enumerate(out):
        for e in es:
            if e in tail or not 0 <= e < m:
                return [f"edge {e} out of {v} is not a fresh edge id below {m}"]
            tail[e] = v
    oriented = [frozenset((tail[e], dst[e])) for e in range(m) if e in tail]
    edges = {frozenset((v, w)) for v in range(n) for w in nbrs[v]}
    if len(tail) != m or len(set(oriented)) != m or set(oriented) != edges:
        return ["the oriented edges are not the graph's edges, each once"]

    problems = []
    up = [None] * n  # each vertex's parent vertex, None at a root
    for v in range(n):
        e = parent[v]
        if e < 0:
            if height[v] != 0:
                problems.append(f"root {v} has height {height[v]}")
        elif dst[e] != v:
            problems.append(f"the parent edge {e} of {v} ends at {dst[e]}")
        else:
            up[v] = tail[e]
            if height[v] != height[up[v]] + 1:
                problems.append(f"{v} has height {height[v]} below a parent of height {height[up[v]]}")
    if problems:
        return problems

    def ancestors(v):
        chain = []
        while up[v] is not None and len(chain) <= n:
            v = up[v]
            chain.append(v)
        return chain

    adj = {v: set(nbrs[v]) for v in range(n)}
    for comp in components_without(adj, ()):
        roots = sorted(v for v in comp if parent[v] < 0)
        if roots != [min(comp)]:
            problems.append(f"the component of {min(comp)} has roots {roots}")
    tree = {parent[v] for v in range(n) if parent[v] >= 0}
    subtree = {v: {v} for v in range(n)}
    for v in range(n):
        for a in ancestors(v):
            subtree[a].add(v)
    back = [e for e in range(m) if e not in tree]
    nesting = {}
    for e in back:
        if dst[e] not in ancestors(tail[e]):
            problems.append(f"back edge {tail[e]}→{dst[e]} does not end at an ancestor")
    for e in range(m):
        v, w = tail[e], dst[e]
        returns = {height[dst[b]] for b in back if tail[b] in subtree[w]} if e in tree else {height[w]}
        low = min(returns | {height[v]})
        low2 = min((returns - {low}) | {height[v]})
        if (lowpt[e], lowpt2[e]) != (low, low2):
            problems.append(f"edge {v}→{w} has lowpoints {(lowpt[e], lowpt2[e])}, not {(low, low2)}")
        nesting[e] = 2 * low + (low2 < height[v])
    for v, es in enumerate(out):
        depths = [nesting[e] for e in es]
        if depths != sorted(depths):
            problems.append(f"the edges out of {v} have nesting depths {depths}, out of order")
    return problems


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


def is_canonical_decimal(tok):
    """Whether the text ``tok`` is an int written as Python's ``str`` writes it: "0", or
    an optional minus sign, then an ASCII digit 1-9, then any ASCII digits."""
    return re.fullmatch(r"0|-?[1-9][0-9]*", tok) is not None
