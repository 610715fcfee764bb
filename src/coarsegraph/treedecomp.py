"""Tree-decompositions: validation, torsos, widths, tree centers, and
sub-decompositions contracted to their tight edges.

A tree-decomposition of G is a tree T plus a family of parts (V_t) with
(T1) the parts cover V(G),
(T2) every edge of G lies inside some part,
(T3) for each vertex v, the set {t : v ∈ V_t} induces a connected subtree.

Adhesion sets are the intersections V_t ∩ V_t' over tree edges; the torso of a
part is its induced subgraph plus clique edges on each incident adhesion set.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, NamedTuple

from .errors import CapacityError, ContractViolationError, EmptySetError, StructuralError
from .graph import (
    Graph,
    Vertex,
    _induced,
    bit_ids,
    canonical_edge,
    induced_subgraph,
    is_connected,
    mask_components,
    sort_vertices,
    vertex_from_json,
    vertex_token,
)
from .separations import Separation, _has_full_component, _tight_on_masks

DEFAULT_TREEWIDTH_CAP = 14


def _check_is_tree(tree: Graph) -> None:
    if not tree.vertices:
        raise StructuralError("decomposition tree must have at least one node")
    if sum(map(len, tree.nbrs)) != 2 * (len(tree.vertices) - 1) or not is_connected(tree):
        raise StructuralError("decomposition tree is not a tree")


class _TreeDecomposition(NamedTuple):
    tree: Graph
    parts: dict  # tree node -> frozenset of graph vertices


class TreeDecomposition(_TreeDecomposition):
    """Checked on every construction, ``_replace`` too: a tree, and frozenset parts keyed by its nodes."""

    __slots__ = ()

    def __new__(cls, tree: Graph, parts: dict):
        _check_is_tree(tree)
        if set(parts) != set(tree.vertices) or any(tree.own_id(t) is None for t in parts):  # 1.0 is no key of the node 1
            raise StructuralError("parts must be keyed exactly by the tree nodes")
        return super().__new__(cls, tree, {t: frozenset(p) for t, p in parts.items()})

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def part(self, t) -> frozenset:
        if self.tree.own_id(t) is None:  # 1.0 or True equals the node 1 but is no node of the tree
            raise StructuralError(f"no such tree node: {t!r}")
        return self.parts[t]


class TDReport(NamedTuple):
    ok: bool
    axiom: str | None = None
    witness: object = None
    message: str = ""


def validate(host: Graph, td: TreeDecomposition) -> TDReport:
    """Report the first violated axiom (T1, T2, T3) with a witness.  An id in
    one part shares a part with exactly that part's ids, so T2 is checked per
    part: a part passes when its single-part ids have no neighbour outside it.
    Only the ids of a failing part and the ids in two or more parts are
    checked one by one, the least first, against the union of the parts
    holding them.  A node set of one node is connected, so T3 tests the set of
    tree nodes holding each shared id, once per distinct set."""
    covered = frozenset().union(*td.parts.values()) if td.parts else frozenset()
    for v in sort_vertices(covered - host.vertices):
        return TDReport(False, "T1", v, f"part vertex {vertex_token(v)} is not a graph vertex")
    for v in sort_vertices(host.vertices - covered):
        return TDReport(False, "T1", v, f"graph vertex {vertex_token(v)} lies in no part")
    # By T1 every part lies in V, so a part of |V| vertices is V: its mask needs no lookup.
    masks, n = host.masks, len(host.order)
    parts = [(1 << n) - 1 if len(p) == n else host.bits(p) for p in map(td.parts.__getitem__, td.tree.order)]
    seen = shared = 0  # the ids in some part, in two or more
    for p in parts:
        shared |= seen & p
        seen |= p
    check, reach, nodes = shared, [0] * len(masks), [0] * len(masks)
    for t, p in enumerate(parts):
        single = bit_ids(p & ~shared)
        if reduce(or_, map(masks.__getitem__, single), 0) & ~p:
            check |= p & ~shared
            for i in single:
                reach[i] = p
        for i in bit_ids(p & shared):
            reach[i] |= p
            nodes[i] |= 1 << t
    for i in bit_ids(check):
        missed = masks[i] & ~reach[i] & -(2 << i)  # key-later neighbours sharing no part with i
        if missed:
            u, v = host.order[i], host.order[(missed & -missed).bit_length() - 1]
            return TDReport(False, "T2", (u, v), f"edge {vertex_token(u)}-{vertex_token(v)} lies in no part")
    tested = set()
    for i in bit_ids(shared):  # a failing set fails first at its key-least vertex
        ns = nodes[i]
        if ns not in tested and next(mask_components(td.tree.masks, ns))[0] != ns:
            v = host.order[i]
            return TDReport(False, "T3", v, f"nodes containing {vertex_token(v)} are not connected in the tree")
        tested.add(ns)
    return TDReport(True, message="valid tree-decomposition")


def adhesion_sets(td: TreeDecomposition) -> dict:
    """Canonical tree edge -> V_t ∩ V_t'."""
    return {
        (t1, t2): td.parts[t1] & td.parts[t2]
        for (t1, t2) in td.tree.sorted_edges()
    }


def adhesion(td: TreeDecomposition) -> int:
    sets = adhesion_sets(td)
    return max((len(s) for s in sets.values()), default=0)


def width(td: TreeDecomposition) -> int:
    return max(len(p) for p in td.parts.values()) - 1


def torso(host: Graph, td: TreeDecomposition, t) -> Graph:
    """The torso of part t: the induced subgraph on V_t plus clique edges on
    each adhesion set at t, as a graph on exactly V_t, built on host ids.  A
    part holding every host vertex with no adhesion set of two or more
    vertices at t adds no edge, so its torso is ``host`` itself."""
    part = td.part(t)
    cliques = [c for c in (part & td.parts[t2] for t2 in td.tree.neighbors(t)) if len(c) > 1]
    if not cliques and part == host.vertices:
        return host
    return _induced(host, part, cliques)


def _tree_parents(tree: Graph) -> list[int]:
    """Each node's parent id in a tree, rooted at id 0 (its key-least node), -1 at the root."""
    return [-1 if p == t else p for t, p in enumerate(tree.parent_row(0))]


def _subtree_unions(parent: list[int], part: list[int]) -> tuple[list[int], list[int]]:
    """For the rooted forest in which node i's parent is ``parent[i]`` (-1 at
    a root): the nodes with each parent before its children, and for each
    node the OR of ``part`` over its subtree."""
    kids: list = [[] for _ in parent]
    preorder = []
    for i, p in enumerate(parent):
        (kids[p] if p >= 0 else preorder).append(i)
    for i in preorder:  # the list grows while it is read
        preorder.extend(kids[i])
    below = part[:]
    for i in reversed(preorder):
        if parent[i] >= 0:
            below[parent[i]] |= below[i]
    return preorder, below


def edge_separation(host: Graph, td: TreeDecomposition, edge: tuple) -> Separation:
    """The separation of the host induced by removing a tree edge: the unions
    of the parts on each side of it, read off the tree component of one end."""
    t1, t2 = edge
    e = canonical_edge(t1, t2)
    if e not in td.tree.edges:
        raise StructuralError(f"{edge!r} is not a tree edge")
    tree = td.tree
    i, j = tree.pos[t1], tree.pos[t2]
    masks = tree.masks[:]
    masks[i] ^= 1 << j
    masks[j] ^= 1 << i
    near = next(mask_components(masks, touching=1 << i))[0]
    sides = [0, 0]
    for t, node in enumerate(tree.order):
        sides[near >> t & 1] |= host.bits(td.parts[node])
    return Separation.on_masks(host, *sides)


# ---------------------------------------------------------------------------
# treewidth
# ---------------------------------------------------------------------------


def min_degree_elimination(g: Graph, max_degree: int | None = None, fill: bool = True) -> tuple[tuple[int, int], ...] | None:
    """Eliminate the vertex of least degree (ties to the least id, which is the
    least vertex key) and make its neighbours a clique, until g is empty.
    Returns each eliminated id with its bag (the id and its neighbours then)
    as ``g``'s id masks in elimination order, or None once the least degree
    left exceeds ``max_degree``.  The widest bag minus one bounds treewidth
    from above (Bodlaender–Koster).  With ``max_degree`` = k ≤ 2 it returns
    None exactly when tw > k: its steps are the series–parallel reductions
    (Wald–Colbourn).  With ``fill`` False the neighbours are left as they are,
    and the widest bag minus one is the degeneracy, which bounds treewidth
    from below.

    A completed run with ``fill`` is kept in ``g``'s table of facts, and a
    later call with no ``max_degree`` reads it.  A run stopped early keeps
    nothing.
    """
    if fill and max_degree is None and (run := g._facts.get(min_degree_elimination)) is not None:
        return run
    adj = list(g.masks)
    deg = list(map(int.bit_count, adj))
    # Only degrees up to ``top`` are bucketed; the bucket past them is never empty, so a search stops there.
    top = len(adj) - 1 if max_degree is None else min(max_degree, len(adj) - 1)
    buckets = [0] * (top + 1) + [-1]  # degree -> mask of the live ids of that degree
    for v in compress(range(len(deg)), map(top.__ge__, deg)):
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
        rest = nbrs
        while rest:
            bit = rest & -rest
            rest ^= bit
            a = bit.bit_length() - 1
            adj[a] = (adj[a] | nbrs) & ~(bit | low) if fill else adj[a] ^ low
            old, new = deg[a], adj[a].bit_count()
            if old != new:
                deg[a] = new
                if old <= top:
                    buckets[old] ^= bit
                if new <= top:
                    buckets[new] |= bit
        # A neighbour loses only the eliminated vertex, so no degree falls below d - 1.
        if d:
            d -= 1
    out = tuple(out)
    if fill:
        g._facts[min_degree_elimination] = out
    return out


def exact_treewidth(g: Graph, cap: int = DEFAULT_TREEWIDTH_CAP) -> int:
    """Exact treewidth by a forward dynamic programme over vertex subsets
    (Bodlaender, Fomin, Koster, Kratsch and Thilikos, "On exact algorithms
    for treewidth").  With Q(S, v) the vertices outside S ∪ {v} reached from v
    through S, f(S ∪ {v}) = min over v of max(f(S), |Q(S, v)|) and tw = f(V).
    Each S is expanded once: the components of G[S] give |Q(S, v)| for every
    v.  Only sets with f(S) below the min-degree width are kept, and none is
    when the degeneracy, a lower bound, meets that width.  Exponential in |V|,
    hence the cap; ``construction.treewidth_at_most`` calls this only for k ≥ 3.
    """
    n = len(g.vertices)
    if n > cap:
        raise CapacityError(f"graph has {n} vertices, exact treewidth cap is {cap}")
    if n == 0:
        return -1
    adj = g.masks
    bound, degeneracy = (max(bag.bit_count() for _, bag in min_degree_elimination(g, fill=fill)) - 1
                         for fill in (True, False))
    if degeneracy == bound:
        return bound
    full = (1 << n) - 1
    layer = {0: -1}  # f on the kept sets of one size
    for _ in range(n):
        nxt: dict = {}
        for s, fs in layer.items():
            # reach[v] ∖ {v} = Q(S, v): v's neighbours outside S, plus the
            # outside neighbourhood of every component of G[S] next to v.
            reach = [a & ~s for a in adj]
            for _, nbhd in mask_components(adj, s):
                w = nbhd
                while w:
                    low = w & -w
                    w ^= low
                    reach[low.bit_length() - 1] |= nbhd
            out = full & ~s
            while out:
                low = out & -out
                out ^= low
                val = max(fs, (reach[low.bit_length() - 1] & ~low).bit_count())
                if val < nxt.get(s | low, bound):
                    nxt[s | low] = val
        layer = nxt
    return layer.get(full, bound)


def _elimination_tree(g: Graph) -> tuple[list[int], list[int]]:
    """The min-degree elimination tree: node i's part is the bag of the i-th
    vertex ``min_degree_elimination`` removes, as a ``g`` id mask, and its
    parent is the least later node whose vertex is in that bag, else i + 1,
    which links the trees of different components; the last node has parent
    -1.  Returns ``(parent, part)``; a graph with no vertex gives one node with
    an empty part."""
    elimination = min_degree_elimination(g)
    if not elimination:
        return [-1], [0]
    pos = [0] * len(elimination)  # id -> elimination index
    for i, (v, _) in enumerate(elimination):
        pos[v] = i
    last = len(elimination) - 1
    # Every id of a bag but the eliminated one goes later, as eliminated ids leave the graph.
    parent = [min((pos[w] for w in bit_ids(bag ^ 1 << v)), default=i + 1 if i < last else -1)
              for i, (v, bag) in enumerate(elimination)]
    return parent, [bag for _, bag in elimination]


def heuristic_td(g: Graph) -> TreeDecomposition:
    """Min-degree elimination tree-decomposition (deterministic tie-breaks):
    tree nodes are the elimination indices 0..n-1, on ``_elimination_tree``."""
    parent, part = _elimination_tree(g)
    return TreeDecomposition(
        Graph._on_ids(list(range(len(part))), [(i, p) for i, p in enumerate(parent) if p >= 0]),
        {i: g.labels(m) for i, m in enumerate(part)},
    )


def _sub_decomposition(torso_graph: Graph, provided: TreeDecomposition | None, keep: set | None = None) -> TreeDecomposition:
    """The torso's sub-decomposition contracted to its tight edges whose
    adhesion set is in ``keep`` (any set if None).  A supplied one must be
    valid, of adhesion ≤ 3 when ``keep`` is given, and tight on every edge,
    each edge tested once.  Else it is the min-degree elimination tree; with
    ``keep`` empty, the one node it would contract to is built directly.

    Tree node i is ``nodes[i]``, in key order, with its edge to ``parent[i]``
    (-1 at the root) and its part as the ``torso_graph`` id mask ``part[i]``.
    Edge i has the adhesion S = part[i] & part[parent[i]] and the sides
    below[i], the parts of i's subtree, and the rest with S.  Contracting
    other edges changes neither, so one pass decides all.  Each class of
    contracted nodes is named by its least node, and its part is made once.

    An elimination-tree edge is tight iff its far side, the ids strictly
    beyond it, has a component with N(C) = S.  An edge that links the trees
    of two components has S empty and both sides non-empty.  On any other
    edge, let T[x] be the ids of i's component eliminated in i's subtree: S
    is N(T[x]) by the path lemma (Rose–Tarjan–Lueker, 1976) and T[x] is
    connected (Liu, 1990), so the near side is tight, whatever other
    components' trees hang below i."""
    if provided is None:
        if keep is not None and not keep:
            return TreeDecomposition(Graph._on_ids([0], []), {0: torso_graph.vertices})
        parent, part = _elimination_tree(torso_graph)
        nodes = list(range(len(part)))
    else:
        rep = validate(torso_graph, provided)
        if not rep.ok:
            raise ContractViolationError(f"sub-decomposition invalid: ({rep.axiom}) {rep.message}")
        tree = provided.tree
        nodes, parent = tree.order, _tree_parents(tree)
        part = [torso_graph.bits(provided.parts[t]) for t in nodes]
    full = (1 << len(torso_graph.order)) - 1
    preorder, below = _subtree_unions(parent, part)
    if provided is not None:
        for a, b in provided.tree.sorted_edges():
            i, j = tree.pos[a], tree.pos[b]
            i, j = (i, j) if parent[i] == j else (j, i)  # i is the child
            adhesion = part[i] & part[j]
            if keep is not None and adhesion.bit_count() > 3:
                raise ContractViolationError(f"sub-decomposition adhesion {adhesion.bit_count()} exceeds 3")
            if not _tight_on_masks(torso_graph, below[i], full & ~below[i] | adhesion):
                raise ContractViolationError(f"sub-decomposition edge {(a, b)!r} has a non-tight separation")
    wanted = None if keep is None else {torso_graph.bits(s) for s in keep if s <= torso_graph.vertices}
    top = list(range(len(parent)))  # the node of i's class nearest the root
    kept = []
    for i in preorder:
        p = parent[i]
        if p < 0:
            continue
        adhesion = part[i] & part[p]
        if (wanted is None or adhesion in wanted) and (
                provided is not None or _has_full_component(torso_graph.masks, full & ~below[i], adhesion)):
            kept.append(i)
        else:
            top[i] = top[p]
    cls, names, masks, first = [0] * len(parent), [], [], {}
    for i, t in enumerate(top):  # in id order, so each class meets its least node first
        if t not in first:
            first[t] = len(names)
            names.append(nodes[i])
            masks.append(0)
        cls[i] = first[t]
        masks[cls[i]] |= part[i]
    return TreeDecomposition(Graph._on_ids(names, [(cls[i], cls[parent[i]]) for i in kept]),
                             {s: torso_graph.labels(m) for s, m in zip(names, masks)})


# ---------------------------------------------------------------------------
# clique subtrees, centers
# ---------------------------------------------------------------------------


def clique_subtree(td: TreeDecomposition, s: Iterable[Vertex]) -> Graph:
    """The subgraph of T induced on {t : S ⊆ V_t}.

    For S an adhesion set this is a non-empty subtree by (T3); for arbitrary S
    it may be empty or disconnected, which callers should treat as an error.
    """
    sset = frozenset(s)
    if not sset:
        raise EmptySetError("clique subtree of the empty set is the whole tree; pass a non-empty set")
    nodes = [t for t in td.tree.sorted_vertices() if sset <= td.parts[t]]
    return induced_subgraph(td.tree, nodes)


class TreeCenter(NamedTuple):
    kind: str  # "vertex" or "edge"
    location: object  # a tree node, or a canonical node pair


def tree_center(tree: Graph) -> TreeCenter:
    """Central vertex or central edge of a tree, by iterated leaf removal.

    Every automorphism of the tree fixes the centre (as a vertex, or an edge
    setwise), which is what makes it usable as a canonical attachment point.
    """
    _check_is_tree(tree)
    remaining = set(range(len(tree.order)))
    deg = [len(js) for js in tree.nbrs]
    while len(remaining) > 2:
        leaves = [v for v in remaining if deg[v] <= 1]
        for v in leaves:
            remaining.discard(v)
            for w in tree.nbrs[v]:
                deg[w] -= 1
    rest = [tree.order[v] for v in sorted(remaining)]
    if len(rest) == 1:
        return TreeCenter("vertex", rest[0])
    return TreeCenter("edge", (rest[0], rest[1]))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def td_to_dict(td: TreeDecomposition) -> dict:
    return {
        "tree_edges": [[vertex_token(a), vertex_token(b)] for (a, b) in td.tree.sorted_edges()],
        "parts": {vertex_token(t): sort_vertices(td.parts[t]) for t in td.tree.sorted_vertices()},
    }


def td_from_dict(data: dict) -> TreeDecomposition:
    if not (isinstance(data, dict) and isinstance(data.get("parts"), dict)
            and isinstance(data.get("tree_edges"), (list, tuple))):
        raise StructuralError("tree-decomposition JSON must have an object 'parts' and a list 'tree_edges'")
    parts = {}
    for key, vs in data["parts"].items():
        if not isinstance(vs, list):
            raise StructuralError(f"part {key!r} must be a list of vertices")
        parts[vertex_from_json(key)] = frozenset([vertex_from_json(v, token=False) for v in vs])
    edges = []
    for e in data["tree_edges"]:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise StructuralError(f"tree edge {e!r} must be a pair")
        edges.append(tuple(vertex_from_json(x) for x in e))
    tree = Graph.build(edges, vertices=parts.keys())
    return TreeDecomposition(tree, parts)
