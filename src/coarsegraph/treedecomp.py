"""Tree-decompositions: validation, torsos, widths, contraction, tree centers.

A tree-decomposition of G is a tree T plus a family of parts (V_t) with
(T1) the parts cover V(G),
(T2) every edge of G lies inside some part,
(T3) for each vertex v, the set {t : v ∈ V_t} induces a connected subtree.

Adhesion sets are the intersections V_t ∩ V_t' over tree edges; the torso of a
part is its induced subgraph plus clique edges on each incident adhesion set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import CapacityError, EmptySetError, StructuralError
from .graph import (
    Graph,
    Vertex,
    bit_ids,
    canonical_edge,
    components,
    grow_mask,
    induced_subgraph,
    induces_connected,
    sort_vertices,
    vertex_from_json,
    vertex_key,
    vertex_token,
)
from .separations import Separation

DEFAULT_TREEWIDTH_CAP = 14


def _check_is_tree(tree: Graph) -> None:
    if not tree.vertices:
        raise StructuralError("decomposition tree must have at least one node")
    if len(tree.edges) != len(tree.vertices) - 1 or len(components(tree)) != 1:
        raise StructuralError("decomposition tree is not a tree")


@dataclass(frozen=True)
class TreeDecomposition:
    tree: Graph
    parts: dict  # tree node -> frozenset of graph vertices

    def __post_init__(self):
        _check_is_tree(self.tree)
        if set(self.parts) != set(self.tree.vertices):
            raise StructuralError("parts must be keyed exactly by the tree nodes")
        object.__setattr__(self, "parts", {t: frozenset(p) for t, p in self.parts.items()})

    def part(self, t) -> frozenset:
        try:
            return self.parts[t]
        except KeyError:
            raise StructuralError(f"no such tree node: {t!r}") from None

    def nodes_containing(self, v: Vertex) -> frozenset:
        return frozenset(t for t, p in self.parts.items() if v in p)


@dataclass(frozen=True)
class TDReport:
    ok: bool
    axiom: str | None = None
    witness: object = None
    message: str = ""


def validate(host: Graph, td: TreeDecomposition) -> TDReport:
    """Report the first violated axiom (T1, T2, T3) with a witness."""
    covered = frozenset().union(*td.parts.values()) if td.parts else frozenset()
    for v in sort_vertices(covered - host.vertices):
        return TDReport(False, "T1", v, f"part vertex {vertex_token(v)} is not a graph vertex")
    for v in sort_vertices(host.vertices - covered):
        return TDReport(False, "T1", v, f"graph vertex {vertex_token(v)} lies in no part")
    for (u, v) in host.sorted_edges():
        if not any(u in p and v in p for p in td.parts.values()):
            return TDReport(False, "T2", (u, v), f"edge {vertex_token(u)}-{vertex_token(v)} lies in no part")
    for v in host.sorted_vertices():
        if not induces_connected(td.tree, td.nodes_containing(v)):
            return TDReport(False, "T3", v, f"nodes containing {vertex_token(v)} are not connected in the tree")
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
    each adhesion set at t, as a graph on exactly V_t."""
    part = td.part(t)
    for v in part:
        host.require_vertex(v)
    edges = [(u, v) for (u, v) in host.edges if u in part and v in part]
    for t2 in td.tree.neighbors(t):
        edges.extend(combinations(sort_vertices(part & td.parts[t2]), 2))
    return Graph.build(edges, vertices=part)


def edge_separation(host: Graph, td: TreeDecomposition, edge: tuple) -> Separation:
    """The separation of the host induced by removing a tree edge."""
    t1, t2 = edge
    if canonical_edge(t1, t2) not in td.tree.edges:
        raise StructuralError(f"{edge!r} is not a tree edge")
    # The side of t1 is its component in T − t2.
    index = td.tree.index
    side1 = index.labels(grow_mask(index.masks, 1 << index.pos[t1], ~(1 << index.pos[t2]))[0])
    side2 = td.tree.vertices - side1
    a = frozenset().union(*(td.parts[t] for t in side1))
    b = frozenset().union(*(td.parts[t] for t in side2))
    return Separation.of(a, b)


# ---------------------------------------------------------------------------
# treewidth
# ---------------------------------------------------------------------------


def min_degree_elimination(g: Graph, max_degree: int | None = None) -> list[tuple[int, int]] | None:
    """Eliminate the vertex of least degree (ties to the least id, which is the
    least vertex key) and make its neighbours a clique, until g is empty.
    Returns each eliminated id with its bag (the id and its neighbours then)
    as ``g.index`` masks in elimination order, or None once the least degree
    left exceeds ``max_degree``.  The widest bag minus one bounds treewidth
    (Bodlaender–Koster).  With ``max_degree`` = k ≤ 2 it returns None exactly
    when tw > k: its steps are the series–parallel reductions (Wald–Colbourn).
    """
    adj = list(g.index.masks)
    deg = [a.bit_count() for a in adj]
    buckets = [0] * len(adj)  # degree -> mask of the live ids of that degree
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
    out = []
    d = 0
    for _ in adj:
        while not buckets[d]:
            d += 1
        if max_degree is not None and d > max_degree:
            return None
        low = buckets[d] & -buckets[d]
        buckets[d] ^= low
        nbrs = adj[low.bit_length() - 1]
        out.append((low.bit_length() - 1, nbrs | low))
        for a in bit_ids(nbrs):
            adj[a] = (adj[a] | nbrs) & ~(1 << a | low)
            buckets[deg[a]] ^= 1 << a
            deg[a] = adj[a].bit_count()
            buckets[deg[a]] |= 1 << a
        # A neighbour loses only the eliminated vertex, so no degree falls below d - 1.
        d = max(d - 1, 0)
    return out


def exact_treewidth(g: Graph, cap: int = DEFAULT_TREEWIDTH_CAP) -> int:
    """Exact treewidth by a forward dynamic programme over vertex subsets
    (Bodlaender, Fomin, Koster, Kratsch and Thilikos, "On exact algorithms
    for treewidth").  With Q(S, v) the vertices outside S ∪ {v} reached from v
    through S, f(S ∪ {v}) = min over v of max(f(S), |Q(S, v)|) and tw = f(V).
    Each S is expanded once: the components of G[S] give |Q(S, v)| for every
    v.  Only sets with f(S) below the min-degree width are kept.  Exponential
    in |V|, hence the cap; ``construction.treewidth_at_most`` calls this only
    for k ≥ 3.
    """
    n = len(g.vertices)
    if n > cap:
        raise CapacityError(f"graph has {n} vertices, exact treewidth cap is {cap}")
    if n == 0:
        return -1
    adj = g.index.masks
    bound = max(bag.bit_count() for _, bag in min_degree_elimination(g)) - 1
    full = (1 << n) - 1
    layer = {0: -1}  # f on the kept sets of one size
    for _ in range(n):
        nxt: dict = {}
        for s, fs in layer.items():
            # reach[v] ∖ {v} = Q(S, v): v's neighbours outside S, plus the
            # outside neighbourhood of every component of G[S] next to v.
            reach = [a & ~s for a in adj]
            rest = s
            while rest:
                comp, nbhd = grow_mask(adj, rest & -rest, rest)
                rest &= ~comp
                nbhd &= ~s
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


def heuristic_td(g: Graph) -> TreeDecomposition:
    """Min-degree elimination tree-decomposition (deterministic tie-breaks).

    Tree nodes are the elimination indices 0..n-1; node i's part is the bag of
    the i-th vertex that ``min_degree_elimination`` removes.
    """
    index = g.index
    if not index.order:
        return TreeDecomposition(Graph.build(vertices=[0]), {0: frozenset()})
    elimination = min_degree_elimination(g)
    pos = {v: i for i, (v, _) in enumerate(elimination)}  # id -> elimination index
    edges = []
    for i, (_, bag) in enumerate(elimination):
        later = [pos[w] for w in bit_ids(bag) if pos[w] > i]
        if later or i + 1 < len(elimination):
            # A bag with no later vertex ends a component: link it to the next bag.
            edges.append((i, min(later, default=i + 1)))
    return TreeDecomposition(
        Graph.build(edges, vertices=range(len(elimination))),
        {i: index.labels(bag) for i, (_, bag) in enumerate(elimination)},
    )


# ---------------------------------------------------------------------------
# contraction, clique subtrees, centers
# ---------------------------------------------------------------------------


def contract_td_edges(td: TreeDecomposition, keep: Iterable[tuple]) -> tuple[TreeDecomposition, dict]:
    """Contract every tree edge not in ``keep``; merged parts are unions.

    Returns the contracted decomposition and a map original node -> new node.
    New node identifiers are the key-minimal members of their merged class.
    """
    keep_set = {canonical_edge(*e) for e in keep}
    unknown = keep_set - td.tree.edges
    if unknown:
        raise StructuralError(f"keep contains non-tree edges: {sorted(unknown, key=str)!r}")
    # Each class is a component of T minus the kept edges; ids follow key
    # order, so a class's lowest id is its key-least node.
    index = td.tree.index
    masks = index.masks[:]
    for a, b in keep_set:
        i, j = index.pos[a], index.pos[b]
        masks[i] &= ~(1 << j)
        masks[j] &= ~(1 << i)
    rep = {}
    rest = (1 << len(masks)) - 1
    while rest:
        low = rest & -rest
        comp = grow_mask(masks, low, rest)[0]
        rest &= ~comp
        rep.update(dict.fromkeys(index.labels(comp), index.order[low.bit_length() - 1]))
    new_parts: dict = {}
    for t, p in td.parts.items():
        new_parts.setdefault(rep[t], frozenset())
        new_parts[rep[t]] |= p
    new_edges = [(rep[a], rep[b]) for (a, b) in keep_set]
    new_tree = Graph.build(new_edges, vertices=new_parts.keys())
    return TreeDecomposition(new_tree, new_parts), rep


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


@dataclass(frozen=True)
class TreeCenter:
    kind: str  # "vertex" or "edge"
    location: object  # a tree node, or a canonical node pair


def tree_center(tree: Graph) -> TreeCenter:
    """Central vertex or central edge of a tree, by iterated leaf removal.

    Every automorphism of the tree fixes the centre (as a vertex, or an edge
    setwise), which is what makes it usable as a canonical attachment point.
    """
    _check_is_tree(tree)
    index = tree.index
    remaining = set(range(len(index.order)))
    deg = [len(js) for js in index.nbrs]
    while len(remaining) > 2:
        leaves = [v for v in remaining if deg[v] <= 1]
        for v in leaves:
            remaining.discard(v)
            for w in index.nbrs[v]:
                deg[w] -= 1
    rest = [index.order[v] for v in sorted(remaining)]
    if len(rest) == 1:
        return TreeCenter("vertex", rest[0])
    return TreeCenter("edge", (rest[0], rest[1]))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def td_to_dict(td: TreeDecomposition) -> dict:
    return {
        "tree_edges": [[vertex_token(a), vertex_token(b)] for (a, b) in td.tree.sorted_edges()],
        "parts": {vertex_token(t): sort_vertices(p) for t, p in sorted(td.parts.items(), key=lambda kv: vertex_key(kv[0]))},
    }


def td_from_dict(data: dict) -> TreeDecomposition:
    if not (isinstance(data, dict) and isinstance(data.get("parts"), dict)
            and isinstance(data.get("tree_edges"), (list, tuple))):
        raise StructuralError("tree-decomposition JSON must have an object 'parts' and a list 'tree_edges'")
    parts = {}
    for key, vs in data["parts"].items():
        if not isinstance(vs, list):
            raise StructuralError(f"part {key!r} must be a list of vertices")
        parts[vertex_from_json(key)] = frozenset(vertex_from_json(v, token=False) for v in vs)
    edges = []
    for e in data["tree_edges"]:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise StructuralError(f"tree edge {e!r} must be a pair")
        edges.append(tuple(vertex_from_json(x) for x in e))
    tree = Graph.build(edges, vertices=parts.keys())
    return TreeDecomposition(tree, parts)
