"""Finite undirected simple graphs and the metric primitives everything else builds on.

Vertices are opaque hashable identifiers: ints, strings, or (nested) tuples of
those.  Graphs are immutable values; every transformation returns a new Graph.
Distances are shortest-path lengths in the graph itself, with ``math.inf``
standing in for "no path".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

from .errors import GraphToolError, ParseError, UnknownVertexError

Vertex = int | str | tuple
MAX_VERTEX_DEPTH = 100  # deepest tuple nesting read from text or JSON; H names nest a host vertex one deeper


def vertex_key(v: Vertex):
    """Total order key for mixed int/str/tuple vertex identifiers.

    Sorts all ints before all strings before all tuples; tuples compare
    recursively.  Used everywhere a deterministic iteration order is needed.
    """
    if isinstance(v, bool):
        raise GraphToolError(f"booleans are not valid vertex identifiers: {v!r}")
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(vertex_key(x) for x in v))
    raise GraphToolError(f"unsupported vertex identifier type: {v!r}")


def sort_vertices(vs: Iterable[Vertex]) -> list[Vertex]:
    return sorted(vs, key=vertex_key)


def set_key(vs: Iterable[Vertex]) -> tuple:
    """Total order key for vertex sets: the sorted tuple of their vertex keys."""
    return tuple(sorted(map(vertex_key, vs)))


def _same_types(u, w) -> bool:
    """Whether u and w, known to be equal, have the same types throughout."""
    t = type(u)
    return t is type(w) and (t is str or t is int or not isinstance(u, tuple) or all(map(_same_types, u, w)))


def canonical_edge(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    """The pair (u, v) with endpoints in canonical order."""
    if vertex_key(u) <= vertex_key(v):
        return (u, v)
    return (v, u)


@dataclass(frozen=True)
class Graph:
    """An immutable finite simple graph with its integer view ``index``.

    ``edges`` holds canonical-order pairs; use :meth:`build` rather than the
    raw constructor so vertices are keyed, loops rejected and the index made.
    """

    vertices: frozenset
    edges: frozenset
    index: "GraphIndex" = field(repr=False, compare=False)

    @classmethod
    def build(cls, edges: Iterable[tuple[Vertex, Vertex]] = (), vertices: Iterable[Vertex] = ()) -> "Graph":
        # Each distinct vertex is keyed once, in an entry [vertex, key] whose key becomes its id. An equal
        # vertex shares the entry only if its types match throughout: True and 1.0 equal 1 but are no vertices.
        keyed: dict = {}

        def entry(v) -> list:
            e = keyed.get(v)
            if e is None or e[0] is not v and not _same_types(v, e[0]):
                try:
                    e = keyed[v] = [v, vertex_key(v)]
                except RecursionError:  # no repr either: it would recurse as deep
                    raise GraphToolError("a vertex identifier nests too deep to key") from None
            return e

        es = []
        for (u, v) in edges:
            if u == v:
                raise GraphToolError(f"loops are not allowed: ({u!r}, {v!r})")
            es.append((entry(u), entry(v)))
        for v in vertices:
            entry(v)
        order = sorted(keyed.values(), key=lambda e: e[1])
        for i, e in enumerate(order):
            e[1] = i
        return cls._on_ids([v for v, _ in order], [(a[1], b[1]) for a, b in es])

    @classmethod
    def _on_ids(cls, order: list, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on ``order``, distinct vertices in key order whose places
        are their ids, with an edge for each pair of ids (repeats count once)."""
        ids = {(i, j) if i < j else (j, i) for i, j in pairs}
        nbrs: list = [[] for _ in order]
        for i, j in ids:
            nbrs[i].append(j)
            nbrs[j].append(i)
        index = GraphIndex(order, {v: i for i, v in enumerate(order)}, [sorted(js) for js in nbrs])
        return cls(frozenset(order), frozenset((order[i], order[j]) for i, j in ids), index)

    # -- basic queries -------------------------------------------------

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def _id(self, v: Vertex) -> int:
        return _ids(self.index, [v])[0]

    def neighbors(self, v: Vertex) -> frozenset:
        index = self.index
        return frozenset(index.order[j] for j in index.nbrs[self._id(v)])

    def degree(self, v: Vertex) -> int:
        return len(self.index.nbrs[self._id(v)])

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        """True iff uv is an edge; u must be a vertex, v need not be."""
        mask = self.index.masks[self._id(u)]
        j = self.index.pos.get(v)
        return j is not None and mask >> j & 1 == 1

    def sorted_vertices(self) -> list[Vertex]:
        return list(self.index.order)

    def sorted_edges(self) -> list[tuple[Vertex, Vertex]]:
        pos = self.index.pos
        return sorted(self.edges, key=lambda e: (pos[e[0]], pos[e[1]]))

    def require_vertex(self, v: Vertex) -> None:
        if v not in self.vertices:
            raise UnknownVertexError(repr(v))


class GraphIndex:
    """A graph as integers, made with the graph: vertex ``i`` is ``order[i]`` in key order (a
    derived graph keeps its parent's on the ids it takes), ``pos`` maps each vertex back to its
    id, ``nbrs[i]`` lists the neighbour ids in increasing order.  So a BFS over ``nbrs``
    expands neighbours in key order; :meth:`parent_row` relies on that."""

    __slots__ = ("order", "pos", "nbrs", "_masks", "_orientation", "_generators", "_subsets")

    def __init__(self, order: list, pos: dict, nbrs: list):
        self.order, self.pos, self.nbrs = order, pos, nbrs
        self._masks = self._orientation = self._generators = self._subsets = None

    def own_id(self, v) -> int | None:
        """v's id if v is this graph's own vertex, else None: True or 1.0 equals 1 but is no vertex."""
        i = self.pos.get(v)
        return i if i is not None and (self.order[i] is v or _same_types(v, self.order[i])) else None

    def parent_row(self, s: int) -> list[int]:
        """BFS parents from id ``s``, indexed by id: ``s`` at ``s``, -1 where unreachable.  Each
        id's parent is its first neighbour met, so :func:`parent_path` follows key-order geodesics."""
        prev = [-1] * len(self.order)
        prev[s] = s
        queue = [s]
        for x in queue:  # the list grows while it is read, as a FIFO queue
            for w in self.nbrs[x]:
                if prev[w] < 0:
                    prev[w] = x
                    queue.append(w)
        return prev

    def distance_row(self, sources: Iterable[int]) -> list[int]:
        """BFS distances from a set of vertex ids, indexed by id; -1 where unreachable."""
        row = [-1] * len(self.order)
        queue = list(sources)
        for s in queue:
            row[s] = 0
        for x in queue:  # the list grows while it is read, as a FIFO queue
            d = row[x] + 1
            for w in self.nbrs[x]:
                if row[w] < 0:
                    row[w] = d
                    queue.append(w)
        return row

    @property
    def masks(self) -> list[int]:
        """The neighbour ids of each vertex as a bitmask (bit j for id j), built on first use."""
        if self._masks is None:
            self._masks = [sum(1 << j for j in js) for js in self.nbrs]
        return self._masks

    @property
    def orientation(self) -> tuple:
        """``dfs_orientation(nbrs)``, built on first use; its readers change none of its lists."""
        if self._orientation is None:
            self._orientation = dfs_orientation(self.nbrs)
        return self._orientation

    def bits(self, vs: Iterable[Vertex]) -> int:
        """The bitmask of a set of vertices of the graph; UnknownVertexError names one that is not."""
        return sum(1 << i for i in _ids(self, frozenset(vs)))

    def labels(self, mask: int) -> frozenset:
        """The vertices whose ids are set in ``mask``, read off its set bits from
        the highest down (as fast as a scan of every position on dense masks)."""
        order, out = self.order, []
        while mask:
            i = mask.bit_length() - 1
            out.append(order[i])
            mask ^= 1 << i
        return frozenset(out)

    def ball_levels(self, seeds: list[int]):
        """Bit-parallel BFS from every seed at once.  Level r holds, for each id
        x, the OR of ``seeds[y]`` over the ids y within distance r of x: level 0
        is ``seeds``, and level r + 1 at x ORs level r at x with level r at each
        neighbour.  Endless; once no mask grows, every level equals the last."""
        level, nbrs = seeds, self.nbrs
        while True:
            yield level
            nxt = level[:]
            for x, js in enumerate(nbrs):
                m = nxt[x]
                for j in js:
                    m |= level[j]
                nxt[x] = m
            level = nxt


def bit_ids(mask: int) -> list[int]:
    """The ids set in ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def grow_mask(masks: list[int], seed: int, within: int) -> tuple[int, int]:
    """Bitmasks of ids: the component of ``seed`` in the subgraph induced on
    ``within``, and the union of its vertices' ``masks`` (``GraphIndex.masks``)."""
    comp = frontier = seed
    reach = 0
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow |= masks[low.bit_length() - 1]
        reach |= grow
        frontier = grow & within & ~comp
        comp |= frontier
    return comp, reach


def components_minus(g: Graph, s: int = 0) -> list[tuple[int, int]]:
    """The components C of G − S, each with N(C), as bitmasks of ``g.index`` ids
    (S is such a mask too), ordered by their smallest vertex like :func:`components`."""
    index = g.index
    rest = ((1 << len(index.order)) - 1) & ~s
    out = []
    while rest:
        comp, reach = grow_mask(index.masks, rest & -rest, rest)
        rest &= ~comp
        out.append((comp, reach & ~comp))
    return out


# ---------------------------------------------------------------------------
# metric / connectivity primitives
# ---------------------------------------------------------------------------


def _ids(index: GraphIndex, vs: Iterable[Vertex]) -> list[int]:
    """The ids of some vertices in ``index``; UnknownVertexError names the first unknown one."""
    try:
        return [index.pos[v] for v in vs]
    except KeyError as e:
        raise UnknownVertexError(repr(e.args[0])) from None


def row_distance(row: list[int], ids: Iterable[int]) -> int | float:
    """The least entry of a ``distance_row`` over some ids; ``math.inf`` if none is reached."""
    return min((row[i] for i in ids if row[i] >= 0), default=math.inf)


def distances_from(g: Graph, sources: Iterable[Vertex]) -> dict:
    """BFS distances from a set of sources (unreached vertices absent)."""
    row = g.index.distance_row(_ids(g.index, sources))
    return {v: d for v, d in zip(g.index.order, row) if d >= 0}


def distance(g: Graph, u: Vertex, v: Vertex) -> int | float:
    """d_G(u, v); ``math.inf`` when u and v lie in different components."""
    row = g.index.distance_row(_ids(g.index, [u]))
    return row_distance(row, _ids(g.index, [v]))


def components(g: Graph) -> list[frozenset]:
    """Connected components, sorted by canonical key of their smallest vertex."""
    return [g.index.labels(comp) for comp, _ in components_minus(g)]


def dfs_orientation(nbrs: list) -> tuple:
    """One DFS over neighbour-id lists (``nbrs[v]`` in increasing order) that
    orients every edge away from where it is first met, on edge ids.

    Returns ``(height, parent, dst, out, lowpt, lowpt2)``: each vertex's DFS
    height (0 at each root, one root per component, tried in id order); the
    id of the tree edge into it (-1 at a root); the head of each edge; the
    edges out of each vertex, in the order they were oriented; and each
    edge's lowest and second-lowest return heights, the height of its tail
    where it has none.  A tree edge v→w has ``lowpt`` at least ``height[v]``
    iff no back edge from w's subtree climbs above v.  The left-right
    planarity test and ``cut_vertices`` both read these lowpoints.
    """
    n = len(nbrs)
    # Edge ids: eids[v][i] is the id of the edge v–nbrs[v][i].  Each nbrs[w]
    # lists w's lower neighbours first, in the order this loop meets them.
    eids = [[0] * len(js) for js in nbrs]
    lower = [0] * n
    m = 0
    for v, js in enumerate(nbrs):
        for i, w in enumerate(js):
            if w > v:
                eids[v][i] = eids[w][lower[w]] = m
                lower[w] += 1
                m += 1

    height = [-1] * n
    parent = [-1] * n
    dst = [-1] * m  # -1 while unoriented
    lowpt, lowpt2 = [0] * m, [0] * m
    out: list = [[] for _ in range(n)]
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
                ei = eids[v][i]
                if dst[ei] >= 0:
                    continue
                w = dst[ei] = nbrs[v][i]
                out[v].append(ei)
                lowpt[ei] = lowpt2[ei] = height[v]
                if height[w] < 0:  # a tree edge, finished when w is
                    parent[w] = ei
                    height[w] = height[v] + 1
                    stack.append(w)
                    continue
                lowpt[ei] = height[w]  # a back edge
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
    return height, parent, dst, out, lowpt, lowpt2


def cut_vertices(g: Graph) -> frozenset:
    """The vertices whose removal leaves more components, read off the
    lowpoints of ``dfs_orientation`` (Hopcroft–Tarjan): a non-root v is one iff
    some tree edge v→w has ``lowpt`` ≥ height(v), a root iff it has two or
    more tree edges (all of which pass that test)."""
    height, parent, dst, out, lowpt, _ = g.index.orientation
    return frozenset(
        g.index.order[v] for v, es in enumerate(out)
        if sum(parent[dst[e]] == e and lowpt[e] >= height[v] for e in es) > (height[v] == 0)
    )


def is_connected(g: Graph) -> bool:
    return len(components_minus(g)) <= 1


def induced_subgraph(g: Graph, keep: Iterable[Vertex]) -> Graph:
    return _induced(g, keep)


def _induced(g: Graph, keep: Iterable[Vertex], cliques: Iterable[Iterable[Vertex]] = ()) -> Graph:
    """G[keep] plus a clique on each of ``cliques`` (sets of kept vertices), on
    ``g.index`` ids: the kept ids, in increasing order, stay in key order."""
    index = g.index
    ids = sorted(_ids(index, set(keep)))
    new = dict(zip(ids, range(len(ids))))
    pairs = [(new[i], new[j]) for i in ids for j in index.nbrs[i] if j > i and j in new]
    for c in cliques:
        pairs.extend(combinations([new[i] for i in _ids(index, c)], 2))
    return Graph._on_ids([index.order[i] for i in ids], pairs)


def union(a: Graph, b: Graph) -> Graph:
    return Graph.build(list(a.edges) + list(b.edges), vertices=a.vertices | b.vertices)


def add_edges(g: Graph, edges: Iterable[tuple[Vertex, Vertex]]) -> Graph:
    return Graph.build(list(g.edges) + list(edges), vertices=g.vertices)


def relabel(g: Graph, mapping: Mapping) -> Graph:
    """Apply an injective vertex renaming; raises if the map merges vertices."""
    img = {v: mapping.get(v, v) for v in g.vertices}
    if len(set(img.values())) != len(img):
        raise GraphToolError("relabelling is not injective on the vertex set")
    return Graph.build(
        [(img[u], img[v]) for (u, v) in g.edges],
        vertices=[img[v] for v in g.vertices],
    )


# ---------------------------------------------------------------------------
# walks and paths
# ---------------------------------------------------------------------------


def shortest_path(g: Graph, u: Vertex, v: Vertex) -> list[Vertex] | None:
    """One shortest u-v path (deterministic: BFS expands neighbours in key order)."""
    s, t = _ids(g.index, [u, v])
    path = parent_path(g.index.parent_row(s), t)
    return None if path is None else [g.index.order[i] for i in path]


def parent_path(prev: list[int], t: int) -> tuple[int, ...] | None:
    """The id path from the root of a ``GraphIndex.parent_row`` to id ``t``; None if ``t`` is unreached."""
    if prev[t] < 0:
        return None
    path = [t]
    while prev[path[-1]] != path[-1]:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------
# One edge per line ("u v"), a bare token for an isolated vertex, '#' starts a
# comment.  Tokens parse back to ints when they round-trip as ints, else stay
# strings.


def parse_vertex_token(tok: str) -> Vertex:
    """Inverse of vertex_token on its image: ints and tuple tokens are
    recognised when re-rendering them reproduces the input exactly; anything
    else stays a plain string.  Parentheses nested deeper than
    ``MAX_VERTEX_DEPTH`` raise ``ParseError``."""
    if tok.startswith("(") and tok.endswith(")"):
        parts: list[str] = []
        depth = 0
        current: list[str] = []
        for ch in tok[1:-1]:
            if ch == "|" and depth == 0:
                parts.append("".join(current))
                current = []
                continue
            if ch == "(":
                depth += 1
                if depth >= MAX_VERTEX_DEPTH:
                    raise ParseError(f"vertex token nests deeper than {MAX_VERTEX_DEPTH} levels")
            elif ch == ")":
                depth -= 1
            current.append(ch)
        parts.append("".join(current))
        if depth == 0:
            candidate = tuple(parse_vertex_token(p) for p in parts)
            if vertex_token(candidate) == tok:
                return candidate
        return tok
    try:
        n = int(tok)
    except ValueError:
        return tok
    return n if str(n) == tok else tok


def vertex_from_json(v, token: bool = True) -> Vertex:
    """A vertex as JSON holds it: a string, read as a vertex token when
    ``token``; a list, read as a tuple of plain vertices nested at most
    ``MAX_VERTEX_DEPTH`` deep; or an int."""
    if isinstance(v, list):
        return _tuple_from_json(v, MAX_VERTEX_DEPTH)
    if isinstance(v, str) and token:
        return parse_vertex_token(v)
    if isinstance(v, (int, str, tuple)) and not isinstance(v, bool):
        return v
    raise ParseError(f"{v!r} is not a vertex")


def _tuple_from_json(v: list, depth: int) -> tuple:
    if not depth:
        raise ParseError(f"vertex array nests deeper than {MAX_VERTEX_DEPTH} levels")
    return tuple(_tuple_from_json(x, depth - 1) if isinstance(x, list) else vertex_from_json(x, token=False) for x in v)


def vertex_token(v: Vertex) -> str:
    """Serialised form of a vertex for the edge-list format and DOT output."""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "(" + "|".join(vertex_token(x) for x in v) + ")"
    raise GraphToolError(f"unsupported vertex identifier type: {v!r}")


def parse_edge_list(text: str) -> Graph:
    vertices: list[Vertex] = []
    edges: list[tuple[Vertex, Vertex]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:  # every error on a line, a token's own included, names the line
            if len(toks) == 1:
                vertices.append(parse_vertex_token(toks[0]))
            elif len(toks) == 2:
                u, v = (parse_vertex_token(t) for t in toks)
                if u == v:
                    raise ParseError(f"loop edge {toks[0]!r}")
                edges.append((u, v))
            else:
                raise ParseError(f"expected 1 or 2 tokens, got {len(toks)}")
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return Graph.build(edges, vertices=vertices)


def format_edge_list(g: Graph) -> str:
    token = {v: vertex_token(v) for v in g.sorted_vertices()}
    for v, t in token.items():
        if any(ch.isspace() for ch in t) or "#" in t or not t:
            raise GraphToolError(f"vertex {t!r} cannot be serialised to the edge-list format")
        if parse_vertex_token(t) != v:
            raise GraphToolError(f"vertex {v!r} would read back from the edge-list format as {parse_vertex_token(t)!r}")
    lines = [f"{token[u]} {token[v]}" for (u, v) in g.sorted_edges()]
    lines += [token[v] for v, js in zip(g.index.order, g.index.nbrs) if not js]
    return "\n".join(lines) + ("\n" if lines else "")


def _dot_quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {_dot_quote(vertex_token(u))} -- {_dot_quote(vertex_token(v))};" for (u, v) in g.sorted_edges()]
    lines += [f"  {_dot_quote(vertex_token(v))};" for v, js in zip(g.index.order, g.index.nbrs) if not js]
    lines.append("}")
    return "\n".join(lines) + "\n"
