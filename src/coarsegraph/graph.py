"""Finite undirected simple graphs and the metric primitives everything else builds on.

Vertices are opaque hashable identifiers: ints, strings, or (nested) tuples of
those.  Graphs are immutable values; every transformation returns a new Graph.
Distances are shortest-path lengths in the graph itself, with ``math.inf``
standing in for "no path".
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from functools import wraps
from itertools import chain, combinations, compress
from typing import Iterable, Mapping, NoReturn

from .errors import GraphToolError, ParseError, UnknownVertexError

Vertex = int | str | tuple
MAX_VERTEX_DEPTH = 100  # deepest tuple nesting read from text or JSON, and keyed


def vertex_key(v: Vertex, depth: int = MAX_VERTEX_DEPTH):
    """Total order key for mixed int/str/tuple vertex identifiers.

    Sorts all ints before all strings before all tuples; tuples compare
    recursively.  Used everywhere a deterministic iteration order is needed.
    A tuple nested deeper than ``depth`` raises ``GraphToolError``, so at the
    default ``MAX_VERTEX_DEPTH`` every vertex of a graph can be written and
    read back.
    """
    if isinstance(v, bool):
        raise GraphToolError(f"booleans are not valid vertex identifiers: {v!r}")
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        if not depth:
            raise GraphToolError("a vertex identifier nests too deep to key")
        return (2, tuple(vertex_key(x, depth - 1) for x in v))
    raise GraphToolError(f"unsupported vertex identifier type: {v!r}")


def sort_vertices(vs: Iterable[Vertex]) -> list[Vertex]:
    return sorted(vs, key=vertex_key)


def set_key(vs: Iterable[Vertex]) -> tuple:
    """Total order key for vertex sets: the sorted tuple of their vertex keys."""
    return tuple(sorted(map(vertex_key, vs)))


def _same_types(u, w) -> bool:
    """Whether u and w, known to be equal, have the same types throughout."""
    t = type(u)
    return t is type(w) and (not isinstance(u, tuple) or all(map(_same_types, u, w)))


def _refuse(seen: list, v, equal=None) -> None:
    """Graph.build's refusal of v, met after the distinct vertices ``seen``: each of them, then v, is keyed
    first, so a vertex that does not key is refused in the order met (True and 1.0 are no vertices);
    else v is refused beside ``equal``, a vertex equal to it but of other types (an int and an IntEnum member)."""
    for x in chain(seen, [v]):
        vertex_key(x)
    if equal is not None:
        raise GraphToolError(f"vertices {equal!r} and {v!r} are equal but of different types")


def _unknown(vs: list) -> NoReturn:
    """Raise UnknownVertexError for some vertices that are not the graph's, naming one whatever order they
    come in: the key-least of those that key, else the one with the least repr."""
    keyed = {}
    for v in vs:
        with suppress(GraphToolError):
            keyed[vertex_key(v)] = v
    raise UnknownVertexError(repr(keyed[min(keyed)]) if keyed else min(map(repr, vs)))


def canonical_edge(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    """The pair (u, v) with endpoints in canonical order."""
    if vertex_key(u) <= vertex_key(v):
        return (u, v)
    return (v, u)


def kept(make):
    """``make``, a function of a graph's ids alone, as a reader of the fact it makes: made on the first
    read and kept in the graph's table of facts under the reader, so a later read is one ``dict.get``."""
    def read(g):
        fact = g._facts.get(read)
        if fact is None:
            fact = g._facts[read] = make(g)
        return fact
    return wraps(make)(read)


class Graph:
    """An immutable finite simple graph, held as integers: vertex ``i`` is ``order[i]`` in key
    order (a derived graph keeps its parent's on the ids it takes), ``pos`` maps each vertex
    back to its id, ``nbrs[i]`` lists the neighbour ids in increasing order, and ``vertices``
    is the vertex set; a BFS over ``nbrs`` expands neighbours in key order (:meth:`parent_row`).
    The edge set is kept on first use, and each fact of the ids alone (``kept``) in one table,
    ``_facts``, which a renamed graph (H of a one-part planar host) shares.  Fields are read-only
    by convention; graphs compare and hash on their vertex and edge sets.  Use :meth:`build`
    rather than the raw constructor so vertices are keyed, ids given and loops rejected."""

    __slots__ = ("order", "pos", "nbrs", "vertices", "_edges", "_facts")

    def __init__(self, order: list, pos: dict, nbrs: list, vertices: frozenset):
        self.order, self.pos, self.nbrs, self.vertices = order, pos, nbrs, vertices
        self._edges, self._facts = None, {}

    @classmethod
    def build(cls, edges: Iterable[tuple[Vertex, Vertex]] = (), vertices: Iterable[Vertex] = ()) -> "Graph":
        # The distinct vertices are numbered as met, then put in key order by _ranks.  An equal vertex
        # shares a number only if its types match throughout; else it is refused (``_refuse``).
        es = list(edges)
        for u, v in es:
            if u == v:
                raise GraphToolError(f"loops are not allowed: ({u!r}, {v!r})")
        distinct: list = []
        num: dict = {}
        ids = []
        for v in chain(chain.from_iterable(es), vertices):
            try:
                i = num.setdefault(v, len(distinct))
            except TypeError:  # an unhashable vertex, which keying refuses as no vertex
                _refuse(distinct, v)
                raise
            if i == len(distinct):
                distinct.append(v)
            elif not _same_types(v, distinct[i]):
                _refuse(distinct, v, distinct[i])
            ids.append(i)
        rank, new = _ranks(distinct)
        ends = map(new.__getitem__, ids[:2 * len(es)])
        return cls._on_ids([distinct[i] for i in rank], zip(ends, ends))  # consecutive ends pair up

    @classmethod
    def _on_ids(cls, order: list, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on ``order``, distinct vertices in key order whose places
        are their ids, with an edge for each pair of ids (repeats count once)."""
        ids = {(i, j) if i < j else (j, i) for i, j in pairs}
        nbrs: list = [[] for _ in order]
        for i, j in ids:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return cls._from_nbrs(order, [sorted(js) for js in nbrs])

    @classmethod
    def _from_nbrs(cls, order: list, nbrs: list) -> "Graph":
        """The graph on ``order``, distinct vertices in key order whose places are their ids, with
        ``nbrs`` as its sorted neighbour id lists.  The vertex set is made from ``pos`` and reuses the
        hashes the dict stored, so each vertex is hashed once: a tuple keeps no hash of its own."""
        pos = dict(zip(order, range(len(order))))
        return cls(order, pos, nbrs, frozenset(pos))

    def _renamed(self, order: list) -> "Graph":
        """This graph with id i named ``order[i]``, sorting as ``self.order`` does; it shares ``nbrs`` and ``_facts``."""
        g = Graph._from_nbrs(order, self.nbrs)
        g._facts = self._facts
        return g

    @property
    def edges(self) -> frozenset:
        """The edges as canonical-order pairs, read off ``nbrs`` on first use and kept."""
        if self._edges is None:
            self._edges = frozenset(self.sorted_edges())
        return self._edges

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertices!r}, edges={self.edges!r})"

    # -- basic queries -------------------------------------------------

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def _id(self, v: Vertex) -> int:
        return _ids(self, [v])[0]

    def neighbors(self, v: Vertex) -> frozenset:
        return frozenset(self.order[j] for j in self.nbrs[self._id(v)])

    def degree(self, v: Vertex) -> int:
        return len(self.nbrs[self._id(v)])

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        """True iff uv is an edge; u must be a vertex, v need not be."""
        mask = self.masks[self._id(u)]
        j = self.pos.get(v)
        return j is not None and mask >> j & 1 == 1

    def sorted_vertices(self) -> list[Vertex]:
        return list(self.order)

    def sorted_edges(self) -> list[tuple[Vertex, Vertex]]:
        """The edges in id order: ``_on_ids`` makes every edge (order[i], order[j]) with i < j."""
        order = self.order
        return [(order[i], order[j]) for i, js in enumerate(self.nbrs) for j in js if j > i]

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
    @kept
    def masks(self) -> list[int]:
        """The neighbour ids of each vertex as a bitmask (bit j for id j)."""
        masks = []
        for js in self.nbrs:
            m = 0
            for j in js:
                m |= 1 << j
            masks.append(m)
        return masks

    @property
    @kept
    def orientation(self) -> tuple:
        """``dfs_orientation(nbrs)``; its readers change none of its lists."""
        return dfs_orientation(self.nbrs)

    @property
    @kept
    def component_masks(self) -> tuple:
        """The components as id masks, lowest id first, from one ``mask_components`` sweep."""
        return tuple(comp for comp, _ in mask_components(self.masks))

    def bits(self, vs: Iterable[Vertex]) -> int:
        """The bitmask of some vertices of the graph; ``_ids`` names an unknown one."""
        m = 0
        for i in _ids(self, vs):
            m |= 1 << i
        return m

    def labels(self, mask: int) -> frozenset:
        """The vertices whose ids are set in ``mask``, in min(|mask|, n − |mask|)
        steps: a sparse mask is read off its set bits, a dense one is ``vertices``
        less the labels of its complement."""
        order = self.order
        dense = 2 * mask.bit_count() > len(order)
        if dense:
            mask ^= (1 << len(order)) - 1
        out = []
        while mask:
            i = mask.bit_length() - 1
            out.append(order[i])
            mask ^= 1 << i
        return self.vertices.difference(out) if dense else frozenset(out)

    def ball_levels(self, seeds: list[int]):
        """Bit-parallel BFS from every seed at once.  Level r holds, for each id
        x, the OR of ``seeds[y]`` over the ids y within distance r of x: level 0
        is ``seeds``, and level r + 1 at x ORs level r at x with level r at each
        neighbour.  Endless; once no mask grows, every level equals the last.
        An id whose mask holds the OR of its component's seeds is finished: its
        mask can grow no more, so only the other ids are recomputed."""
        level, nbrs = seeds, self.nbrs
        total = [0] * len(nbrs)
        for comp in self.component_masks:
            ids = bit_ids(comp)
            m = 0
            for x in ids:
                m |= seeds[x]
            for x in ids:
                total[x] = m
        live = [x for x, m in enumerate(seeds) if m != total[x]]
        while True:
            yield level
            nxt, keep = level[:], []
            for x in live:
                m = nxt[x]
                for j in nbrs[x]:
                    m |= level[j]
                nxt[x] = m
                if m != total[x]:
                    keep.append(x)
            level, live = nxt, keep


_BITS = bytes.maketrans(b"01", b"\0\1")


def bit_ids(mask: int) -> list[int]:
    """The ids set in ``mask``, in increasing order.  A dense mask (more than
    about one bit in eight set) is read in one pass over ``bin(mask)``; a
    sparse one bit by bit, as each step costs the mask's width."""
    if 8 * mask.bit_count() > mask.bit_length() + 64:
        flags = bin(mask)[:1:-1].encode().translate(_BITS)  # flags[i] is bit i
        return list(compress(range(len(flags)), flags))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_components(masks: list[int], within: int = -1, touching: int = -1):
    """The components C of the subgraph induced on the ids in ``within`` that
    meet ``touching``, each yielded with N(C) ∖ ``within`` as bitmasks of ids,
    lowest id first; ``masks`` holds each id's neighbours (``Graph.masks``).
    With ``within`` = ~S this gives G − S with N(C) ⊆ S, with ``within`` = S the
    components of G[S].  One bit-parallel BFS per component, taking its ids out
    of ``rest`` as it grows; a component that misses ``touching`` is never grown."""
    rest = within & (1 << len(masks)) - 1
    starts = rest & touching
    while starts:
        comp = frontier = starts & -starts
        rest ^= comp
        reach = 0
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grow |= masks[low.bit_length() - 1]
            reach |= grow
            frontier = grow & rest
            rest ^= frontier
            comp |= frontier
        starts &= rest
        yield comp, reach & ~within


# ---------------------------------------------------------------------------
# metric / connectivity primitives
# ---------------------------------------------------------------------------


def _ids(g: Graph, vs: Iterable[Vertex]) -> list[int]:
    """The ids of some vertices of ``g``; ``_unknown`` names an unknown one.  A one-shot iterator is read into a
    list first, as the vertices are read again on an error."""
    pos = g.pos
    if iter(vs) is vs:
        vs = list(vs)
    try:
        return [pos[v] for v in vs]
    except KeyError:
        _unknown([v for v in vs if v not in pos])


def row_distance(row: list[int], ids: Iterable[int]) -> int | float:
    """The least entry of a ``distance_row`` over some ids; ``math.inf`` if none is reached."""
    return min((row[i] for i in ids if row[i] >= 0), default=math.inf)


def distances_from(g: Graph, sources: Iterable[Vertex]) -> dict:
    """BFS distances from a set of sources (unreached vertices absent)."""
    row = g.distance_row(_ids(g, sources))
    return {v: d for v, d in zip(g.order, row) if d >= 0}


def distance(g: Graph, u: Vertex, v: Vertex) -> int | float:
    """d_G(u, v); ``math.inf`` when u and v lie in different components."""
    row = g.distance_row(_ids(g, [u]))
    return row_distance(row, _ids(g, [v]))


def components(g: Graph) -> list[frozenset]:
    """Connected components, sorted by canonical key of their smallest vertex."""
    return [g.labels(comp) for comp in g.component_masks]


def dfs_orientation(nbrs: list) -> tuple:
    """One DFS over neighbour-id lists (``nbrs[v]`` in increasing order) that
    orients every edge away from where it is first met and numbers it then.
    At v a visited neighbour w was met first from its own side iff it is v's
    parent or a descendant, that is iff height[w] ≥ height[v] − 1; any other
    visited w is an ancestor, reached by a back edge.

    Returns ``(height, parent, dst, out, lowpt, lowpt2)``: each vertex's DFS
    height (0 at each root, one root per component, tried in id order); the
    id of the tree edge into it (-1 at a root); the head of each edge; the
    edges out of each vertex, in nesting order (Brandes: by 2·lowpt, plus 1 if
    lowpt2 is below the tail, ties in the order they were oriented); and each
    edge's lowest and second-lowest return heights, the height of its tail
    where it has none.  A tree edge v→w has ``lowpt`` at least ``height[v]``
    iff no back edge from w's subtree climbs above v.  The left-right
    planarity test reads the lowpoints and the nesting order, ``cut_vertices``
    the lowpoints alone.
    """
    n = len(nbrs)
    height = [-1] * n
    parent = [-1] * n
    dst, lowpt, lowpt2 = [], [], []
    out: list = [[] for _ in range(n)]
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = hv = 0  # hv: the height of v, the vertex on top of the stack
        v, it, stack = r, iter(nbrs[r]), []
        while True:
            for w in it:
                h = height[w]
                if h < 0:  # a tree edge, finished when w is
                    parent[w] = len(dst)
                    out[v].append(len(dst))  # edges are numbered as they are oriented
                    dst.append(w)
                    lowpt.append(hv)
                    lowpt2.append(hv)
                    stack.append((v, it))
                    hv = height[w] = hv + 1
                    v, it = w, iter(nbrs[w])
                    break
                if h < hv - 1:  # a back edge to an ancestor: lowpoints (h, hv), folded into v's parent edge now
                    out[v].append(len(dst))
                    dst.append(w)
                    lowpt.append(h)
                    lowpt2.append(hv)
                    e = parent[v]
                    low = lowpt[e]  # at most hv - 1, as is lowpt2[e]
                    if h < low:
                        lowpt2[e] = low
                        lowpt[e] = h
                    elif low < h < lowpt2[e]:
                        lowpt2[e] = h
                # else w is v's parent or a descendant: oriented from w's side
            else:  # v is finished: fold its parent edge's lowpoints into its parent's
                if not stack:
                    break
                ei = parent[v]
                v, it = stack.pop()
                hv -= 1
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


def cut_vertices(g: Graph) -> frozenset:
    """The vertices whose removal leaves more components, read off the
    lowpoints of ``dfs_orientation`` (Hopcroft–Tarjan): a non-root v is one iff
    some tree edge v→w has ``lowpt`` ≥ height(v), a root iff it has two or
    more tree edges (all of which pass that test)."""
    height, parent, dst, out, lowpt, _ = g.orientation
    return frozenset(
        g.order[v] for v, es in enumerate(out)
        if sum(parent[dst[e]] == e and lowpt[e] >= height[v] for e in es) > (height[v] == 0)
    )


def is_connected(g: Graph) -> bool:
    return len(g.component_masks) <= 1


def induced_subgraph(g: Graph, keep: Iterable[Vertex]) -> Graph:
    return _induced(g, keep)


def _induced(g: Graph, keep: Iterable[Vertex], cliques: Iterable[Iterable[Vertex]] = ()) -> Graph:
    """G[keep] plus a clique on each of ``cliques`` (sets of kept vertices), on
    ``g``'s ids: the kept ids, in increasing order, stay in key order."""
    ids = sorted(_ids(g, set(keep)))
    new = dict(zip(ids, range(len(ids))))
    pairs = [(new[i], new[j]) for i in ids for j in g.nbrs[i] if j > i and j in new]
    for c in cliques:
        pairs.extend(combinations([new[i] for i in _ids(g, c)], 2))
    return Graph._on_ids([g.order[i] for i in ids], pairs)


def union(a: Graph, b: Graph) -> Graph:
    return Graph.build(list(a.edges) + list(b.edges), vertices=a.vertices | b.vertices)


def add_edges(g: Graph, edges: Iterable[tuple[Vertex, Vertex]]) -> Graph:
    return Graph.build(list(g.edges) + list(edges), vertices=g.vertices)


def relabel(g: Graph, mapping: Mapping) -> Graph:
    """Apply an injective vertex renaming; raises if the map merges vertices.
    Each image is keyed once, so the result is ``g`` with its ids permuted into
    the images' key order; an invalid image named is the first in ``g``'s id order."""
    img = [mapping.get(v, v) for v in g.order]
    try:
        merged = len(set(img)) != len(img)
    except TypeError:  # an unhashable image, which keying refuses as no vertex
        list(map(vertex_key, img))
        raise
    if merged:
        raise GraphToolError("relabelling is not injective on the vertex set")
    rank, new = _ranks(img)
    order = [img[i] for i in rank]
    nbrs = [[new[j] for j in g.nbrs[i]] for i in rank]
    for js in nbrs:
        js.sort()
    return Graph._from_nbrs(order, nbrs)


def _ranks(vertices: list) -> tuple[list[int], list[int]]:
    """Key order on distinct vertices, each keyed once: the places of ``vertices``
    in key order (``rank``), and each place's id in that order (``new``, its inverse)."""
    key = list(map(vertex_key, vertices))
    rank = sorted(range(len(vertices)), key=key.__getitem__)
    new = [0] * len(rank)
    for r, i in enumerate(rank):
        new[i] = r
    return rank, new


# ---------------------------------------------------------------------------
# walks and paths
# ---------------------------------------------------------------------------


def parent_path(prev: list[int], t: int) -> tuple[int, ...] | None:
    """The id path from the root of a ``Graph.parent_row`` to id ``t``; None if ``t`` is unreached."""
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
# comment.  A token reads as an int when it is an int's canonical decimal form,
# as a tuple when it re-renders as itself, else as a string.


def parse_vertex_token(tok: str) -> Vertex:
    """Inverse of vertex_token on its image.  An int is read from its canonical ASCII decimal
    form only: ``0``, or an optional ``-`` then a digit 1-9 and any digits 0-9, so ``+1``,
    ``01``, ``-0``, ``1_0`` and ``٣`` stay strings.  A tuple token is recognised when
    re-rendering it reproduces the input exactly; anything else stays a plain string.
    Parentheses nested deeper than ``MAX_VERTEX_DEPTH`` raise ``ParseError``."""
    digits = tok[1:] if tok[:1] == "-" else tok
    if digits.isdigit() and digits.isascii() and (digits[0] != "0" or tok == "0"):
        try:
            return int(tok)
        except ValueError:  # more digits than int() reads
            return tok
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
    """Serialised form of a vertex for the edge-list format and DOT output.  An int past
    Python's int-to-string digit limit has no token: ``GraphToolError`` names the limit."""
    if isinstance(v, int):
        try:
            return str(v)
        except ValueError:
            raise GraphToolError(f"an int vertex has more digits than Python's int-to-string limit "
                                 f"({sys.get_int_max_str_digits()}) and cannot be written") from None
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "(" + "|".join(vertex_token(x) for x in v) + ")"
    raise GraphToolError(f"unsupported vertex identifier type: {v!r}")


def parse_edge_list(text: str) -> Graph:
    # Each distinct token is parsed once and numbered straight into key order.  Any error sends the
    # rows to _edge_list_error, which checks them line by line and raises the first.
    lines = text.splitlines()
    lines = [line.split("#", 1)[0] for line in lines]
    rows = list(map(str.split, lines))
    tokens = dict.fromkeys(chain.from_iterable(rows))  # in first-occurrence order
    try:
        vertices = list(map(parse_vertex_token, tokens))
    except ParseError:
        _edge_list_error(rows)
    rank, new = _ranks(vertices)
    ids = dict(zip(tokens, new))
    nbrs: list[set] = [set() for _ in rank]
    for toks in rows:
        if len(toks) == 2:
            i, j = ids[toks[0]], ids[toks[1]]
            if i == j:
                _edge_list_error(rows)
            nbrs[i].add(j)
            nbrs[j].add(i)
        elif len(toks) > 2:
            _edge_list_error(rows)
    order = [vertices[i] for i in rank]
    return Graph._from_nbrs(order, list(map(sorted, nbrs)))


def _edge_list_error(rows: list[list[str]]) -> NoReturn:
    """Raise the first error of the edge list's token rows, with its line: a line of more than two
    tokens, a token that does not parse (on the line of its first occurrence) or a loop.
    parse_vertex_token is injective, so a line is a loop iff its tokens are equal."""
    for lineno, toks in enumerate(rows, start=1):
        try:  # every error on a line, a token's own included, names the line
            if len(toks) > 2:
                raise ParseError(f"expected 1 or 2 tokens, got {len(toks)}")
            for tok in toks:
                parse_vertex_token(tok)
            if len(toks) == 2 and toks[0] == toks[1]:
                raise ParseError(f"loop edge {toks[0]!r}")
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None


def format_edge_list(g: Graph) -> str:
    """The edge-list text of ``g``: edges, then isolated vertices, in id order, each vertex
    rendered once.  A token that would not read back as its vertex is refused, the key-least first."""
    tokens = list(map(vertex_token, g.order))
    for v, t in zip(g.order, tokens):
        if "#" in t or t.split() != [t]:  # also an empty token, or one holding whitespace
            raise GraphToolError(f"vertex {t!r} cannot be serialised to the edge-list format")
        if parse_vertex_token(t) != v:
            raise GraphToolError(f"vertex {v!r} would read back from the edge-list format as {parse_vertex_token(t)!r}")
    lines = [f"{tokens[i]} {tokens[j]}" for i, js in enumerate(g.nbrs) for j in js if j > i]
    lines += [t for t, js in zip(tokens, g.nbrs) if not js]
    return "\n".join(lines) + ("\n" if lines else "")


def _dot_quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {_dot_quote(vertex_token(u))} -- {_dot_quote(vertex_token(v))};" for (u, v) in g.sorted_edges()]
    lines += [f"  {_dot_quote(vertex_token(v))};" for v, js in zip(g.order, g.nbrs) if not js]
    lines.append("}")
    return "\n".join(lines) + "\n"
