"""Planarity decision with subdivision witnesses on small graphs.

One algorithm gives both the verdict and the witness: the package's own
left-right planarity test (de Fraysseix–Rosenstiehl, in Brandes' formulation)
on a graph's ids.  Its orientation pass is ``Graph.orientation``, out-edges in
nesting order, whose lowpoints ``graph.cut_vertices`` also reads; this module
holds only the testing pass, which sorts nothing.  Its verdict is kept on the
graph too (``_lr_planar`` is ``kept``), so the pass runs once per neighbour
lists: H of a one-part planar host, the torso renamed, shares the torso's
verdict.  On a non-planar graph, deleting every edge the test shows to be
unneeded for non-planarity leaves a K₅ or K₃,₃ subdivision, which
``validate_subdivision`` re-checks independently of the test.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations
from typing import NamedTuple

from .errors import StructuralError
from .graph import Graph, kept

WITNESS_CAP = 12

# Each kind's number of branch vertices, and the pairs of branch positions
# that its paths join, in the order a witness lists the paths.
_SHAPES = {
    "K5": (5, list(combinations(range(5), 2))),
    "K33": (6, [(i, j) for i in range(3) for j in range(3, 6)]),
}


class SubdivisionWitness(NamedTuple):
    kind: str  # "K5" or "K33"
    branch_vertices: tuple
    paths: tuple  # one internally-disjoint path per subdivided edge


class PlanarityVerdict(NamedTuple):
    planar: bool
    witness: SubdivisionWitness | None


def validate_subdivision(g: Graph, w: SubdivisionWitness) -> bool:
    """Check a claimed subdivision on the ids of g's own vertices (True is not 1): path ends, internal disjointness."""
    own, masks = g.own_id, g.masks
    branch = list(map(own, w.branch_vertices))
    size, needed = _SHAPES.get(w.kind, (0, []))
    if None in branch or len(set(branch)) != len(branch) or len(branch) != size or len(w.paths) != len(needed):
        return False
    used_internal: set = set()
    for (i, j), path in zip(needed, w.paths):
        vs = list(map(own, path))
        if len(vs) < 2 or None in vs or vs[0] != branch[i] or vs[-1] != branch[j]:
            return False
        if len(set(vs)) != len(vs):
            return False
        if not all(masks[a] >> b & 1 for a, b in zip(vs, vs[1:])):
            return False
        interior = set(vs[1:-1])
        if interior & set(branch) or interior & used_internal:
            return False
        used_internal |= interior
    return True


def _strip(nbrs: list, todo: list) -> None:
    """Delete vertices of degree 1 until none is left, starting from ``todo``."""
    while todo:
        v = todo.pop()
        if len(nbrs[v]) == 1:
            w = nbrs[v].pop()
            nbrs[w].remove(v)
            todo.append(w)


def find_subdivision(g: Graph) -> SubdivisionWitness | None:
    """A K₅ or K₃,₃ subdivision of g, or None iff g is planar.

    ``_lr_planar`` is the only oracle.  On a copy of the id adjacency, each
    edge is tried once, by descending endpoint-degree sum (ties by id), and
    deleted if the graph stays non-planar without it; degree-1 vertices are
    stripped after each deletion.  So a Kuratowski subdivision S stays.  Once
    the vertices of degree > 2 are five of degree 4 (six of degree 3), S is a
    K₅ (K₃,₃) subdivision on them that uses all their edges and both edges of
    its degree-2 vertices: a whole component, beside disjoint cycles.  Were
    every edge tried, each one left would be needed, leaving S alone: the
    stop always comes.
    """
    if _lr_planar(g):
        return None
    nbrs = [list(js) for js in g.nbrs]
    _strip(nbrs, list(range(len(nbrs))))
    edges = sorted((-len(nbrs[u]) - len(nbrs[v]), u, v) for u, js in enumerate(nbrs) for v in js if u < v)
    for _, u, v in edges:
        big = [len(js) for js in nbrs if len(js) > 2]
        if big == [4] * 5 or big == [3] * 6:
            break
        if v not in nbrs[u]:  # stripped with a pendant path
            continue
        nbrs[u].remove(v)
        nbrs[v].remove(u)
        if _lr_planar(Graph(g.order, g.pos, nbrs, g.vertices)):
            insort(nbrs[u], v)
            insort(nbrs[v], u)
        else:
            _strip(nbrs, [u, v])
    branch = [v for v, js in enumerate(nbrs) if len(js) > 2]
    ends = {}  # (branch id, branch id) -> the path between them along degree-2 ids
    for b in branch:
        for w in nbrs[b]:
            path = [b]
            while len(nbrs[w]) == 2:
                path.append(w)
                x, y = nbrs[w]
                w = y if x == path[-2] else x
            ends[b, w] = path + [w]
    if len(branch) == 5:
        kind = "K5"
    else:  # the least branch id and its two non-neighbours on the left
        right = sorted(w for (b, w) in ends if b == branch[0])
        kind, branch = "K33", [b for b in branch if b not in right] + right
    label = g.order
    return SubdivisionWitness(kind, tuple(label[v] for v in branch),
                              tuple(tuple(label[v] for v in ends[branch[i], branch[j]]) for i, j in _SHAPES[kind][1]))


@kept
def _lr_planar(g: Graph) -> bool:
    """Whether g is planar: ``_testing_pass`` on first use, kept on the graph after that."""
    return _testing_pass(g)


def _testing_pass(g: Graph) -> bool:
    """The left-right planarity test (Brandes, "The Left-Right Planarity
    Test", 2009), verdict only.

    ``dfs_orientation`` orients every edge, gives it its lowpoints and lists
    each vertex's outgoing edges by nesting depth.  A second DFS, the testing
    one, visits them in that kept order and keeps the return edges on a stack
    of conflict pairs: two intervals of back edges that must lie on opposite
    sides of the tree.  The graph is planar iff no pair ever needs an edge on
    both sides.  Both passes run on edge ids with explicit stacks; a conflict
    pair is the list ``[left low, left high, right low, right high]`` with -1
    for "none", and an interval is empty iff its low end is -1.  ``ref`` links
    each back edge of an interval to the next one down.  The orientation is
    the graph's own, shared with ``cut_vertices``.
    """
    height, parent, dst, out, lowpt, _ = g.orientation
    n, m = len(height), len(dst)
    pairs: list = []  # the stack of conflict pairs
    bottom = [0] * m  # the height of the pair stack when each edge is entered
    ref = [-1] * m
    nxt = [0] * n
    for r in range(n):
        if height[r] > 0:
            continue
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i < len(out[v]):
                nxt[v] = i + 1
                ei = out[v][i]
                bottom[ei] = len(pairs)
                if parent[dst[ei]] == ei:  # a tree edge, integrated when its head is finished
                    stack.append(dst[ei])
                    continue
                pairs.append([-1, -1, ei, ei])
            else:
                stack.pop()
                e = parent[v]
                if e < 0:
                    continue
                u = stack[-1]
                # Drop the back edges that end at u: whole pairs first, then the top pair's tops.
                hu = height[u]
                while pairs:
                    p = pairs[-1]
                    if p[0] < 0:
                        lowest = lowpt[p[2]]
                    elif p[2] < 0:
                        lowest = lowpt[p[0]]
                    else:
                        lowest = min(lowpt[p[0]], lowpt[p[2]])
                    if lowest != hu:
                        break
                    pairs.pop()
                if pairs:
                    p = pairs[-1]
                    while p[1] >= 0 and dst[p[1]] == u:
                        p[1] = ref[p[1]]
                    if p[1] < 0:
                        p[0] = -1
                    while p[3] >= 0 and dst[p[3]] == u:
                        p[3] = ref[p[3]]
                    if p[3] < 0:
                        p[2] = -1
                ei, v = e, u
            # Integrate the return edges of ei, unless it is v's first edge.
            if lowpt[ei] >= height[v] or ei == out[v][0]:
                continue
            lo_e = lowpt[parent[v]]
            lo_i = lowpt[ei]
            left_low = left_high = right_low = right_high = -1
            # The pairs above bottom[ei] are ei's own; merge them into the right interval.
            while True:
                q = pairs.pop()
                if q[0] >= 0:
                    q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if q[0] >= 0:
                    return False
                if lowpt[q[2]] > lo_e:  # else it sides with e's lowest return edge and leaves the stack
                    if right_low < 0:
                        right_high = q[3]
                    else:
                        ref[right_low] = q[3]
                    right_low = q[2]
                if len(pairs) == bottom[ei]:
                    break
            # The earlier siblings' pairs that conflict with ei go to the left interval.
            while pairs:
                q = pairs[-1]
                if not (q[1] >= 0 and lowpt[q[1]] > lo_i or q[3] >= 0 and lowpt[q[3]] > lo_i):
                    break
                pairs.pop()
                if q[3] >= 0 and lowpt[q[3]] > lo_i:
                    q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if q[3] >= 0 and lowpt[q[3]] > lo_i:
                    return False
                if right_low >= 0:
                    ref[right_low] = q[3]
                if q[2] >= 0:
                    right_low = q[2]
                if left_low < 0:
                    left_high = q[1]
                else:
                    ref[left_low] = q[1]
                left_low = q[0]
            if left_low >= 0 or right_low >= 0:
                pairs.append([left_low, left_high, right_low, right_high])
    return True


def is_planar(g: Graph, witness_cap: int = WITNESS_CAP) -> PlanarityVerdict:
    """The verdict, with a validated witness when g is non-planar and has at
    most ``witness_cap`` vertices; ``find_subdivision`` decides those graphs."""
    if not isinstance(witness_cap, int) or isinstance(witness_cap, bool):
        raise StructuralError(f"witness cap must be an integer, not {witness_cap!r}")
    if len(g.vertices) > witness_cap:
        return PlanarityVerdict(_lr_planar(g), None)
    witness = find_subdivision(g)
    if witness is not None and not validate_subdivision(g, witness):
        raise StructuralError("extracted subdivision failed validation")
    return PlanarityVerdict(witness is None, witness)
