"""Planarity decision with subdivision witnesses on small graphs.

The verdict itself comes from networkx's left-right planarity test; the
witness (a K₅ or K₃,₃ subdivision, which exists in every non-planar graph) is
extracted by a self-contained backtracking search so it can be validated
independently of the decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import networkx as nx

from .errors import StructuralError
from .graph import Graph, GraphIndex

WITNESS_CAP = 12


def _to_nx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges)
    return ng


@dataclass(frozen=True)
class SubdivisionWitness:
    kind: str  # "K5" or "K33"
    branch_vertices: tuple
    paths: tuple  # one internally-disjoint path per subdivided edge


@dataclass(frozen=True)
class PlanarityVerdict:
    planar: bool
    witness: SubdivisionWitness | None


def validate_subdivision(g: Graph, w: SubdivisionWitness) -> bool:
    """Check a claimed subdivision: right path ends, internal disjointness."""
    branch = list(w.branch_vertices)
    if len(set(branch)) != len(branch):
        return False
    if w.kind == "K5":
        if len(branch) != 5:
            return False
        needed = list(combinations(range(5), 2))
    elif w.kind == "K33":
        if len(branch) != 6:
            return False
        needed = [(i, j) for i in range(3) for j in range(3, 6)]
    else:
        return False
    if len(w.paths) != len(needed):
        return False
    used_internal: set = set()
    for (i, j), path in zip(needed, w.paths):
        vs = list(path)
        if len(vs) < 2 or vs[0] != branch[i] or vs[-1] != branch[j]:
            return False
        if len(set(vs)) != len(vs):
            return False
        if not all(g.adjacent(a, b) for a, b in zip(vs, vs[1:])):
            return False
        interior = set(vs[1:-1])
        if interior & set(branch) or interior & used_internal:
            return False
        used_internal |= interior
    return True


def _route_paths(index: GraphIndex, branch: list, needed: list) -> tuple | None:
    """Backtracking: internally-disjoint paths joining the required pairs of
    branch ids, walked on ids and returned as vertex tuples."""
    nbrs = index.nbrs
    branch_set = sum(1 << v for v in branch)
    paths: list = []
    used = 0

    def extend(pi: int) -> bool:
        nonlocal used
        if pi == len(needed):
            return True
        i, j = needed[pi]
        a, b = branch[i], branch[j]

        # DFS over simple paths from a to b avoiding used interiors and other
        # branch vertices.
        stack: list = [(a, [a], 1 << a)]
        seen_states = 0
        while stack:
            v, path, on_path = stack.pop()
            for w in nbrs[v]:
                if w == b:
                    interior = on_path & ~(1 << a)
                    paths.append(path + [b])
                    used |= interior
                    if extend(pi + 1):
                        return True
                    used &= ~interior
                    paths.pop()
                    continue
                if (branch_set | used | on_path) >> w & 1:
                    continue
                stack.append((w, path + [w], on_path | 1 << w))
                seen_states += 1
                if seen_states > 200000:
                    return False
        return False

    if extend(0):
        return tuple(tuple(index.order[v] for v in p) for p in paths)
    return None


def find_subdivision(g: Graph) -> SubdivisionWitness | None:
    """Search for a K₅ or K₃,₃ subdivision (graphs up to WITNESS_CAP vertices)."""
    index = g.index
    deg4 = [v for v, js in enumerate(index.nbrs) if len(js) >= 4]
    for combo in combinations(deg4, 5):
        needed = list(combinations(range(5), 2))
        paths = _route_paths(index, list(combo), needed)
        if paths is not None:
            return SubdivisionWitness("K5", tuple(index.order[v] for v in combo), paths)
    deg3 = [v for v, js in enumerate(index.nbrs) if len(js) >= 3]
    needed33 = [(i, j) for i in range(3) for j in range(3, 6)]
    for combo in combinations(deg3, 6):
        for left in combinations(range(6), 3):
            if 0 not in left:  # fix the smallest vertex on the left side
                continue
            right = [i for i in range(6) if i not in left]
            branch = [combo[i] for i in left] + [combo[i] for i in right]
            paths = _route_paths(index, branch, needed33)
            if paths is not None:
                return SubdivisionWitness("K33", tuple(index.order[v] for v in branch), paths)
    return None


def is_planar(g: Graph, witness_cap: int = WITNESS_CAP) -> PlanarityVerdict:
    planar, _ = nx.check_planarity(_to_nx(g), counterexample=False)
    if planar:
        return PlanarityVerdict(True, None)
    witness = None
    if len(g.vertices) <= witness_cap:
        witness = find_subdivision(g)
        if witness is None:
            raise StructuralError("non-planar graph without a Kuratowski subdivision; decision and witness search disagree")
        if not validate_subdivision(g, witness):
            raise StructuralError("extracted subdivision failed validation")
    return PlanarityVerdict(False, witness)
