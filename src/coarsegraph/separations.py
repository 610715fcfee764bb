"""Separations of a graph, tightness, and bounded-order enumeration.

A separation of G is a pair (A, B) of vertex sets with A ∪ B = V(G) such that
no edge joins A∖B to B∖A.  Its separator is A ∩ B and its order is |A ∩ B|.
A separation is *tight* if there are components C_A ⊆ G[A∖B] and C_B ⊆ G[B∖A]
whose neighbourhoods are both exactly A ∩ B.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import StructuralError
from .graph import Graph, Vertex, components_minus, set_key, sort_vertices, vertex_from_json, vertex_key


@dataclass(frozen=True)
class Separation:
    """A separation with sides stored in canonical order (smaller side first)."""

    side_a: frozenset
    side_b: frozenset

    @classmethod
    def of(cls, side_a: Iterable[Vertex], side_b: Iterable[Vertex]) -> "Separation":
        a = frozenset(side_a)
        b = frozenset(side_b)
        if a != b:
            # The sides' sorted keys agree below the key-minimal vertex x of
            # a ^ b, so the side that has nothing keyed above x sorts first.
            x = min(a ^ b, key=vertex_key)
            kx = vertex_key(x)
            if any(vertex_key(v) > kx for v in (b if x in a else a)) != (x in a):
                a, b = b, a
        return cls(a, b)

    @property
    def separator(self) -> frozenset:
        return self.side_a & self.side_b

    @property
    def order(self) -> int:
        return len(self.separator)


def is_separation(g: Graph, sep: Separation) -> bool:
    """Checks the defining conditions: sides cover V(G), no edge crosses strictly."""
    a, b = sep.side_a, sep.side_b
    if a | b != g.vertices:
        return False
    only_a = a - b
    only_b = b - a
    for (u, v) in g.edges:
        if (u in only_a and v in only_b) or (u in only_b and v in only_a):
            return False
    return True


def _split(g: Graph, s: frozenset) -> list[tuple[int, bool]]:
    """The components of G − S as ``g.index`` bitmasks in canonical order, each
    with whether it is fully attached (N(C) = S)."""
    smask = g.index.bits(s)
    return [(comp, nbhd == smask) for comp, nbhd in components_minus(g, s)]


def fully_attached_components(g: Graph, s: Iterable[Vertex]) -> list[frozenset]:
    """Components C of G − S with N(C) exactly S, in canonical order."""
    sset = frozenset(s)
    for v in sset:
        g.require_vertex(v)
    return [g.index.labels(comp) for comp, full in _split(g, sset) if full]


def is_tight(g: Graph, sep: Separation) -> bool:
    """Tightness: each strict side contains a component whose neighbourhood is the
    whole separator."""
    if not is_separation(g, sep):
        raise StructuralError("not a separation of the given graph")
    a = g.index.bits(sep.side_a)
    # A component of G − S lies wholly on one strict side; True marks side A.
    return {comp & a == comp for comp, full in _split(g, sep.separator) if full} == {True, False}


def separation_from_separator(g: Graph, s: Iterable[Vertex], a_components: Iterable[frozenset]) -> Separation:
    """The separation whose strict A-side is the given union of components of G − S."""
    sset = frozenset(s)
    a_side = set(sset)
    for comp in a_components:
        a_side |= comp
    b_side = (g.vertices - a_side) | sset
    return Separation.of(a_side, b_side)


def enumerate_tight(g: Graph, k: int) -> list[Separation]:
    """All tight separations of order exactly k, deduplicated and canonically sorted.

    Every separation (A, B) has A∖B equal to a union of components of
    G − (A∩B), so iterating over separator k-subsets and component
    bipartitions is exhaustive.  Tightness then requires each strict side to
    absorb at least one fully attached component; all remaining components may
    go to either side.
    """
    if k < 0 or k > len(g.vertices):
        raise StructuralError("order must be between 0 and |V|")
    verts = g.sorted_vertices()
    seen: set[Separation] = set()
    out: list[Separation] = []
    for combo in combinations(verts, k):
        s = frozenset(combo)
        split = _split(g, s)
        nf = sum(full for _, full in split)
        if nf < 2:
            continue
        # Fully attached components first; each goes to side A (bit 1) or side B (bit 0).
        all_comps = [g.index.labels(comp) for comp, _ in sorted(split, key=lambda cf: not cf[1])]
        n = len(all_comps)
        for mask in range(2 ** n):
            if mask & ((1 << nf) - 1) in (0, (1 << nf) - 1):
                continue
            a_comps = [all_comps[i] for i in range(n) if (mask >> i) & 1]
            sep = separation_from_separator(g, s, a_comps)
            if sep in seen:
                continue
            seen.add(sep)
            out.append(sep)
    out.sort(key=lambda sp: (sp.order, set_key(sp.separator), set_key(sp.side_a), set_key(sp.side_b)))
    return out


def separation_to_dict(sep: Separation) -> dict:
    return {
        "A": sort_vertices(sep.side_a),
        "B": sort_vertices(sep.side_b),
    }


def separation_from_dict(data: dict) -> Separation:
    if not (isinstance(data, dict) and isinstance(data.get("A"), list) and isinstance(data.get("B"), list)):
        raise StructuralError("separation JSON must have lists 'A' and 'B'")
    a, b = ([vertex_from_json(v, token=False) for v in data[side]] for side in "AB")
    return Separation.of(a, b)
