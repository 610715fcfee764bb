"""Separations of a graph, tightness, and bounded-order enumeration.

A separation of G is a pair (A, B) of vertex sets with A ∪ B = V(G) such that
no edge joins A∖B to B∖A.  Its separator is A ∩ B and its order is |A ∩ B|.
A separation is *tight* if there are components C_A ⊆ G[A∖B] and C_B ⊆ G[B∖A]
whose neighbourhoods are both exactly A ∩ B.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import StructuralError
from .graph import Graph, Vertex, bit_ids, mask_components, sort_vertices, vertex_from_json


class Separation(NamedTuple):
    """A separation with sides stored in canonical order (smaller side first)."""

    side_a: frozenset
    side_b: frozenset

    @classmethod
    def of(cls, side_a: Iterable[Vertex], side_b: Iterable[Vertex]) -> "Separation":
        """The sides in canonical order, by ``_a_first`` on ids of A ∪ B in key order."""
        a, b = frozenset(side_a), frozenset(side_b)
        pos = {v: i for i, v in enumerate(sort_vertices(a | b))}
        return cls(a, b) if _a_first(sum(1 << pos[v] for v in a), sum(1 << pos[v] for v in b)) else cls(b, a)

    @classmethod
    def on_masks(cls, g: Graph, a: int, b: int) -> "Separation":
        """The separation whose sides are the id masks a and b of ``g``."""
        return cls(g.labels(a), g.labels(b)) if _a_first(a, b) else cls(g.labels(b), g.labels(a))

    @property
    def separator(self) -> frozenset:
        return self.side_a & self.side_b

    @property
    def order(self) -> int:
        return len(self.separator)


def _a_first(a: int, b: int) -> bool:
    """Whether side a sorts first, the sides being masks of ids in key order.
    The sides' sorted keys agree below the key-minimal vertex x of a ^ b, its
    lowest set bit, so the side that has nothing keyed above x sorts first."""
    x = (a ^ b) & -(a ^ b)
    return b >= x << 1 if a & x else a < x << 1


def is_separation(g: Graph, sep: Separation) -> bool:
    """Checks the defining conditions: sides cover V(G), no edge crosses strictly."""
    if sep.side_a | sep.side_b != g.vertices:
        return False
    a, b = g.bits(sep.side_a), g.bits(sep.side_b)
    return not any(g.masks[i] & b & ~a for i in bit_ids(a & ~b))


def fully_attached_components(g: Graph, s: Iterable[Vertex]) -> list[frozenset]:
    """Components C of G − S with N(C) exactly S, in canonical order."""
    m = g.bits(s)
    return [g.labels(comp) for comp, nbhd in mask_components(g.masks, ~m) if nbhd == m]


def is_tight(g: Graph, sep: Separation) -> bool:
    """Tightness: each strict side contains a component whose neighbourhood is the
    whole separator."""
    if not is_separation(g, sep):
        raise StructuralError("not a separation of the given graph")
    return _tight_on_masks(g, g.bits(sep.side_a), g.bits(sep.side_b))


def _tight_on_masks(g: Graph, a: int, b: int) -> bool:
    """:func:`is_tight` for the ``g`` id masks a and b of a separation, unchecked."""
    s = a & b
    return all(_has_full_component(g.masks, side & ~s, s) for side in (a, b))


def _has_full_component(masks: list[int], side: int, s: int) -> bool:
    """Whether G − S has a component C ⊆ ``side`` (a union of components of G − S) with N(C) = S = ``s``.
    Such a C holds a neighbour of S's least id: with |S| = 1 there is one iff ``side`` meets N(S), with S
    empty iff ``side`` is not empty, else the components next to that id are grown up to the first that is."""
    if not s & (s - 1):
        return side & masks[s.bit_length() - 1] != 0 if s else side != 0
    return any(nbhd == s for _, nbhd in mask_components(masks, side, masks[(s & -s).bit_length() - 1]))


def enumerate_tight(g: Graph, k: int) -> list[Separation]:
    """All tight separations of order exactly k, deduplicated and canonically sorted.

    Every separation (A, B) has A∖B equal to a union of components of
    G − (A∩B), so iterating over separator k-subsets and component
    bipartitions is exhaustive.  Tightness then requires each strict side to
    absorb at least one fully attached component; all remaining components may
    go to either side.  Sets compare like their sorted id tuples, which is
    how their sorted key tuples compare.
    """
    if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= len(g.vertices):  # a bool is an int, but a flag
        raise StructuralError("order must be between 0 and |V|")
    full = (1 << len(g.order)) - 1
    found = []
    for combo in combinations(range(len(g.order)), k):
        s = sum(1 << i for i in combo)
        # Fully attached components first; each goes to side A (bit 1) or side B (bit 0).
        split = sorted(mask_components(g.masks, ~s), key=lambda cn: cn[1] != s)
        nf = sum(nbhd == s for _, nbhd in split)
        if nf < 2:
            continue
        # The first component stays on side A, so each separation is met once.
        for mask in range(1, 2 ** len(split), 2):
            if mask & ((1 << nf) - 1) == (1 << nf) - 1:
                continue
            a = s | sum(comp for i, (comp, _) in enumerate(split) if mask >> i & 1)
            b = full & ~a | s
            if not _a_first(a, b):
                a, b = b, a
            found.append(((bit_ids(s), bit_ids(a), bit_ids(b)), a, b))
    found.sort()
    return [Separation.on_masks(g, a, b) for _, a, b in found]


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
