"""Automorphism enumeration and orbit partitions for small graphs.

Automorphisms are plain dicts (vertex -> vertex, in vertex-key order).
Enumeration is exact backtracking over ``GraphIndex`` ids after colour
refinement (McKay, "Practical Graph Isomorphism", 1981), intended for graphs
up to a configurable size cap: a candidate image is checked with one mask
compare against the images of the neighbours already placed.  Orbit
computation groups arbitrary objects (vertices, vertex sets, separations,
edges) under a supplied or derived action.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import CapacityError, StructuralError
from .graph import Graph, GraphIndex, canonical_edge, set_key, vertex_key
from .separations import Separation

DEFAULT_AUTOMORPHISM_CAP = 12


def _refine_colors(index: GraphIndex) -> list[int]:
    """Iterated neighbour-colour refinement of the ids; a coarse invariant used for pruning."""
    color = [len(js) for js in index.nbrs]
    while True:
        sig = [(c, tuple(sorted(color[j] for j in js))) for c, js in zip(color, index.nbrs)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == color:
            return color
        color = new


def automorphisms(g: Graph, max_vertices: int = DEFAULT_AUTOMORPHISM_CAP) -> list[dict]:
    """All automorphisms of g, identity first, the rest by their images in vertex-key order."""
    n = len(g.vertices)
    if n > max_vertices:
        raise CapacityError(f"graph has {n} vertices, automorphism cap is {max_vertices}")
    index = g.index
    masks = index.masks
    color = _refine_colors(index)
    # Most-constrained-first assignment order: rare colours early.
    order = sorted(range(n), key=lambda v: (color.count(color[v]), v))
    found: list[tuple] = []
    image = [0] * n

    def backtrack(i: int, used: int) -> None:
        if i == n:
            found.append(tuple(image))
            return
        v = order[i]
        # w extends the map iff it is free, of v's colour, and adjacent to
        # exactly the images of v's placed neighbours among the used ids.
        need = sum(1 << image[u] for u in order[:i] if masks[v] >> u & 1)
        for w in range(n):
            if color[w] == color[v] and not used >> w & 1 and masks[w] & used == need:
                image[v] = w
                backtrack(i + 1, used | 1 << w)

    backtrack(0, 0)
    # Ids follow vertex-key order, so the identity is the least tuple.
    found.sort()
    return [{index.order[v]: index.order[w] for v, w in enumerate(a)} for a in found]


def is_identity(auto: dict) -> bool:
    return all(v == w for v, w in auto.items())


def compose(outer: dict, inner: dict) -> dict:
    """outer ∘ inner (apply inner first)."""
    return {v: outer[w] for v, w in inner.items()}


def invert(auto: dict) -> dict:
    return {w: v for v, w in auto.items()}


# ---------------------------------------------------------------------------
# actions and orbits
# ---------------------------------------------------------------------------


def apply_to(auto: dict, obj):
    """Default action: relabel vertices inside vertices, edges, sets, separations."""
    if isinstance(obj, Separation):
        return Separation.of(
            frozenset(auto[v] for v in obj.side_a),
            frozenset(auto[v] for v in obj.side_b),
        )
    if isinstance(obj, frozenset):
        return frozenset(auto[v] for v in obj)
    try:
        if obj in auto:
            return auto[obj]
    except TypeError:
        pass
    if isinstance(obj, tuple) and len(obj) == 2 and obj[0] in auto and obj[1] in auto:
        return canonical_edge(auto[obj[0]], auto[obj[1]])
    raise StructuralError(f"cannot apply automorphism to object {obj!r}")


def _obj_key(obj):
    if isinstance(obj, Separation):
        return (2, set_key(obj.side_a), set_key(obj.side_b))
    if isinstance(obj, frozenset):
        return (1, set_key(obj))
    return (0, vertex_key(obj))


def orbits(objects: Iterable, autos: Sequence[dict], act: Callable = apply_to) -> list[list]:
    """Partition objects into orbits under the group generated by autos.

    The given automorphisms are treated as the full group (as returned by
    :func:`automorphisms`); each object's orbit representative is its minimal
    image, and objects sharing a representative share an orbit.
    """
    groups: dict = {}  # representative's key -> {object key -> first object with that key}
    for o in objects:
        rkey = min(_obj_key(act(a, o)) for a in autos)
        groups.setdefault(rkey, {}).setdefault(_obj_key(o), o)
    return [[orbit[k] for k in sorted(orbit)] for _, orbit in sorted(groups.items())]


def vertex_orbits(g: Graph, max_vertices: int = DEFAULT_AUTOMORPHISM_CAP) -> list[list]:
    return orbits(g.sorted_vertices(), automorphisms(g, max_vertices))


def edge_orbits(g: Graph, max_vertices: int = DEFAULT_AUTOMORPHISM_CAP) -> list[list]:
    return orbits(g.sorted_edges(), automorphisms(g, max_vertices))
