"""Automorphism enumeration and orbit partitions for small graphs.

Automorphisms are plain dicts (vertex -> vertex).  Enumeration is exact
backtracking with iterated degree refinement, intended for graphs up to a
configurable size cap; orbit computation groups arbitrary objects (vertices,
vertex sets, separations, edges) under a supplied or derived action.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import CapacityError, StructuralError
from .graph import Graph, Vertex, canonical_edge, set_key, sort_vertices, vertex_key
from .separations import Separation

DEFAULT_AUTOMORPHISM_CAP = 12


def _refine_colors(g: Graph) -> dict:
    """Iterated neighbour-colour refinement; a coarse invariant used for pruning."""
    color = {v: g.degree(v) for v in g.vertices}
    while True:
        sig = {
            v: (color[v], tuple(sorted(color[w] for w in g.neighbors(v))))
            for v in g.vertices
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in g.vertices}
        if new == color:
            return color
        color = new


def automorphisms(g: Graph, max_vertices: int = DEFAULT_AUTOMORPHISM_CAP) -> list[dict]:
    """All automorphisms of g, identity first, in a deterministic order."""
    n = len(g.vertices)
    if n > max_vertices:
        raise CapacityError(f"graph has {n} vertices, automorphism cap is {max_vertices}")
    verts = g.sorted_vertices()
    color = _refine_colors(g)
    # Most-constrained-first assignment order: rare colours early.
    color_count: dict = {}
    for v in verts:
        color_count[color[v]] = color_count.get(color[v], 0) + 1
    order = sorted(verts, key=lambda v: (color_count[color[v]], vertex_key(v)))
    candidates = {
        v: [w for w in verts if color[w] == color[v]]
        for v in verts
    }

    found: list[dict] = []
    image: dict = {}
    used: set = set()

    def backtrack(i: int) -> None:
        if i == len(order):
            found.append(dict(image))
            return
        v = order[i]
        nv = g.neighbors(v)
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u, iu in image.items():
                if (u in nv) != g.adjacent(iu, w):
                    ok = False
                    break
            if ok:
                image[v] = w
                used.add(w)
                backtrack(i + 1)
                used.discard(w)
                del image[v]

    backtrack(0)
    ident = {v: v for v in verts}
    found.sort(key=lambda a: tuple(vertex_key(a[v]) for v in verts))
    found.remove(ident)
    return [ident] + found


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
    objs = list(objects)
    reps: dict = {}
    groups: dict = {}
    for o in objs:
        images = [act(a, o) for a in autos]
        rep = min(images, key=_obj_key)
        rkey = _obj_key(rep)
        reps.setdefault(rkey, rep)
        groups.setdefault(rkey, [])
        if all(_obj_key(o) != _obj_key(existing) for existing in groups[rkey]):
            groups[rkey].append(o)
    out = []
    for rkey in sorted(groups):
        orbit = sorted(groups[rkey], key=_obj_key)
        out.append(orbit)
    return out


def vertex_orbits(g: Graph, max_vertices: int = DEFAULT_AUTOMORPHISM_CAP) -> list[list]:
    return orbits(g.sorted_vertices(), automorphisms(g, max_vertices))


def edge_orbits(g: Graph, max_vertices: int = DEFAULT_AUTOMORPHISM_CAP) -> list[list]:
    return orbits(g.sorted_edges(), automorphisms(g, max_vertices))
