"""Automorphism enumeration and orbit partitions for small graphs.

Automorphisms are plain dicts (vertex -> vertex, in vertex-key order).
Enumeration is exact backtracking over ``GraphIndex`` ids after colour
refinement (McKay, "Practical Graph Isomorphism", 1981), intended for graphs
up to a configurable size cap: a candidate image is checked with one mask
compare against the images of the neighbours already placed; stopped at the
first extension of each coset of a stabiliser chain, the same backtrack gives
a generating set, kept in ``GraphIndex._generators``.  Vertex and edge orbits
close ids under it; :func:`orbits` groups any objects under the group a list of automorphisms generates.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .errors import CapacityError, StructuralError
from .graph import Graph, GraphIndex, canonical_edge, set_key, vertex_key
from .separations import Separation

DEFAULT_AUTOMORPHISM_CAP = 12


def _refined_order(index: GraphIndex) -> tuple[list[int], list[int]]:
    """Refined neighbour colours of the ids (used for pruning), and the ids by rarity of colour."""
    color = [len(js) for js in index.nbrs]
    while True:
        sig = [(c, tuple(sorted(color[j] for j in js))) for c, js in zip(color, index.nbrs)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == color:
            return color, sorted(range(len(color)), key=lambda v: (color.count(color[v]), v))
        color = new


def _extensions(index: GraphIndex, color: list[int], order: list[int], prefix: tuple):
    """Yield, as id tuples of images, each automorphism sending ``order[i]`` to
    ``prefix[i]`` for every ``i < len(prefix)``, in backtracking order."""
    n, masks = len(order), index.masks
    image = [0] * n

    def extend(i: int, used: int):
        if i == n:
            yield tuple(image)
            return
        v = order[i]
        # w extends the map iff it is free, of v's colour, and adjacent to
        # exactly the images of v's placed neighbours among the used ids.
        need = sum(1 << image[u] for u in order[:i] if masks[v] >> u & 1)
        for w in prefix[i:i + 1] or range(n):
            if color[w] == color[v] and not used >> w & 1 and masks[w] & used == need:
                image[v] = w
                yield from extend(i + 1, used | 1 << w)

    return extend(0, 0)


def _capped(g: Graph, max_vertices: int) -> GraphIndex:
    if len(g.vertices) > max_vertices:
        raise CapacityError(f"graph has {len(g.vertices)} vertices, automorphism cap is {max_vertices}")
    return g.index


def automorphisms(g: Graph, max_vertices: int = DEFAULT_AUTOMORPHISM_CAP) -> list[dict]:
    """All automorphisms of g, identity first, the rest by their images in vertex-key order."""
    index = _capped(g, max_vertices)
    # Ids follow vertex-key order, so the identity is the least tuple.
    found = sorted(_extensions(index, *_refined_order(index), ()))
    return [{index.order[v]: index.order[w] for v, w in enumerate(a)} for a in found]


def automorphism_generators(g: Graph) -> tuple[tuple, ...]:
    """At most n(n − 1)/2 automorphisms (id tuples of images) generating Aut(g): down
    the stabiliser chain of the refinement order, deepest first, level ``l`` takes
    the first extension for each image of its id that the generators so far miss (kept on ``g.index``)."""
    index = g.index
    if index._generators is not None:
        return index._generators
    color, order = _refined_order(index)
    gens: list[tuple] = []
    for l in reversed(range(len(order))):
        orbit = [order[l]]
        for w in order[l + 1:]:
            if w in orbit or color[w] != color[order[l]]:
                continue
            a = next(_extensions(index, color, order, (*order[:l], w)), None)
            if a is not None:
                gens.append(a)
                for x in orbit:  # the orbit of order[l] under the generators so far
                    orbit += {b[x] for b in gens}.difference(orbit)
    index._generators = tuple(gens)
    return index._generators


def _group_order(g: Graph) -> int:
    """|Aut(g)|: down the stabiliser chain of :func:`automorphism_generators`, the
    product of each level's orbit length under the generators of that level and
    deeper, which are those fixing every earlier id of the refinement order."""
    gens, order = automorphism_generators(g), _refined_order(g.index)[1]
    stabilisers = ([a for a in gens if all(a[u] == u for u in order[:l])] for l in range(len(order)))
    return math.prod(next(len(o) for o in _id_orbits(len(order), s) if v in o) for v, s in zip(order, stabilisers))


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

    A generating set is enough: each object's orbit is closed under the given
    maps; the groups come in the order of their orbits' least members, each in key order.
    """
    if not autos:
        raise StructuralError("orbits need at least one automorphism: a group holds the identity")
    least: dict = {}  # object key -> least key of its orbit
    groups: dict = {}  # least key -> {object key -> first object with that key}
    for o in objects:
        k = _obj_key(o)
        if k not in least:
            orbit, todo = {k}, [o]
            for x in todo:  # grows while read; in a finite group, closing under the maps is enough
                new = {ky: y for y in (act(a, x) for a in autos) if (ky := _obj_key(y)) not in orbit}
                orbit.update(new)
                todo += new.values()
            least.update(dict.fromkeys(orbit, min(orbit)))
        groups.setdefault(least[k], {}).setdefault(k, o)
    return [[orbit[k] for k in sorted(orbit)] for _, orbit in sorted(groups.items())]


def _id_orbits(n: int, maps: list) -> list[list[int]]:
    """The orbits of ids 0 .. n − 1 under the group the id maps generate, by least id, each sorted."""
    out: list[list[int]] = []
    for i in range(n):
        if all(i not in o for o in out):
            out.append(orbit := [i])
            for x in orbit:  # grows while read; in a finite group, closing under the maps is enough
                orbit += {m[x] for m in maps}.difference(orbit)
    return [sorted(o) for o in out]


def vertex_orbits(g: Graph, max_vertices: int = DEFAULT_AUTOMORPHISM_CAP) -> list[list]:
    """The vertex orbits of Aut(g), by least vertex, each in key order; CapacityError above the cap."""
    order = _capped(g, max_vertices).order
    return [[order[i] for i in orbit] for orbit in _id_orbits(len(order), automorphism_generators(g))]


def edge_orbits(g: Graph, max_vertices: int = DEFAULT_AUTOMORPHISM_CAP) -> list[list]:
    """The edge orbits of Aut(g) (edge ids: places in ``sorted_edges``), by least edge; CapacityError above the cap."""
    pos, edges = _capped(g, max_vertices).pos, g.sorted_edges()
    eid = {(pos[u], pos[v]): i for i, (u, v) in enumerate(edges)}  # in id order
    maps = [[eid[min(a[x], a[y]), max(a[x], a[y])] for x, y in eid] for a in automorphism_generators(g)]
    return [[edges[i] for i in orbit] for orbit in _id_orbits(len(edges), maps)]
