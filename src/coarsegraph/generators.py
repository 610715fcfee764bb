"""Deterministic graph families, including Cayley-graph balls via word rewriting.

Cayley balls come with *markers*: the sphere of maximal radius, standing in
for "grows to infinity" when a truncated ball feeds the planar-quotient
pipeline.  Non-Cayley families have empty markers.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import GeneratorError
from .graph import Graph


class GeneratorSpec(NamedTuple):
    family: str
    params: Mapping = MappingProxyType({})


class GeneratedGraph(NamedTuple):
    graph: Graph
    markers: frozenset  # boundary sphere for cayley balls, else empty


def path_graph(n: int) -> Graph:
    _integer(n, "n")
    return Graph.build([(i, i + 1) for i in range(n - 1)], vertices=range(n))


def cycle_graph(n: int) -> Graph:
    _integer(n, "n")
    if n < 3:
        raise GeneratorError("cycle needs n ≥ 3")
    return Graph.build([(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    _integer(rows, "rows")
    _integer(cols, "cols")
    names = [[f"{r},{c}" for c in range(cols)] for r in range(rows)]  # each vertex named once
    edges = [(row[c], row[c + 1]) for row in names for c in range(cols - 1)]
    edges += [(a, b) for upper, lower in zip(names, names[1:]) for a, b in zip(upper, lower)]
    return Graph.build(edges, vertices=[v for row in names for v in row])


def complete_graph(n: int) -> Graph:
    _integer(n, "n")
    return Graph.build([(i, j) for i in range(n) for j in range(i + 1, n)], vertices=range(n))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    _integer(a, "a")
    _integer(b, "b")
    left = [f"l{i}" for i in range(a)]
    right = [f"r{i}" for i in range(b)]
    return Graph.build([(l, r) for l in left for r in right])


def tree_graph(branching: int, depth: int) -> Graph:
    """Complete rooted tree: every non-leaf has `branching` children.  Below the
    root "r" names start with "c" ("c0", "c0.1"), so none reads back as an int."""
    _integer(branching, "branching")
    _integer(depth, "depth", 0)
    edges = []
    vertices = ["r"]
    frontier = ["r"]
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            for i in range(branching):
                child = f"{parent}.{i}" if parent != "r" else f"c{i}"
                edges.append((parent, child))
                vertices.append(child)
                nxt.append(child)
        frontier = nxt
    return Graph.build(edges, vertices=vertices)


# ---------------------------------------------------------------------------
# Cayley balls
# ---------------------------------------------------------------------------
# Each preset defines: identity word, generator alphabet, and a normal-form
# right-multiplication word -> word.  Balls are breadth-first over words.


_FREE2_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
_Z2_STEPS = {"e": (1, 0), "w": (-1, 0), "n": (0, 1), "s": (0, -1)}
# Free product <a | a²> * <b | b³>: syllables over {a, b, B} with B = b².
_ZZ_MERGE_B = {("b", "b"): "B", ("b", "B"): "", ("B", "b"): "", ("B", "B"): "b"}


def _free2_multiply(word: str, g: str) -> str:
    if word and word[-1] == _FREE2_INVERSE[g]:
        return word[:-1]
    return word + g


def _z2_multiply(word: str, g: str) -> str:
    x, _, y = word.partition(",")
    dx, dy = _Z2_STEPS[g]
    return f"{int(x) + dx},{int(y) + dy}"


def _zz_multiply(word: str, g: str) -> str:
    # Normal form: no "aa", no adjacent b-syllables.
    if not word:
        return g
    last = word[-1]
    if g == "a":
        return word[:-1] if last == "a" else word + g
    if last in ("b", "B"):
        return word[:-1] + _ZZ_MERGE_B[(last, g)]
    return word + g


_PRESETS = {
    "free-group-rank-2": ("", ("a", "b", "A", "B"), _free2_multiply),
    "integer-lattice-Z2": ("0,0", ("e", "w", "n", "s"), _z2_multiply),
    "free-product-Z2-Z3": ("", ("a", "b", "B"), _zz_multiply),
}
CAYLEY_PRESETS = tuple(_PRESETS)


def cayley_ball(preset: str, radius: int) -> GeneratedGraph:
    """Ball of the given radius around the identity, markers = outer sphere.

    Vertices are normal-form words; the group identity is rendered "e" (the
    empty word is not a usable identifier).
    """
    if preset not in _PRESETS:
        raise GeneratorError(f"unknown cayley preset {preset!r}; choose from {', '.join(CAYLEY_PRESETS)}")
    _integer(radius, "radius", 0)
    identity, gens, mult = _PRESETS[preset]
    place = {identity: 0}  # each word's place in breadth-first order
    words, dist, pairs = [identity], [0], []
    for i, w in enumerate(words):  # the list grows while it is read, as a FIFO queue
        for g in gens:
            w2 = mult(w, g)
            j = place.get(w2)
            if j is None:
                if dist[i] == radius:
                    continue  # edge would leave the ball
                j = place[w2] = len(words)
                words.append(w2)
                dist.append(dist[i] + 1)
            if j > i:  # the generators are closed under inverses: each edge is listed from the end met first
                pairs.append((i, j))
    names = [w or "e" for w in words]
    graph = Graph.build([(names[i], names[j]) for i, j in pairs], vertices=names)
    return GeneratedGraph(graph, frozenset(v for v, d in zip(names, dist) if d == radius))


def _integer(value: int, name: str, least: int = 1) -> None:
    """Refuse a size, radius or depth that is a bool, not an int, or below ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise GeneratorError(f"{name} must be a {'positive' if least else 'non-negative'} integer")


# Each family's builder and its parameters, in the order the builder takes them.
_FAMILY_TABLE = {
    "path": (path_graph, ("n",)),
    "cycle": (cycle_graph, ("n",)),
    "grid": (grid_graph, ("rows", "cols")),
    "complete": (complete_graph, ("n",)),
    "complete-bipartite": (complete_bipartite_graph, ("a", "b")),
    "tree": (tree_graph, ("branching", "depth")),
    "cayley-ball": (cayley_ball, ("preset", "radius")),
}
FAMILIES = tuple(_FAMILY_TABLE)
# Every family's parameters, each once, in the order of first use.
_PARAMETERS = tuple(dict.fromkeys(name for _, names in _FAMILY_TABLE.values() for name in names))


def generate(spec: GeneratorSpec) -> GeneratedGraph:
    if spec.family not in FAMILIES:  # compared, not hashed, as the family may be any value
        raise GeneratorError(f"unknown family {spec.family!r}; choose from {', '.join(FAMILIES)}")
    builder, names = _FAMILY_TABLE[spec.family]
    try:
        args = [spec.params[name] for name in names]
    except KeyError as exc:
        raise GeneratorError(f"family {spec.family!r} is missing parameter {exc.args[0]!r}") from None
    made = builder(*args)
    return made if isinstance(made, GeneratedGraph) else GeneratedGraph(made, frozenset())
