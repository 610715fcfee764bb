"""Uniform constants along growing families.

The paper's theorem is about infinite graphs, and the pipeline sees only
finite pieces of them: Cayley balls, chains of cliques, paths of grids.  A
pass on one piece says something about the infinite graph only if c (at
γ = 1), B and the degree of H stay bounded as the piece grows.  Each family
below is built at growing size, and its (c, B, Δ(H)) must agree on the last
three sizes, except on the families listed as known failures.
"""

from __future__ import annotations

import pytest

from coarsegraph.construction import InstanceBundle, build_H, verify_output
from coarsegraph.generators import cayley_ball, grid_graph
from coarsegraph.graph import Graph, sort_vertices
from coarsegraph.treedecomp import TreeDecomposition


def _td(tree_edges, parts: dict) -> TreeDecomposition:
    return TreeDecomposition(Graph.build(tree_edges, parts), parts)


def _cayley(preset: str):
    """One-part balls of the preset with their boundary spheres as markers."""
    def build(radius: int) -> InstanceBundle:
        ball = cayley_ball(preset, radius)
        return InstanceBundle(ball.graph, _td((), {"t": ball.graph.vertices}), k=2, infinite_markers=ball.markers)
    return build


def _k4_chain(finite_threshold: int):
    """m K4s, each sharing one vertex with the next, decomposed into the K4s
    along a path.  Threshold 8 sends every part down the finite route, and
    threshold 2 down the planar route, since tw(K4) = 3 > k = 2."""
    def build(m: int) -> InstanceBundle:
        parts = {i: frozenset(range(3 * i, 3 * i + 4)) for i in range(m)}
        host = Graph.build([(u, v) for part in parts.values() for u in part for v in part if u < v])
        return InstanceBundle(host, _td([(i, i + 1) for i in range(m - 1)], parts), k=2,
                              finite_threshold=finite_threshold)
    return build


def _face_triple(prefix: str, i: int, j: int) -> frozenset:
    return frozenset({f"{prefix}{i},{j}", f"{prefix}{i},{j + 1}", f"{prefix}{i + 1},{j}"})


def _grid_path(m: int, n: int) -> InstanceBundle:
    """m n×n grids on a path, each joined to the next as corpus ``bridge-n``
    joins its two: a finite bridge part holds a face triple at the far corner
    of one grid and the face triple at the near corner of the next, joined by
    all nine edges between them."""
    grid = grid_graph(n, n)
    edges = [(f"g{i}:{u}", f"g{i}:{v}") for i in range(m) for u, v in grid.edges]
    parts = {f"g{i}": frozenset(f"g{i}:{v}" for v in grid.vertices) for i in range(m)}
    tree_edges = []
    for i in range(1, m):
        s1, s2 = _face_triple(f"g{i - 1}:", n - 2, n - 2), _face_triple(f"g{i}:", 0, 0)
        parts[f"m{i}"] = s1 | s2
        tree_edges += [(f"g{i - 1}", f"m{i}"), (f"m{i}", f"g{i}")]
        edges += [(u, v) for u in sort_vertices(s1) for v in sort_vertices(s2)]
    return InstanceBundle(Graph.build(edges), _td(tree_edges, parts), k=2)


# family -> (its builder, the growing sizes it is built at)
FAMILIES = {
    "integer-lattice-Z2": (_cayley("integer-lattice-Z2"), range(2, 9)),
    "free-group-rank-2": (_cayley("free-group-rank-2"), range(2, 6)),
    "free-product-Z2-Z3": (_cayley("free-product-Z2-Z3"), range(3, 11)),
    "K4 chain, finite route": (_k4_chain(8), (2, 4, 6, 8, 10)),
    "K4 chain, planar route": (_k4_chain(2), (2, 4, 6, 8, 10)),
    "grid path, growing length": (lambda m: _grid_path(m, 4), range(1, 6)),
    "grid path, growing grids": (lambda n: _grid_path(3, n), range(3, 9)),
}

# The families whose constants grow with their size.  The min-degree
# sub-decomposition of a Z2∗Z3 ball is not canonical, and its contraction
# merges parts that grow with the radius (ROADMAP item 2).  At γ = 1 every
# crossing of an adhesion set through its hub adds to c, so a long path of
# parts has no additive bound: the K4 chains and the path of grids grown in
# length (ROADMAP item 11).  A change that makes one of them uniform takes it
# off this list.
KNOWN_NON_UNIFORM = frozenset({
    "free-product-Z2-Z3",
    "K4 chain, finite route",
    "K4 chain, planar route",
    "grid path, growing length",
})


def _constants(b: InstanceBundle) -> tuple:
    """c at γ = 1, B and the largest degree of H."""
    out = build_H(b)
    rep = verify_output(b, out)
    return rep.c, rep.bound, max(out.H.degree(x) for x in out.H.vertices)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_constants_settle_along_each_family_except_the_known_failures(family):
    build, sizes = FAMILIES[family]
    rows = {size: _constants(build(size)) for size in sizes}
    settled = len({rows[size] for size in list(sizes)[-3:]}) == 1
    assert settled == (family not in KNOWN_NON_UNIFORM), rows
