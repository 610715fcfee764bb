"""Deterministic graph families and group-ball generators."""

from __future__ import annotations

import pytest

from coarsegraph.errors import GeneratorError
from coarsegraph.generators import (
    CAYLEY_PRESETS,
    FAMILIES,
    GeneratorSpec,
    cayley_ball,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    generate,
    grid_graph,
    path_graph,
    tree_graph,
)
from coarsegraph.graph import is_connected


def test_basic_family_shapes():
    assert len(path_graph(6).edges) == 5
    assert len(cycle_graph(7).edges) == 7
    g = grid_graph(3, 3)
    assert len(g.vertices) == 9 and len(g.edges) == 12
    assert "1,2" in g.vertices
    assert len(complete_graph(5).edges) == 10
    kb = complete_bipartite_graph(2, 3)
    assert len(kb.vertices) == 5 and len(kb.edges) == 6
    t = tree_graph(2, 3)
    assert len(t.vertices) == 15 and len(t.edges) == 14


def test_tree_names_keep_key_order_and_read_as_strings():
    """Below the root "r" every name starts with "c", so none is int-like and
    all still sort before the root."""
    t = tree_graph(2, 2)
    assert t.sorted_vertices() == ["c0", "c0.0", "c0.1", "c1", "c1.0", "c1.1", "r"]
    assert t.adjacent("r", "c1") and t.adjacent("c1", "c1.0")


def test_free_group_ball_is_a_tree():
    ball = cayley_ball("free-group-rank-2", 2)
    g = ball.graph
    assert len(g.vertices) == 17
    assert len(g.edges) == 16
    assert is_connected(g)
    assert "e" in g.vertices
    assert ball.markers == frozenset(
        v for v in g.vertices if isinstance(v, str) and len(v) == 2
    )
    assert len(ball.markers) == 12


def test_lattice_ball_is_a_diamond():
    ball = cayley_ball("integer-lattice-Z2", 2)
    g = ball.graph
    assert len(g.vertices) == 13
    assert len(g.edges) == 16
    assert "0,0" in g.vertices and "2,0" in g.vertices
    assert len(ball.markers) == 8
    assert "1,1" in ball.markers and "0,0" not in ball.markers


def test_free_product_ball_has_order_three_triangles():
    """The order-3 generator contributes triangles {e, b, b²} while the
    involution contributes plain edges."""
    ball = cayley_ball("free-product-Z2-Z3", 2)
    g = ball.graph
    assert len(g.vertices) == 8
    assert g.adjacent("e", "b") and g.adjacent("b", "B") and g.adjacent("B", "e")
    assert g.adjacent("a", "ab") and g.adjacent("ab", "aB") and g.adjacent("aB", "a")
    assert ball.markers == frozenset({"ab", "aB", "ba", "Ba"})
    bigger = cayley_ball("free-product-Z2-Z3", 3)
    assert len(bigger.graph.vertices) == 14
    assert len(bigger.markers) == 6


def test_radius_zero_ball():
    ball = cayley_ball("free-group-rank-2", 0)
    assert set(ball.graph.vertices) == {"e"}
    assert ball.markers == frozenset({"e"})


def test_generate_dispatch_matches_direct_builders():
    assert generate(GeneratorSpec("cycle", {"n": 8})).graph == cycle_graph(8)
    assert generate(GeneratorSpec("grid", {"rows": 2, "cols": 4})).graph == grid_graph(2, 4)
    gg = generate(GeneratorSpec("cayley-ball", {"preset": "integer-lattice-Z2", "radius": 1}))
    assert len(gg.graph.vertices) == 5 and len(gg.markers) == 4
    assert set(FAMILIES) >= {"path", "cycle", "grid", "complete", "complete-bipartite", "tree", "cayley-ball"}
    assert set(CAYLEY_PRESETS) == {"free-group-rank-2", "integer-lattice-Z2", "free-product-Z2-Z3"}


def test_generation_is_deterministic():
    for spec in (
        GeneratorSpec("tree", {"branching": 3, "depth": 2}),
        GeneratorSpec("cayley-ball", {"preset": "free-product-Z2-Z3", "radius": 3}),
    ):
        a, b = generate(spec), generate(spec)
        assert a.graph == b.graph
        assert a.markers == b.markers


def test_generator_errors():
    with pytest.raises(GeneratorError, match="^unknown family 'moebius'; choose from path, cycle, grid, "):
        generate(GeneratorSpec("moebius", {"n": 5}))
    with pytest.raises(GeneratorError, match=r"^unknown family \['path'\]"):
        generate(GeneratorSpec(["path"], {"n": 3}))
    with pytest.raises(GeneratorError, match="^family 'grid' is missing parameter 'rows'$"):
        generate(GeneratorSpec("grid", {"cols": 4}))
    with pytest.raises(GeneratorError, match="^family 'cayley-ball' is missing parameter 'preset'$"):
        generate(GeneratorSpec("cayley-ball", {}))
    with pytest.raises(GeneratorError):
        path_graph(0)
    with pytest.raises(GeneratorError):
        cycle_graph(2)
    with pytest.raises(GeneratorError):
        tree_graph(2, -1)
    with pytest.raises(GeneratorError):
        cayley_ball("dihedral", 2)
    with pytest.raises(GeneratorError):
        cayley_ball("free-group-rank-2", -1)


@pytest.mark.parametrize("make", [
    lambda: cayley_ball("free-group-rank-2", 1.5),  # a BFS that never meets the radius
    lambda: cayley_ball("integer-lattice-Z2", "2"),
    lambda: cayley_ball("free-product-Z2-Z3", True),
    lambda: tree_graph(2, 1.5),
    lambda: tree_graph(True, 2),
    lambda: grid_graph(3, 2.0),
    lambda: complete_bipartite_graph(False, 2),
    lambda: generate(GeneratorSpec("path", {"n": True})),
    lambda: generate(GeneratorSpec("cycle", {"n": "5"})),
], ids=["radius-1.5", "radius-str", "radius-bool", "depth-1.5", "branching-bool", "cols-float", "a-bool",
        "path-n-bool", "cycle-n-str"])
def test_sizes_radii_and_depths_must_be_integers(make):
    """Every size, radius and depth is an int, and a bool is none: anything else is a GeneratorError."""
    with pytest.raises(GeneratorError, match="must be a (positive|non-negative) integer$"):
        make()
