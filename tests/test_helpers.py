"""The call recorder ``helpers.calls``: where it finds a function, what it records, what it leaves behind."""

from __future__ import annotations

import sys

import pytest

from coarsegraph import graph, separations, treedecomp
from coarsegraph.generators import cycle_graph, path_graph
from coarsegraph.graph import Graph
from coarsegraph.separations import Separation, is_tight
from coarsegraph.treedecomp import TreeDecomposition

import helpers


def _namespaces() -> list:
    """Every module of the package and every class one of them defines."""
    modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "coarsegraph"]
    return modules + [c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__]


def test_a_private_function_is_counted_from_each_module_that_imports_it(monkeypatch):
    """``_tight_on_masks`` lives in separations and is imported by treedecomp:
    both is_tight and a supplied sub-decomposition's edge check are recorded."""
    calls = helpers.calls(monkeypatch, "separations._tight_on_masks")
    g = path_graph(3)
    assert is_tight(g, Separation.of({0, 1}, {1, 2}))
    assert calls == [(g, 0b011, 0b110)]
    cycle = cycle_graph(12)
    sub = TreeDecomposition(Graph.build([("a", "b")]), {"a": frozenset(range(7)), "b": frozenset({0, 6, 7, 8, 9, 10, 11})})
    treedecomp._sub_decomposition(cycle, sub)
    assert len(calls) == 2 and calls[1][0] is cycle


def test_a_method_is_counted_on_its_class(monkeypatch):
    calls = helpers.calls(monkeypatch, "graph.Graph.distance_row")
    g = path_graph(4)
    assert g.distance_row([0]) == [0, 1, 2, 3]
    assert calls == [(g, [0])]


def test_every_binding_is_the_original_again_after_undo(monkeypatch):
    originals = (separations._tight_on_masks, graph.mask_components, Graph.distance_row)
    before = [(space, name, value) for space in _namespaces() for name, value in vars(space).items()
              if any(value is f for f in originals)]
    assert {id(space) for space, _, _ in before} >= {id(separations), id(treedecomp), id(graph), id(Graph)}
    for qualname in ("separations._tight_on_masks", "graph.mask_components", "graph.Graph.distance_row"):
        helpers.calls(monkeypatch, qualname)
    assert not any(vars(space)[name] is value for space, name, value in before)
    monkeypatch.undo()
    assert all(vars(space)[name] is value for space, name, value in before)


@pytest.mark.parametrize("qualname", ["graph.no_such", "no_such.f", "graph.Graph.no_such", "graph.Graph.masks", "graph"])
def test_a_name_that_is_no_function_is_refused_by_name(monkeypatch, qualname):
    with pytest.raises(LookupError) as exc:
        helpers.calls(monkeypatch, qualname)
    assert exc.value.args == (f"no such function: {qualname}",)
