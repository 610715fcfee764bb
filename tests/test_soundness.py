"""An accepted bundle must verify, or be refused with a typed error.

``build_H`` either raises a ``GraphToolError`` or returns an H that
``verify_output`` passes.  The cases below reproduce the failure classes of
ROADMAP item 1 that ``validate_bundle`` still accepts, each with the exact
failures its report lists today, beside controls that pass.  A change that
refuses one of them, or makes it pass, takes it off the known-failure list.
"""

from __future__ import annotations

import pytest

from coarsegraph.construction import InstanceBundle, build_H, verify_output
from coarsegraph.corpus import DEFAULT_SEED, corpus
from coarsegraph.errors import GraphToolError
from coarsegraph.generators import complete_graph, cycle_graph
from coarsegraph.graph import Graph
from coarsegraph.treedecomp import TreeDecomposition, heuristic_td


def _corpus(name: str, **changes):
    def build() -> InstanceBundle:
        return next(i for i in corpus(DEFAULT_SEED) if i.name == name).bundle._replace(**changes)
    return build


def _heuristic(g: Graph):
    """``heuristic_td`` of g, whose parts nest: each part after the first
    holds the next one."""
    return lambda: InstanceBundle(g, heuristic_td(g), k=2)


def _one_part(g: Graph):
    return lambda: InstanceBundle(g, TreeDecomposition(Graph.build((), ["t"]), {"t": g.vertices}), k=2)


CASES = {
    "clique-tree-02": _corpus("clique-tree-02"),
    "clique-tree-02, finite threshold 1": _corpus("clique-tree-02", finite_threshold=1),
    "sym-mirror-0": _corpus("sym-mirror-0"),
    "sym-mirror-0, finite threshold 2": _corpus("sym-mirror-0", finite_threshold=2),
    "K3 on heuristic_td": _heuristic(complete_graph(3)),
    "C5 on heuristic_td": _heuristic(cycle_graph(5)),
    "K4 on heuristic_td": _heuristic(complete_graph(4)),
    "C5 in one part": _one_part(cycle_graph(5)),
    "two edges in one part": _one_part(Graph.build([(0, 1), (2, 3)])),
    "C14 less {0, 1} and {6, 7} in one part": _one_part(
        Graph.build([(i, (i + 1) % 14) for i in range(14) if i not in (0, 6)])),
}

# Each known failure's report failures.  The corpus instances at a lower
# finite threshold send K4 torsos down the planar route, where B is 1 and c at
# γ = 1 exceeds it (item 11's class).  Nested parts leave hubs that separate
# nothing.  A part that joins two host components gives a connected H.
KNOWN_FAILURES = {
    "clique-tree-02, finite threshold 1": ("tightest c = 4 exceeds B = 1 (+0 marker tolerance)",),
    "sym-mirror-0, finite threshold 2": ("tightest c = 3 exceeds B = 1 (+0 marker tolerance)",),
    "K3 on heuristic_td": ("1 adhesion hub(s) fail to separate their attachment sides",),
    "C5 on heuristic_td": ("3 adhesion hub(s) fail to separate their attachment sides",),
    "K4 on heuristic_td": ("2 adhesion hub(s) fail to separate their attachment sides",),
    "two edges in one part": ("H connectivity does not match the host",),
    "C14 less {0, 1} and {6, 7} in one part": ("H connectivity does not match the host",),
}


@pytest.mark.parametrize("case", list(CASES))
def test_an_accepted_bundle_verifies_except_the_known_failures(case):
    bundle = CASES[case]()
    try:
        out = build_H(bundle)
    except GraphToolError:
        failures = ()  # refused with a typed error
    else:
        failures = verify_output(bundle, out).failures
    assert failures == KNOWN_FAILURES.get(case, ())
