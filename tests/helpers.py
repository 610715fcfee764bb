"""Shared test utilities that need package types (unlike the pure oracles)."""

from __future__ import annotations

import importlib
import json
import random
import sys
from contextlib import contextmanager
from types import FunctionType

from hypothesis import strategies as st

import oracles
from coarsegraph.construction import BOUNDED_TW, PLANAR, TORSO_KINDS, InstanceBundle, build_H
from coarsegraph.corpus import relabel_bundle
from coarsegraph.generators import cayley_ball, grid_graph
from coarsegraph.graph import Graph, components, relabel, sort_vertices
from coarsegraph.treedecomp import TreeDecomposition, heuristic_td, torso


@contextmanager
def int_digit_limit():
    """Python's int-to-string digit limit within the block: the interpreter's, or the default
    4,300 where it is switched off (0), so that an int with more digits is refused."""
    limit = sys.get_int_max_str_digits()
    if limit:
        yield limit
        return
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(0)


def calls(monkeypatch, qualname: str) -> list:
    """The positional argument tuple of each call of the function ``qualname`` under ``coarsegraph``
    (``"separations.is_tight"``, ``"graph.Graph.distance_row"``) while ``monkeypatch`` lasts.  One
    recording wrapper replaces the function wherever a module of the package, or a class of one, binds
    it, so a call is recorded whichever module its caller reads the name from."""
    module, _, path = qualname.partition(".")
    try:
        fn = importlib.import_module(f"coarsegraph.{module}")
        for name in path.split("."):
            fn = vars(fn)[name]
    except (ImportError, KeyError, TypeError, ValueError):
        fn = None
    if not isinstance(fn, FunctionType):
        raise LookupError(f"no such function: {qualname}")
    record = []

    def recorded(*args, **kwargs):
        record.append(args)
        return fn(*args, **kwargs)

    modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "coarsegraph"]
    classes = [c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__]
    for space in modules + classes:
        for name in [name for name, value in vars(space).items() if value is fn]:
            monkeypatch.setattr(space, name, recorded)
    return record


def nested(depth: int, leaf="a"):
    """``leaf`` wrapped in ``depth`` one-element tuples."""
    for _ in range(depth):
        leaf = (leaf,)
    return leaf


def kernel_graphs(seed: int, count: int) -> list:
    """Graphs for comparing a kernel with its reference: ``count`` seeded random
    graphs of 0-25 vertices at densities from near-empty (several components,
    isolated vertices) to near-complete, then the planar-scale benchmark's
    one-part hosts, the 7x7 to 17x17 grids and the Z2 balls of radius 4, 7 and 11."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        vs, es = oracles.random_graph(rng, i % 26, rng.choice([0.02, 0.08, 0.15, 0.3, 0.5, 0.8]))
        graphs.append(Graph.build(es, vertices=vs))
    graphs += [grid_graph(n, n) for n in (7, 10, 13, 17)]
    return graphs + [cayley_ball("integer-lattice-Z2", r).graph for r in (4, 7, 11)]


def rename_quotient_vertex(v: tuple, sigma: dict, tau: dict) -> tuple:
    """How a quotient vertex must move when the bundle is relabeled."""
    kind = v[0]
    if kind == "xS":
        return ("xS",) + tuple(sort_vertices(sigma[x] for x in v[1:]))
    if kind == "xt":
        return ("xt", tau[v[1]])
    if kind == "tw":
        return ("tw", tau[v[1]], v[2])
    if kind == "pl":
        return ("pl", tau[v[1]], v[2], sigma[v[3]])
    raise AssertionError(f"unexpected quotient vertex {v!r}")


def assert_equivariant(inst) -> None:
    """Building after relabeling equals relabeling the built quotient."""
    sigma, tau = inst.relabeling
    out1 = build_H(inst.bundle)
    out2 = build_H(relabel_bundle(inst.bundle, sigma, tau))
    rename = {v: rename_quotient_vertex(v, sigma, tau) for v in out1.H.vertices}
    assert relabel(out1.H, rename) == out2.H, inst.name
    for v in inst.bundle.host.vertices:
        assert out2.phi[sigma[v]] == rename[out1.phi[v]], (inst.name, v)


def lifts(bundle, out, sigma: dict, tau: dict) -> bool:
    """Whether the host automorphism ``sigma``, mapping each part t onto part
    ``tau[t]`` by the tree automorphism ``tau``, lifts to H: the renaming rho
    of H's names is an automorphism of H with rho(phi(v)) = phi(sigma(v))."""
    rho = {x: rename_quotient_vertex(x, sigma, tau) for x in out.H.vertices}
    return relabel(out.H, rho) == out.H and all(out.phi[sigma[v]] == rho[out.phi[v]] for v in bundle.host.vertices)


def _randomly_contracted(rng, td: TreeDecomposition, keep: float = 0.5) -> TreeDecomposition:
    """``td`` with each tree edge kept with probability ``keep``, else
    contracted: each component of the tree on the contracted edges becomes one
    node, named by its key-least node, whose part is the union of theirs."""
    kept, merged = [], []
    for e in td.tree.sorted_edges():
        (kept if rng.random() < keep else merged).append(e)
    name = {t: sort_vertices(c)[0] for c in components(Graph.build(merged, vertices=td.tree.vertices)) for t in c}
    parts: dict = {}
    for t, part in td.parts.items():
        parts[name[t]] = parts.get(name[t], frozenset()) | part
    return TreeDecomposition(Graph.build([(name[a], name[b]) for a, b in kept], vertices=parts), parts)


def random_bundle(rng) -> InstanceBundle:
    """A seeded decomposed host: a random graph on 3..10 vertices and its
    min-degree decomposition with random tree edges contracted, k in {1, 2, 3}
    and a finite threshold in {2, 4, 8}; at random also a supplied
    classification, supplied sub-decompositions (the torso's own, randomly
    contracted, or one part of random torso vertices) and infinite markers."""
    vs, es = oracles.random_graph(rng, rng.randint(3, 10), rng.uniform(0.2, 0.6))
    host = Graph.build(es, vertices=vs)
    td = _randomly_contracted(rng, heuristic_td(host))
    nodes = td.tree.sorted_vertices()
    k = rng.choice((1, 2, 3))
    threshold = rng.choice((2, 4, 8))
    classification = None
    if rng.random() < 0.3:
        classification = {t: rng.choice(TORSO_KINDS) for t in nodes}
    sub_tds = {}
    if rng.random() < 0.4:
        for t in nodes:
            if rng.random() < 0.5:
                tg = torso(host, td, t)
                if rng.random() < 0.2:
                    part = frozenset(v for v in tg.vertices if rng.random() < 0.8)
                    sub_tds[t] = TreeDecomposition(Graph.build((), ["s"]), {"s": part})
                else:
                    sub_tds[t] = _randomly_contracted(rng, heuristic_td(tg))
    markers = frozenset()
    if rng.random() < 0.3:
        markers = frozenset(v for v in vs if rng.random() < 0.3)
    return InstanceBundle(host, td, k, classification, markers, sub_tds, threshold)



def supplied_bundle(rng) -> InstanceBundle:
    """A ``random_bundle`` with a supplied sub-decomposition on every tree
    node: the torso's min-degree decomposition with about 40% of its tree
    edges contracted.  Half of these bundles classify every node planar or
    bounded-treewidth at random, the others not at all."""
    b = random_bundle(rng)
    nodes = b.td.tree.sorted_vertices()
    classification = None
    if rng.random() < 0.5:
        classification = {t: rng.choice((PLANAR, BOUNDED_TW)) for t in nodes}
    sub_tds = {t: _randomly_contracted(rng, heuristic_td(torso(b.host, b.td, t)), keep=0.6) for t in nodes}
    return b._replace(classification=classification, sub_tds=sub_tds)


# Values an edit may write into JSON input besides its own: non-vertices (null, a
# boolean, a float, an object), a huge and a negative int, a token and an array that
# read as tuples, broken and empty tokens, a NUL, and an array nested past
# MAX_VERTEX_DEPTH.
JSON_EDIT_VALUES = (None, True, 1.5, {}, 2 ** 70, -1, "(1|2)", [1, 2], [], [[]], "(", "", "\x00",
                    json.loads("[" * 150 + "]" * 150))


def json_slots(root: list) -> list:
    """Every (container, key) pair in the JSON value ``root[0]``, ``(root, 0)`` first."""
    slots, todo = [], [root]
    while todo:
        c = todo.pop()
        for k in (list(c) if isinstance(c, dict) else range(len(c)) if isinstance(c, list) else ()):
            slots.append((c, k))
            todo.append(c[k])
    return slots


def edit_json(draw, root: list, values, edits: int) -> None:
    """Make ``edits`` edits to the JSON value ``root[0]`` in place, each at a
    drawn slot: a value replaced or deleted, or a value drawn from ``values``
    inserted into an array or object; the root itself is only replaced."""
    for _ in range(edits):
        c, k = draw(st.sampled_from(json_slots(root)))
        edit = draw(st.sampled_from(("replace", "delete", "insert")))
        if edit == "replace" or c is root:
            c[k] = draw(values)
        elif edit == "delete":
            del c[k]
        elif isinstance(c, list):
            c.insert(k, draw(values))
        else:
            c[str(draw(values))] = draw(values)
