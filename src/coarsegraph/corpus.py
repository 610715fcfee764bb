"""A reproducible instance corpus for the planar-quotient engine.

Each instance is a ready-to-build bundle: host graph, outer tree-decomposition
of adhesion ≤ 3, treewidth budget k, and (where meaningful) truncation markers
or pinned sub-decompositions.  Families cover every torso class and every
gluing rule: trees of small cliques, single bounded-treewidth cycles, bare
grids, grids with clique pockets at a face, pruning instances with a deletable
pocket behind a separator, two grids bridged through a small torso, mixed
chains, and truncated Cayley balls.

Ten instances are marked symmetric and carry an explicit automorphism of the
bundle (a vertex relabeling plus a tree-node relabeling) for equivariance
checks.  The corpus is deterministic given a seed, passed as ``corpus(seed)``;
with none, it is ``DEFAULT_SEED``.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .construction import InstanceBundle
from .generators import cayley_ball, cycle_graph, grid_graph
from .graph import Graph, add_edges, relabel, sort_vertices, union
from .treedecomp import TreeDecomposition

DEFAULT_SEED = 20240817


class CorpusInstance(NamedTuple):
    name: str
    bundle: InstanceBundle
    symmetric: bool = False
    # For symmetric instances: (vertex relabeling, tree-node relabeling),
    # together an automorphism of the bundle.
    relabeling: tuple | None = None


def _td(tree_edges, parts: dict) -> TreeDecomposition:
    """The decomposition along ``tree_edges`` into ``parts`` (tree node -> vertex set)."""
    return TreeDecomposition(Graph.build(tree_edges, parts), parts)


def _bundle(host: Graph, tree_edges, parts: dict, **fields) -> InstanceBundle:
    return InstanceBundle(host, _td(tree_edges, parts), k=2, **fields)


def _one_part(name: str, host: Graph, **fields) -> CorpusInstance:
    """An instance decomposed into one part "t" that holds the whole host."""
    return CorpusInstance(name, _bundle(host, (), {"t": host.vertices}, **fields))


def _clique_parts(tree_edges, parts: dict) -> InstanceBundle:
    """A clique on each part, decomposed into its parts."""
    host = Graph.build([e for part in parts.values() for e in _clique(part)])
    return _bundle(host, tree_edges, parts)


def _clique(vertices) -> list:
    vs = sort_vertices(vertices)
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _pick_glue(rng: random.Random, parent_part: frozenset, taken: list) -> frozenset:
    """A glue set from the parent part that is not properly nested with any
    existing adhesion set.  (Nested adhesion sets let one hub bypass another,
    defeating the hub-separates-its-sides property; equal sets merge into one
    hub and are fine.)"""
    pool = sort_vertices(parent_part)

    def ok(cand: frozenset) -> bool:
        return not any(cand < s or s < cand for s in taken)

    for _ in range(40):
        cand = frozenset(rng.sample(pool, rng.randint(1, 3)))
        if ok(cand):
            return cand
    for a in (1, 2, 3):
        for combo in itertools.combinations(pool, a):
            cand = frozenset(combo)
            if ok(cand):
                return cand
    raise RuntimeError("no usable glue set")


def _clique_tree_instance(rng: random.Random, idx: int) -> CorpusInstance:
    """A tree of overlapping cliques; every torso is small."""
    m = rng.randint(2, 4)
    parent = {i: rng.randrange(i) for i in range(1, m)}
    sizes = [rng.randint(4, 8) for _ in range(m)]
    parts = {0: frozenset(range(sizes[0]))}
    counter = sizes[0]
    adhesions: list = []
    for i in range(1, m):
        glue = _pick_glue(rng, parts[parent[i]], adhesions)
        adhesions.append(glue)
        fresh = list(range(counter, counter + max(sizes[i] - len(glue), 1)))
        counter += len(fresh)
        parts[i] = glue | frozenset(fresh)
    bundle = _clique_parts([(parent[i], i) for i in range(1, m)], parts)
    return CorpusInstance(f"clique-tree-{idx:02d}", bundle)


def _cycle_instance(n: int) -> CorpusInstance:
    return _one_part(f"cycle-{n}", cycle_graph(n))


def _face_triple(i: int, j: int) -> frozenset:
    return frozenset({f"{i},{j}", f"{i},{j + 1}", f"{i + 1},{j}"})


def _grid_k4_instance(r: int, c: int, i: int, j: int) -> CorpusInstance:
    """A grid with a K4 pocket attached along one face triple."""
    grid = grid_graph(r, c)
    s = _face_triple(i, j)
    host = add_edges(grid, [("q", v) for v in sort_vertices(s)])
    bundle = _bundle(host, [("g", "k")], {"g": grid.vertices, "k": s | {"q"}})
    return CorpusInstance(f"grid-k4-{r}x{c}-at-{i}-{j}", bundle)


def _pocket_instance(m: int, marked: bool) -> CorpusInstance:
    """A 3×m grid with a deletable pocket vertex behind the first column.

    The pocket p and the main grid body are both fully attached to the column
    separator, so the refinement must prune one of them: the markers (or, in
    the unmarked variant, the size comparison) single out the body.
    """
    grid = grid_graph(3, m)
    s = frozenset({f"{i},0" for i in range(3)})
    host = add_edges(grid, [(w, v) for w in ("p", "q") for v in sort_vertices(s)])
    part_g = grid.vertices | {"p"}
    markers = frozenset(f"{i},{m - 1}" for i in range(3)) if marked else frozenset()
    name = f"pocket-3x{m}-{'marked' if marked else 'plain'}"
    # The pinned trivial sub-decomposition keeps the column separator out of
    # the contracted adhesions, so the refinement really has to prune.
    bundle = _bundle(host, [("g", "k")], {"g": part_g, "k": s | {"q"}},
                     infinite_markers=markers, sub_tds={"g": _td((), {0: part_g})})
    return CorpusInstance(name, bundle)


def _bridge_instance(n: int) -> CorpusInstance:
    """Two n×n grids joined through a small bridge torso on two face triples."""
    g1 = grid_graph(n, n)
    g2 = relabel(g1, {v: f"b{v}" for v in g1.vertices})
    s1 = _face_triple(0, 0)
    s2 = frozenset(f"b{v}" for v in s1)
    bridge = [(u, v) for u in sort_vertices(s1) for v in sort_vertices(s2)]
    host = add_edges(union(g1, g2), bridge)
    bundle = _bundle(host, [("g1", "m"), ("m", "g2")], {"g1": g1.vertices, "m": s1 | s2, "g2": g2.vertices})
    return CorpusInstance(f"bridge-{n}", bundle)


def _mixed_instance(cycle_n: int, gr: int, gc: int) -> CorpusInstance:
    """Finite clique — cycle — grid, one torso of each class on a path."""
    cyc = cycle_graph(cycle_n)
    grid = grid_graph(gr, gc)
    hook = cycle_n // 2
    host = add_edges(union(cyc, grid), [("a", 0), ("a", 1), (hook, "0,0")])
    parts = {"A": frozenset({"a", 0, 1}), "B": cyc.vertices, "C": grid.vertices | {hook}}
    return CorpusInstance(f"mixed-c{cycle_n}-g{gr}x{gc}", _bundle(host, [("A", "B"), ("B", "C")], parts))


def _cayley_instance(preset: str, radius: int, finite_threshold: int = 8) -> CorpusInstance:
    ball = cayley_ball(preset, radius)
    return _one_part(f"cayley-{preset}-r{radius}", ball.graph,
                     infinite_markers=ball.markers, finite_threshold=finite_threshold)


# ---------------------------------------------------------------------------
# symmetric instances (with explicit bundle automorphisms)
# ---------------------------------------------------------------------------


def _sym_mirror_path(arm: int, a: int, idx: int) -> CorpusInstance:
    """Left clique — middle — right clique, mirror-symmetric."""
    left = [f"l{i}" for i in range(arm)]
    right = [f"r{i}" for i in range(arm)]
    mid = frozenset(left[-a:]) | frozenset(right[-a:]) | {"m0"}
    bundle = _clique_parts([("L", "M"), ("M", "R")], {"L": frozenset(left), "M": mid, "R": frozenset(right)})
    sigma = {f"l{i}": f"r{i}" for i in range(arm)}
    sigma.update({f"r{i}": f"l{i}" for i in range(arm)})
    sigma["m0"] = "m0"
    tau = {"L": "R", "M": "M", "R": "L"}
    return CorpusInstance(f"sym-mirror-{idx}", bundle, symmetric=True, relabeling=(sigma, tau))


def _sym_star(arms: int, idx: int) -> CorpusInstance:
    """Clique arms around a shared triangle, rotated by the automorphism."""
    z = ["z0", "z1", "z2"]
    parts: dict = {"Z": frozenset(z)}
    sigma = {v: v for v in z}
    tau = {"Z": "Z"}
    for i in range(arms):
        j = (i + 1) % arms
        parts[f"A{i}"] = frozenset(z) | {f"a{i}x", f"a{i}y"}
        sigma[f"a{i}x"] = f"a{j}x"
        sigma[f"a{i}y"] = f"a{j}y"
        tau[f"A{i}"] = f"A{j}"
    bundle = _clique_parts([("Z", f"A{i}") for i in range(arms)], parts)
    return CorpusInstance(f"sym-star-{idx}", bundle, symmetric=True, relabeling=(sigma, tau))


def _sym_cycle(n: int) -> CorpusInstance:
    """``cycle-n`` with a pinned one-node sub-decomposition, rotated halfway
    around by the automorphism."""
    plain = _cycle_instance(n).bundle
    bundle = plain._replace(sub_tds={"t": _td((), {0: plain.host.vertices})})
    sigma = {v: (v + n // 2) % n for v in range(n)}
    return CorpusInstance(f"sym-cycle-{n}", bundle, symmetric=True, relabeling=(sigma, {"t": "t"}))


def _sym_grid_k4(n: int) -> CorpusInstance:
    """``grid-k4-nxn-at-0-0``, transposed by the automorphism; the planar
    sub-decomposition is pinned to one node so the construction's vertex
    names relabel exactly."""
    plain = _grid_k4_instance(n, n, 0, 0).bundle
    bundle = plain._replace(sub_tds={"g": _td((), {0: plain.td.parts["g"]})})
    sigma = {f"{i},{j}": f"{j},{i}" for i in range(n) for j in range(n)}
    sigma["q"] = "q"
    return CorpusInstance(f"sym-grid-k4-{n}", bundle, symmetric=True, relabeling=(sigma, {"g": "g", "k": "k"}))


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------


def corpus(seed: int | None = None) -> list[CorpusInstance]:
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    out: list[CorpusInstance] = []
    for idx in range(15):
        out.append(_clique_tree_instance(rng, idx))
    for n in range(12, 31, 2):
        out.append(_cycle_instance(n))
    for (r, c) in [(4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (6, 6)]:
        out.append(_one_part(f"grid-{r}x{c}", grid_graph(r, c)))
    faces = [(0, 0), (0, 1), (1, 1), (2, 1)]
    for (r, c) in [(4, 4), (5, 5)]:
        for (i, j) in rng.sample(faces, 3):
            out.append(_grid_k4_instance(r, c, i, j))
    for m in (4, 5, 6):
        out.append(_pocket_instance(m, marked=True))
        out.append(_pocket_instance(m, marked=False))
    for n in (4, 5, 6):
        out.append(_bridge_instance(n))
    for (cn, gr, gc) in [(12, 4, 4), (14, 4, 5), (16, 5, 5), (18, 4, 6)]:
        out.append(_mixed_instance(cn, gr, gc))
    out.append(_cayley_instance("free-group-rank-2", 2))
    out.append(_cayley_instance("free-group-rank-2", 3))
    out.append(_cayley_instance("integer-lattice-Z2", 2))
    out.append(_cayley_instance("integer-lattice-Z2", 3))
    out.append(_cayley_instance("free-product-Z2-Z3", 2, finite_threshold=4))
    out.append(_cayley_instance("free-product-Z2-Z3", 3))
    for idx, (arm, a) in enumerate([(4, 1), (5, 2), (6, 3), (7, 2)]):
        out.append(_sym_mirror_path(arm, a, idx))
    out.append(_sym_star(3, 0))
    out.append(_sym_star(4, 1))
    out.append(_sym_cycle(12))
    out.append(_sym_cycle(16))
    out.append(_sym_grid_k4(4))
    out.append(_sym_grid_k4(5))
    if len({inst.name for inst in out}) != len(out):
        raise RuntimeError("corpus instance names must be unique")
    return out


def symmetric_instances(seed: int | None = None) -> list[CorpusInstance]:
    return [inst for inst in corpus(seed) if inst.symmetric]


def relabel_bundle(bundle: InstanceBundle, sigma: dict, tau: dict) -> InstanceBundle:
    """The bundle with host vertices renamed by sigma and tree nodes by tau.

    Sub-decomposition node names are kept; only the vertices inside their
    parts move.  Building the relabeled bundle must produce the renamed
    quotient of the original — that is what the symmetric instances check.
    """
    def moved(parts: dict) -> dict:
        return {t: frozenset(sigma[v] for v in p) for t, p in parts.items()}

    return bundle._replace(
        host=relabel(bundle.host, sigma),
        td=TreeDecomposition(relabel(bundle.td.tree, tau), {tau[t]: p for t, p in moved(bundle.td.parts).items()}),
        classification=bundle.classification and {tau[t]: kind for t, kind in bundle.classification.items()},
        infinite_markers=frozenset(sigma[v] for v in bundle.infinite_markers),
        sub_tds={tau[t]: TreeDecomposition(sub.tree, moved(sub.parts)) for t, sub in bundle.sub_tds.items()},
    )
