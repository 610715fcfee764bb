"""Seeded inputs and operations for the three benchmark workloads.

A workload turns a seed into a fixed list of operations.  An operation is one
call into the public API of ``coarsegraph`` plus a check of its answer against
what is known for its input; the check runs outside the timed call.  The list
is a whole number of passes, each pass the same multiset of inputs in a seeded
order, so two commits run the same operations and the same sample count.

- ``corpus``: every seeded corpus instance, run the way ``coarsegraph
  planarize`` runs it but in memory (edge-list text and bundle JSON in, JSON
  out).  The realistic mix of every torso class and gluing rule.
- ``planar-scale``: ``build_H`` + ``verify_output`` on one-part planar hosts,
  square grids and Z² Cayley balls with boundary markers, 41 to 289 vertices.
  All are above the exact-treewidth cap, so the cost sits in the
  series-parallel route and the QI certificate.
- ``toolbox``: standalone queries (fully attached components, tight
  separations, planarity witnesses, fat minors, orbits, exact treewidth).
  Fat-minor searches, which read small fixed hosts by breadth-first search
  many times instead of building new graphs, take two thirds of the time
  and exact treewidth a sixth.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable

# Traced functions are called through their module attributes, looked up when
# they run, so the traced run sees them once the tracer has rebound those.
from coarsegraph import (
    construction,
    fatminor,
    generators,
    graph,
    planarity,
    separations,
    symmetry,
    treedecomp,
)
from coarsegraph.construction import InstanceBundle, bundle_to_dict, report_to_dict
from coarsegraph.graph import Graph, format_edge_list, relabel
from coarsegraph.treedecomp import TreeDecomposition

# The package re-exports the function ``corpus`` under the module's own name.
corpus_module = importlib.import_module("coarsegraph.corpus")

# Seconds of a run's budget one pass takes.  A run of S seconds makes
# round(S / PASS_SECONDS) passes, so the operation list depends on S but never
# on how fast the code under test is.  At the commit the benchmark was defined
# on, a 30-second run spends 20 to 28 seconds in operations at the reference
# speed (see speed.py), leaving room for a slower machine and the set-up.
PASS_SECONDS = {"corpus": 3.75, "planar-scale": 10.0, "toolbox": 6.0}


@dataclass(frozen=True)
class Op:
    kind: str                               # query type, for the per-kind summary
    call: Callable[[], object]              # the timed call into the package
    check: Callable[[object], str | None]   # failure reason, or None when correct
    parts: int = 0                          # outer decomposition parts (pipeline ops)
    vertices: int = 0                       # host vertices (pipeline ops)


def make_ops(workload: str, seed: int, seconds: float) -> list[Op]:
    """The operation list of one run: whole passes, each in a seeded order."""
    rng = random.Random(seed)
    one_pass = _BUILDERS[workload](seed, rng)
    ops: list[Op] = []
    for _ in range(max(1, round(seconds / PASS_SECONDS[workload]))):
        order = list(one_pass)
        rng.shuffle(order)
        ops.extend(order)
    return ops


# ---------------------------------------------------------------------------
# pipeline workloads
# ---------------------------------------------------------------------------


def _check_report(rep) -> str | None:
    if not rep.passed:
        return "report not passed: " + "; ".join(rep.failures)
    if rep.c is None:
        return "no QI certificate"
    if rep.c > rep.bound + rep.marker_tolerance:
        return f"c = {rep.c} exceeds B = {rep.bound} + {rep.marker_tolerance}"
    return None


def _planarize(text: str, bundle_json: str):
    host = graph.parse_edge_list(text)
    bundle = construction.bundle_from_dict(json.loads(bundle_json), host)
    out = construction.build_H(bundle)
    rep = construction.verify_output(bundle, out)
    return rep, json.dumps({"output": construction.output_to_dict(out), "report": report_to_dict(rep)}, sort_keys=True)


def _check_planarize(name: str, first_output: dict, result) -> str | None:
    rep, text = result
    reason = _check_report(rep)
    if reason is None and first_output.setdefault(name, text) != text:
        reason = "output differs from the first pass"
    return reason


def _corpus_pass(seed: int, rng: random.Random) -> list[Op]:
    first_output: dict = {}
    ops = []
    for inst in corpus_module.corpus(seed):
        b = inst.bundle
        text = format_edge_list(b.host)
        data = json.dumps(bundle_to_dict(b))
        ops.append(Op(
            "corpus",
            partial(_planarize, text, data),
            partial(_check_planarize, inst.name, first_output),
            parts=len(b.td.parts),
            vertices=len(b.host.vertices),
        ))
    return ops


# (side of an n x n grid, copies per pass) and (radius of a Z² ball, copies).
# Copies fall roughly with the host size, so every size brings about as many
# host vertices to a pass; the small hosts give most of the latency samples and
# the large ones, where the QI certificate costs most, most of the time.  The
# counts are set so that, over three passes, the median and the tail rank each
# fall in the middle of one host size's samples (49 and 169 vertices), not on
# the edge between two sizes, where a small change in either size's cost would
# move them.
GRIDS = ((7, 8), (10, 4), (13, 3), (17, 1))
Z2_BALLS = ((4, 10), (7, 3), (11, 1))


def _build_and_verify(bundle: InstanceBundle):
    return construction.verify_output(bundle, construction.build_H(bundle))


def _planar_scale_pass(seed: int, rng: random.Random) -> list[Op]:
    hosts = []
    for n, copies in GRIDS:
        g = generators.grid_graph(n, n)
        hosts.append((f"grid-{len(g.vertices)}", g, frozenset(v for v in g.vertices if g.degree(v) < 4), copies))
    for r, copies in Z2_BALLS:
        ball = generators.cayley_ball("integer-lattice-Z2", r)
        hosts.append((f"z2-{len(ball.graph.vertices)}", ball.graph, ball.markers, copies))
    ops = []
    for kind, g, markers, copies in hosts:
        names = g.sorted_vertices()
        for _ in range(copies):
            # An isomorphic copy under a seeded renaming, markers following.
            shuffled = list(names)
            rng.shuffle(shuffled)
            sigma = dict(zip(names, shuffled))
            host = relabel(g, sigma)
            td = TreeDecomposition(Graph.build((), ["t"]), {"t": host.vertices})
            bundle = InstanceBundle(host, td, k=2, infinite_markers=frozenset(sigma[v] for v in markers))
            ops.append(Op(kind, partial(_build_and_verify, bundle), _check_report, parts=1, vertices=len(names)))
    return ops


# ---------------------------------------------------------------------------
# toolbox
# ---------------------------------------------------------------------------

# The number of queries of each type in a pass was chosen by hand; it is not
# taken from a record of how the package is used.  The fat-minor set is the
# acceptance test's, whole; the fully attached components are a seeded sample
# of 2500 triples from the same kind of sweep over every vertex triple of every
# planar corpus host, which makes about 109,000 calls in that test.
# context.json records each type's measured share of the operation time.
FAC_PER_PASS = 2500
TIGHT_ROUNDS = 5       # passes over the (n, p, order) grid below
ORBIT_ROUNDS = 4       # copies of each of ORBIT_CASES
PLANARITY_PER_PASS = 100
# The fat-minor set runs twice a pass.  Its two slowest queries (C4 in C8 at
# K = 1, searched and probed) are the slowest operations of the workload, so
# latency_tail_ms reads them: with 20 of them in a five-pass run it reads the
# middle of their times, not the edge, as it would with 10.
FAT_MINOR_SETS = 2
# (vertices, treewidth).  Mostly 12-vertex graphs of width 4, so that the
# seeded graphs, which change with the seed, cost about the same on every
# seed; one 13- and one 14-vertex graph reach the size cap.
TREEWIDTH_CASES = ((12, 4),) * 5 + ((13, 3), (14, 5))


def _adjacency(vertices, edges) -> dict:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _components_without(adj: dict, removed: frozenset) -> list[frozenset]:
    seen = set(removed)
    out = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        comp = {start}
        queue = deque([start])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


def _attachment(adj: dict, comp: frozenset) -> frozenset:
    return frozenset(w for v in comp for w in adj[v]) - comp


def _fac(host: Graph, triple: frozenset):
    return separations.fully_attached_components(host, triple)


def _tight(g: Graph, k: int):
    return separations.enumerate_tight(g, k)


def _treewidth(g: Graph):
    return treedecomp.exact_treewidth(g)


def _check_fac(comps) -> str | None:
    return None if len(comps) <= 2 else f"{len(comps)} fully attached components in a planar host"


def _check_tight(adj: dict, k: int, seps) -> str | None:
    """Count and soundness against the definition, from plain adjacency.

    For a separator S with f fully attached and o other components of G - S,
    the tight separations are the splits putting a fully attached component
    on each side: (2^f - 2) * 2^o ordered splits, half as many unordered.
    """
    expected = 0
    for combo in itertools.combinations(list(adj), k):
        s = frozenset(combo)
        comps = _components_without(adj, s)
        full = sum(1 for c in comps if _attachment(adj, c) == s)
        if full >= 2:
            expected += (2 ** (full - 1) - 1) * 2 ** (len(comps) - full)
    if len(seps) != expected:
        return f"{len(seps)} tight separations of order {k}, expected {expected}"
    for sep in seps:
        a, b = sep.side_a, sep.side_b
        s = a & b
        if len(s) != k or a | b != set(adj):
            return "not a separation of the requested order"
        if any(w in b - a for v in a - b for w in adj[v]):
            return "an edge crosses the separation"
        full = [c for c in _components_without(adj, s) if _attachment(adj, c) == s]
        if not (any(c <= a for c in full) and any(c <= b for c in full)):
            return "separation is not tight"
    return None


def _random_graph(rng: random.Random, n: int, p: float) -> tuple[list, list]:
    vertices = list(range(n))
    return vertices, [e for e in itertools.combinations(vertices, 2) if rng.random() < p]


def _nonplanar_graph(rng: random.Random, i: int) -> Graph:
    """A K5 or K3,3 with up to two subdivided edges, two pendant extras and two
    chords, on at most 10 vertices: non-planar by construction."""
    if i % 2 == 0:
        edges = list(itertools.combinations(range(5), 2))
    else:
        edges = [(a, b) for a in range(3) for b in range(3, 6)]
    n = 1 + max(max(e) for e in edges)
    for _ in range(rng.randint(0, 2)):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n), (n, v)]
        n += 1
    for _ in range(rng.randint(0, 2)):
        edges += [(n, w) for w in rng.sample(range(n), rng.randint(1, 3))]
        n += 1
    present = {frozenset(e) for e in edges}
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v))
    names = list(range(n))
    rng.shuffle(names)
    return Graph.build([(names[u], names[v]) for u, v in edges])


def _planarity_query(g: Graph):
    return planarity.is_planar(g)


def _check_planarity(g: Graph, verdict) -> str | None:
    if verdict.planar:
        return "a graph with a Kuratowski subdivision was judged planar"
    if verdict.witness is None or not planarity.validate_subdivision(g, verdict.witness):
        return "missing or invalid subdivision witness"
    return None


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _prism(n):
    return _cycle(n) + [(n + a, n + b) for a, b in _cycle(n)] + [(i, n + i) for i in range(n)]


def _wheel(n):
    return _cycle(n) + [(n, i) for i in range(n)]


def _complete_bipartite(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def _petersen():
    return _cycle(5) + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


# (name, edges, number of vertex orbits, number of edge orbits)
ORBIT_CASES = (
    ("cycle-7", _cycle(7), 1, 1),
    ("cycle-12", _cycle(12), 1, 1),
    ("path-8", _path(8), 4, 4),
    ("path-11", _path(11), 6, 5),
    ("prism-3", _prism(3), 1, 2),
    ("cube", _prism(4), 1, 1),
    ("prism-5", _prism(5), 1, 2),
    ("prism-6", _prism(6), 1, 2),
    ("wheel-5", _wheel(5), 2, 2),
    ("wheel-8", _wheel(8), 2, 2),
    ("k2,4", _complete_bipartite(2, 4), 2, 1),
    ("k3,3", _complete_bipartite(3, 3), 1, 1),
    ("k3,4", _complete_bipartite(3, 4), 2, 1),
    ("k5", list(itertools.combinations(range(5), 2)), 1, 1),
    ("petersen", _petersen(), 1, 1),
)


def _orbits_query(g: Graph):
    return symmetry.vertex_orbits(g), symmetry.edge_orbits(g)


def _check_orbits(g: Graph, n_vertex: int, n_edge: int, result) -> str | None:
    v_orbits, e_orbits = result
    if sorted(x for orb in v_orbits for x in orb) != sorted(g.vertices):
        return "vertex orbits do not partition the vertices"
    if sorted(x for orb in e_orbits for x in orb) != sorted(g.edges):
        return "edge orbits do not partition the edges"
    if (len(v_orbits), len(e_orbits)) != (n_vertex, n_edge):
        return f"{len(v_orbits)} vertex / {len(e_orbits)} edge orbits, expected {n_vertex} / {n_edge}"
    return None


def _partial_k_tree(rng: random.Random, n: int, k: int) -> Graph:
    """A random k-tree with some edges dropped, keeping its first (k+1)-clique:
    a subgraph of a k-tree containing K_{k+1}, so its treewidth is exactly k."""
    base = list(itertools.combinations(range(k + 1), 2))
    cliques = [tuple(range(k + 1))]
    extra = []
    for v in range(k + 1, n):
        c = list(rng.choice(cliques))
        c.pop(rng.randrange(k + 1))
        extra += [(v, w) for w in c]
        cliques.append(tuple(c) + (v,))
    return Graph.build(base + [e for e in extra if rng.random() < 0.7], vertices=range(n))


def _check_value(expected, got) -> str | None:
    return None if got == expected else f"got {got}, expected {expected}"


def _fat_search(pattern: Graph, host: Graph, K: int):
    outcome = fatminor.search_fat_minor(pattern, host, K)
    verified = outcome.status != "found" or fatminor.verify_fat_model(outcome.model, K).ok
    return outcome, verified


def _check_fat_search(expected: str, result) -> str | None:
    outcome, verified = result
    if outcome.status != expected:
        return f"status {outcome.status}, expected {expected}"
    return None if verified else "found model fails verification"


def _fat_probe(pattern: Graph, host: Graph, ks):
    results = fatminor.asymptotic_probe(pattern, host, ks)
    verified = all(r.status != "found" or fatminor.verify_fat_model(r.model, k).ok for k, r in results.items())
    return results, verified


def _check_fat_probe(expected: list, result) -> str | None:
    results, verified = result
    statuses = [results[k].status for k in sorted(results)]
    if len(statuses) != len(expected) or any(
            got != want and (want, got) != ("inconclusive", "found") for got, want in zip(statuses, expected)):
        return f"statuses {statuses}, expected {expected}"
    return None if verified else "found model fails verification"


def _fat_minor_ops() -> list[Op]:
    """The fixed searches and probes of the acceptance test for fat minors.

    The searches carry the statuses that test pins.  It checks only that a
    probe's found statuses form a prefix, so each probe carries the full
    status list the package gave when the benchmark was defined (the first
    one is also pinned by the unit tests of ``fatminor``).  Where that was
    "inconclusive" the search gave up, so a found model, which is verified,
    is accepted there too.
    """
    ops = []
    found = [
        (generators.cycle_graph(4), generators.cycle_graph(8), 1),
        (generators.cycle_graph(4), generators.cycle_graph(12), 1),
        (generators.cycle_graph(4), generators.cycle_graph(24), 2),
        (generators.path_graph(2), generators.path_graph(10), 3),
        (generators.complete_graph(3), Graph.build([("c", i) for i in range(3)]), 0),
        (generators.cycle_graph(4), generators.cycle_graph(24), 2),
    ]
    for pattern, host, K in found:
        ops.append(Op("fatminor", partial(_fat_search, pattern, host, K), partial(_check_fat_search, "found")))
    for pattern, host, ks, expected in [
        (generators.cycle_graph(4), generators.cycle_graph(8), [0, 1, 2], ["found", "found", "not-found"]),
        (generators.cycle_graph(4), generators.cycle_graph(24), [0, 1, 2, 3],
         ["found", "found", "found", "inconclusive"]),
        (generators.complete_graph(3), generators.tree_graph(2, 3), [1, 2, 3], ["not-found"] * 3),
    ]:
        ops.append(Op("fatminor", partial(_fat_probe, pattern, host, ks), partial(_check_fat_probe, expected)))
    tri = generators.complete_graph(3)
    trees = (generators.path_graph(9), generators.tree_graph(2, 3), generators.tree_graph(3, 2),
             generators.complete_bipartite_graph(1, 5))
    for host in trees:
        for K in (1, 2, 4):
            ops.append(Op("fatminor", partial(_fat_search, tri, host, K), partial(_check_fat_search, "not-found")))
    return ops


def _toolbox_pass(seed: int, rng: random.Random) -> list[Op]:
    ops: list[Op] = []

    # A seeded subsample of the sweep over every vertex triple of every planar
    # corpus host: hosts drawn by their number of triples.
    hosts = [inst.bundle.host for inst in corpus_module.corpus(seed)]
    hosts = [h for h in hosts if planarity.is_planar(h, witness_cap=0).planar]
    pools = [sorted(h.vertices, key=repr) for h in hosts]
    weights = [math.comb(len(p), 3) for p in pools]
    for i in rng.choices(range(len(hosts)), weights=weights, k=FAC_PER_PASS):
        triple = frozenset(rng.sample(pools[i], 3))
        ops.append(Op("fac", partial(_fac, hosts[i], triple), _check_fac))

    for _ in range(TIGHT_ROUNDS):
        for n, p, k in itertools.product((5, 6, 7, 8), (0.3, 0.5, 0.7), (1, 2, 3)):
            vertices, edges = _random_graph(rng, n, p)
            g = Graph.build(edges, vertices=vertices)
            ops.append(Op("tight", partial(_tight, g, k), partial(_check_tight, _adjacency(vertices, edges), k)))

    for i in range(PLANARITY_PER_PASS):
        g = _nonplanar_graph(rng, i)
        ops.append(Op("planarity", partial(_planarity_query, g), partial(_check_planarity, g)))

    for _ in range(FAT_MINOR_SETS):
        ops.extend(_fat_minor_ops())

    for _name, edges, n_vertex, n_edge in ORBIT_CASES:
        g = Graph.build(edges)
        for _ in range(ORBIT_ROUNDS):
            ops.append(Op("orbits", partial(_orbits_query, g), partial(_check_orbits, g, n_vertex, n_edge)))

    for n, k in TREEWIDTH_CASES:
        ops.append(Op("treewidth", partial(_treewidth, _partial_k_tree(rng, n, k)), partial(_check_value, k)))
    return ops


_BUILDERS = {"corpus": _corpus_pass, "planar-scale": _planar_scale_pass, "toolbox": _toolbox_pass}
