"""Top-level acceptance sweep: one test per release criterion.

Each test pins its tolerance and, where the criterion carries one, its wall-
clock budget.  Oracles come from tests/oracles.py and are computed without the
package, so a shared bug cannot satisfy a comparison from both sides.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

from coarsegraph.cli import main
from coarsegraph.construction import build_H, output_to_dict, verify_output
from coarsegraph.corpus import DEFAULT_SEED, corpus, symmetric_instances
from coarsegraph.fatminor import asymptotic_probe, search_fat_minor, verify_fat_model
from coarsegraph.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    tree_graph,
)
from coarsegraph.graph import Graph
from coarsegraph.planarity import is_planar
from coarsegraph.qi import make_certificate, tightest_constants
from coarsegraph.separations import enumerate_tight, fully_attached_components
from coarsegraph.treedecomp import exact_treewidth

import helpers
import oracles


def _graph(vs_es) -> Graph:
    vs, es = vs_es
    return Graph.build(es, vertices=vs)


def prism(n: int) -> Graph:
    ring = [(("a", i), ("a", (i + 1) % n)) for i in range(n)]
    ring += [(("b", i), ("b", (i + 1) % n)) for i in range(n)]
    return Graph.build(ring + [(("a", i), ("b", i)) for i in range(n)])


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph.build([(rng.randrange(i), i) for i in range(1, n)], vertices=range(n))


def test_01_planarity_verdicts_match_the_subdivision_oracle():
    """200 seeded graphs on ≤ 9 vertices plus the named families, compared
    against an independent exhaustive subdivision search; budget 10 s."""
    start = time.monotonic()
    rng = random.Random(20240817)
    named = [
        (complete_graph(4), True),
        (complete_graph(5), False),
        (complete_bipartite_graph(3, 3), False),
        (_graph((list(range(10)),
                 [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])), False),  # Petersen
        (prism(3), True),
        (prism(4), True),
        (prism(5), True),
    ]
    for g, expected in named:
        adj = oracles.adjacency(g.edges, g.vertices)
        assert is_planar(g, witness_cap=0).planar is expected
        assert (not oracles.has_subdivision(adj)) is expected
    checked = 0
    for i in range(200):
        n = rng.randint(4, 9)
        p = (0.3, 0.5, 0.7)[i % 3]
        vs, es = oracles.random_graph(rng, n, p)
        g = Graph.build(es, vertices=vs)
        adj = oracles.adjacency(es, vs)
        assert is_planar(g, witness_cap=0).planar == (not oracles.has_subdivision(adj))
        checked += 1
    assert checked == 200
    assert time.monotonic() - start < 10


def test_02_exact_treewidth_on_reference_families():
    """Trees → 1, cycles → 2 (including the triangle), K_n → n−1 up to n=8,
    3×3 grid → 3; budget 30 s."""
    start = time.monotonic()
    rng = random.Random(5)
    assert exact_treewidth(path_graph(7)) == 1
    assert exact_treewidth(complete_bipartite_graph(1, 5)) == 1  # star
    for n in (2, 4, 7, 10, 12):
        assert exact_treewidth(random_tree(rng, n)) == (1 if n > 1 else 0)
    for n in range(3, 9):
        assert exact_treewidth(cycle_graph(n)) == 2
    for n in range(2, 9):
        assert exact_treewidth(complete_graph(n)) == n - 1
    assert exact_treewidth(grid_graph(3, 3)) == 3
    assert time.monotonic() - start < 30


def test_03_tight_separation_enumeration_equals_brute_force():
    """100 seeded graphs on ≤ 8 vertices, orders 1-3, against the separator-
    scan oracle (and the full side-assignment scan on ≤ 5 vertices);
    budget 60 s."""
    start = time.monotonic()
    rng = random.Random(7)
    for i in range(100):
        n = rng.randint(3, 8)
        p = (0.3, 0.5, 0.7)[i % 3]
        vs, es = oracles.random_graph(rng, n, p)
        g = Graph.build(es, vertices=vs)
        adj = oracles.adjacency(es, vs)
        for k in (1, 2, 3):
            mine = {frozenset((s.side_a, s.side_b)) for s in enumerate_tight(g, k)}
            assert mine == oracles.tight_separations_definitional(adj, k)
            if n <= 5:
                assert mine == oracles.tight_separations_exhaustive(adj, k)
    assert time.monotonic() - start < 60


def test_04_tightest_qi_constants_are_minimal():
    """100 seeded map instances on ≤ 20 vertices: the reported c certifies,
    and any decrement refutes (validity is monotone in c, so refuting an
    epsilon-decrement refutes every larger one); budget 30 s."""
    start = time.monotonic()
    rng = random.Random(11)
    eps = Fraction(1, 1000)
    for i in range(100):
        n_src = rng.randint(2, 20)
        n_tgt = rng.randint(2, 20)
        src = _graph(oracles.random_connected_graph(rng, n_src, 0.3))
        tgt = _graph(oracles.random_connected_graph(rng, n_tgt, 0.3))
        tgt_vs = sorted(tgt.vertices)
        phi = {v: rng.choice(tgt_vs) for v in src.vertices}
        gamma = (1, 2)[i % 2]
        got = tightest_constants(src, tgt, phi, fixed_gamma=gamma)
        assert got is not None
        _, c = got
        assert make_certificate(src, tgt, phi, gamma, c).valid
        if c > 0:
            assert not make_certificate(src, tgt, phi, gamma, c - min(eps, c)).valid
    assert time.monotonic() - start < 30


def test_05_fat_minor_search_is_sound_and_monotone():
    """Every produced witness re-verifies; sweeps are monotone in K; K₃ is
    never found in trees at any positive fatness; C₄ is found in C₂₄ at
    fatness 2; budget 2 min with default budgets."""
    start = time.monotonic()
    searches = [
        (cycle_graph(4), cycle_graph(8), 1),
        (cycle_graph(4), cycle_graph(12), 1),
        (cycle_graph(4), cycle_graph(24), 2),
        (path_graph(2), path_graph(10), 3),
        (complete_graph(3), Graph.build([("c", i) for i in range(3)]), 0),
    ]
    for pattern, host, K in searches:
        outcome = search_fat_minor(pattern, host, K)
        assert outcome.status == "found", (K, outcome.reason)
        assert verify_fat_model(outcome.model, K).ok

    for pattern, host, ks in [
        (cycle_graph(4), cycle_graph(8), [0, 1, 2]),
        (cycle_graph(4), cycle_graph(24), [0, 1, 2, 3]),
        (complete_graph(3), tree_graph(2, 3), [1, 2, 3]),
    ]:
        results = asymptotic_probe(pattern, host, ks)
        statuses = [results[k].status for k in sorted(results)]
        seen_negative = False
        for s in statuses:
            if s != "found":
                seen_negative = True
            else:
                assert not seen_negative, statuses  # found must form a prefix
        for k, r in results.items():
            if r.status == "found":
                assert verify_fat_model(r.model, k).ok

    tri = complete_graph(3)
    for host in (path_graph(9), tree_graph(2, 3), tree_graph(3, 2), complete_bipartite_graph(1, 5)):
        for K in (1, 2, 4):
            assert search_fat_minor(tri, host, K).status == "not-found"

    c24 = search_fat_minor(cycle_graph(4), cycle_graph(24), 2)
    assert c24.status == "found" and verify_fat_model(c24.model, 2).ok
    assert time.monotonic() - start < 120


def test_06_quotient_construction_holds_across_the_corpus():
    """≥ 50 seeded bundles: the quotient is always planar with matching
    connectivity, and the γ=1 certificate satisfies c ≤ B (marker-free) or
    c ≤ B + 3 (marker-truncated); budget 5 min."""
    start = time.monotonic()
    instances = corpus(DEFAULT_SEED)
    assert len(instances) >= 50
    for inst in instances:
        out = build_H(inst.bundle)
        rep = verify_output(inst.bundle, out)
        assert rep.planar, inst.name
        assert rep.connectivity_ok, inst.name
        assert rep.qi_checked and rep.qi_valid, (inst.name, rep.failures)
        tolerance = 3 if inst.bundle.infinite_markers else 0
        assert rep.marker_tolerance == tolerance
        assert rep.c <= rep.bound + tolerance, (inst.name, rep.c, rep.bound)
        assert rep.passed, (inst.name, rep.failures)
    assert time.monotonic() - start < 300


def test_07_builds_are_deterministic_and_equivariant():
    """Rebuilding any corpus bundle is byte-identical, and on the ten
    symmetric instances relabeling the bundle relabels the quotient."""
    for inst in corpus(DEFAULT_SEED):
        a = json.dumps(output_to_dict(build_H(inst.bundle)), sort_keys=True)
        b = json.dumps(output_to_dict(build_H(inst.bundle)), sort_keys=True)
        assert a == b, inst.name
    sym = symmetric_instances(DEFAULT_SEED)
    assert len(sym) == 10
    for inst in sym:
        helpers.assert_equivariant(inst)


def test_08_separator_triples_in_planar_hosts_attach_at_most_two_components():
    """For every planar corpus host and every vertex triple S, at most two
    components are fully attached to S; zero violations allowed."""
    violations = []
    for inst in corpus(DEFAULT_SEED):
        host = inst.bundle.host
        if not is_planar(host, witness_cap=0).planar:
            continue
        vs = sorted(host.vertices, key=repr)
        for S in itertools.combinations(vs, 3):
            if len(fully_attached_components(host, frozenset(S))) > 2:
                violations.append((inst.name, S))
    assert violations == []


def test_readme_python_api_example_runs():
    """The ``python`` block under README's "Python API" heading runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_fat_minor_line_spends_the_nodes_it_states(tmp_path, monkeypatch, capsys):
    """README's ``fat-minor`` line, after the ``gen`` lines that write its cycles,
    runs as written and spends the ``nodes_used`` that the comment above it states."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("\n# Fat minors:", 1)[1].split("\n\n", 1)[0].splitlines()
    stated = int(re.search(r"\(here ([\d,]+) nodes\)", "\n".join(lines)).group(1).replace(",", ""))
    fat_minor = next(line for line in lines if line.startswith("coarsegraph fat-minor"))
    gens = [line for line in readme.splitlines() if line.startswith("coarsegraph gen --family cycle")]
    monkeypatch.chdir(tmp_path)
    for line in gens:
        assert main(shlex.split(line)[1:]) == 0
    capsys.readouterr()
    assert main(shlex.split(fat_minor)[1:]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["nodes_used"]) == ("found", stated)
