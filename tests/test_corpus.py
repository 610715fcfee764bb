"""The seeded instance corpus: coverage, determinism, declared symmetries."""

from __future__ import annotations

import hashlib
import json

import pytest

from coarsegraph.corpus import (
    DEFAULT_SEED,
    corpus,
    relabel_bundle,
    symmetric_instances,
)
from coarsegraph.construction import build_H, bundle_to_dict, validate_bundle
from coarsegraph.graph import canonical_edge, format_edge_list, relabel
from coarsegraph.symmetry import automorphism_generators

import helpers


def test_size_and_unique_names():
    instances = corpus(DEFAULT_SEED)
    assert len(instances) >= 50
    names = [inst.name for inst in instances]
    assert len(set(names)) == len(names)


def test_family_coverage():
    names = " ".join(inst.name for inst in corpus(DEFAULT_SEED))
    for tag in ("clique-tree", "cycle", "grid", "pocket", "bridge", "mixed", "cayley", "sym-"):
        assert tag in names


def test_every_bundle_validates():
    for inst in corpus(DEFAULT_SEED):
        validate_bundle(inst.bundle)


def test_deterministic_per_seed():
    a, b = corpus(123), corpus(123)
    assert [i.name for i in a] == [i.name for i in b]
    for x, y in zip(a, b):
        assert x.bundle.host == y.bundle.host
        assert x.bundle.td.parts == y.bundle.td.parts
    c = corpus(124)
    assert any(x.bundle.host != y.bundle.host for x, y in zip(a, c))


def test_an_unset_seed_is_the_default_whatever_the_environment(monkeypatch):
    """The seed is passed, never read from the environment: with COARSE_GRAPH_SEED set,
    corpus() is still corpus(DEFAULT_SEED)."""
    monkeypatch.setenv("COARSE_GRAPH_SEED", "777")
    a, b = corpus(), corpus(DEFAULT_SEED)
    assert [i.name for i in a] == [i.name for i in b]
    assert all(x.bundle.host == y.bundle.host and x.bundle.td.parts == y.bundle.td.parts for x, y in zip(a, b))


def test_ten_symmetric_instances_with_genuine_automorphisms():
    sym = symmetric_instances(DEFAULT_SEED)
    assert len(sym) == 10
    for inst in sym:
        sigma, tau = inst.relabeling
        host, tree = inst.bundle.host, inst.bundle.td.tree
        assert set(sigma) == set(host.vertices)
        assert {canonical_edge(sigma[u], sigma[v]) for (u, v) in host.edges} == set(host.edges)
        assert set(tau) == set(tree.vertices)
        parts = inst.bundle.td.parts
        for t, p in parts.items():
            assert parts[tau[t]] == frozenset(sigma[v] for v in p)
        assert frozenset(sigma[v] for v in inst.bundle.infinite_markers) == inst.bundle.infinite_markers
        validate_bundle(relabel_bundle(inst.bundle, sigma, tau))


def test_equivariance_spot_checks():
    """Full ten-instance equivariance is covered by the acceptance suite;
    two families are exercised here for fast regression signal."""
    sym = {inst.name: inst for inst in symmetric_instances(DEFAULT_SEED)}
    helpers.assert_equivariant(sym["sym-mirror-0"])
    helpers.assert_equivariant(sym["sym-cycle-12"])


# The instances with a generator that maps the decomposition onto itself and
# does not lift: their bounded-treewidth torsos take the min-degree
# sub-decomposition, which breaks ties by vertex name.
LIFT_KNOWN_FAILURES = {f"cycle-{n}" for n in range(12, 31, 2)} | {
    f"cayley-{preset}-r{r}" for preset in ("free-group-rank-2", "free-product-Z2-Z3") for r in (2, 3)}


def _tree_automorphism(td, sigma: dict) -> dict | None:
    """The tree automorphism tau with sigma(part t) = part tau(t) for every
    node t, or None if sigma maps some part onto no part or no such tau is one."""
    node_of = {part: t for t, part in td.parts.items()}
    tau = {t: node_of.get(frozenset(sigma[v] for v in part)) for t, part in td.parts.items()}
    if len(node_of) < len(tau) or None in tau.values() or relabel(td.tree, tau) != td.tree:
        return None
    return tau


def test_decomposition_preserving_automorphisms_lift_to_h():
    """The finite form of "H is quasi-transitive": every generator sigma of
    Aut(host), on hosts of at most 60 vertices, that maps the parts onto the
    parts by a tree automorphism tau lifts to an automorphism of H, except on
    the known failures."""
    checked, lifted, failing = 0, 0, set()
    for inst in corpus(DEFAULT_SEED):
        b = inst.bundle
        if len(b.host) > 60:
            continue
        out, order = build_H(b), b.host.order
        for images in automorphism_generators(b.host):
            sigma = {v: order[j] for v, j in zip(order, images)}
            tau = _tree_automorphism(b.td, sigma)
            if tau is None:
                continue
            checked += 1
            if helpers.lifts(b, out, sigma, tau):
                lifted += 1
            else:
                failing.add(inst.name)
    assert failing == LIFT_KNOWN_FAILURES
    assert (checked, lifted) == (278, 209)


def test_marked_instances_build():
    """Marked pocket and Cayley bundles exercise pruning and truncation."""
    instances = {inst.name: inst for inst in corpus(DEFAULT_SEED)}
    marked = [inst for inst in instances.values() if inst.bundle.infinite_markers]
    assert marked
    inst = next(i for i in marked if "pocket" in i.name)
    out = build_H(inst.bundle)
    assert out.bounds.b5 == 2


def corpus_inputs(seed: int) -> str:
    """The sorted-key JSON of every instance of corpus(seed) as built, before
    any construction runs: its name, symmetric flag, relabeling (each map as
    sorted ``repr`` pairs, so a vertex's type counts), bundle and host."""
    docs = []
    for inst in corpus(seed):
        relabeling = None
        if inst.relabeling is not None:
            relabeling = [sorted([repr(a), repr(b)] for a, b in m.items()) for m in inst.relabeling]
        docs.append({"name": inst.name, "symmetric": inst.symmetric, "relabeling": relabeling,
                     "bundle": bundle_to_dict(inst.bundle), "host": format_edge_list(inst.bundle.host)})
    return json.dumps(docs, sort_keys=True)


# sha256 of corpus_inputs(seed).  It pins what the corpus builds, including the
# relabelings and the bundle fields that no build reads; a change that moves a
# digest changes the corpus and must say why.
CORPUS_INPUT_DIGESTS = {
    DEFAULT_SEED: "6de29b43799efb294fadd0cb01f671583a35dccd68efc2da03ab890eca8cf83d",
    101: "1732283a4188691a5de7b66b6bb153808c17c808cd0bd483deac1393c39c2003",
    7: "49b15f9cbc05172cf107cbdf5509cc857a888cdfcfab358687ca9af99c9ee950",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_INPUT_DIGESTS))
def test_corpus_inputs_match_the_committed_digest(seed):
    assert hashlib.sha256(corpus_inputs(seed).encode()).hexdigest() == CORPUS_INPUT_DIGESTS[seed]
