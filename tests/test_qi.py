"""Quasi-isometry certificates with exact rational constants."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsegraph import qi
from coarsegraph.construction import InstanceBundle, build_H
from coarsegraph.errors import CompositionError, StructuralError, UnknownVertexError
from coarsegraph.generators import cycle_graph, grid_graph, path_graph
from coarsegraph.graph import Graph, components, is_connected
from coarsegraph.qi import (
    ConnectivityError,
    QuasiIsometryCertificate,
    certificate_to_dict,
    make_certificate,
    parse_fraction,
    qi_compose,
    qi_verify,
    tightest_certificate,
    tightest_constants,
)
from coarsegraph.treedecomp import TreeDecomposition

import helpers
import oracles


def floor_map(n: int) -> dict:
    return {i: i // 2 for i in range(n)}


def test_a_map_must_be_total_into_the_target():
    g = path_graph(3)
    for check in (lambda phi: tightest_constants(g, g, phi), lambda phi: make_certificate(g, g, phi, 1, 0)):
        with pytest.raises(StructuralError, match="^phi is not total: missing 2$"):
            check({0: 0, 1: 1})
        with pytest.raises(UnknownVertexError, match="7"):
            check({0: 0, 1: 1, 2: 7})


def test_identity_is_a_1_0_quasi_isometry():
    g = cycle_graph(6)
    ident = {v: v for v in g.vertices}
    assert tightest_constants(g, g, ident) == (Fraction(1), Fraction(0))
    cert = make_certificate(g, g, ident, 1, 0)
    assert cert.valid


def test_floor_map_tightest_constant_at_gamma_two():
    """Halving a 9-path onto a 5-path: the smallest valid c at gamma = 2 is 1/2,
    realised by any pair collapsed to a single image vertex."""
    src, tgt = path_graph(9), path_graph(5)
    phi = floor_map(9)
    assert tightest_constants(src, tgt, phi, fixed_gamma=2) == (Fraction(2), Fraction(1, 2))
    good = make_certificate(src, tgt, phi, 2, Fraction(1, 2))
    assert good.valid
    bad = make_certificate(src, tgt, phi, 2, Fraction(49, 100))
    assert not bad.valid
    ok, witness = qi_verify(bad)
    assert not ok and witness is not None
    u, v = witness
    assert phi[u] == phi[v]


def test_unfixed_gamma_minimises_to_one():
    src, tgt = path_graph(9), path_graph(5)
    assert tightest_constants(src, tgt, floor_map(9)) == (Fraction(1), Fraction(4))


def test_density_drives_the_constant():
    lone = Graph.build([], vertices=["o"])
    tgt = path_graph(9)
    assert tightest_constants(lone, tgt, {"o": 0}) == (Fraction(1), Fraction(8))


def test_disconnected_source_needs_per_component_mode():
    src = Graph.build([], vertices=[0, 1])
    tgt = path_graph(2)
    phi = {0: 0, 1: 1}
    with pytest.raises(ConnectivityError):
        tightest_constants(src, tgt, phi)
    assert tightest_constants(src, tgt, phi, per_component=True) == (Fraction(1), Fraction(0))


def test_finite_distance_to_infinite_image_gap_is_unfixable():
    src = path_graph(2)
    tgt = Graph.build([], vertices=["a", "b"])
    phi = {0: "a", 1: "b"}
    with pytest.raises(ConnectivityError):
        tightest_constants(src, tgt, phi)
    assert tightest_constants(src, tgt, phi, per_component=True) is None
    cert = make_certificate(src, tgt, phi, 1, 100, per_component=True)
    assert not cert.valid


def test_composition_multiplies_gamma_and_retightens_c():
    f = make_certificate(path_graph(9), path_graph(5), floor_map(9), 2, Fraction(1, 2))
    g = make_certificate(path_graph(5), path_graph(3), floor_map(5), 2, Fraction(1, 2))
    gf = qi_compose(f, g)
    assert gf.valid
    assert gf.gamma == Fraction(4)
    assert gf.c == Fraction(3, 4)
    assert gf.phi == {i: i // 4 for i in range(9)}


def test_composition_rejects_mismatched_or_invalid_inputs():
    f = make_certificate(path_graph(9), path_graph(5), floor_map(9), 2, Fraction(1, 2))
    with pytest.raises(CompositionError):
        qi_compose(f, f)
    bad = make_certificate(path_graph(5), path_graph(3), floor_map(5), 1, 0)
    assert not bad.valid
    with pytest.raises(CompositionError):
        qi_compose(f, bad)


def test_constant_bounds_enforced():
    """gamma < 1 and c < 0 are refused with the same texts at every entry point."""
    g = path_graph(2)
    phi = {0: 0, 1: 1}
    refused = (
        (lambda: tightest_constants(g, g, phi, Fraction(1, 2)), "gamma must be ≥ 1"),
        (lambda: tightest_constants(g, g, phi, "0"), "gamma must be ≥ 1"),
        (lambda: tightest_certificate(g, g, phi, 0.5), "gamma must be ≥ 1"),
        (lambda: make_certificate(g, g, phi, "1/2", 0), "gamma must be ≥ 1"),
        (lambda: make_certificate(g, g, phi, 1, "-1/3"), "c must be ≥ 0"),
        (lambda: make_certificate(g, g, phi, 1, -1), "c must be ≥ 0"),
    )
    for call, text in refused:
        with pytest.raises(StructuralError, match=f"^{text}$"):
            call()
    assert tightest_constants(g, g, phi, "3/2") == (Fraction(3, 2), Fraction(0))
    assert make_certificate(g, g, phi, 1.5, "1/2").valid


@pytest.mark.parametrize("value", ["x", None, "1/0", float("inf"), float("nan"), "1.5.2", [1], True, False])
def test_a_constant_that_is_not_a_rational_is_refused(value):
    """Every γ and c goes through parse_fraction: what is not a finite
    rational raises StructuralError, at each entry point, not the TypeError,
    ValueError, ZeroDivisionError or OverflowError of Fraction."""
    g = path_graph(2)
    phi = {0: 0, 1: 1}
    cert = QuasiIsometryCertificate(g, g, phi, 1, 0, True, None)
    calls = (
        lambda: tightest_constants(g, g, phi, value),
        lambda: tightest_certificate(g, g, phi, value),
        lambda: make_certificate(g, g, phi, value, 0),
        lambda: make_certificate(g, g, phi, 1, value),
        lambda: QuasiIsometryCertificate(g, g, phi, value, 0, True, None),
        lambda: QuasiIsometryCertificate(g, g, phi, 1, value, True, None),
        lambda: cert._replace(gamma=value),
        lambda: cert._replace(c=value),
        lambda: parse_fraction(value),
    )
    for call in calls:
        with pytest.raises(StructuralError) as exc:
            call()
        assert str(exc.value) == f"not a rational number: {value!r}"


def test_certificate_round_trip():
    cert = make_certificate(path_graph(9), path_graph(5), floor_map(9), 2, Fraction(1, 2))
    data = certificate_to_dict(cert)
    assert data["gamma"] == "2"
    assert data["c"] == "1/2"
    assert data["valid"] is True
    assert data["phi"]["8"] == "4"
    assert parse_fraction(data["c"]) == Fraction(1, 2)
    with pytest.raises(StructuralError):
        parse_fraction("not-a-number")


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(2, 6), st.integers(0, 10_000))
def test_tightest_constant_is_minimal(n_src, n_tgt, seed):
    """tightest_constants at gamma = 1 certifies, and any smaller c fails."""
    rng = random.Random(seed)
    src_vs, src_es = oracles.random_connected_graph(rng, n_src, 0.5)
    tgt_vs, tgt_es = oracles.random_connected_graph(rng, n_tgt, 0.5)
    src = Graph.build(src_es, vertices=src_vs)
    tgt = Graph.build(tgt_es, vertices=tgt_vs)
    tgt_vertices = sorted(tgt.vertices)
    phi = {v: rng.choice(tgt_vertices) for v in src.vertices}
    gamma, c = tightest_constants(src, tgt, phi, fixed_gamma=1)
    assert make_certificate(src, tgt, phi, gamma, c).valid
    if c > 0:
        assert not make_certificate(src, tgt, phi, gamma, c - Fraction(1, 2)).valid


def _connectivity_message(error) -> str:
    kind, *vs = error
    if kind == "source":
        return f"{vs[0]!r} and {vs[1]!r} are in different components of the source"
    if kind == "target":
        return f"images of {vs[0]!r} and {vs[1]!r} are in different components of the target"
    return f"target vertex {vs[0]!r} cannot reach the image"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(1, 6),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(0, 10_000),
    st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2)]),
    st.booleans(),
    st.booleans(),
)
def test_qi_matches_the_all_pairs_oracle(n_src, n_tgt, p, seed, gamma, c, per_component, isolated):
    """tightest_constants, the certificate's witness and qi_verify agree with
    all-pairs BFS and Fraction arithmetic, on disconnected graphs too."""
    rng = random.Random(seed)
    src_vs, src_es = oracles.random_graph(rng, n_src, p)
    tgt_vs, tgt_es = oracles.random_graph(rng, n_tgt, p)
    if isolated:
        src_vs.append(n_src)
    phi = {v: rng.choice(tgt_vs) for v in src_vs}
    src = Graph.build(src_es, vertices=src_vs)
    tgt = Graph.build(tgt_es, vertices=tgt_vs)
    expected = oracles.qi_oracle(oracles.adjacency(src_es, src_vs), oracles.adjacency(tgt_es, tgt_vs),
                                 phi, gamma, c, per_component)
    if "error" in expected:
        for call in (
            lambda: tightest_constants(src, tgt, phi, fixed_gamma=gamma),
            lambda: make_certificate(src, tgt, phi, gamma, c),
        ):
            with pytest.raises(ConnectivityError) as exc:
                call()
            assert str(exc.value) == _connectivity_message(expected["error"])
        return
    tight = tightest_constants(src, tgt, phi, fixed_gamma=gamma, per_component=per_component)
    assert tight == (None if expected["c"] is None else (gamma, expected["c"]))
    cert = make_certificate(src, tgt, phi, gamma, c, per_component=per_component)
    violation = expected["violation"]
    assert cert.valid == (violation is None)
    assert cert.worst_witness == (expected["worst"] if violation is None else violation)
    assert qi_verify(cert, per_component=per_component) == (violation is None, violation)


def _two_scan_tightest(src, tgt, phi, gamma, per_component=False):
    """The tightest certificate the way it was made before one scan sufficed."""
    tight = tightest_constants(src, tgt, phi, fixed_gamma=gamma, per_component=per_component)
    return None if tight is None else make_certificate(src, tgt, phi, *tight, per_component=per_component)


def _two_scan_compose(f, g):
    phi = {v: g.phi[f.phi[v]] for v in f.source.vertices}
    gamma, c = f.gamma * g.gamma, g.gamma * f.c + 2 * g.c
    tight = tightest_constants(f.source, g.target, phi, fixed_gamma=gamma)
    return make_certificate(f.source, g.target, phi, gamma, min(c, tight[1]))


def _random_map(rng, n_src, n_tgt, p):
    src_vs, src_es = oracles.random_connected_graph(rng, n_src, p)
    tgt_vs, tgt_es = oracles.random_connected_graph(rng, n_tgt, p)
    phi = {v: rng.choice(tgt_vs) for v in src_vs}
    return Graph.build(src_es, vertices=src_vs), Graph.build(tgt_es, vertices=tgt_vs), phi


@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(2), Fraction(3, 2)])
def test_one_scan_certificates_match_the_two_scan_path(gamma):
    rng = random.Random(49)
    for _ in range(40):
        a, b, f_phi = _random_map(rng, rng.randint(1, 8), rng.randint(1, 6), 0.4)
        cert = tightest_certificate(a, b, f_phi, gamma)
        assert cert == _two_scan_tightest(a, b, f_phi, gamma)
        assert certificate_to_dict(cert) == certificate_to_dict(_two_scan_tightest(a, b, f_phi, gamma))
        c_vs, c_es = oracles.random_connected_graph(rng, rng.randint(1, 5), 0.4)
        c = Graph.build(c_es, vertices=c_vs)
        g = tightest_certificate(b, c, {v: rng.choice(c_vs) for v in b.vertices}, rng.choice([1, 2]))
        # A larger valid c, and a c = 0 claimed valid without a check.
        for f in (cert, make_certificate(a, b, f_phi, gamma, cert.c + 3), cert._replace(c=Fraction(0))):
            gf = qi_compose(f, g)
            assert gf == _two_scan_compose(f, g)
            assert certificate_to_dict(gf) == certificate_to_dict(_two_scan_compose(f, g))


def test_tightest_certificate_is_none_exactly_when_no_constant_exists():
    src = Graph.build([(0, 1)], vertices=[0, 1, 2])
    tgt = Graph.build([], vertices=["a", "b"])
    assert tightest_certificate(src, tgt, {0: "a", 1: "b", 2: "a"}, per_component=True) is None
    cert = tightest_certificate(src, tgt, {0: "a", 1: "a", 2: "b"}, per_component=True)
    assert cert == _two_scan_tightest(src, tgt, {0: "a", 1: "a", 2: "b"}, 1, per_component=True)


def _larger_map(rng, kind, n, split):
    """A source of 20 to 90 vertices, so bit masks pass one machine word, a
    target, and a map that need not be injective.  Bit 0 of ``split``
    disconnects the source, bit 1 the target."""
    def side(n, apart):
        if apart:
            return oracles.random_graph(rng, n, 1.5 / n)
        return oracles.random_connected_graph(rng, n, 2.5 / n)

    if kind == "random":
        (src_vs, src_es), (tgt_vs, tgt_es) = side(n, split & 1), side(rng.randint(2, n), split & 2)
        return src_vs, src_es, tgt_vs, tgt_es, {v: rng.choice(tgt_vs) for v in src_vs}
    # A grid folded onto a coarser grid, with or without a few vertices sent anywhere.
    w, m, noise = rng.randint(4, 9), rng.randint(1, 3), rng.choice([0, 0.05])
    h = max(n // w, -(-20 // w))
    src, tgt = grid_graph(w, h), grid_graph(-(-w // m), -(-h // m))
    src_vs = sorted(src.vertices) + ["isolated"] * (split & 1)
    tgt_vs = sorted(tgt.vertices) + ["isolated"] * (split & 2)
    phi = {v: rng.choice(tgt_vs) for v in src_vs}
    for v in sorted(src.vertices):
        x, y = map(int, v.split(","))
        if rng.random() >= noise:
            phi[v] = f"{x // m},{y // m}"
    return src_vs, sorted(src.edges), tgt_vs, sorted(tgt.edges), phi


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "grid"]),
    st.integers(20, 90),
    st.integers(0, 3),
    st.integers(0, 10_000),
    st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 2), None]),
    st.booleans(),
)
def test_qi_matches_the_all_pairs_oracle_past_one_word(kind, n, split, seed, gamma, c, per_component):
    """On sources past 64 vertices too: the tightest c, the worst witness,
    qi_verify's violation and the ConnectivityError text agree with all-pairs
    BFS and Fraction arithmetic.  c = None checks at the tightest c."""
    rng = random.Random(seed)
    src_vs, src_es, tgt_vs, tgt_es, phi = _larger_map(rng, kind, n, split)
    src = Graph.build(src_es, vertices=src_vs)
    tgt = Graph.build(tgt_es, vertices=tgt_vs)
    expected = oracles.qi_oracle(oracles.adjacency(src_es, src_vs), oracles.adjacency(tgt_es, tgt_vs),
                                 phi, gamma, c or 0, per_component)
    if "error" in expected:
        for call in (
            lambda: tightest_constants(src, tgt, phi, fixed_gamma=gamma),
            lambda: make_certificate(src, tgt, phi, gamma, c or 0),
        ):
            with pytest.raises(ConnectivityError) as exc:
                call()
            assert str(exc.value) == _connectivity_message(expected["error"])
        return
    tight = tightest_constants(src, tgt, phi, fixed_gamma=gamma, per_component=per_component)
    assert tight == (None if expected["c"] is None else (gamma, expected["c"]))
    if c is None:
        if tight is None:
            return
        c, violation = tight[1], None
    else:
        violation = expected["violation"]
    cert = make_certificate(src, tgt, phi, gamma, c, per_component=per_component)
    assert cert.valid == (violation is None)
    assert cert.worst_witness == (expected["worst"] if violation is None else violation)
    assert qi_verify(cert, per_component=per_component) == (violation is None, violation)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0.1, 0.25, 0.5]), st.integers(0, 10_000))
def test_components_read_alike_before_and_after_a_qi_scan(n, p, seed):
    """The scan fills the component masks kept on each graph; the
    components and connectivity read from them equal the oracle's whether the
    scan ran first or not, on graphs with several components and isolated
    vertices."""
    vs, es = oracles.random_graph(random.Random(seed), n, p)
    comps = sorted(oracles.components_without(oracles.adjacency(es, vs), ()), key=min)
    fresh, scanned = Graph.build(es, vertices=vs), Graph.build(es, vertices=vs)
    tightest_constants(scanned, scanned, {v: v for v in vs}, fixed_gamma=1, per_component=True)
    for g in (fresh, scanned):
        assert components(g) == comps
        assert is_connected(g) == (len(comps) == 1)
    tightest_constants(fresh, fresh, {v: v for v in vs}, fixed_gamma=1, per_component=True)
    assert components(fresh) == comps


def _one_part_grid(n: int):
    host = grid_graph(n, n)
    td = TreeDecomposition(Graph.build((), ["t"]), {"t": host.vertices})
    bundle = InstanceBundle(host, td, k=2, infinite_markers=frozenset(v for v in host.vertices if host.degree(v) < 4))
    return host, build_H(bundle)


def test_tightest_constants_memory_stays_below_the_per_row_scan():
    """The tracemalloc peak of tightest_constants on the 25×25 one-part grid's
    output stays below 3.24 MB, what the per-source BFS scan with its cache of
    target rows peaked at (Python 3.11.7).  A table of every ball level at full
    width would not: it holds about 48 levels of 625 masks on each side.  The
    tightest certificate is held to the same bound."""
    host, out = _one_part_grid(25)
    for call in (tightest_constants, tightest_certificate):
        assert call(host, out.H, out.phi, 1, per_component=True) is not None
        tracemalloc.start()
        try:
            call(host, out.H, out.phi, 1, per_component=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.24e6


def test_an_isomorphism_is_certified_without_the_level_scan(monkeypatch):
    """On the one-part grid, build_H maps the host onto a copy of itself:
    tightest_constants, qi_verify and make_certificate then read no ball
    level, and c = 0: the witness is found by the common rule, from two BFS
    rows.  Every constant still comes from the level scan once one H edge is
    dropped."""
    host, out = _one_part_grid(9)
    calls = helpers.calls(monkeypatch, "graph.Graph.ball_levels")
    assert tightest_constants(host, out.H, out.phi, fixed_gamma=1) == (Fraction(1), Fraction(0))
    claimed = QuasiIsometryCertificate(host, out.H, out.phi, 1, 0, True, None)
    assert qi_verify(claimed) == (True, None) and calls == []
    cert = make_certificate(host, out.H, out.phi, 1, 0)
    assert cert.valid and cert.worst_witness == ("0,0", "0,1") and calls == []
    cut = Graph.build(out.H.sorted_edges()[1:], out.H.vertices)
    assert tightest_constants(host, cut, out.phi, fixed_gamma=1) == (Fraction(1), Fraction(2))
    assert len(calls) == 2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 9),
    st.sampled_from([0.15, 0.35, 0.6, 0.9]),
    st.integers(0, 10_000),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
    st.booleans(),
    st.booleans(),
)
@example(n=6, p=0.6, seed=0, gamma=Fraction(1), per_component=False, identity=True)
@example(n=4, p=0.15, seed=2, gamma=Fraction(1), per_component=True, identity=False)  # two components, each an edge
def test_an_isomorphisms_worst_entry_is_the_level_scans(n, p, seed, gamma, per_component, identity):
    """φ is a renaming σ of a random graph G onto σG: a random one, or the
    identity, which ``_is_isomorphism`` decides by comparing neighbour lists.
    It is consulted only on a connected G, where the tightest certificate,
    whose row maxima the isomorphism branch sets with no level scan, equals
    the one the level scan gives once that branch is refused
    (``_is_isomorphism`` patched to False).  A disconnected G takes the level
    scan either way; without per-component mode both raise the same error."""
    rng = random.Random(seed)
    vs, es = oracles.random_graph(rng, n, p)
    sigma = dict(zip(vs, vs if identity else rng.sample(range(n), n)))
    src, tgt = Graph.build(es, vertices=vs), Graph.build([(sigma[u], sigma[v]) for u, v in es], vertices=vs)

    def tightest():
        try:
            return tightest_certificate(src, tgt, sigma, gamma, per_component=per_component)
        except ConnectivityError as exc:
            return str(exc)

    verdicts, real = [], qi._is_isomorphism

    def recorded(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    with mock.patch.object(qi, "_is_isomorphism", recorded):
        fast = tightest()
    with mock.patch.object(qi, "_is_isomorphism", lambda *args: False):
        scanned = tightest()
    assert fast == scanned and verdicts == ([True] if len(src.component_masks) == 1 else [])


def _near_miss(rng, kind, h_vs, h_es, phi):
    """Spoil the isomorphism phi onto (h_vs, h_es) in one way, where the graphs allow it."""
    pairs = [(u, v) for i, u in enumerate(h_vs) for v in h_vs[i + 1:]]
    if kind == "drop" and h_es:
        h_es.remove(rng.choice(h_es))
    elif kind == "add" and len(h_es) < len(pairs):
        h_es.append(rng.choice([e for e in pairs if e not in h_es and e[::-1] not in h_es]))
    elif kind == "merge" and len(phi) >= 2:
        u, v = rng.sample(sorted(phi), 2)
        phi[u] = phi[v]
    elif kind == "isolated":
        h_vs.append(-1)
    elif kind == "swap":  # ab, cd become ac, bd: every degree stays
        edges = {frozenset(e) for e in h_es}
        swaps = [(e, f) for e in h_es for f in h_es
                 if len({*e, *f}) == 4 and not {frozenset((e[0], f[0])), frozenset((e[1], f[1]))} & edges]
        if swaps:
            (a, b), (c, d) = rng.choice(swaps)
            h_es[:] = [e for e in h_es if e not in ((a, b), (c, d))] + [(a, c), (b, d)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9), st.sampled_from([0.15, 0.35, 0.6, 0.9]), st.integers(0, 10_000),
       st.sampled_from(["iso", "drop", "add", "swap", "isolated"]))
def test_the_identitys_isomorphism_test_is_the_general_rule(n, p, seed, kind):
    """On the identity of ids, ``_is_isomorphism`` compares the neighbour
    lists whole.  Its verdict is the general rule's (as many target vertices,
    distinct images, each neighbour list mapped and sorted its image's) on a
    random graph onto itself, or spoilt in one way: an edge dropped or added,
    two edges swapped with every degree kept, or one more isolated vertex.
    Both say yes exactly when the two graphs are equal."""
    rng = random.Random(seed)
    vs, es = oracles.random_graph(rng, n, p)
    h_vs, h_es = list(vs), list(es)
    _near_miss(rng, kind, h_vs, h_es, dict(zip(vs, vs)))
    src, tgt = Graph.build(es, vertices=vs), Graph.build(h_es, vertices=h_vs)
    img = list(range(n))
    general = len(tgt.order) == n and len(set(img)) == n and all(
        sorted(map(img.__getitem__, js)) == tgt.nbrs[y] for js, y in zip(src.nbrs, img))
    assert qi._is_isomorphism(src, tgt, img) is general is (src == tgt)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 9),
    st.sampled_from([0.15, 0.35, 0.6, 0.9]),
    st.integers(0, 10_000),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
    st.sampled_from(["iso", "drop", "add", "swap", "merge", "isolated"]),
    st.booleans(),
)
@example(4, 0.15, 1, Fraction(1), "iso", False)  # a disconnected host: "0 and 2 are in different components …"
def test_isomorphisms_and_near_misses_match_the_oracle(n, p, seed, gamma, kind, per_component):
    """φ is a random renaming σ of a random graph G onto σG, as it stands or
    spoilt in one way: one H edge dropped or added, two H edges swapped with
    every degree kept, two images merged, or one extra isolated H vertex.
    The tightest constants, the tightest certificate and its witness, the
    certificates at c = 0, 1/2 and 1 and qi_verify all agree with all-pairs BFS,
    and so does the ConnectivityError text; so the linear-time isomorphism
    test accepts no map that is not one, and a disconnected source, which it
    leaves to the level scan, meets the connectivity checks."""
    rng = random.Random(seed)
    vs, es = oracles.random_graph(rng, n, p)
    sigma = dict(zip(vs, rng.sample(range(n), n)))
    h_vs, h_es, phi = sorted(sigma.values()), [(sigma[u], sigma[v]) for u, v in es], dict(sigma)
    _near_miss(rng, kind, h_vs, h_es, phi)
    src, tgt = Graph.build(es, vertices=vs), Graph.build(h_es, vertices=h_vs)
    src_adj, tgt_adj = oracles.adjacency(es, vs), oracles.adjacency(h_es, h_vs)
    expected = oracles.qi_oracle(src_adj, tgt_adj, phi, gamma, 0, per_component)
    if "error" in expected:
        for call in (lambda: tightest_constants(src, tgt, phi, fixed_gamma=gamma),
                     lambda: tightest_certificate(src, tgt, phi, gamma),
                     lambda: make_certificate(src, tgt, phi, gamma, 0)):
            with pytest.raises(ConnectivityError) as exc:
                call()
            assert str(exc.value) == _connectivity_message(expected["error"])
        return
    c = expected["c"]
    assert tightest_constants(src, tgt, phi, fixed_gamma=gamma, per_component=per_component) == (
        None if c is None else (gamma, c))
    tight = tightest_certificate(src, tgt, phi, gamma, per_component=per_component)
    assert (tight is None) == (c is None)
    if tight is not None:
        assert (tight.c, tight.valid, tight.worst_witness) == (c, True, expected["worst"])
        assert qi_verify(tight, per_component=per_component) == (True, None)
    for c in (Fraction(0), Fraction(1, 2), Fraction(1)):
        expected = oracles.qi_oracle(src_adj, tgt_adj, phi, gamma, c, per_component)
        violation = expected["violation"]
        cert = make_certificate(src, tgt, phi, gamma, c, per_component=per_component)
        assert cert.valid == (violation is None)
        assert cert.worst_witness == (expected["worst"] if violation is None else violation)
        assert qi_verify(cert, per_component=per_component) == (violation is None, violation)


@pytest.mark.parametrize("image", [True, 1.0])
def test_a_map_image_must_be_the_targets_own_vertex(image):
    """True and 1.0 equal the target vertex 1 but are not it: the map is refused."""
    g = path_graph(3)
    with pytest.raises(UnknownVertexError) as exc:
        make_certificate(g, g, {0: 0, 1: image, 2: 2}, 1, 0)
    assert exc.value.args == (repr(image),)


def test_tightest_constants_finds_no_witness(monkeypatch):
    """tightest_constants reads one BFS row, from the image into the target;
    the two rows that locate the worst pair run only for a certificate, which
    returns that pair.  Both give the same constants."""
    host, target, phi = path_graph(9), path_graph(5), floor_map(9)
    rows = helpers.calls(monkeypatch, "graph.Graph.distance_row")
    constants = tightest_constants(host, target, phi, fixed_gamma=1)
    assert len(rows) == 1
    cert = tightest_certificate(host, target, phi, 1)
    assert len(rows) == 1 + 3 and cert.worst_witness is not None
    assert constants == (cert.gamma, cert.c)


def test_certificate_is_checked_on_every_construction():
    """gamma and c become Fractions, and gamma < 1 or c < 0 is refused, whether the
    certificate is built by its fields, ``_make`` or ``_replace``."""
    g = path_graph(2)
    cert = QuasiIsometryCertificate(g, g, {0: 0, 1: 1}, 1, 0, True, None)
    assert type(cert.gamma) is type(cert.c) is type(cert._replace(c=2).c) is Fraction
    refused = (
        (lambda: QuasiIsometryCertificate(g, g, {}, gamma=2, c=-1, valid=True, worst_witness=None), "c must be ≥ 0"),
        (lambda: QuasiIsometryCertificate._make((g, g, {}, 0, 0, True, None)), "gamma must be ≥ 1"),
        (lambda: cert._replace(gamma=Fraction(1, 2)), "gamma must be ≥ 1"),
        (lambda: cert._replace(c=-1), "c must be ≥ 0"),
    )
    for make, text in refused:
        with pytest.raises(StructuralError, match=f"^{text}$"):
            make()
    with pytest.raises(AttributeError):
        cert.c = Fraction(-1)


def _per_vertex_ids(source, target, phi) -> list:
    """The image ids the way ``_check_map`` reads them when its identity test fails: one lookup per vertex."""
    img = []
    for v in source.order:
        if v not in phi:
            raise StructuralError(f"phi is not total: missing {v!r}")
        img.append(target.own_id(phi[v]))
        if img[-1] is None:
            raise UnknownVertexError(repr(phi[v]))
    return img


def _outcome(call):
    try:
        return call()
    except (StructuralError, UnknownVertexError, ConnectivityError) as exc:
        return type(exc), str(exc)


def _spoilt_map(rng, kind, src, tgt) -> dict:
    """A map of ``src`` into ``tgt``: id i to id i where the target is large enough, else at random, then
    spoilt by ``kind``: an image rebuilt as an equal tuple, True or 1.0 in place of a 1, a missing vertex,
    a foreign one, or images drawn at random."""
    n, order = len(src.order), tgt.order
    phi = {v: order[i] if len(order) >= n else rng.choice(order) for i, v in enumerate(src.order)}
    if not phi:
        return phi
    v = rng.choice(src.order)
    if kind == "random":
        phi = {u: rng.choice(order) for u in src.order}
    elif kind == "rebuilt" and isinstance(phi[v], tuple):
        phi[v] = tuple(list(phi[v]))  # equal, not the same object
    elif kind in ("true", "float"):
        one = True if kind == "true" else 1.0
        phi[v] = ("t", one) if isinstance(order[0], tuple) else one
    elif kind == "missing":
        del phi[v]
    elif kind == "foreign":
        phi[v] = ("f", 0) if isinstance(order[0], int) else -1
    return phi


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 9),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.booleans(),
    st.sampled_from(["own", "rebuilt", "true", "float", "missing", "foreign", "random"]),
    st.booleans(),
    st.integers(0, 10_000),
)
@example(n_src=3, n_tgt=3, p=0.8, tuples=False, kind="true", per_component=False, seed=0)
def test_the_identity_test_agrees_with_the_per_vertex_path(n_src, n_tgt, p, tuples, kind, per_component, seed):
    """``_check_map`` returns the per-vertex loop's ids, or raises its error
    class and message, on maps whose images are the target's own objects,
    equal but rebuilt tuples, True or 1.0 for a 1, or miss or leave the
    target; so True for 1 is refused, not taken for the identity.  The
    tightest constants, the tightest certificate and the certificates at
    c = 0 and 1 then agree with all-pairs BFS, witnesses included."""
    rng = random.Random(seed)
    src_vs, src_es = oracles.random_graph(rng, n_src, p)
    tgt_vs, tgt_es = oracles.random_graph(rng, n_tgt, p)
    if tuples:
        name = {x: ("t", x) for x in tgt_vs}
        tgt_vs, tgt_es = [name[x] for x in tgt_vs], [(name[x], name[y]) for x, y in tgt_es]
    src, tgt = Graph.build(src_es, vertices=src_vs), Graph.build(tgt_es, vertices=tgt_vs)
    phi = _spoilt_map(rng, kind, src, tgt)
    ids = _outcome(lambda: qi._check_map(src, tgt, phi))
    assert ids == _outcome(lambda: _per_vertex_ids(src, tgt, phi))
    for gamma in (Fraction(1), Fraction(3, 2), Fraction(2)):
        if not isinstance(ids, list):
            for call in (lambda: tightest_constants(src, tgt, phi, gamma, per_component),
                         lambda: tightest_certificate(src, tgt, phi, gamma, per_component),
                         lambda: make_certificate(src, tgt, phi, gamma, 0, per_component)):
                assert _outcome(call) == ids
            continue
        src_adj, tgt_adj = oracles.adjacency(src_es, src_vs), oracles.adjacency(tgt_es, tgt_vs)
        expected = oracles.qi_oracle(src_adj, tgt_adj, phi, gamma, 0, per_component)
        if "error" in expected:
            error = (ConnectivityError, _connectivity_message(expected["error"]))
            assert _outcome(lambda: tightest_constants(src, tgt, phi, gamma, per_component)) == error
            assert _outcome(lambda: tightest_certificate(src, tgt, phi, gamma, per_component)) == error
            continue
        c = expected["c"]
        assert tightest_constants(src, tgt, phi, gamma, per_component) == (None if c is None else (gamma, c))
        tight = tightest_certificate(src, tgt, phi, gamma, per_component)
        assert (None if tight is None else (tight.c, tight.worst_witness)) == (
            None if c is None else (c, expected["worst"]))
        for c in (Fraction(0), Fraction(1)):
            expected = oracles.qi_oracle(src_adj, tgt_adj, phi, gamma, c, per_component)
            cert = make_certificate(src, tgt, phi, gamma, c, per_component)
            violation = expected["violation"]
            assert (cert.valid, cert.worst_witness) == (violation is None,
                                                        expected["worst"] if violation is None else violation)
