"""End-to-end command-line runs against temporary files."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, assume, event, given, settings, strategies as st

import coarsegraph
from coarsegraph.cli import main
from coarsegraph.construction import build_H, bundle_to_dict
from coarsegraph.corpus import DEFAULT_SEED, corpus
from coarsegraph.errors import GraphToolError
from coarsegraph.generators import CAYLEY_PRESETS, GeneratorSpec, cycle_graph, generate, grid_graph, path_graph
from coarsegraph.graph import MAX_VERTEX_DEPTH, format_edge_list, parse_edge_list, parse_vertex_token, vertex_token
from coarsegraph.treedecomp import td_to_dict, TreeDecomposition
from coarsegraph.graph import Graph
from coarsegraph.qi import certificate_to_dict, make_certificate, tightest_constants

import oracles
from helpers import JSON_EDIT_VALUES, edit_json, int_digit_limit, json_slots


def write(tmp_path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def write_json(tmp_path, name: str, data) -> str:
    return write(tmp_path, name, json.dumps(data))


def two_k4_files(tmp_path):
    def ce(vs):
        return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]

    host = Graph.build(ce([0, 1, 2, 3]) + ce([2, 3, 4, 5]))
    td = TreeDecomposition(
        Graph.build([("a", "b")]),
        {"a": frozenset({0, 1, 2, 3}), "b": frozenset({2, 3, 4, 5})},
    )
    gpath = write(tmp_path, "host.txt", format_edge_list(host))
    tdpath = write_json(tmp_path, "td.json", td_to_dict(td))
    return gpath, tdpath


def test_gen_round_trips_through_the_parser(tmp_path, capsys):
    out = str(tmp_path / "cycle.txt")
    assert main(["gen", "--family", "cycle", "--n", "9", "--out", out]) == 0
    g = parse_edge_list(Path(out).read_text())
    assert g == cycle_graph(9)


def test_gen_emits_markers_as_comments(tmp_path):
    out = str(tmp_path / "ball.txt")
    assert main([
        "gen", "--family", "cayley-ball",
        "--preset", "integer-lattice-Z2", "--radius", "2", "--out", out,
    ]) == 0
    text = Path(out).read_text()
    markers = [line.split(":", 1)[1].strip() for line in text.splitlines() if line.startswith("# marker:")]
    assert len(markers) == 8 and "2,0" in markers
    g = parse_edge_list(text)
    assert len(g.vertices) == 13


GEN_SPECS = [
    GeneratorSpec("path", {"n": 4}),
    GeneratorSpec("cycle", {"n": 5}),
    GeneratorSpec("grid", {"rows": 2, "cols": 3}),
    GeneratorSpec("complete", {"n": 4}),
    GeneratorSpec("complete-bipartite", {"a": 2, "b": 3}),
    GeneratorSpec("tree", {"branching": 3, "depth": 2}),
    *(GeneratorSpec("cayley-ball", {"preset": p, "radius": 2}) for p in CAYLEY_PRESETS),
]


@pytest.mark.parametrize("spec", GEN_SPECS, ids=lambda s: "-".join(map(str, [s.family, *s.params.values()])))
def test_gen_output_reads_back_as_the_generated_graph(spec, tmp_path):
    out = str(tmp_path / "g.txt")
    flags = [x for key, value in spec.params.items() for x in (f"--{key}", str(value))]
    assert main(["gen", "--family", spec.family, *flags, "--out", out]) == 0
    text = Path(out).read_text()
    made = generate(spec)
    assert parse_edge_list(text) == made.graph
    markers = {parse_vertex_token(line.split(":", 1)[1].strip()) for line in text.splitlines()
               if line.startswith("# marker:")}
    assert markers == made.markers


# Every family at three or more sizes, and each Cayley preset at radii 0-6.
GEN_DIGEST_SPECS = [
    *(GeneratorSpec("path", {"n": n}) for n in (1, 4, 9)),
    *(GeneratorSpec("cycle", {"n": n}) for n in (3, 5, 12)),
    *(GeneratorSpec("grid", {"rows": r, "cols": c}) for r, c in ((1, 1), (2, 3), (5, 4), (11, 11))),
    *(GeneratorSpec("complete", {"n": n}) for n in (1, 4, 7)),
    *(GeneratorSpec("complete-bipartite", {"a": a, "b": b}) for a, b in ((1, 1), (2, 3), (4, 12))),
    *(GeneratorSpec("tree", {"branching": b, "depth": d}) for b, d in ((2, 0), (3, 2), (2, 5), (11, 1))),
    *(GeneratorSpec("cayley-ball", {"preset": p, "radius": r}) for p in CAYLEY_PRESETS for r in range(7)),
]
# sha256 of the texts `coarsegraph gen` writes for GEN_DIGEST_SPECS, each after a line naming its flags.
# A change that moves it changes what `gen` writes and must say why.
GEN_DIGEST = "bf4c4758d546ee5a868ad851a5f9e1d98761e96c973f42de9dc64c272352c2fc"


def test_gen_output_matches_the_committed_digest(tmp_path):
    out, texts = str(tmp_path / "g.txt"), []
    for spec in GEN_DIGEST_SPECS:
        flags = ["--family", spec.family, *(x for key, value in spec.params.items() for x in (f"--{key}", str(value)))]
        assert main(["gen", *flags, "--out", out]) == 0
        texts.append(" ".join(flags) + "\n" + Path(out).read_text())
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == GEN_DIGEST


def test_gen_dot_output(tmp_path):
    out = str(tmp_path / "p.dot")
    assert main(["gen", "--family", "path", "--n", "3", "--dot", "--out", out]) == 0
    text = Path(out).read_text()
    assert text.startswith("graph") and "--" in text


def test_validate_td_exit_codes(tmp_path, capsys):
    gpath, tdpath = two_k4_files(tmp_path)
    assert main(["validate-td", "--graph", gpath, "--td", tdpath]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True

    bad = TreeDecomposition(
        Graph.build([("a", "b")]),
        {"a": frozenset({0, 1, 2, 3}), "b": frozenset({3, 4, 5})},  # edge 2-4 uncovered
    )
    badpath = write_json(tmp_path, "bad-td.json", td_to_dict(bad))
    assert main(["validate-td", "--graph", gpath, "--td", badpath]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["axiom"]


def test_torso_prints_completed_part(tmp_path, capsys):
    gpath, tdpath = two_k4_files(tmp_path)
    assert main(["torso", "--graph", gpath, "--td", tdpath, "--node", "a"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert len(g.vertices) == 4 and len(g.edges) == 6


def test_treewidth_command(tmp_path, capsys):
    gpath = write(tmp_path, "c8.txt", format_edge_list(cycle_graph(8)))
    assert main(["treewidth", "--graph", gpath]) == 0
    assert json.loads(capsys.readouterr().out)["treewidth"] == 2


def test_planarity_command_with_witness(tmp_path, capsys):
    k5 = Graph.build([(i, j) for i in range(5) for j in range(i + 1, 5)])
    gpath = write(tmp_path, "k5.txt", format_edge_list(k5))
    assert main(["planarity", "--graph", gpath]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["planar"] is False and data["witness"]["kind"] == "K5"
    assert main(["planarity", "--graph", gpath, "--witness-cap", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["planar"] is False and data["witness"] is None


def test_tight_seps_command(tmp_path, capsys):
    gpath = write(tmp_path, "c6.txt", format_edge_list(cycle_graph(6)))
    assert main(["tight-seps", "--graph", gpath, "--order", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 9 and len(data["separations"]) == 9


def test_orbits_command(tmp_path, capsys):
    gpath = write(tmp_path, "p4.txt", format_edge_list(path_graph(4)))
    assert main(["orbits", "--graph", gpath]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["automorphisms"] == 2 and data["orbit_count"] == 2
    assert main(["orbits", "--graph", gpath, "--edges"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["orbit_count"] == 2


def test_orbits_of_a_graph_too_deep_to_backtrack_exit_two(tmp_path, capsys):
    """The automorphism backtrack recurses once per vertex; the 33x33 grid
    under a cap that admits it is refused in one line, not a traceback."""
    from coarsegraph.generators import grid_graph
    gpath = write(tmp_path, "grid.txt", format_edge_list(grid_graph(33, 33)))
    assert main(["orbits", "--graph", gpath, "--cap", "5000"]) == 2
    assert capsys.readouterr().err == "error: graph has 1089 vertices, too many for the automorphism backtrack\n"


def _cycle(n, first=0):
    return [(first + i, first + (i + 1) % n) for i in range(n)]


# The toolbox benchmark's orbit cases: cycles, paths, prisms, wheels,
# complete (bipartite) graphs and the Petersen graph.
ORBIT_CASES = (
    [_cycle(7), _cycle(12), [(i, i + 1) for i in range(7)], [(i, i + 1) for i in range(10)]]
    + [_cycle(n) + _cycle(n, n) + [(i, n + i) for i in range(n)] for n in (3, 4, 5, 6)]
    + [_cycle(n) + [(n, i) for i in range(n)] for n in (5, 8)]
    + [[(i, a + j) for i in range(a) for j in range(b)] for a, b in ((2, 4), (3, 3), (3, 4))]
    + [[(i, j) for i in range(5) for j in range(i + 1, 5)], _cycle(5) + [(i, i + 5) for i in range(5)]
       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]]
)


def test_orbits_command_never_lists_the_group(tmp_path, capsys, monkeypatch):
    """The orbits come from the generating set and the group order from its
    stabiliser chain: the JSON is that of listing the group (pinned, and
    computed by the listing on the benchmark's orbit cases), with
    ``automorphisms`` patched to raise; K1,9 and 12 isolated vertices finish."""
    from coarsegraph import symmetry
    expected = []
    for edges in ORBIT_CASES:
        g = Graph.build(edges)
        autos = symmetry.automorphisms(g)
        vertex_obs = [[vertex_token(v) for v in o] for o in symmetry.orbits(g.sorted_vertices(), autos)]
        edge_obs = [[[vertex_token(u), vertex_token(v)] for u, v in o] for o in symmetry.orbits(g.sorted_edges(), autos)]
        for obs in (vertex_obs, edge_obs):
            expected.append({"automorphisms": len(autos), "orbit_count": len(obs), "orbits": obs})

    def listing(*args, **kwargs):
        raise AssertionError("cli orbits listed the automorphism group")

    monkeypatch.setattr(symmetry, "automorphisms", listing)
    # A 4-cycle 1-a-(x|1)-2 with a pendant b at 1; the reflection swaps a and 2.
    gpath = write(tmp_path, "g.txt", "1 a\na (x|1)\n(x|1) 2\n2 1\n1 b\n")
    assert main(["orbits", "--graph", gpath]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "automorphisms": 2, "orbit_count": 4, "orbits": [["1"], ["2", "a"], ["b"], ["(x|1)"]]}
    assert main(["orbits", "--graph", gpath, "--edges"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "automorphisms": 2, "orbit_count": 3,
        "orbits": [[["1", "2"], ["1", "a"]], [["1", "b"]], [["2", "(x|1)"], ["a", "(x|1)"]]]}
    got = []
    for edges in ORBIT_CASES:
        gpath = write(tmp_path, "case.txt", format_edge_list(Graph.build(edges)))
        for flags in ([], ["--edges"]):
            assert main(["orbits", "--graph", gpath, *flags]) == 0
            got.append(json.loads(capsys.readouterr().out))
    assert got == expected
    star = write(tmp_path, "k19.txt", format_edge_list(Graph.build([(0, i) for i in range(1, 10)])))
    assert main(["orbits", "--graph", star]) == 0
    assert json.loads(capsys.readouterr().out)["automorphisms"] == 362880
    lone = write(tmp_path, "lone.txt", format_edge_list(Graph.build(vertices=range(12))))
    assert main(["orbits", "--graph", lone, "--cap", "12"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "automorphisms": 479001600, "orbit_count": 1, "orbits": [[str(i) for i in range(12)]]}


def test_qi_check_modes(tmp_path, capsys):
    spath = write(tmp_path, "p9.txt", format_edge_list(path_graph(9)))
    tpath = write(tmp_path, "p5.txt", format_edge_list(path_graph(5)))
    mpath = write_json(tmp_path, "phi.json", {str(i): str(i // 2) for i in range(9)})
    assert main(["qi-check", "--source", spath, "--target", tpath, "--map", mpath]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["gamma"] == "1" and data["c"] == "4" and data["valid"] is True

    assert main([
        "qi-check", "--source", spath, "--target", tpath, "--map", mpath,
        "--gamma", "2", "--c", "1/2",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert main([
        "qi-check", "--source", spath, "--target", tpath, "--map", mpath,
        "--gamma", "2", "--c", "49/100",
    ]) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is False
    # One constant without the other is a usage error.
    assert main([
        "qi-check", "--source", spath, "--target", tpath, "--map", mpath, "--gamma", "2",
    ]) == 2


def test_fat_minor_command(tmp_path, capsys):
    hpath = write(tmp_path, "c8.txt", format_edge_list(cycle_graph(8)))
    ppath = write(tmp_path, "c4.txt", format_edge_list(cycle_graph(4)))
    assert main(["fat-minor", "--host", hpath, "--pattern", ppath, "--fatness", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "found" and data["model"]["branch_sets"]
    # Balls stop growing at the host's size, so a huge fatness returns at once.
    p2path = write(tmp_path, "p2.txt", format_edge_list(path_graph(2)))
    assert main(["fat-minor", "--host", hpath, "--pattern", p2path, "--fatness", str(10**12)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "not-found"

    gpath = write(tmp_path, "g.txt", format_edge_list(cycle_graph(30)))
    assert main([
        "fat-minor", "--host", gpath, "--pattern", ppath, "--fatness", "2", "--budget", "1",
    ]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "inconclusive"
    # A negative budget is bad input (exit 2), not an exhausted one (exit 3).
    assert main([
        "fat-minor", "--host", gpath, "--pattern", ppath, "--fatness", "2", "--budget", "-1",
    ]) == 2


def test_planarize_from_td(tmp_path, capsys):
    gpath, tdpath = two_k4_files(tmp_path)
    hout = str(tmp_path / "H.txt")
    assert main([
        "planarize", "--graph", gpath, "--td", tdpath, "--k", "2", "--h-out", hout,
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["report"]["passed"] is True
    assert data["report"]["bound"] == 4
    assert data["output"]["bounds"]["b1"] == 4
    h = parse_edge_list(Path(hout).read_text())
    assert len(h.vertices) == 3 and len(h.edges) == 2


def test_planarize_reads_markers_and_needs_td_and_k(tmp_path, capsys):
    """--markers takes comma-separated tokens (empty ones skipped) into the
    bundle; a marker that is no host vertex, or a missing --td or --k, exits 2."""
    gpath, tdpath = two_k4_files(tmp_path)
    assert main(["planarize", "--graph", gpath, "--td", tdpath, "--k", "2", "--markers", "0,,5"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["passed"] is True and report["marker_tolerance"] == 3
    assert main(["planarize", "--graph", gpath, "--td", tdpath, "--k", "2", "--markers", "0,9"]) == 2
    assert capsys.readouterr().err == "error: '9'\n"
    for args in (["--td", tdpath], ["--k", "2"]):
        assert main(["planarize", "--graph", gpath, *args]) == 2
        assert capsys.readouterr().err == "error: planarize needs --td and --k (or a full --bundle)\n"


def test_planarize_from_bundle_json(tmp_path, capsys):
    gpath, tdpath = two_k4_files(tmp_path)
    bundle = {"k": 2, "td": json.loads(Path(tdpath).read_text())}
    bpath = write_json(tmp_path, "bundle.json", bundle)
    assert main(["planarize", "--graph", gpath, "--bundle", bpath]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["passed"] is True
    # --bundle and --td together are contradictory.
    assert main(["planarize", "--graph", gpath, "--bundle", bpath, "--td", tdpath]) == 2


@pytest.mark.parametrize("text", [
    '{"k": 2, "td": ',                                              # malformed JSON
    '{"k": "x", "td": {"tree_edges": [], "parts": {"a": []}}}',     # k is not an integer
    '{"k": 2}',                                                     # no "td"
    '{"k": 2, "td": {"tree_edges": [], "parts": [[0, 1]]}}',        # "parts" is a list
    '{"k": 2, "td": {"tree_edges": [], "parts": {"a": [[0, [1]], {"x": 1}]}}}',  # unhashable member
    '{"k": 2, "td": {"tree_edges": [], "parts": {"a": [0, 1, 2, 3, 4, 5]}}, "markers": {"0": 1}}',
    '[1, 2]',
    '{"k": true, "td": {"tree_edges": [], "parts": {"a": [0, 1, 2, 3, 4, 5]}}}',      # true is not 1
    '{"k": 2.5, "td": {"tree_edges": [], "parts": {"a": [0, 1, 2, 3, 4, 5]}}}',
    '{"k": Infinity, "td": {"tree_edges": [], "parts": {"a": [0, 1, 2, 3, 4, 5]}}}',  # json reads it as inf
    '{"k": "2", "td": {"tree_edges": [], "parts": {"a": [0, 1, 2, 3, 4, 5]}}}',       # a string is no number
    '{"k": " 2 ", "td": {"tree_edges": [], "parts": {"a": [0, 1, 2, 3, 4, 5]}}}',
    '{"k": 2, "finite_threshold": "1_0", "td": {"tree_edges": [], "parts": {"a": [0, 1, 2, 3, 4, 5]}}}',
    # a sub-decomposition keyed by a node that is not in the tree
    '{"k": 2, "td": {"tree_edges": [], "parts": {"a": [0, 1, 2, 3, 4, 5]}},'
    ' "sub_tds": {"b": {"tree_edges": [], "parts": {"x": [0, 1, 2, 3, 4, 5]}}}}',
])
def test_malformed_bundle_exits_two(tmp_path, capsys, text):
    gpath, _ = two_k4_files(tmp_path)
    bpath = write(tmp_path, "bundle.json", text)
    assert main(["planarize", "--graph", gpath, "--bundle", bpath]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bundle_integers_may_be_integral_json_floats(tmp_path, capsys):
    gpath, tdpath = two_k4_files(tmp_path)
    bundle = {"k": 2.0, "finite_threshold": 8.0, "td": json.loads(Path(tdpath).read_text())}
    assert main(["planarize", "--graph", gpath, "--bundle", write_json(tmp_path, "bundle.json", bundle)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["passed"] is True


def test_qi_check_without_constants_matches_the_two_scan_path(tmp_path, capsys):
    rng = random.Random(50)
    for i in range(30):
        per_component = i % 3 == 0
        src_vs, src_es = oracles.random_graph(rng, rng.randint(1, 7), 0.4)
        tgt_vs, tgt_es = oracles.random_graph(rng, rng.randint(1, 5), 0.5)
        src, tgt = Graph.build(src_es, vertices=src_vs), Graph.build(tgt_es, vertices=tgt_vs)
        phi = {v: rng.choice(tgt_vs) for v in src_vs}
        args = ["qi-check", "--source", write(tmp_path, "s.txt", format_edge_list(src)),
                "--target", write(tmp_path, "t.txt", format_edge_list(tgt)),
                "--map", write_json(tmp_path, "phi.json", {str(k): str(v) for k, v in phi.items()})]
        try:
            tight = tightest_constants(src, tgt, phi, per_component=per_component)
        except GraphToolError:
            assert main(args) == 2
            continue
        code = main(args + ["--per-component"] * per_component)
        data = json.loads(capsys.readouterr().out)
        if tight is None:
            assert (code, data["ok"]) == (1, False)
            continue
        cert = make_certificate(src, tgt, phi, *tight, per_component=per_component)
        assert (code, data) == (0 if cert.valid else 1, json.loads(json.dumps(certificate_to_dict(cert))))


def test_bad_input_exits_two(tmp_path, capsys):
    gpath = write(tmp_path, "broken.txt", "a b\nx y z\n")
    assert main(["treewidth", "--graph", gpath]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert main(["treewidth", "--graph", str(tmp_path / "missing.txt")]) == 2
    # A file that is not UTF-8 text, and a directory, are bad input too.
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"0 \xe9\n")
    for path in (latin1, tmp_path):
        capsys.readouterr()
        assert main(["planarity", "--graph", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    """The JSON decoder recurses on nested arrays: 100,000 of them, read by any
    JSON-reading subcommand, end in a one-line ParseError, not a traceback."""
    gpath, _ = two_k4_files(tmp_path)
    deep = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    for args in (["validate-td", "--graph", gpath, "--td", deep],
                 ["torso", "--graph", gpath, "--node", "a", "--td", deep],
                 ["qi-check", "--source", gpath, "--target", gpath, "--map", deep],
                 ["planarize", "--graph", gpath, "--k", "2", "--td", deep],
                 ["planarize", "--graph", gpath, "--bundle", deep]):
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith(f"error: {deep}: not valid JSON") and err.count("\n") == 1, args


def test_json_integer_past_the_digit_limit_exits_two(tmp_path, capsys):
    """json.loads refuses an integer with more digits than Python's
    int-to-string limit with a plain ValueError: in a bundle's part, a
    decomposition's part or a map's image, it ends in a one-line ParseError."""
    gpath, _ = two_k4_files(tmp_path)
    with int_digit_limit() as limit:
        big = "1" * (limit + 1)
        td = '{"tree_edges": [["a", "b"]], "parts": {"a": [0, 1, 2, 3, %s], "b": [2, 3, 4, 5]}}' % big
        bundle = write(tmp_path, "bundle.json", '{"k": 2, "td": %s}' % td)
        tdpath = write(tmp_path, "td.json", td)
        phi = write(tmp_path, "phi.json", '{"0": %s, "1": 1, "2": 2, "3": 3, "4": 4, "5": 5}' % big)
        for path, args in ((bundle, ["planarize", "--graph", gpath, "--bundle", bundle]),
                           (tdpath, ["planarize", "--graph", gpath, "--k", "2", "--td", tdpath]),
                           (phi, ["qi-check", "--source", gpath, "--target", gpath, "--map", phi])):
            assert main(args) == 2, args
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: not valid JSON") and err.count("\n") == 1, args


def test_deeply_nested_vertices_exit_two(tmp_path, capsys):
    """An edge-list token nested 400 deep and a part member that is a JSON
    array nested 600 deep are refused with exit 2; at the depth limit both read."""
    def token(depth):
        return "(" * depth + "a" + ")" * depth

    def array(depth):
        v = "a"
        for _ in range(depth):
            v = [v]
        return v

    gpath = write(tmp_path, "deep.txt", f"0 {token(400)}\n")
    assert main(["treewidth", "--graph", gpath]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: vertex token nests deeper")
    host = write(tmp_path, "p.txt", "0 1\n")
    tdpath = write_json(tmp_path, "td.json", {"tree_edges": [], "parts": {"t": [0, 1, array(600)]}})
    assert main(["validate-td", "--graph", host, "--td", tdpath]) == 2
    assert capsys.readouterr().err.startswith("error: vertex array nests deeper")

    gpath = write(tmp_path, "limit.txt", f"0 {token(MAX_VERTEX_DEPTH)}\n")
    assert main(["treewidth", "--graph", gpath]) == 0
    assert json.loads(capsys.readouterr().out) == {"treewidth": 1}
    tdpath = write_json(tmp_path, "td.json", {"tree_edges": [], "parts": {"t": [0, array(MAX_VERTEX_DEPTH)]}})
    assert main(["validate-td", "--graph", gpath, "--td", tdpath]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_qi_check_map_shapes(tmp_path, capsys):
    """A map file must be a JSON object; an image may be an int or a token."""
    spath = write(tmp_path, "p3.txt", format_edge_list(path_graph(3)))
    tpath = write(tmp_path, "p2.txt", format_edge_list(path_graph(2)))

    def check(phi):
        return main(["qi-check", "--source", spath, "--target", tpath, "--map", write_json(tmp_path, "phi.json", phi)])

    for bad in ([["0", "0"]], {"phi": {"0": None, "1": 0, "2": 1}}):
        assert check(bad) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert check({"phi": {"0": "0", "1": "0", "2": "1"}}) == 0
    as_tokens = capsys.readouterr().out
    assert check({"phi": {"0": 0, "1": 0, "2": 1}}) == 0
    assert capsys.readouterr().out == as_tokens


def test_console_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "coarsegraph.cli", "gen", "--family", "complete", "--n", "4"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(coarsegraph.__file__)),  # finds the package without PYTHONPATH
    )
    assert out.returncode == 0
    assert len(parse_edge_list(out.stdout).edges) == 6


def test_planarize_runs_without_networkx(tmp_path):
    """The package has no runtime dependency: a fresh interpreter imports it
    and planarizes a corpus instance without loading networkx."""
    inst = corpus(DEFAULT_SEED)[0]
    gpath = write(tmp_path, "host.txt", format_edge_list(inst.bundle.host))
    bpath = write_json(tmp_path, "bundle.json", bundle_to_dict(inst.bundle))
    script = ("import sys, coarsegraph\n"
              "from coarsegraph.cli import main\n"
              f"code = main(['planarize', '--graph', {gpath!r}, '--bundle', {bpath!r}])\n"
              "print(code, 'networkx' in sys.modules, file=sys.stderr)\n")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(coarsegraph.__file__)),
    )
    assert out.stderr.split() == ["0", "False"]
    assert json.loads(out.stdout)["report"]["passed"] is True


def test_library_runs_with_networkx_unimportable():
    """With networkx made unimportable, a fresh interpreter on the sources
    builds and verifies one corpus instance of each torso class, finds a
    Kuratowski witness in K5 and computes an exact treewidth."""
    script = ("import sys\n"
              "sys.modules['networkx'] = None\n"
              "from coarsegraph.construction import build_H, verify_output\n"
              "from coarsegraph.corpus import DEFAULT_SEED, corpus\n"
              "from coarsegraph.generators import complete_graph, grid_graph\n"
              "from coarsegraph.planarity import is_planar\n"
              "from coarsegraph.treedecomp import exact_treewidth\n"
              "passed = {}\n"
              "for inst in corpus(DEFAULT_SEED):\n"
              "    out = build_H(inst.bundle)\n"
              "    kinds = set(out.evidence.classification.values()) - set(passed)\n"
              "    if kinds:\n"
              "        ok = verify_output(inst.bundle, out).passed\n"
              "        passed.update(dict.fromkeys(kinds, ok))\n"
              "print(sorted(passed.items()), is_planar(complete_graph(5)).witness is not None,\n"
              "      exact_treewidth(grid_graph(3, 4)))\n")
    src = os.path.dirname(os.path.dirname(coarsegraph.__file__))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[0] == (
        "[('bounded-treewidth', True), ('finite', True), ('planar', True)] True 3")


def test_importing_the_cli_generates_no_code():
    """No record is a dataclass, so a fresh ``import coarsegraph.cli`` loads
    neither ``dataclasses`` nor the ``inspect`` module it imports."""
    script = "import sys, coarsegraph.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(coarsegraph.__file__))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def _json_paths(node, path=()):
    """Every position in a decoded JSON value, as a tuple of keys and indices."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


_DROP = object()
_OTHER_JSON_VALUES = (None, True, 0, 2.5, float("inf"), "x", [], {}, [0, [1]], {"a": 0})


def _fuzz_bundle():
    inst = next(i for i in corpus(DEFAULT_SEED) if i.name == "pocket-3x4-marked")
    data = bundle_to_dict(inst.bundle)
    data["classification"] = {str(t): kind for t, kind in build_H(inst.bundle).evidence.classification.items()}
    return format_edge_list(inst.bundle.host), data


FUZZ_HOST, FUZZ_BUNDLE = _fuzz_bundle()
FUZZ_PATHS = list(_json_paths(FUZZ_BUNDLE))

# The fuzzes run every phase but explain, which reruns examples after shrinking and
# so delays a failure's report by seconds; what is generated and checked is the same.
FUZZ_PHASES = tuple(p for p in Phase if p is not Phase.explain)


# One failure is shrunk and reported, as in test_mutated_qi_map_never_raises below.
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          report_multiple_bugs=False, phases=FUZZ_PHASES)
@given(path=st.sampled_from(FUZZ_PATHS), value=st.sampled_from((_DROP,) + _OTHER_JSON_VALUES))
def test_mutated_bundle_never_exits_one(tmp_path, path, value):
    """Drop one key or element of a valid bundle, or swap one value for a value
    of another JSON type: planarize either succeeds or exits 2, never 1."""
    data = copy.deepcopy(FUZZ_BUNDLE)
    if not path:
        assume(value is not _DROP)
        data = value
    else:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            assume(_json_type(value) != _json_type(parent[path[-1]]))
            parent[path[-1]] = value
    gpath = write(tmp_path, "host.txt", FUZZ_HOST)
    bpath = write_json(tmp_path, "bundle.json", data)
    assert main(["planarize", "--graph", gpath, "--bundle", bpath]) in (0, 2)


# Tokens an edit may write besides the file's own: broken and empty tuples, a tuple
# that is no vertex token, ints that do not read back, a keyword, a NUL, a tuple
# nested past MAX_VERTEX_DEPTH, and a grid-style name.
_EDIT_TOKENS = ("(", "(|)", "((1))", "-0", "01", "True", "\x00", "(" * 150 + "0" + ")" * 150, "r,c")
_EDGE_LISTS = [(format_edge_list(i.bundle.host), td_to_dict(i.bundle.td)) for i in corpus(DEFAULT_SEED)]

# The report failures that ROADMAP items 1 and 11 leave open: a part joining host
# components, nested parts breaking the hub check, hubs making H non-planar, c > B.
_OPEN_FAILURE = re.compile(r"H connectivity does not match the host|\d+ adhesion hub\(s\) fail to separate "
                           r"their attachment sides|H is not planar|tightest c = \S+ exceeds B = .*")


@st.composite
def _mutated_edge_list(draw):
    """A corpus edge list, with its decomposition, after 1-3 edits: a token
    replaced, or a line inserted, deleted or extended by one token."""
    text, td = draw(st.sampled_from(_EDGE_LISTS))
    lines = text.splitlines()
    tokens = st.sampled_from(_EDIT_TOKENS + tuple(sorted({t for line in lines for t in line.split()})))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("replace", "insert", "delete", "extend")))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "insert" or i >= len(lines):
            lines.insert(i, " ".join(draw(st.lists(tokens, min_size=1, max_size=2))))
        elif edit == "delete":
            del lines[i]
        elif edit == "extend":
            lines[i] += " " + draw(tokens)
        else:
            toks = lines[i].split()
            toks[draw(st.integers(0, len(toks) - 1))] = draw(tokens)
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n", td


# One failure is shrunk and reported, as in test_mutated_qi_map_never_raises below.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          report_multiple_bugs=False, phases=FUZZ_PHASES)
@given(case=_mutated_edge_list())
def test_mutated_edge_list_never_raises(tmp_path, case):
    """No exception escapes ``treewidth`` or ``planarize --td --k 2`` on an
    edited corpus edge list, and each exits 0 or 2.  A ``planarize`` that
    exits 1 is recorded, not failed, while every failure in its report is one
    of those that ROADMAP items 1 and 11 leave open."""
    text, td = case
    gpath, tdpath, out = write(tmp_path, "host.txt", text), write_json(tmp_path, "td.json", td), tmp_path / "out.json"
    assert main(["treewidth", "--graph", gpath, "--out", str(out)]) in (0, 2)
    code = main(["planarize", "--graph", gpath, "--td", tdpath, "--k", "2", "--out", str(out)])
    if code == 1:
        failures = json.loads(out.read_text())["report"]["failures"]
        assert failures and all(_OPEN_FAILURE.fullmatch(f) for f in failures), failures
        event(f"planarize exit 1: {failures}")
    else:
        assert code in (0, 2)


@st.composite
def _mutated_td(draw):
    """A corpus edge list with its decomposition's JSON text after 1-3 edits:
    a value replaced or deleted, a value inserted into an array or object, or
    a key renamed, one time in eight anywhere, else below the top object; then,
    one time in eight, the text cut short."""
    text, td = draw(st.sampled_from(_EDGE_LISTS))
    root = [json.loads(json.dumps(td))]
    own = tuple(td["parts"]) + tuple(v for vs in td["parts"].values() for v in vs)
    values = st.sampled_from(JSON_EDIT_VALUES + own).map(copy.deepcopy)  # each edit writes a fresh value
    for _ in range(draw(st.integers(1, 3))):
        slots = json_slots(root)
        inner = [(c, k) for c, k in slots if c is not root and c is not root[0]]
        c, k = draw(st.sampled_from(inner if inner and draw(st.integers(0, 7)) else slots))
        edit = draw(st.sampled_from(("replace", "delete", "insert", "rename")))
        if edit == "replace" or c is root:
            c[k] = draw(values)
        elif edit == "delete":
            del c[k]
        elif isinstance(c, list):
            c.insert(k, draw(values))
        elif edit == "insert":
            c[str(draw(values))] = draw(values)
        else:
            c[str(draw(values))] = c.pop(k)
    data = json.dumps(root[0])
    if not draw(st.integers(0, 7)):
        data = data[:draw(st.integers(0, len(data)))]
    return text, data


# One failure is shrunk and reported, as in test_mutated_qi_map_never_raises below.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          report_multiple_bugs=False, phases=FUZZ_PHASES)
@given(case=_mutated_td())
def test_mutated_td_file_never_raises(tmp_path, case):
    """No exception escapes ``validate-td`` or ``planarize --td --k 2`` on a
    corpus host with an edited decomposition file, and each exits 0, 1 or 2.
    A ``planarize`` that exits 1 is recorded, not failed, while every failure
    in its report is one of those that ROADMAP items 1 and 11 leave open."""
    text, td = case
    gpath, tdpath, out = write(tmp_path, "host.txt", text), write(tmp_path, "td.json", td), tmp_path / "out.json"
    assert main(["validate-td", "--graph", gpath, "--td", tdpath, "--out", str(out)]) in (0, 1, 2)
    code = main(["planarize", "--graph", gpath, "--td", tdpath, "--k", "2", "--out", str(out)])
    if code == 1:
        failures = json.loads(out.read_text())["report"]["failures"]
        assert failures and all(_OPEN_FAILURE.fullmatch(f) for f in failures), failures
        event(f"planarize exit 1: {failures}")
    else:
        assert code in (0, 2)


@st.composite
def _edited_bundle(draw):
    """The pocket bundle's JSON after 1-3 ``edit_json`` edits, each writing a value of
    ``JSON_EDIT_VALUES`` or one of the bundle's own tree node and vertex tokens."""
    own = tuple(FUZZ_BUNDLE["td"]["parts"]) + tuple(v for vs in FUZZ_BUNDLE["td"]["parts"].values() for v in vs)
    root = [copy.deepcopy(FUZZ_BUNDLE)]
    edit_json(draw, root, st.sampled_from(JSON_EDIT_VALUES + own).map(copy.deepcopy), draw(st.integers(1, 3)))
    return root[0]


# One failure is shrunk and reported, as in test_mutated_qi_map_never_raises below.
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          report_multiple_bugs=False, phases=FUZZ_PHASES)
@given(data=_edited_bundle())
def test_edited_bundle_never_exits_one(tmp_path, data):
    """With lists, booleans, floats and deep arrays written where the bundle
    reader expects vertices, numbers and objects, ``planarize`` exits 0 or 2.
    An exit 1 is recorded, not failed, while every failure in its report is
    one of those that ROADMAP items 1 and 11 leave open."""
    gpath, bpath, out = write(tmp_path, "host.txt", FUZZ_HOST), write_json(tmp_path, "bundle.json", data), tmp_path / "out.json"
    code = main(["planarize", "--graph", gpath, "--bundle", bpath, "--out", str(out)])
    if code == 1:
        failures = json.loads(out.read_text())["report"]["failures"]
        assert failures and all(_OPEN_FAILURE.fullmatch(f) for f in failures), failures
        event(f"planarize exit 1: {failures}")
    else:
        assert code in (0, 2)


# (source, target, map) triples for qi-check: a map onto a shorter path, a rotation of a cycle and the transpose of
# a grid, the last two isomorphisms that are not the identity.
_QI_CASES = (
    (path_graph(9), path_graph(5), {str(i): str(i // 2) for i in range(9)}),
    (cycle_graph(6), cycle_graph(6), {str(i): str((i + 1) % 6) for i in range(6)}),
    (grid_graph(3, 3), grid_graph(3, 3), {f"{r},{c}": f"{c},{r}" for r in range(3) for c in range(3)}),
)
_QI_CONSTANT = st.sampled_from(("0", "-1", "x", "1/0", "nan", "inf", "1", "1/2", "3/2", "2"))


@st.composite
def _mutated_map(draw):
    """A qi-check case with its map's JSON text after 0-3 edits: a value
    replaced or deleted, or a value inserted into an array or object; the map
    sometimes under a ``"phi"`` key, and one time in eight the text cut short."""
    source, target, phi = draw(st.sampled_from(_QI_CASES))
    root = [{"phi": dict(phi)} if draw(st.booleans()) else dict(phi)]
    values = st.sampled_from(JSON_EDIT_VALUES + tuple(phi.values())).map(copy.deepcopy)
    edit_json(draw, root, values, draw(st.integers(0, 3)))
    data = json.dumps(root[0])
    if not draw(st.integers(0, 7)):
        data = data[:draw(st.integers(0, len(data)))]
    return source, target, data


# One failure is shrunk and reported: each raise site is a distinct bug to Hypothesis, and shrinking them all takes minutes.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
          report_multiple_bugs=False, phases=FUZZ_PHASES)
@given(case=_mutated_map(), constants=st.none() | st.tuples(_QI_CONSTANT, _QI_CONSTANT), per_component=st.booleans())
def test_mutated_qi_map_never_raises(tmp_path, case, constants, per_component):
    """No exception escapes ``qi-check`` on an edited map file, with or
    without ``--gamma`` and ``--c`` (strings that may be no constant), and it
    exits 0, 1 or 2; the exit code is recorded as a Hypothesis event."""
    source, target, data = case
    args = ["qi-check", "--source", write(tmp_path, "s.txt", format_edge_list(source)),
            "--target", write(tmp_path, "t.txt", format_edge_list(target)),
            "--map", write(tmp_path, "phi.json", data), "--out", str(tmp_path / "out.json")]
    if constants is not None:
        args += [f"--gamma={constants[0]}", f"--c={constants[1]}"]
    code = main(args + ["--per-component"] * per_component)
    event(f"qi-check exit {code}")
    assert code in (0, 1, 2)
