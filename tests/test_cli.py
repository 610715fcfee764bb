"""End-to-end command-line runs against temporary files."""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import coarsegraph
from coarsegraph.cli import main
from coarsegraph.construction import build_H, bundle_to_dict
from coarsegraph.corpus import DEFAULT_SEED, corpus
from coarsegraph.errors import GraphToolError
from coarsegraph.generators import cycle_graph, path_graph
from coarsegraph.graph import format_edge_list, parse_edge_list
from coarsegraph.treedecomp import td_to_dict, TreeDecomposition
from coarsegraph.graph import Graph
from coarsegraph.qi import certificate_to_dict, make_certificate, tightest_constants

import oracles


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


def test_orbits_command_searches_automorphisms_once(tmp_path, capsys, monkeypatch):
    """One search answers both the count and the orbits; the JSON is pinned
    (measured at 2ec775d, which searched twice)."""
    from coarsegraph import symmetry
    calls = []
    real = symmetry.automorphisms
    monkeypatch.setattr(symmetry, "automorphisms", lambda g, max_vertices: calls.append(g) or real(g, max_vertices))
    # A 4-cycle 1-a-(x|1)-2 with a pendant b at 1; the reflection swaps a and 2.
    gpath = write(tmp_path, "g.txt", "1 a\na (x|1)\n(x|1) 2\n2 1\n1 b\n")
    assert main(["orbits", "--graph", gpath]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "automorphisms": 2, "orbit_count": 4, "orbits": [["1"], ["2", "a"], ["b"], ["(x|1)"]]}
    assert main(["orbits", "--graph", gpath, "--edges"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "automorphisms": 2, "orbit_count": 3,
        "orbits": [[["1", "2"], ["1", "a"]], [["1", "b"]], [["2", "(x|1)"], ["a", "(x|1)"]]]}
    assert len(calls) == 2


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

    gpath = write(tmp_path, "g.txt", format_edge_list(cycle_graph(30)))
    assert main([
        "fat-minor", "--host", gpath, "--pattern", ppath, "--fatness", "2", "--budget", "1",
    ]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "inconclusive"


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
    # a sub-decomposition keyed by a node that is not in the tree
    '{"k": 2, "td": {"tree_edges": [], "parts": {"a": [0, 1, 2, 3, 4, 5]}},'
    ' "sub_tds": {"b": {"tree_edges": [], "parts": {"x": [0, 1, 2, 3, 4, 5]}}}}',
])
def test_malformed_bundle_exits_two(tmp_path, capsys, text):
    gpath, _ = two_k4_files(tmp_path)
    bpath = write(tmp_path, "bundle.json", text)
    assert main(["planarize", "--graph", gpath, "--bundle", bpath]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
              "    kinds = set(out.classification.values()) - set(passed)\n"
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
    data["classification"] = {str(t): kind for t, kind in build_H(inst.bundle).classification.items()}
    return format_edge_list(inst.bundle.host), data


FUZZ_HOST, FUZZ_BUNDLE = _fuzz_bundle()
FUZZ_PATHS = list(_json_paths(FUZZ_BUNDLE))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
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
