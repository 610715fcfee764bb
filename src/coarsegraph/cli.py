"""Command-line pipeline.

Structured results are printed as JSON (to stdout, or to ``--out``); graph
outputs use the whitespace edge-list format, or DOT with ``--dot``.  Exit
codes: 0 on success, 1 when a verification-style check fails (invalid
tree-decomposition, failed certificate, unclean planarize report), 2 on bad
input, 3 when a fat-minor search is inconclusive under its budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fatminor, planarity, qi, symmetry
from .construction import (
    InstanceBundle,
    build_H,
    bundle_from_dict,
    output_to_dict,
    report_to_dict,
    verify_output,
)
from .errors import GraphToolError, ParseError
from .generators import _PARAMETERS, CAYLEY_PRESETS, FAMILIES, GeneratorSpec, generate
from .graph import (
    Graph,
    format_edge_list,
    parse_edge_list,
    parse_vertex_token,
    to_dot,
    vertex_from_json,
    vertex_token,
)
from .separations import enumerate_tight, separation_to_dict
from .symmetry import DEFAULT_AUTOMORPHISM_CAP
from .treedecomp import (
    DEFAULT_TREEWIDTH_CAP,
    exact_treewidth,
    td_from_dict,
    torso,
    validate,
)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _read_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _read_json(path: str):
    text = _read_text(path)  # outside the try: its ParseError is a ValueError too
    try:
        return json.loads(text)
    # The decoder recurses on nested arrays, and int() refuses an integer past the digit limit with a
    # plain ValueError, which JSONDecodeError subclasses.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, out: str | None) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=True, default=str) + "\n", out)


def _graph_text(g: Graph, dot: bool) -> str:
    return to_dot(g) if dot else format_edge_list(g)


def _parse_phi(data) -> dict:
    """A map file: ``{vertex token: image}``, bare or under a ``"phi"`` key."""
    if not isinstance(data, dict):
        raise ParseError("the map must be a JSON object")
    raw = data["phi"] if isinstance(data.get("phi"), dict) else data
    return {parse_vertex_token(k): vertex_from_json(v) for k, v in raw.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate_td(args) -> int:
    g = _read_graph(args.graph)
    td = td_from_dict(_read_json(args.td))
    rep = validate(g, td)
    _emit_json(rep._asdict(), args.out)
    return 0 if rep.ok else 1


def cmd_torso(args) -> int:
    g = _read_graph(args.graph)
    td = td_from_dict(_read_json(args.td))
    _emit(_graph_text(torso(g, td, parse_vertex_token(args.node)), args.dot), args.out)
    return 0


def cmd_treewidth(args) -> int:
    g = _read_graph(args.graph)
    _emit_json({"treewidth": exact_treewidth(g, cap=args.cap)}, args.out)
    return 0


def _witness_dict(w) -> dict | None:
    if w is None:
        return None
    return {
        "kind": w.kind,
        "branch_vertices": [vertex_token(v) for v in w.branch_vertices],
        "paths": [[vertex_token(v) for v in p] for p in w.paths],
    }


def cmd_planarity(args) -> int:
    g = _read_graph(args.graph)
    verdict = planarity.is_planar(g, witness_cap=args.witness_cap)
    _emit_json({"planar": verdict.planar, "witness": _witness_dict(verdict.witness)}, args.out)
    return 0


def cmd_tight_seps(args) -> int:
    g = _read_graph(args.graph)
    seps = enumerate_tight(g, args.order)
    _emit_json(
        {"order": args.order, "count": len(seps), "separations": [separation_to_dict(s) for s in seps]},
        args.out,
    )
    return 0


def cmd_orbits(args) -> int:
    g = _read_graph(args.graph)
    if args.edges:
        obs = [[[vertex_token(u), vertex_token(v)] for (u, v) in o] for o in symmetry.edge_orbits(g, args.cap)]
    else:
        obs = [[vertex_token(v) for v in o] for o in symmetry.vertex_orbits(g, args.cap)]
    _emit_json({"automorphisms": symmetry._group_order(g), "orbit_count": len(obs), "orbits": obs}, args.out)
    return 0


def cmd_qi_check(args) -> int:
    source = _read_graph(args.source)
    target = _read_graph(args.target)
    phi = _parse_phi(_read_json(args.map))
    if args.gamma is None and args.c is None:
        cert = qi.tightest_certificate(source, target, phi, per_component=args.per_component)
        if cert is None:
            _emit_json({"ok": False, "message": "no finite constants exist for this map"}, args.out)
            return 1
    elif args.gamma is None or args.c is None:
        raise GraphToolError("provide both --gamma and --c, or neither for the tightest constants")
    else:
        cert = qi.make_certificate(source, target, phi, args.gamma, args.c, per_component=args.per_component)
    _emit_json(qi.certificate_to_dict(cert), args.out)
    return 0 if cert.valid else 1


def cmd_fat_minor(args) -> int:
    host = _read_graph(args.host)
    pattern = _read_graph(args.pattern)
    outcome = fatminor.search_fat_minor(pattern, host, args.fatness, budget=args.budget)
    payload = {
        "status": outcome.status,
        "reason": outcome.reason,
        "nodes_used": outcome.nodes_used,
        "model": None if outcome.model is None else fatminor.model_to_dict(outcome.model),
    }
    _emit_json(payload, args.out)
    return 3 if outcome.status == "inconclusive" else 0


def cmd_planarize(args) -> int:
    host = _read_graph(args.graph)
    if args.bundle:
        if args.td or args.markers:
            raise GraphToolError("--bundle already carries the decomposition; drop --td/--markers")
        bundle = bundle_from_dict(_read_json(args.bundle), host)
    else:
        if not args.td or args.k is None:
            raise GraphToolError("planarize needs --td and --k (or a full --bundle)")
        markers = frozenset()
        if args.markers:
            markers = frozenset(parse_vertex_token(t) for t in args.markers.split(",") if t)
        bundle = InstanceBundle(host, td_from_dict(_read_json(args.td)), args.k, infinite_markers=markers)
    out = build_H(bundle)
    rep = verify_output(bundle, out)
    _emit_json({"output": output_to_dict(out), "report": report_to_dict(rep)}, args.out)
    if args.h_out:
        _emit(_graph_text(out.H, args.dot), args.h_out)
    return 0 if rep.passed else 1


def cmd_gen(args) -> int:
    params = {key: getattr(args, key) for key in _PARAMETERS if getattr(args, key) is not None}
    made = generate(GeneratorSpec(args.family, params))
    header = "".join(f"# marker: {tok}\n" for tok in sorted(map(vertex_token, made.markers)))
    if args.dot:
        _emit(_graph_text(made.graph, True), args.out)
    else:
        _emit(header + format_edge_list(made.graph), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsegraph",
        description="Structural toolbox: tree-decompositions, planarity, fat minors, "
        "quasi-isometry certificates, and the planar-quotient construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    graph = argparse.ArgumentParser(add_help=False, parents=[out])
    graph.add_argument("--graph", required=True)

    p = sub.add_parser("validate-td", parents=[graph], help="check the tree-decomposition axioms")
    p.add_argument("--td", required=True)
    p.set_defaults(func=cmd_validate_td)

    p = sub.add_parser("torso", parents=[graph], help="print the torso of one part")
    p.add_argument("--td", required=True)
    p.add_argument("--node", required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_torso)

    p = sub.add_parser("treewidth", parents=[graph], help="exact treewidth (small graphs)")
    p.add_argument("--cap", type=int, default=DEFAULT_TREEWIDTH_CAP)
    p.set_defaults(func=cmd_treewidth)

    p = sub.add_parser("planarity", parents=[graph], help="planarity verdict with a subdivision witness when small")
    p.add_argument("--witness-cap", type=int, default=planarity.WITNESS_CAP)
    p.set_defaults(func=cmd_planarity)

    p = sub.add_parser("tight-seps", parents=[graph], help="enumerate tight separations of one order")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_tight_seps)

    p = sub.add_parser("orbits", parents=[graph], help="automorphism orbits of vertices or edges")
    p.add_argument("--edges", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_AUTOMORPHISM_CAP)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("qi-check", parents=[out],
                       help="verify a quasi-isometry certificate, or compute the tightest one")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--gamma")
    p.add_argument("--c")
    p.add_argument("--per-component", action="store_true")
    p.set_defaults(func=cmd_qi_check)

    p = sub.add_parser("fat-minor", parents=[out], help="search for a K-fat minor model")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--fatness", type=int, required=True)
    p.add_argument("--budget", type=int, default=fatminor.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_fat_minor)

    p = sub.add_parser("planarize", parents=[graph], help="build H from a decomposed host and verify it")
    p.add_argument("--td")
    p.add_argument("--k", type=int)
    p.add_argument("--markers", help="comma-separated truncation-boundary vertices; a vertex whose token "
                   "holds a comma (a grid or Z2 ball vertex) must come through --bundle")
    p.add_argument("--bundle", help="full bundle JSON (decomposition, k, markers, pinned sub-decompositions)")
    p.add_argument("--h-out", help="also write H as a graph file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_planarize)

    p = sub.add_parser("gen", parents=[out], help=f"generate a test-family graph ({', '.join(FAMILIES)})")
    p.add_argument("--family", required=True, choices=FAMILIES)
    for key in _PARAMETERS:
        p.add_argument(f"--{key}", **({"choices": CAYLEY_PRESETS} if key == "preset" else {"type": int}))
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphToolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
