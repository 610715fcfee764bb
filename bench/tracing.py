"""Spans around the public functions of ``coarsegraph``, from outside the package.

The traced run wraps each function in ``TRACED`` in every ``coarsegraph``
namespace that binds it (``construction`` holds its own copy of
``exact_treewidth``, for instance), records one span per call, and restores
the originals afterwards.  A span has a name, start, end, parent span and
operation id; spans stay in memory until the run ends.  ``vertex_key`` and
``sort_vertices`` stay unwrapped: they run millions of times.

``LAYER_MAP`` says, before any measurement, which end-to-end metric each
per-layer metric should move on which workload, and where a function is
predicted never to run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from contextlib import contextmanager

TRACED = (
    "treedecomp.exact_treewidth",
    "treedecomp.torso",
    "treedecomp.heuristic_td",
    "treedecomp.edge_separation",
    "treedecomp.validate",
    "treedecomp.td_from_dict",
    "construction.treewidth_at_most",
    "construction.validate_bundle",
    "construction.classify_torsos",
    "construction.build_H",
    "construction.refine_planar_torso",
    "construction.verify_output",
    "construction.output_to_dict",
    "construction.bundle_from_dict",
    "qi.tightest_constants",
    "qi.make_certificate",
    "qi.qi_verify",
    "graph.distances_from",
    "graph.Graph.build",
    "graph.induced_subgraph",
    "graph.components",
    "graph.parse_edge_list",
    "separations.is_tight",
    "separations.fully_attached_components",
    "separations.enumerate_tight",
    "planarity.is_planar",
    "planarity.find_subdivision",
    "fatminor.search_fat_minor",
    "fatminor.asymptotic_probe",
    "fatminor.verify_fat_model",
    "symmetry.automorphisms",
    "generators.grid_graph",
    "generators.cayley_ball",
    "corpus.corpus",
)

# Functions that run while the inputs are generated; their metrics come from
# the set-up spans, every other metric from the spans inside operations.
SETUP_FUNCTIONS = ("generators.grid_graph", "generators.cayley_ball", "corpus.corpus")

SETUP_OP = -1    # operation id of spans recorded while inputs are generated
OUTSIDE_OP = -2  # operation id of spans outside any operation (checks)


def _calls_self(*names):
    return tuple(f"{n}.{m}" for n in names for m in ("calls", "self_s"))


def _self(*names):
    return tuple(f"{n}.self_s" for n in names)


# Each entry: the per-layer metrics, the end-to-end metric on the workload
# each should move, and the workloads where its functions should not run.
# Bases of the ratios: treedecomp.torso.calls_per_part divides by the parts
# of the outer decompositions of the pipeline operations;
# qi.bfs_per_source_vertex counts distances_from calls inside qi spans per
# host vertex of the pipeline operations; qi.op_time_share is the time in
# outermost qi spans over the time of all operations; fatminor.found_ratio is
# found outcomes over search_fat_minor calls.
LAYER_MAP = (
    {
        "metrics": _calls_self("treedecomp.exact_treewidth", "construction.treewidth_at_most"),
        "moves": ["throughput_ops_s on corpus", "latency_tail_ms on corpus",
                  "throughput_ops_s on toolbox (k >= 3 queries)"],
        "zero_calls_on": {"treedecomp.exact_treewidth": ["planar-scale"]},
    },
    {
        "metrics": _calls_self("treedecomp.torso") + ("treedecomp.torso.calls_per_part",),
        "moves": ["throughput_ops_s on corpus"],
    },
    {
        "metrics": _self("construction.validate_bundle", "construction.classify_torsos",
                         "construction.build_H", "construction.refine_planar_torso",
                         "construction.verify_output", "construction.output_to_dict",
                         "construction.bundle_from_dict")
        + ("construction.build_H.total_s", "construction.verify_output.total_s"),
        "moves": ["throughput_ops_s on planar-scale", "throughput_ops_s on corpus"],
    },
    {
        "metrics": _calls_self("treedecomp.heuristic_td", "treedecomp.edge_separation",
                               "treedecomp.validate", "treedecomp.td_from_dict",
                               "separations.is_tight"),
        "moves": ["throughput_ops_s on planar-scale"],
    },
    {
        "metrics": _calls_self("qi.tightest_constants", "qi.make_certificate", "qi.qi_verify")
        + ("qi.bfs_per_source_vertex", "qi.op_time_share"),
        "moves": ["throughput_ops_s on planar-scale", "latency_tail_ms on planar-scale",
                  "throughput_ops_s on corpus"],
        "zero_calls_on": {"qi.tightest_constants": ["toolbox"], "qi.make_certificate": ["toolbox"],
                          "qi.qi_verify": ["toolbox"]},
    },
    {
        "metrics": _calls_self("graph.distances_from", "graph.Graph.build", "graph.induced_subgraph",
                               "graph.components", "graph.parse_edge_list"),
        "moves": ["throughput_ops_s on toolbox (BFS reads)", "throughput_ops_s on planar-scale (graph construction)"],
    },
    {
        "metrics": _calls_self("separations.fully_attached_components", "separations.enumerate_tight"),
        "moves": ["throughput_ops_s on toolbox", "throughput_ops_s on planar-scale (refine_planar_torso)"],
    },
    {
        "metrics": _calls_self("planarity.is_planar", "planarity.find_subdivision"),
        "moves": ["throughput_ops_s on toolbox (find_subdivision only)"],
        "zero_calls_on": {"planarity.find_subdivision": ["corpus", "planar-scale"]},
    },
    {
        "metrics": _calls_self("fatminor.search_fat_minor", "fatminor.asymptotic_probe",
                               "fatminor.verify_fat_model")
        + ("fatminor.nodes_used", "fatminor.found_ratio"),
        "moves": ["throughput_ops_s on toolbox"],
    },
    {
        "metrics": _calls_self("symmetry.automorphisms"),
        "moves": ["throughput_ops_s on toolbox"],
    },
    {
        "metrics": _self(*SETUP_FUNCTIONS),
        "moves": ["setup_s on every workload"],
    },
    {
        "metrics": ("trace.untraced_throughput_ops_s", "trace.traced_throughput_ops_s", "trace.overhead_ratio"),
        "moves": [],
    },
)

_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "calls_per_part": "1/part",
    "bfs_per_source_vertex": "1/vertex",
    "op_time_share": "ratio",
    "nodes_used": "count",
    "found_ratio": "ratio",
    "untraced_throughput_ops_s": "1/s",
    "traced_throughput_ops_s": "1/s",
    "overhead_ratio": "ratio",
}

PER_LAYER = tuple((m, _UNITS[m.rsplit(".", 1)[1]]) for entry in LAYER_MAP for m in entry["metrics"])


class Tracer:
    """Records spans of the wrapped functions while installed.

    Create it after the package is imported: it binds the namespaces then.
    """

    def __init__(self):
        self.names = list(TRACED) + ["op"]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = SETUP_OP
        self.fat_found = 0
        self.fat_nodes = 0
        self._stack = [-1]
        self._bindings = self._bind()

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        stack = self._stack
        start, end = self.start, self.end
        clock = time.perf_counter
        observe = self._observe_search if name == "fatminor.search_fat_minor" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_search(self, outcome) -> None:
        self.fat_found += outcome.status == "found"
        self.fat_nodes += outcome.nodes_used

    def _bind(self) -> list:
        """(owner, attribute, original, wrapper) for every namespace that binds
        a traced function; ``Graph.build`` is a classmethod of ``Graph``."""
        modules = [m for n, m in sys.modules.items() if n == "coarsegraph" or n.startswith("coarsegraph.")]
        graph_cls = sys.modules["coarsegraph.graph"].Graph
        build = graph_cls.__dict__["build"]
        bindings = [(graph_cls, "build", build, classmethod(self._wrap("graph.Graph.build", build.__func__)))]
        for name in TRACED:
            if name == "graph.Graph.build":
                continue
            module, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"coarsegraph.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        bindings.append((mod, key, original, wrapper))
        return bindings

    def install(self) -> None:
        for owner, key, _original, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _wrapper in self._bindings:
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def open_op(self, i: int) -> None:
        self.op = i
        self._open(self.name_id["op"])

    def close_op(self, t0: float, t1: float) -> None:
        idx = self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1
        self.op = OUTSIDE_OP

    def summarise(self) -> dict:
        """Calls, self and inclusive time per function, plus the QI shares.

        Self time is a span's duration minus its direct children's durations;
        spans of one thread nest, so the children never overlap.
        """
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {(phase, name): [0, 0.0, 0.0] for phase in ("setup", "ops") for name in self.names}
        qi_ids = {self.name_id[x] for x in TRACED if x.startswith("qi.")}
        bfs_id = self.name_id["graph.distances_from"]
        in_qi = bytearray(n)
        qi_total = op_total = 0.0
        bfs_in_qi = 0
        for i in range(n):
            op = self.op_id[i]
            if op == OUTSIDE_OP:
                continue
            nid = self.span_name[i]
            dur = self.end[i] - self.start[i]
            s = stats[("setup" if op == SETUP_OP else "ops", self.names[nid])]
            s[0] += 1
            s[1] += dur - child[i]
            s[2] += dur
            p = self.parent[i]
            parent_in_qi = p >= 0 and in_qi[p]
            in_qi[i] = parent_in_qi or nid in qi_ids
            if nid in qi_ids and not parent_in_qi:
                qi_total += dur
            if nid == bfs_id and parent_in_qi:
                bfs_in_qi += 1
            if p < 0 and op >= 0:
                op_total += dur
        return {"stats": stats, "qi_total_s": qi_total, "bfs_in_qi": bfs_in_qi, "op_total_s": op_total}

    def write(self, path: str) -> None:
        """Write every span as CSV: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op_id[i]}\n")


def layer_metrics(tracer: Tracer, ops, untraced_s: float, traced_s: float) -> dict:
    """Every per-layer metric of PER_LAYER from one traced pass over ``ops``."""
    summary = tracer.summarise()
    stats = summary["stats"]
    values = {}
    for metric, _unit in PER_LAYER:
        name, kind = metric.rsplit(".", 1)
        if name in TRACED and kind in ("calls", "self_s", "total_s"):
            phase = "setup" if name in SETUP_FUNCTIONS else "ops"
            calls, self_s, total_s = stats[(phase, name)]
            values[metric] = {"calls": calls, "self_s": self_s, "total_s": total_s}[kind]
    parts = sum(op.parts for op in ops)
    base_vertices = sum(op.vertices for op in ops)
    searches = stats[("ops", "fatminor.search_fat_minor")][0]
    values.update({
        "treedecomp.torso.calls_per_part":
            stats[("ops", "treedecomp.torso")][0] / parts if parts else 0.0,
        "qi.bfs_per_source_vertex": summary["bfs_in_qi"] / base_vertices if base_vertices else 0.0,
        "qi.op_time_share": summary["qi_total_s"] / summary["op_total_s"] if summary["op_total_s"] else 0.0,
        "fatminor.nodes_used": tracer.fat_nodes,
        "fatminor.found_ratio": tracer.fat_found / searches if searches else 0.0,
        "trace.untraced_throughput_ops_s": len(ops) / untraced_s,
        "trace.traced_throughput_ops_s": len(ops) / traced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    })
    return values
