"""Tests of the benchmark itself: tiny operation lists, every metric named.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SEED = 3


def _named(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def test_metric_and_workload_lists_match_benchmark_json():
    assert _named(SPEC["end_to_end"]) == dict(run.END_TO_END)
    assert _named(SPEC["per_layer"]) == dict(tracing.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.PASS_SECONDS) == set(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_default_seed_is_the_corpus_default():
    assert run.DEFAULT_SEED == workloads.corpus_module.DEFAULT_SEED


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result = run.run_workload(workload, SEED, 1, trace=False, limit=4, setup_probes=1)
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 0, True)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run.run_workload(workload, SEED, 1, trace=True, limit=4)
    assert (result["attempted"], result["failed"], result["correct"]) == (8, 0, True)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(tracing.PER_LAYER)
    # The wrappers are gone afterwards, including construction's own binding.
    from coarsegraph import construction, graph, treedecomp
    assert construction.exact_treewidth is treedecomp.exact_treewidth
    assert not hasattr(treedecomp.exact_treewidth, "__wrapped__")
    assert not hasattr(graph.Graph.build, "__wrapped__")


def test_spans_nest_and_self_time_excludes_children():
    ops = workloads.make_ops("corpus", SEED, 1)[:2]
    tracer = tracing.Tracer()
    _, _, traced, failures = run.measure(ops, deadline=math.inf, tracer=tracer)
    assert not failures
    summary = tracer.summarise()
    build = summary["stats"][("ops", "construction.build_H")]
    assert build[0] == 2 and 0 < build[1] < build[2] <= sum(traced)
    assert summary["op_total_s"] == pytest.approx(sum(traced))
    assert 0 < summary["qi_total_s"] < summary["op_total_s"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_operation_of_each_kind_passes_its_check(workload):
    ops = workloads.make_ops(workload, SEED, 1)
    firsts = {}
    for op in ops:
        if workload == "planar-scale" and op.vertices > 100:
            continue
        firsts.setdefault(op.kind, op)
    for kind, op in firsts.items():
        assert op.check(op.call()) is None, kind


def test_checks_reject_wrong_answers():
    from coarsegraph.graph import Graph
    assert workloads._check_value(3, 4) is not None
    assert workloads._check_fac([frozenset({1}), frozenset({2}), frozenset({3})]) is not None
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    adj = workloads._adjacency(range(5), c5)
    seps = workloads._tight(Graph.build(c5), 2)
    assert workloads._check_tight(adj, 2, seps) is None
    assert workloads._check_tight(adj, 2, seps[1:]) is not None
    g = Graph.build(workloads._cycle(6))
    assert workloads._check_orbits(g, 1, 1, workloads._orbits_query(g)) is None
    assert workloads._check_orbits(g, 2, 1, workloads._orbits_query(g)) is not None
    probe = ({0: SimpleNamespace(status="found"), 1: SimpleNamespace(status="not-found")}, True)
    assert workloads._check_fat_probe(["found", "not-found"], probe) is None
    assert workloads._check_fat_probe(["found", "found"], probe) is not None
    assert workloads._check_fat_probe(["found", "inconclusive"], probe) is not None
    assert workloads._check_fat_probe(["inconclusive", "not-found"], probe) is None
    assert workloads._check_fat_probe(["found"], probe) is not None


def test_end_to_end_metrics_use_every_operation():
    latencies = [i / 1000 for i in range(1, 31)]
    values, rank = run.end_to_end(latencies, setup_s=0.5)
    assert rank == 20
    assert values["latency_tail_ms"] == pytest.approx(20)
    assert values["latency_p50_ms"] == pytest.approx(15.5)
    assert values["throughput_ops_s"] == pytest.approx(30 / sum(latencies))
    assert values["setup_s"] == 0.5


def test_tail_rank_keeps_ten_samples_beyond():
    assert run.tail_rank(66) == 56
    assert run.tail_rank(2864) == 2854
    assert run.tail_rank(4) == 2


def test_command_prints_every_metric_and_a_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", str(SEED), "--seconds", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for name, unit in run.END_TO_END:
        assert any(line.split()[0::2] == [name, unit] for line in lines[:-1] if len(line.split()) == 3)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
