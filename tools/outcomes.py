#!/usr/bin/env python3
"""Outcome diff between two revisions: what each named input gives at each.

    python3 tools/outcomes.py [--against REV]

REV defaults to HEAD~1, the parent.  HEAD and REV are each checked out in
their own ``git worktree`` under a temporary directory, and each runs the same
input sets on its own package in a fresh interpreter (``PYTHONHASHSEED``
inherited, else 0, on both sides).  For each set the tool prints both digests,
and for each input whose outcome moved, what moved: the pass or fail class,
c, B, |V(H)|, |E(H)|, the error, or only the bytes of the output.  It exits 0
iff no outcome moved, so ``--against HEAD`` checks that a run reproduces.

The input sets:
- ``corpus-<seed>``: every instance of ``corpus(seed)`` at the two seeds the
  committed corpus digests use;
- ``planar-scale``: the planar-scale benchmark's hosts (n×n grids, n = 7, 10,
  13, 17, and Z² balls of radius 4, 7, 11), each one part with its boundary
  markers;
- ``random-bundle`` and ``supplied-bundle``: ``random_bundle(Random(i))`` for
  i < 400 and ``supplied_bundle(Random(i))`` for i < 1,000, the draws the
  committed random-bundle digests pin;
- ``soundness-ledger``: the soundness ledger's 1,500 ``random_bundle`` draws on
  each of ``Random(5)`` and ``Random(11)``.

The last three import their makers from the revision's own ``tests/helpers.py``,
so the runner needs the ``test`` extra (``pip install ".[test]"``); a revision
whose helpers lack a maker runs the sets of the other, and each input of a set
run on one side only is listed as moved from or to "no such input".

An input's outcome is ``{name, output, report}`` (``output_to_dict``,
``report_to_dict``), or ``{name, error}`` with the error's type and text.  A
set's digest is the sha256 of the sorted-key JSON list of its outcomes, as the
committed digests are made, so a corpus set with no error reads as its digest
in ``tests/test_construction.py`` (the random sets' outcomes are not the
strings those tests hash, so their digests differ).  The tool itself uses the
standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Runs in the revision's worktree, on its package; uses only names both sides have had since the corpus digests.
RUNNER = r'''
import hashlib, json, random, sys
from coarsegraph.construction import InstanceBundle, build_H, output_to_dict, report_to_dict, verify_output
from coarsegraph.corpus import DEFAULT_SEED, corpus
from coarsegraph.generators import cayley_ball, grid_graph
from coarsegraph.graph import Graph
from coarsegraph.treedecomp import TreeDecomposition


def one_part(g, markers):
    td = TreeDecomposition(Graph.build((), ["t"]), {"t": g.vertices})
    return InstanceBundle(g, td, k=2, infinite_markers=frozenset(markers))


def planar_scale():
    for n in (7, 10, 13, 17):
        g = grid_graph(n, n)
        yield f"grid-{n}", one_part(g, (v for v in g.vertices if g.degree(v) < 4))
    for r in (4, 7, 11):
        ball = cayley_ball("integer-lattice-Z2", r)
        yield f"z2-{r}", one_part(ball.graph, ball.markers)


def outcome(name, bundle):
    try:
        out = build_H(bundle)
        return {"name": name, "output": output_to_dict(out), "report": report_to_dict(verify_output(bundle, out))}
    except Exception as exc:  # an error is an outcome like any other
        return {"name": name, "error": f"{type(exc).__name__}: {exc}"}


def summary(doc):
    if "error" in doc:
        return {"error": doc["error"]}
    out, rep = doc["output"], doc["report"]
    return {"class": "pass" if rep["passed"] else "fail", "c": rep["c"], "B": rep["bound"],
            "|V(H)|": len(out["provenance"]), "|E(H)|": len(out["h_edges"]),
            "bytes": hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()}


sets = {f"corpus-{seed}": [(inst.name, inst.bundle) for inst in corpus(seed)] for seed in (DEFAULT_SEED, 101)}
sets["planar-scale"] = list(planar_scale())
sys.path.insert(0, "tests")
try:
    import helpers
except ModuleNotFoundError as exc:
    if exc.name != "helpers":  # a missing test dependency, not a revision without tests/helpers.py
        raise
random_bundle, supplied_bundle = (getattr(sys.modules.get("helpers"), f, None) for f in ("random_bundle", "supplied_bundle"))
if random_bundle:
    sets["random-bundle"] = [(f"random_bundle(Random({i}))", random_bundle(random.Random(i))) for i in range(400)]
if supplied_bundle:
    sets["supplied-bundle"] = [(f"supplied_bundle(Random({i}))", supplied_bundle(random.Random(i))) for i in range(1000)]
if random_bundle:
    ledger = []
    for seed in (5, 11):
        rng = random.Random(seed)
        ledger += [(f"Random({seed}) draw {j}", random_bundle(rng)) for j in range(1500)]
    sets["soundness-ledger"] = ledger
result = {}
for name, inputs in sets.items():
    docs = [outcome(*inp) for inp in inputs]
    result[name] = {"digest": hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest(),
                    "inputs": {doc["name"]: summary(doc) for doc in docs}}
print(json.dumps(result))
'''


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def outcomes(rev: str, tmp: str) -> dict:
    """The runner's result on ``rev``, checked out in a worktree of its own that is removed after."""
    tree = os.path.join(tmp, rev)
    git("worktree", "add", "--detach", tree, rev)
    try:
        env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "0")}
        run = subprocess.run([sys.executable, "-c", RUNNER], cwd=tree, env=env, capture_output=True, text=True)
        if run.returncode != 0:
            raise SystemExit(f"the input sets did not run at {rev}:\n{run.stderr}")
        return json.loads(run.stdout)
    finally:
        git("worktree", "remove", "--force", tree)


def show(summary: dict) -> str:
    if not summary:
        return "no such input"
    return summary.get("error") or ", ".join(f"{k} {v}" for k, v in summary.items() if k != "bytes")


def moved(old: dict, new: dict) -> str:
    """What moved between two summaries of one input ({} where a side lacks it), or '' if nothing did."""
    if old.keys() != new.keys():  # an error on one side, or an input on one side only
        return f"{show(old)} -> {show(new)}"
    fields = [k for k in old if k != "bytes" and old[k] != new[k]]
    if fields:
        return ", ".join(f"{k} {old[k]} -> {new[k]}" for k in fields)
    return "output bytes" if old != new else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", default="HEAD~1", help="the revision HEAD is compared with (default: HEAD~1)")
    args = parser.parse_args(argv)
    os.chdir(git("rev-parse", "--show-toplevel"))
    head, base = (git("rev-parse", "--verify", f"{rev}^{{commit}}") for rev in ("HEAD", args.against))
    with tempfile.TemporaryDirectory() as tmp:
        new, old = outcomes(head, tmp), outcomes(base, tmp)
    print(f"HEAD {head[:10]} against {args.against} {base[:10]}")
    count = 0
    for name in dict.fromkeys([*old, *new]):
        a, b = old.get(name, {"digest": None, "inputs": {}}), new.get(name, {"digest": None, "inputs": {}})
        print(f"{name}: {len(b['inputs'])} inputs, digest {b['digest']} at HEAD, {a['digest']} at {args.against}")
        for inp in dict.fromkeys([*a["inputs"], *b["inputs"]]):
            what = moved(a["inputs"].get(inp, {}), b["inputs"].get(inp, {}))
            if what:
                count += 1
                print(f"  moved {inp}: {what}")
    print("no outcome moved" if count == 0 else f"{count} outcomes moved")
    return 0 if count == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
