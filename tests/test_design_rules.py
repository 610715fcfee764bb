"""The design rules, each a test over one ``ast`` parse of every module of ``src/coarsegraph`` and
``tests``, listing each offence as ``path:line: …`` with the path from the repository root."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC, TESTS = ([p.relative_to(ROOT) for p in sorted((ROOT / d).glob("*.py"))] for d in ("src/coarsegraph", "tests"))
TREES = {p: ast.parse((ROOT / p).read_text(encoding="utf-8"), str(p)) for p in SRC + TESTS}
NODES = {p: list(ast.walk(tree)) for p, tree in TREES.items()}
# (node, alias) for each name an import statement of a module binds.
IMPORTS = {p: [(n, a) for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names]
           for p, nodes in NODES.items()}
# The names each module reads as a name, and those it reads as an attribute or imports from a module.
NAMES = {p: {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
         for p, nodes in NODES.items()}
OTHER_READS = {p: {n.attr for n in nodes if isinstance(n, ast.Attribute)}
               | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names} for p, nodes in NODES.items()}


def test_no_unused_import_in_src_and_tests():
    """A module of src/coarsegraph (the package's __init__ re-exports, so it is left out) or of tests reads
    every name it imports, so a test patch moved to another module leaves no import of the old one behind."""
    assert Path("src/coarsegraph/graph.py") in SRC and Path("tests/oracles.py") in TESTS
    unused = []
    for path in [p for p in SRC if p.name != "__init__.py"] + TESTS:
        imported = {(a.asname or a.name).split(".")[0]: n.lineno for n, a in IMPORTS[path]
                    if getattr(n, "module", None) != "__future__"}
        unused += [f"{path}:{line}: {name} is imported but never read" for name, line in imported.items()
                   if name not in NAMES[path]]
    assert not unused, "\n".join(unused)


def test_no_test_counts_calls_through_a_hand_written_lambda():
    """A test counts calls through helpers.calls, which finds the function wherever the package binds it, not through
    a lambda that records its arguments or a constant (nothing it records is computed by a call) and then calls a
    function with the lambda's own parameters unchanged, which counts only the one module it is patched into."""
    flagged = []
    for path in TESTS:
        for n in NODES[path]:
            if not (isinstance(n, ast.Lambda) and isinstance(n.body, ast.BoolOp) and isinstance(n.body.op, ast.Or)):
                continue
            record, *_, call = n.body.values
            params = [p.arg for p in n.args.args] + ([f"*{n.args.vararg.arg}"] if n.args.vararg else [])
            if (isinstance(record, ast.Call) and isinstance(record.func, ast.Attribute)
                    and record.func.attr in ("append", "update", "add", "extend")
                    and not any(isinstance(m, ast.Call) for a in record.args for m in ast.walk(a))
                    and isinstance(call, ast.Call) and not call.keywords and [ast.unparse(a) for a in call.args] == params):
                flagged.append(f"{path}:{n.lineno}: a lambda counts calls; use helpers.calls(monkeypatch, qualname)")
    assert not flagged, "\n".join(flagged)


def test_no_private_helper_that_nothing_in_src_reads():
    """Each module-level private name (_name, not a dunder) of src/coarsegraph is read somewhere in src/coarsegraph,
    as a name, an attribute or an import, so a helper that only tests reach, or one a deletion leaves behind, fails."""
    read = set().union(*(NAMES[p] | OTHER_READS[p] for p in SRC))
    unread = []
    for path in SRC:
        for node in TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{path}:{node.lineno}: {name} is defined but never read in src/coarsegraph" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not unread, "\n".join(unread)


def test_no_attribute_stored_on_anything_but_self_outside_graph_py():
    """Outside graph.py no module of src/coarsegraph stores an attribute on anything but self (an assignment, a del or
    a setattr/delattr call): a fact of a Graph is kept through graph.kept, not written into its slots from outside."""
    stores = []
    for path in [p for p in SRC if p.name != "graph.py"]:
        for n in NODES[path]:
            if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Load):
                target = n.value
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in ("setattr", "delattr") and n.args:
                target = n.args[0]
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == "self"):
                stores.append(f"{path}:{n.lineno}: an attribute is stored on {ast.unparse(target)}, not on self")
    assert not stores, "\n".join(stores)


def test_the_oracles_import_no_module_of_the_package():
    """tests/oracles.py computes from scratch, so a bug of the package cannot hide on both sides of a comparison."""
    path = Path("tests/oracles.py")
    found = [f"{path}:{n.lineno}: the oracles import {name}, a module of the package"
             for n, a in IMPORTS[path] for name in [getattr(n, "module", None) or a.name]
             if name.split(".")[0] == "coarsegraph"]
    assert not found, "\n".join(found)


def test_the_package_imports_only_itself_and_the_standard_library():
    """Every import in src/coarsegraph is relative or names a module of the standard library: the package
    has no runtime dependency."""
    found = [f"{path}:{n.lineno}: {name} is neither relative nor in the standard library"
             for path in SRC for n, a in IMPORTS[path] if not getattr(n, "level", 0)
             for name in [getattr(n, "module", None) or a.name] if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, "\n".join(found)
