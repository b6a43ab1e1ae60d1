"""Every public function and class of the package has a caller outside the tests.

A module-level function or class of ``src/cardioct`` must be named in
the code of ``src/``, ``scripts/`` or ``perfbench/`` somewhere other
than its own definition: in another file, or elsewhere in its own
module.  Docstrings, comments and other strings do not count, nor do
imports or test files.  An entry point that only tests reach belongs in
``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cardioct"

# Public names kept without a caller, each with its reason.
ALLOWED = {
    "dual_norm": "perfbench/tracing.py looks it up by name as a span",
    "reduced_rhs_S": "perfbench/tracing.py looks it up by name as a span",
    "apriori_check": "an energy-estimate check of the theory, run by tier-1 tests",
    "regularity_monitor": "an energy-estimate check of the theory, run by tier-1 tests",
}


def _code_files():
    dirs = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")
    return sorted(p for d in dirs for p in d.rglob("*.py") if not p.name.startswith("test_"))


def _names_used(tree, skip=None):
    """Every name the code of ``tree`` reads, outside the node ``skip``."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _uncalled():
    """The public module-level functions and classes of the package that nothing names."""
    trees = {path: ast.parse(path.read_text()) for path in _code_files()}
    elsewhere = {path: _names_used(tree) for path, tree in trees.items()}
    uncalled = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        others = set().union(*(used for p, used in elsewhere.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in others and node.name not in _names_used(tree, skip=node):
                uncalled[node.name] = path.name
    return uncalled


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = _uncalled()
    assert {name: uncalled[name] for name in set(uncalled) - set(ALLOWED)} == {}
    # an entry whose name went or gained a caller is stale
    assert sorted(set(ALLOWED) - set(uncalled)) == []
